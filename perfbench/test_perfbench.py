"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import tracing  # noqa: E402  (needs the checkout's sources on the path)
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"drift-n4-live": 200_003, "pair-n64-file": 100_005, "dark-afterpulse-n17": 100_005}
COUNTS = ("extractor.blocks_scanned", "extractor.blocks_discarded_k0_kn",
          "extractor.fragments_discarded_alpha0", "extractor.bits_emitted")


@pytest.fixture(autouse=True)
def scratch_work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def measure(name, trace=0, windows=None, seconds=0.05):
    return run.measure(name, 3, seconds, trace, windows=windows or TINY[name], probes=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_appears_with_its_unit(name, trace):
    result, record = measure(name, trace)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert record["environment"]["workload"] == name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_trace_counts_repeat_and_self_times_add_up(name, tmp_path):
    first, _ = measure(name, trace=1)
    second, _ = measure(name, trace=1)
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key]
    tracer = tracing.Tracer()
    tracer.spans = json.loads((tmp_path / "traces" / f"{name}-seed3.json").read_text())["spans"]
    selfs, walls = tracer.self_times(), tracer.walls()
    assert walls
    for run_id, wall in walls.items():
        assert sum(selfs[run_id].values()) == pytest.approx(wall, rel=1e-9)


def _corrupt(monkeypatch, name, flip):
    """Flip one byte of the extract output of the passes ``flip`` selects."""
    cls = workloads.WORKLOADS[name]
    original = cls.run_pass
    calls = []

    def run_pass(self):
        p = original(self)
        for out in p.outputs:
            if out.op == "extract" and out.data and flip(len(calls)):
                at = flip(len(calls))[0] % len(out.data)
                out.data = out.data[:at] + bytes([out.data[at] ^ 0x80]) + out.data[at + 1:]
        calls.append(p)
        return p

    monkeypatch.setattr(cls, "run_pass", run_pass)


@pytest.mark.parametrize("name", list(TINY))
def test_flipped_first_byte_fails_every_operation(name, monkeypatch):
    _corrupt(monkeypatch, name, lambda i: [0])
    result, record = measure(name)
    extracts = result["attempted"] // (2 if name == "dark-afterpulse-n17" else 1)
    assert result["correct"] is False
    assert result["failed"] == extracts
    assert result["metrics"]["ops_ok_ratio"]["value"] == 1 - extracts / result["attempted"]
    assert record["problems"]


def test_flipped_byte_past_the_oracle_prefix_is_caught_by_digest(monkeypatch):
    # 2^18 windows of n = 4 are 65,536 blocks, far past the 4,096-block prefix
    _corrupt(monkeypatch, "drift-n4-live", lambda i: [-1] if i == 1 else [])
    result, record = measure("drift-n4-live", windows=1 << 18, seconds=0.3)
    assert result["attempted"] >= 3
    assert result["failed"] == 1
    assert any("sha256" in p for p in record["problems"])


def test_no_result_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "drift-n4-live",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile():
    assert run.tail_percentile(5000) == 90.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(50) == 80.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(31) == 75.0
