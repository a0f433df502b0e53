"""Benchmark workloads: cached inputs, one closed-loop pass, output records.

Every workload runs single-threaded in the benchmark's process.  A pass is
the closed loop's unit of work: the next pass starts only after the last
one returned.  The seed is the only source of the inputs; the program sees
the generated model, seed and files, never the benchmark's settings.

* ``drift-n4-live``: scenario ``a`` (sinusoidal p(t)) simulated in memory
  by ``iter_simulate`` and fed to ``StreamingExtractor(4)`` in 2^16-window
  chunks (65 ms of 1 MHz gating), like a live device.  The only workload
  that runs the modulation layer and the n <= 16 LUT encode.  One step is
  one ``next(iter_simulate)`` plus one ``feed``.
* ``pair-n64-file``: ``timebinrng extract -N 64 --merge round-robin-block``
  of a scenario ``b`` TIMEBIN1 pair at the CLI's default chunking.  The
  n > 16 per-k encode at high yield, the lexsort merge and stream I/O; it
  runs no simulation code, so a simulator change must not move it.  One
  step is one command.
* ``dark-afterpulse-n17``: ``timebinrng simulate --model-file`` writes one
  dark channel (p = 0.01 plus afterpulse taps 0.02, 0.01, 0.005), then
  ``timebinrng extract -N 17`` reads it back.  The afterpulse resolve under
  constant p (the modulation layer is bypassed), blocks that straddle
  bytes, and mostly k = 0 discards.  One step is the simulate + extract
  cycle, two operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from timebinrng import cli, extractor, source_sim

_TIMEBIN1 = struct.Struct("<8sQQQ")  # magic, window count, period ns, channel


@dataclass
class Output:
    """What one operation produced; ``data`` is None when it failed to run."""

    op: str
    data: bytes | None
    total_bits: int = 0
    stats: dict = field(default_factory=dict)
    error: str = ""


@dataclass
class Pass:
    wall_s: float
    windows: int  # input windows summed over channels
    steps_s: list[float]
    outputs: list[Output]


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in this process; returns "" or why it failed."""
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except Exception as exc:  # a raising command is a failed operation, not a crash
        return f"{type(exc).__name__}: {exc}"
    return "" if code == 0 else f"exit {code}: {log.getvalue()[-400:]}"


def read_output(op: str, path: Path, error: str, sidecar: bool = True) -> Output:
    """The file an operation wrote and, for bit files, the CLI's sidecar."""
    if error:
        return Output(op, None, error=error)
    try:
        data = path.read_bytes()
        if not sidecar:
            return Output(op, data)
        meta = json.loads(Path(str(path) + ".meta.json").read_text())
        return Output(op, data, int(meta["total_bits"]), meta["stats"])
    except (OSError, ValueError, KeyError) as exc:
        return Output(op, None, error=f"unreadable output: {exc}")


def cli_default_chunk() -> int:
    """The CLI's default ``--chunk-windows``, which the file workloads use."""
    return cli.build_parser().parse_args(["extract", "in", "--out", "out"]).chunk_windows


def read_stream_prefix(path: Path, n_windows: int) -> np.ndarray:
    """First windows of a TIMEBIN1 file, decoded without the program's reader."""
    with open(path, "rb") as fh:
        data = fh.read(_TIMEBIN1.size + (n_windows + 7) // 8)
    take = min(n_windows, _TIMEBIN1.unpack_from(data)[1])
    payload = np.frombuffer(data, np.uint8, (take + 7) // 8, _TIMEBIN1.size)
    return np.unpackbits(payload)[:take]


class Workload:
    name = ""
    block_len = 0
    channels = 1
    default_windows = 0

    def __init__(self, seed: int, work: Path, windows: int | None = None):
        self.seed = seed
        self.windows = windows or self.default_windows  # per channel, per pass
        self.cache = work / "cache" / f"{self.name}-s{seed}-w{self.windows}"
        self.out = work / "out" / self.name

    def prepare(self) -> None:
        """Make the inputs, outside every timed section, cached by
        (workload, seed, windows)."""
        self.out.mkdir(parents=True, exist_ok=True)
        if self.cache.is_dir():
            return
        tmp = self.cache.with_name(self.cache.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        self.generate(tmp)
        tmp.rename(self.cache)

    def generate(self, into: Path) -> None:
        pass

    def reset(self) -> None:
        """Drop the last pass's outputs so a failed command cannot leave a
        stale file behind for the check."""
        for path in self.out.iterdir():
            path.unlink()

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def input_prefix(self, p: Pass, n_windows: int) -> list[np.ndarray]:
        """The first ``n_windows`` windows of each channel's input."""
        raise NotImplementedError

    def probe(self) -> dict:
        """What a cold process runs up to its first ``feed`` (see probe.py)."""
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class DriftLive(Workload):
    name = "drift-n4-live"
    block_len = 4
    chunk = 1 << 16
    default_windows = 1 << 24

    def __init__(self, seed, work, windows=None):
        super().__init__(seed, work, windows)
        self.model = source_sim.preset("a")[0]

    def run_pass(self) -> Pass:
        steps = []
        start = time.perf_counter()
        try:
            ex = extractor.StreamingExtractor(self.block_len)
            chunks = source_sim.iter_simulate(
                self.model, self.windows, self.seed, chunk_windows=self.chunk
            )
            while True:
                t = time.perf_counter()
                chunk = next(chunks, None)
                if chunk is None:
                    break
                ex.feed(chunk)
                steps.append(time.perf_counter() - t)
            res = ex.finish()
            out = Output("extract", res.data, res.total_bits, asdict(res.stats))
        except Exception as exc:  # counted as a failed operation
            out = Output("extract", None, error=f"{type(exc).__name__}: {exc}")
        return Pass(time.perf_counter() - start, self.windows, steps, [out])

    def input_prefix(self, p, n_windows):
        return [next(source_sim.iter_simulate(self.model, n_windows, self.seed, chunk_windows=n_windows))]

    def probe(self):
        return {"live": {"scenario": "a", "block_len": self.block_len, "windows": self.windows,
                         "seed": self.seed, "chunk": self.chunk}}


class PairFile(Workload):
    name = "pair-n64-file"
    block_len = 64
    channels = 2
    default_windows = 10_000_005  # not a multiple of 8 or 64: padding and a dropped partial block

    def generate(self, into):
        error = run_cli(["simulate", "--scenario", "b", "--windows", str(self.windows),
                         "--seed", str(self.seed), "--out", str(into / "b.tbd1"),
                         "--chunk-windows", str(1 << 20)])
        if error:
            raise RuntimeError(f"input generation failed: {error}")

    def argv(self, out: Path) -> list[str]:
        inputs = [str(self.cache / f"b.ch{ch}.tbd1") for ch in range(self.channels)]
        return ["extract", *inputs, "-N", str(self.block_len),
                "--merge", "round-robin-block", "--out", str(out)]

    def run_pass(self) -> Pass:
        bits = self.out / "merged.bin"
        start = time.perf_counter()
        error = run_cli(self.argv(bits))
        wall = time.perf_counter() - start
        return Pass(wall, self.channels * self.windows, [wall],
                    [read_output("extract", bits, error)])

    def input_prefix(self, p, n_windows):
        return [read_stream_prefix(self.cache / f"b.ch{ch}.tbd1", n_windows)
                for ch in range(self.channels)]

    def probe(self):
        return {"argv": self.argv(self.out / "probe.bin")}


class DarkAfterpulse(Workload):
    name = "dark-afterpulse-n17"
    block_len = 17
    default_windows = 10_000_005

    def generate(self, into):
        # scenario c's dark-count channel (p = 0.01) with three afterpulse taps
        model = {"mean_photons": 0.0, "dark_rate": -math.log(0.99), "efficiency": 1.0,
                 "gate_frequency": 1e6, "afterpulse_taps": [0.02, 0.01, 0.005]}
        (into / "model.json").write_text(json.dumps({"channels": [model]}))

    def run_pass(self) -> Pass:
        stream, bits = self.out / "dark.tbd1", self.out / "dark.bin"
        start = time.perf_counter()
        sim_error = run_cli(["simulate", "--model-file", str(self.cache / "model.json"),
                             "--windows", str(self.windows), "--seed", str(self.seed),
                             "--out", str(stream)])
        ext_error = run_cli(self.argv(stream, bits))
        wall = time.perf_counter() - start
        return Pass(wall, self.windows, [wall], [read_output("simulate", stream, sim_error, False),
                                                 read_output("extract", bits, ext_error)])

    def argv(self, stream: Path, out: Path) -> list[str]:
        return ["extract", str(stream), "-N", str(self.block_len), "--out", str(out)]

    def input_prefix(self, p, n_windows):
        return [read_stream_prefix(self.out / "dark.tbd1", n_windows)]

    def probe(self):
        return {"argv": self.argv(self.out / "dark.tbd1", self.out / "probe.bin")}


WORKLOADS = {w.name: w for w in (DriftLive, PairFile, DarkAfterpulse)}
