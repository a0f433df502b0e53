"""timebinrng benchmark: one workload, one seed, one timed run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drift-n4-live --seed 1 --seconds 30 --trace 0

It imports ``src/timebinrng`` and ``tests/oracles.py`` from the checkout
and exits nonzero, without a result, if either is missing.  Passes of the
workload (see workloads.py) repeat until their summed wall time reaches
``--seconds``, after one untimed warm-up pass; every operation's output,
the warm-up's too, is checked (see checks.py).  The timing metrics are
the slower quartile: throughput is the rate three passes in four reach,
``step_ms_p75`` the 75th percentile of step times.  On a shared host
whose speed jumps up for seconds at a time, such bursts pull a median
but not the slower quartile.  It prints the environment and every
metric by name with its unit, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: BENCHMARK.json's end-to-end metrics with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A traced run alternates
untraced and traced passes, so the two give the tracing overhead.
Inputs, outputs, traces and result records go under ``perfbench/.work``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numeric libraries on one thread, set before numpy loads

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 7


def load_program() -> None:
    """Put the checkout's own sources first on the import path."""
    missing = [p for p in ("src/timebinrng/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a timebinrng checkout: no {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples above it, capped at
    p90, above which a run's few host stalls of tens of ms decide the value.
    Under 40 samples that would fall below p75, which stands in."""
    return min(90.0, max(75.0, 100.0 * (1.0 - 10.0 / samples)))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout)"


def environment(w, seconds: float, trace: int) -> dict:
    import numpy as np
    from workloads import cli_default_chunk

    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _commit(), "threads": os.environ["OMP_NUM_THREADS"],
        "workload": w.name, "seed": w.seed, "seconds": seconds, "trace": trace,
        "channels": w.channels, "windows_per_channel": w.windows, "block_len": w.block_len,
        "chunk_windows": getattr(w, "chunk", None) or cli_default_chunk(),
    }


def measure(name: str, seed: int, seconds: float, trace: int,
            windows: int | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the full record."""
    import numpy as np

    import checks
    import probe
    import tracing
    import workloads

    w = workloads.WORKLOADS[name](seed, WORK, windows)
    w.prepare()
    checker = checks.Checker(w, checks.load_oracles(ROOT), checks.load_pins(HERE / "digests.json", w))
    tracer = tracing.Tracer() if trace else None
    passes, traced, problems, traced_stats = [], [], [], []
    busy = 0.0
    try:
        w.reset()
        problems += checker.check(w.run_pass())  # warm-up: checked, not timed
        while busy < seconds or not passes:
            for run_traced in (False, True) if tracer else (False,):
                w.reset()
                if run_traced:
                    with tracer.traced_pass(len(traced)):
                        p = w.run_pass()
                    traced.append(p)
                else:
                    p = w.run_pass()
                    passes.append(p)
                busy += p.wall_s
                found = checker.check(p)
                problems += found
                traced_stats += [o.stats for o, problem in zip(p.outputs, found)
                                 if run_traced and o.op == "extract" and not problem]
                p.outputs.clear()  # keep the timings, not every pass's output bytes
        setup = [] if trace else probe.setup_times(str(ROOT / "src"), w.probe(), probes)
    finally:
        w.cleanup()

    failed = sum(1 for problem in problems if problem)
    if trace:
        values = tracing.layer_metrics(tracer, [p.wall_s for p in passes],
                                       traced_stats[0] if traced_stats else {})
        tracer.dump(WORK / "traces" / f"{name}-seed{seed}.json")
    else:
        steps = np.array([s for p in passes for s in p.steps_s])
        tail = tail_percentile(steps.size)
        slow_pass = float(np.percentile([p.wall_s for p in passes], 75))
        values = {
            "throughput_mwin_s": passes[0].windows / slow_pass / 1e6,
            "step_ms_p75": 1e3 * float(np.percentile(steps, 75)),
            "step_ms_tail": 1e3 * float(np.percentile(steps, tail)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
            "ops_ok_ratio": (len(problems) - failed) / len(problems),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed, "metrics": metrics}
    record = {
        "environment": environment(w, seconds, trace),
        "passes": len(passes) + len(traced),
        "windows": sum(p.windows for p in passes + traced),
        "busy_s": busy,
        "pass_walls_s": [p.wall_s for p in passes],
        "steps": sum(len(p.steps_s) for p in passes),
        "step_tail_percentile": None if trace else tail,
        "setup_samples_s": setup,
        "problems": sorted({problem for problem in problems if problem}),
        **result,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: failed operation: {problem}", file=sys.stderr)
    print(f"environment {json.dumps(record['environment'])}")
    print(f"passes {record['passes']}, steps {record['steps']}, "
          f"step tail percentile {record['step_tail_percentile']}, record {out.relative_to(ROOT)}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
