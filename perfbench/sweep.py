"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10                 # every workload
    python3 perfbench/sweep.py --workloads pair-n64-file --seeds 1-5 --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Each (workload, seed) is one ``run.py`` process, run one after another.
For every metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median; an end-to-end metric whose spread is not below a third of its
bound is marked ``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = parser.parse_args()
    spec = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            runs.append(json.loads(lines[-1]))
            env = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("environment "))
            ok = ok and runs[-1]["correct"]
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        env.pop("seed")
        summary[workload] = {"environment": env, "seeds": args.seeds, "metrics": {}}
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            flag = ""
            if "bound" in m and name != "setup_s" and spread >= m["bound"] / 3:
                flag, ok = "  WIDE", False
            print(f"  {name:38s} median {median:12.6g} {m['unit']:7s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.2%}{flag}")
            summary[workload]["metrics"][name] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3, "values": values}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
