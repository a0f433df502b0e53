"""Set-up time: a cold process from its start to the first window fed.

``setup_times`` starts this file as a fresh interpreter once per sample.
The child imports the program, runs the workload's path (the CLI command,
or the live simulate -> StreamingExtractor loop) and stops at the first
``feed`` call, printing the monotonic clock there.  The parent reads the
same clock just before it starts the child, so each sample covers
interpreter start-up, imports, argument parsing, codec construction and
reading or simulating the first chunk.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time

_MARK = "first-window-fed-at "


class _Fed(Exception):
    pass


def setup_times(src: str, spec: dict, count: int) -> list[float]:
    out = []
    for _ in range(count):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, __file__, json.dumps({"src": src, **spec})],
                              capture_output=True, text=True, timeout=120)
        fed = [line for line in proc.stdout.splitlines() if line.startswith(_MARK)]
        if proc.returncode != 0 or not fed:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        out.append(float(fed[-1][len(_MARK):]) - start)
    return out


def _child(spec: dict) -> int:
    sys.path.insert(0, spec["src"])
    from timebinrng import cli, extractor, source_sim

    def stop(*args, **kwargs):
        raise _Fed(time.clock_gettime(time.CLOCK_MONOTONIC))

    extractor.StreamingExtractor.feed = stop
    extractor.StreamingMerger.feed = stop
    try:
        if "argv" in spec:
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(spec["argv"])
        else:
            live = spec["live"]
            model = source_sim.preset(live["scenario"])[0]
            ex = extractor.StreamingExtractor(live["block_len"])
            chunks = source_sim.iter_simulate(model, live["windows"], live["seed"],
                                              chunk_windows=live["chunk"])
            ex.feed(next(chunks))
    except _Fed as fed:
        print(f"{_MARK}{fed.args[0]!r}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(_child(json.loads(sys.argv[1])))
