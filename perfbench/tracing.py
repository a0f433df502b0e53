"""Span tracing of the program's layers, done entirely from the benchmark.

The layer entry points are wrapped by patching module and class attributes,
private helpers and names the CLI imported by value included, only while a
traced pass runs.  Spans stay in memory as (name, start, end, parent, run id)
and are written out as JSON when the run ends.  A span's self time is its
duration minus that of its direct children; the root span of each pass is
``bench.pass``, so the self times of one pass add up to its traced wall time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from timebinrng import cli, efficiency, extractor, source_sim, streamio

ROOT = "bench.pass"
SPANS = (
    "source_sim.simulate",  # iter_simulate, per chunk: draws, time grid, threshold
    "source_sim.modulation",  # ModulationProfile.p_at
    "source_sim.afterpulse",  # _resolve_afterpulses
    "extractor.encode",  # _BlockCodec.encode
    "extractor.expand",  # fragments_to_bit_array
    "extractor.pack",  # BitPacker.add
    "extractor.feed",  # StreamingExtractor.feed
    "extractor.merge_feed",  # StreamingMerger.feed
    "streamio.read",  # iter_stream_windows, per chunk
    "streamio.write",  # StreamWriter.write
    "streamio.write_bit_output",
    "cli",  # cli.main: argument parsing, header re-reads, sidecar, manifest
    ROOT,
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self.run_id = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None, amount=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter:
                self.counts[self.run_id, counter] += amount(args, result)
            return result

        return traced

    def wrap_iter(self, fn, name, counter, amount):
        """Wrap a generator function: one span per item it yields."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self.counts[self.run_id, counter] += amount(item)
                yield item

        return traced

    def _patches(self):
        sim = self.wrap_iter(source_sim.iter_simulate, "source_sim.simulate",
                             "source_sim.simulate.windows", np.size)
        return [
            (source_sim, "iter_simulate", sim),
            (cli, "iter_simulate", sim),
            (efficiency.ModulationProfile, "p_at", "source_sim.modulation", None, None),
            (source_sim, "_resolve_afterpulses", "source_sim.afterpulse",
             "source_sim.afterpulse.calls", lambda args, result: 1),
            (extractor._BlockCodec, "encode", "extractor.encode",
             "extractor.encode.windows", lambda args, result: np.size(args[1])),
            (extractor, "fragments_to_bit_array", "extractor.expand",
             "extractor.expand.bits", lambda args, result: np.size(result)),
            (extractor.BitPacker, "add", "extractor.pack", None, None),
            (extractor.StreamingExtractor, "feed", "extractor.feed", None, None),
            (extractor.StreamingMerger, "feed", "extractor.merge_feed", None, None),
            (streamio, "iter_stream_windows",
             self.wrap_iter(streamio.iter_stream_windows, "streamio.read",
                            "streamio.read.bytes", lambda chunk: (np.size(chunk) + 7) // 8)),
            # payload bytes handed to the writer: windows / 8, rounded up per call
            (streamio.StreamWriter, "write", "streamio.write",
             "streamio.write.bytes", lambda args, result: (np.size(args[1]) + 7) // 8),
            (streamio, "write_bit_output", "streamio.write_bit_output", None, None),
            (cli, "main", "cli", None, None),
        ]

    @contextmanager
    def traced_pass(self, run_id: int):
        """Patch every layer, run one pass under a ``bench.pass`` span, restore."""
        self.run_id = run_id
        undo = []
        try:
            for owner, attr, *spec in self._patches():
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, spec[0] if len(spec) == 1 else self.wrap(original, *spec))
            root = self.begin(ROOT)
            try:
                yield
            finally:
                self.end(root)
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Run id -> span name -> summed self time, in seconds."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(SPANS, 0.0))
        for (name, start, end, parent, run), child in zip(self.spans, children):
            out[run][name] += end - start - child
        return out

    def walls(self) -> dict[int, float]:
        return {run: end - start for name, start, end, parent, run in self.spans if name == ROOT}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run"],
                                    "spans": self.spans}))


def layer_metrics(tracer: Tracer, untraced_walls: list[float], stats: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, exact counts per pass."""
    selfs, walls = tracer.self_times(), tracer.walls()
    runs = sorted(walls)

    def med(fn):
        return statistics.median(fn(run) for run in runs)

    def count(key):
        return med(lambda run: tracer.counts[run, key])

    def rate(span, key, unit):
        return med(lambda run: tracer.counts[run, key] / unit / selfs[run][span]
                   if selfs[run][span] else 0.0)

    m = {f"{span}.self_s": med(lambda run, span=span: selfs[run][span]) for span in SPANS}
    m.update({
        "source_sim.simulate.windows": count("source_sim.simulate.windows"),
        "source_sim.afterpulse.calls": count("source_sim.afterpulse.calls"),
        "extractor.encode.mwin_s": rate("extractor.encode", "extractor.encode.windows", 1e6),
        "extractor.expand.mbit_s": rate("extractor.expand", "extractor.expand.bits", 1e6),
        "streamio.read.bytes": count("streamio.read.bytes"),
        "streamio.write.bytes": count("streamio.write.bytes"),
        "trace.pass_wall_s": med(walls.get),
        "trace.overhead_ratio": med(walls.get) / statistics.median(untraced_walls) - 1.0,
    })
    # exact counts of one traced pass whose output passed its checks; zeros if none did
    stats = {key: stats.get(key, 0) for key in ("windows_seen", "blocks_scanned", "bits_emitted",
                                                "blocks_discarded_k0_kn", "fragments_discarded_alpha0")}
    scanned = stats["blocks_scanned"]
    emitting = scanned - stats["blocks_discarded_k0_kn"] - stats["fragments_discarded_alpha0"]
    m.update({
        "extractor.blocks_scanned": scanned,
        "extractor.blocks_discarded_k0_kn": stats["blocks_discarded_k0_kn"],
        "extractor.fragments_discarded_alpha0": stats["fragments_discarded_alpha0"],
        "extractor.bits_emitted": stats["bits_emitted"],
        "extractor.useful_block_ratio": emitting / scanned if scanned else 0.0,
        "extractor.bits_per_window": (stats["bits_emitted"] / stats["windows_seen"]
                                      if stats["windows_seen"] else 0.0),
    })
    return m
