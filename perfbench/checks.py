"""Output checks behind ``ops_ok_ratio``.

Every operation's output must pass, for any seed:

* the stats identities: ``blocks_scanned`` = windows // n per channel,
  ``windows_seen`` = windows, ``bits_emitted`` = the bit count, and a
  byte length of ceil(bits / 8) with zero padding;
* a prefix re-encoded block by block with the brute-force reference in
  ``tests/oracles.py`` (``naive_encode`` + ``pack_reference``), merged in
  (block, channel) order;
* the sha256 of the first output that passed, or, at the seed and window
  count pinned in ``digests.json``, the pinned sha256.

A simulated TIMEBIN1 stream must carry the right header, length and zero
padding instead of the first two.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import struct
from pathlib import Path

import numpy as np

PREFIX_BLOCKS = 4096  # per channel


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_pins(path: Path, workload) -> dict:
    """Pinned digests that apply to this workload's seed and window count."""
    pins = json.loads(path.read_text())
    entry = pins["workloads"].get(workload.name, {})
    if pins["seed"] != workload.seed or entry.get("windows") != workload.windows:
        return {}
    return entry["sha256"]


def reference_bits(oracles, n: int, channels: list[np.ndarray]) -> np.ndarray:
    """Brute-force encoding of whole blocks, merged in (block, channel) order."""
    rows = [ch.tolist() for ch in channels]
    blocks = min(len(r) for r in rows) // n
    frags = []
    for b in range(blocks):
        for r in rows:
            frag = oracles.naive_encode(n, r[b * n : (b + 1) * n])
            if frag is not None:
                frags.append(frag)
    data, nbits = oracles.pack_reference(frags)
    return np.unpackbits(np.frombuffer(data, np.uint8))[:nbits]


def _padding_ok(data: bytes, nbits: int) -> bool:
    spare = -nbits % 8
    return spare == 0 or data[-1] & ((1 << spare) - 1) == 0


class Checker:
    def __init__(self, workload, oracles, pins: dict):
        self.w = workload
        self.oracles = oracles
        self.pins = pins
        self.digests: dict[str, str] = {}  # op -> sha256 of the first output that passed
        self.reference: np.ndarray | None = None

    def check(self, p) -> list[str]:
        """One entry per operation of the pass: "" when it passed, else why not."""
        return [self._problem(p, out) for out in p.outputs]

    def _problem(self, p, out) -> str:
        if out.data is None:
            return out.error or "no output"
        problem = self._extract(p, out) if out.op == "extract" else self._stream(out)
        if problem:
            return problem
        digest = hashlib.sha256(out.data).hexdigest()
        expected = self.pins.get(out.op) or self.digests.setdefault(out.op, digest)
        return "" if digest == expected else f"{out.op} sha256 {digest} != {expected}"

    def _extract(self, p, out) -> str:
        w, s, nbits = self.w, out.stats, out.total_bits
        want = {"windows_seen": w.channels * w.windows,
                "blocks_scanned": w.channels * (w.windows // w.block_len),
                "bits_emitted": nbits}
        got = {k: s.get(k) for k in want}
        if got != want:
            return f"stats {got} != {want}"
        if len(out.data) != (nbits + 7) // 8 or not _padding_ok(out.data, nbits):
            return f"{len(out.data)} bytes do not hold exactly {nbits} bits"
        if self.reference is None:
            prefix = min(PREFIX_BLOCKS, w.windows // w.block_len) * w.block_len
            self.reference = reference_bits(self.oracles, w.block_len, w.input_prefix(p, prefix))
        ref = self.reference
        head = np.unpackbits(np.frombuffer(out.data, np.uint8, (ref.size + 7) // 8))[: ref.size]
        if nbits < ref.size or not np.array_equal(head, ref):
            return "output prefix differs from the brute-force reference"
        return ""

    def _stream(self, out) -> str:
        w, data = self.w, out.data
        if len(data) < 32:
            return f"{len(data)}-byte stream has no TIMEBIN1 header"
        magic, count, period_ns, channel = struct.unpack_from("<8sQQQ", data)
        if (magic, count, period_ns, channel) != (b"TIMEBIN1", w.windows, 1000, 0):
            return f"stream header {(magic, count, period_ns, channel)}"
        if len(data) != 32 + (count + 7) // 8 or not _padding_ok(data, count):
            return f"{len(data)}-byte stream does not hold exactly {count} windows"
        return ""
