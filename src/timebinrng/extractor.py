"""Detection-stream to random-bit extraction.

The stream of gate-window outcomes is cut into consecutive,
non-overlapping blocks of ``block_len`` windows.  Each block is reduced
to the positions of its avalanches, ranked to an integer f in
[0, C(n,k)), and f is emitted as a fixed-width bit fragment chosen by
the power-of-two subblock (Elias) expansion of C(n, k):

* k = 0 or k = n            -> no fragment (single-outcome block),
* f below the leading power -> f as a ``leading``-bit fragment,
* otherwise                 -> offset of f inside its subblock, at that
                               subblock's width; width-0 subblocks are
                               dropped.

Every fragment value is uniform over its width whenever all C(n,k)
position patterns are equally likely, which holds whenever the click
probability is constant within one block.  Nothing else about the
stream enters the output, so slow drift between blocks cannot bias it.

Fragments and bytes are packed most-significant-bit first.  The tests
check this codec against the brute-force encoder in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .combinatorics import MAX_BLOCK_LEN, binary_expansion, binomial
from .errors import DomainError

# largest block length served by the pattern lookup table; longer blocks
# use the per-k ranking path
_LUT_MAX = 16

MERGE_POLICIES = ("per-channel", "round-robin-block")


# ---------------------------------------------------------------------------
# domain types


@dataclass
class DetectionStream:
    """Ordered gate-window outcomes of one detector channel.

    ``windows`` is a 0/1 array, one entry per gate window, 1 meaning an
    avalanche fired in that window.
    """

    windows: np.ndarray
    channel_id: int = 0
    window_period: float = 1e-6  # seconds per gate window

    def __post_init__(self):
        self.windows = as_bit_array(self.windows)
        if self.channel_id < 0:
            raise DomainError(f"channel_id must be >= 0, got {self.channel_id}")
        if not self.window_period > 0:
            raise DomainError(f"window_period must be > 0, got {self.window_period}")

    def __len__(self) -> int:
        return len(self.windows)


@dataclass
class ExtractStats:
    windows_seen: int = 0
    blocks_scanned: int = 0
    blocks_discarded_k0_kn: int = 0
    fragments_discarded_alpha0: int = 0
    bits_emitted: int = 0

    def add(self, other: "ExtractStats") -> None:
        self.windows_seen += other.windows_seen
        self.blocks_scanned += other.blocks_scanned
        self.blocks_discarded_k0_kn += other.blocks_discarded_k0_kn
        self.fragments_discarded_alpha0 += other.fragments_discarded_alpha0
        self.bits_emitted += other.bits_emitted


@dataclass
class BitOutput:
    """Packed extractor output: MSB-first bytes plus the true bit count."""

    data: bytes
    total_bits: int
    stats: ExtractStats

    def bit_array(self) -> np.ndarray:
        """Unpacked 0/1 view of the output."""
        return unpack_bits(self.data, self.total_bits)

    def ascii_bits(self) -> str:
        return "".join("1" if b else "0" for b in self.bit_array())


# ---------------------------------------------------------------------------
# bit-level helpers


def as_bit_array(windows) -> np.ndarray:
    """Coerce to a 1-D uint8 array of 0/1 values."""
    arr = np.asarray(windows)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-D window sequence, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        if arr.size and arr.max() > 1:
            raise DomainError("window values must be 0 or 1")
        return arr
    if arr.dtype == np.bool_:
        return arr.view(np.uint8)
    out = (arr != 0).astype(np.uint8)
    return out


def fragments_to_bit_array(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand fragments to their MSB-first bit sequence, concatenated."""
    lengths = lengths.astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    offset = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    shift = np.repeat(lengths, lengths) - 1 - offset
    bits = (np.repeat(values.astype(np.int64, copy=False), lengths) >> shift) & 1
    return bits.astype(np.uint8)


def fold_words(bits: np.ndarray, width: int) -> np.ndarray:
    """Non-overlapping MSB-first ``width``-bit words (width <= 16) of a 0/1
    array; a partial tail is dropped."""
    n_words = bits.size // width
    rows = bits[: n_words * width].reshape(n_words, width)
    acc = rows[:, 0].astype(np.uint16)
    for j in range(1, width):
        acc = (acc << 1) | rows[:, j]
    return acc


def unpack_bits(data: bytes, total_bits: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    if total_bits > 8 * buf.size:
        raise DomainError(f"{total_bits} bits do not fit in {buf.size} bytes")
    return np.unpackbits(buf)[:total_bits]


class BitPacker:
    """Accumulates 0/1 arrays into an MSB-first packed byte string.

    Feeding the same bits in any chunking yields identical bytes.
    """

    def __init__(self):
        self._full: list[bytes] = []
        self._tail = np.zeros(0, dtype=np.uint8)  # < 8 pending bits
        self.bit_length = 0

    def add(self, bits: np.ndarray) -> None:
        if bits.size == 0:
            return
        self.bit_length += int(bits.size)
        pending = np.concatenate([self._tail, bits]) if self._tail.size else bits
        cut = (pending.size // 8) * 8
        if cut:
            self._full.append(np.packbits(pending[:cut]).tobytes())
        self._tail = pending[cut:]

    def add_fragments(self, values: np.ndarray, lengths: np.ndarray) -> None:
        self.add(fragments_to_bit_array(values, lengths))

    def getvalue(self) -> bytes:
        out = b"".join(self._full)
        if self._tail.size:
            out += np.packbits(self._tail).tobytes()
        return out


# ---------------------------------------------------------------------------
# vectorized block codec


class _BlockCodec:
    """Precomputed tables for encoding many blocks of one length at once."""

    def __init__(self, block_len: int):
        if not (2 <= block_len <= MAX_BLOCK_LEN):
            raise DomainError(
                f"block_len must be in [2, {MAX_BLOCK_LEN}], got {block_len}"
            )
        n = block_len
        self.n = n
        # choose[a, b] = C(a, b), zero where b > a; fits int64 for n <= 64
        choose = np.zeros((n + 1, n + 1), dtype=np.int64)
        for a in range(n + 1):
            for b in range(a + 1):
                choose[a, b] = binomial(a, b)
        self.choose = choose
        # per k: subblock start offsets (ascending) and widths (descending)
        self.thresholds: dict[int, np.ndarray] = {}
        self.widths: dict[int, np.ndarray] = {}
        for k in range(1, n):
            exps = binary_expansion(n, k).exponents
            sizes = np.array([1 << e for e in exps], dtype=np.int64)
            self.thresholds[k] = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            self.widths[k] = np.array(exps, dtype=np.int64)
        self._lut = self._build_lut() if n <= _LUT_MAX else None

    def _build_lut(self):
        n = self.n
        patterns = np.arange(1 << n, dtype=np.int64)
        windows = (
            (patterns[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
        ).astype(np.uint8)
        lengths, values, _, _ = self._encode_rows(windows)
        return values.astype(np.int64), lengths.astype(np.int8)

    def _encode_rows(self, rows: np.ndarray):
        """Encode a (M, n) 0/1 matrix.

        Returns per-row fragment lengths (-1 = k-discard, 0 = zero-width
        subblock discard), values, and the two discard counts.
        """
        n = self.n
        m_rows = rows.shape[0]
        lengths = np.full(m_rows, -1, dtype=np.int64)
        values = np.zeros(m_rows, dtype=np.int64)
        k_all = rows.sum(axis=1, dtype=np.int64)
        k_discards = int(np.count_nonzero((k_all == 0) | (k_all == n)))
        a0_discards = 0
        for k in range(1, n):
            sel = np.nonzero(k_all == k)[0]
            if sel.size == 0:
                continue
            _, cols = np.nonzero(rows[sel])
            cols = cols.reshape(sel.size, k)
            terms = self.choose[n - 1 - cols, (k - np.arange(k))[None, :]]
            f = terms.sum(axis=1)
            thr = self.thresholds[k]
            sub = np.searchsorted(thr, f, side="right") - 1
            w = self.widths[k][sub]
            lengths[sel] = w
            values[sel] = f - thr[sub]
            a0_discards += int(np.count_nonzero(w == 0))
        return lengths, values, k_discards, a0_discards

    def encode(self, windows: np.ndarray, base_block: int = 0):
        """Encode a window array whose length is a multiple of ``n``.

        Returns (values, lengths, block_index, stats) with discarded
        blocks removed from the fragment columns.
        """
        n = self.n
        n_blocks = windows.size // n
        stats = ExtractStats(windows_seen=int(windows.size), blocks_scanned=n_blocks)
        if n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.astype(np.uint8), empty, stats
        if self._lut is not None:
            patterns = fold_words(windows, n)
            lut_values, lut_lengths = self._lut
            lengths = lut_lengths[patterns].astype(np.int64)
            values = lut_values[patterns]
            stats.blocks_discarded_k0_kn = int(np.count_nonzero(lengths < 0))
            stats.fragments_discarded_alpha0 = int(np.count_nonzero(lengths == 0))
        else:
            rows = windows[: n_blocks * n].reshape(n_blocks, n)
            lengths, values, kd, a0 = self._encode_rows(rows)
            stats.blocks_discarded_k0_kn = kd
            stats.fragments_discarded_alpha0 = a0
        keep = lengths > 0
        block_idx = np.nonzero(keep)[0].astype(np.int64) + base_block
        out_lengths = lengths[keep].astype(np.uint8)
        out_values = values[keep]
        stats.bits_emitted = int(out_lengths.sum())
        return out_values, out_lengths, block_idx, stats


@lru_cache(maxsize=None)
def _codec(block_len: int) -> _BlockCodec:
    return _BlockCodec(block_len)


# ---------------------------------------------------------------------------
# extraction drivers


class StreamingMerger:
    """Chunked extraction of 1..k channels into one bit output.

    Every :meth:`feed` supplies one window chunk per channel.  Each
    channel carries its trailing partial block into the next feed, so
    the output does not depend on the chunking.  ``round-robin-block``
    orders fragments by (block index, channel position) and needs every
    feed to leave the channels at equal full-block counts;
    ``per-channel`` concatenates whole channels in order.  With one
    channel both policies give the plain block-order output.
    """

    def __init__(self, block_len: int, n_channels: int = 1, policy: str = "round-robin-block"):
        if policy not in MERGE_POLICIES:
            raise DomainError(f"unknown merge policy {policy!r}")
        if n_channels < 1:
            raise DomainError("need at least one channel")
        self._codec = _codec(block_len)
        self._remainders = [np.zeros(0, dtype=np.uint8) for _ in range(n_channels)]
        self._blocks_done = [0] * n_channels
        # per-channel merging keeps one packer per channel until finish()
        self._packers = [BitPacker() for _ in range(n_channels if policy == "per-channel" else 1)]
        self.stats = ExtractStats()

    @property
    def block_len(self) -> int:
        return self._codec.n

    def feed(self, per_channel_windows: Sequence[np.ndarray]) -> None:
        if len(per_channel_windows) != len(self._remainders):
            raise DomainError(
                f"expected {len(self._remainders)} channel chunks, got {len(per_channel_windows)}"
            )
        n = self._codec.n
        fragments = []
        for ch, win in enumerate(per_channel_windows):
            arr = as_bit_array(win)
            fed = int(arr.size)
            if self._remainders[ch].size:
                arr = np.concatenate([self._remainders[ch], arr])
            usable = (arr.size // n) * n
            values, lengths, blocks, stats = self._codec.encode(
                arr[:usable], base_block=self._blocks_done[ch]
            )
            stats.windows_seen = fed
            self.stats.add(stats)
            self._blocks_done[ch] += stats.blocks_scanned
            self._remainders[ch] = arr[usable:].copy()
            fragments.append((values, lengths, blocks))
        if len(self._packers) > 1:
            for packer, (values, lengths, _) in zip(self._packers, fragments):
                packer.add_fragments(values, lengths)
            return
        if len(fragments) == 1:
            self._packers[0].add_fragments(*fragments[0][:2])
            return
        if min(self._blocks_done) != max(self._blocks_done):
            raise DomainError("channel chunks must cover equal full-block counts")
        values, lengths, blocks = (np.concatenate(col) for col in zip(*fragments))
        # fragments arrive in channel order, so a stable sort on block index
        # yields (block, channel) order
        order = np.argsort(blocks, kind="stable")
        self._packers[0].add_fragments(values[order], lengths[order])

    def finish(self) -> BitOutput:
        """Close the stream; pending partial blocks are dropped."""
        packer, *rest = self._packers
        for p in rest:
            packer.add(unpack_bits(p.getvalue(), p.bit_length))
        return BitOutput(packer.getvalue(), packer.bit_length, self.stats)


class StreamingExtractor(StreamingMerger):
    """One-channel :class:`StreamingMerger` fed bare window arrays."""

    def __init__(self, block_len: int = 4):
        super().__init__(block_len)

    def feed(self, windows) -> None:
        super().feed([windows])


def merge_channels(
    streams: Sequence[DetectionStream], block_len: int = 4, policy: str = "round-robin-block"
) -> BitOutput:
    """One-shot extraction and merge of whole streams; see :class:`StreamingMerger`."""
    merger = StreamingMerger(block_len, len(streams), policy)
    merger.feed([s.windows for s in streams])
    return merger.finish()


def extract(stream: DetectionStream, block_len: int = 4) -> BitOutput:
    """One-shot extraction of a whole detection stream."""
    return merge_channels([stream], block_len)
