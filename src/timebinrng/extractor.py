"""Detection-stream to random-bit extraction.

The stream of gate-window outcomes is cut into consecutive,
non-overlapping blocks of n = ``block_len`` windows.  A block with k
avalanches at 1-based positions p_1 < ... < p_k is ranked to
f = sum_j C(n - p_j, k - j + 1) in [0, C(n, k)), and f is emitted
through the power-of-two subblock (Elias) expansion of C(n, k): a rank
in the subblock of size 2^w becomes its offset there, a w-bit fragment.
Blocks with k = 0 or k = n and width-0 subblocks emit nothing.

Every fragment value is uniform over its width whenever all C(n,k)
position patterns are equally likely, which holds whenever the click
probability is constant within one block.  Nothing else about the
stream enters the output, so slow drift between blocks cannot bias it.

One table-driven codec serves every n in 2..64 (see :class:`_BlockCodec`).
Fragments are ORed into big-endian 64-bit words, most significant bit
first.  The tests check this codec against the brute-force encoder in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .combinatorics import MAX_BLOCK_LEN
from .errors import DomainError

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
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


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
    return (arr != 0).astype(np.uint8)


def fragments_to_bit_array(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand fragments to their MSB-first bit sequence, concatenated."""
    packer = BitPacker()
    packer.add(values, lengths)
    return unpack_bits(packer.getvalue(), packer.bit_length)


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
    """Accumulates (value, width) fragments into an MSB-first byte string.

    Fragments are ORed into big-endian 64-bit words at their bit offsets;
    fewer than 64 bits carry over to the next call, so feeding the same
    fragments in any chunking yields identical bytes.
    """

    def __init__(self):
        self._full: list[bytes] = []
        self._carry = np.uint64(0)  # the bit_length % 64 pending bits, left-aligned
        self.bit_length = 0

    def add(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append fragments; each value must fit its width, 1..64 bits."""
        lengths = np.asarray(lengths).astype(np.int64)
        if lengths.size == 0:
            return
        values = np.asarray(values).astype(np.uint64, copy=False)
        pending = self.bit_length % 64
        ends = np.cumsum(lengths) + pending
        starts = ends - lengths
        offset = starts & 63
        # each value left-aligned in a word, then moved to its offset
        aligned = values << (64 - lengths).astype(np.uint64)
        total = int(ends[-1])
        words = np.zeros((total + 63) >> 6, dtype=np.uint64)
        # no fragment outgrows a word, so each word up to the last start
        # holds a start; its pieces are disjoint, so their sum is their OR
        last = int(starts[-1]) >> 6
        first = np.searchsorted(starts, np.arange(0, 64 * last + 1, 64))
        words[: last + 1] = np.add.reduceat(aligned >> offset.astype(np.uint64), first)
        split = np.flatnonzero(offset + lengths > 64)
        words[(starts[split] >> 6) + 1] |= aligned[split] << (64 - offset[split]).astype(np.uint64)
        words[0] |= self._carry
        self._full.append(words[: total >> 6].astype(">u8").tobytes())
        self._carry = words[-1] if total & 63 else np.uint64(0)
        self.bit_length += total - pending

    def extend(self, other: "BitPacker") -> None:
        """Append everything ``other`` holds, one word per fragment."""
        data = other.getvalue()
        words = np.frombuffer(data + bytes(-len(data) % 8), dtype=">u8").astype(np.uint64)
        lengths = np.full(words.size, 64)
        lengths[-1:] -= -other.bit_length % 64
        self.add(words >> (64 - lengths).astype(np.uint64), lengths)

    def getvalue(self) -> bytes:
        tail = np.array([self._carry], dtype=">u8").tobytes()[: (self.bit_length % 64 + 7) // 8]
        return b"".join(self._full) + tail


# ---------------------------------------------------------------------------
# block codec

# avalanches in each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, dtype=np.intp)
# _POW2[e] = 2^(e-1), the least integer of bit length e (0 for e = 0)
_POW2 = np.array([0] + [1 << e for e in range(64)], dtype=np.uint64)


def _block_words(packed: np.ndarray, n: int, n_blocks: int) -> np.ndarray:
    """The n-window blocks of an MSB-first packed stream as left-aligned
    uint64 words, later bits zero.  Eight blocks fill n bytes, so block r
    of every eight starts at bit r*n of its n-byte row."""
    groups = -(-n_blocks // 8)
    pad = np.zeros(groups * n - packed.size, dtype=np.uint8)
    rows = np.concatenate([packed, pad]).reshape(groups, n)
    words = np.zeros((groups, 8), dtype=np.uint64)
    for r in range(8):
        byte, bit = divmod(r * n, 8)
        for j in range((bit + n + 7) // 8):
            col = rows[:, byte + j].astype(np.uint64)
            shift = 56 - 8 * j + bit
            words[:, r] |= col << np.uint64(shift) if shift >= 0 else col >> np.uint64(-shift)
    return words.reshape(-1)[:n_blocks] & ~np.uint64((1 << (64 - n)) - 1)


class _BlockCodec:
    """Rank tables for encoding many blocks of one length at once.

    The rank is additive over a block's bytes: byte c adds
    ``tables[c, byte, k_after]``, where k_after counts the avalanches in
    the later bytes.  The subblock is closed-form: the fragment width is
    bit_length(f XOR C(n, k)) - 1 and its value f mod 2^width.  For
    n <= 16 the tables are folded once into one entry per pattern.
    """

    def __init__(self, block_len: int):
        if not 2 <= block_len <= MAX_BLOCK_LEN:
            raise DomainError(f"block_len must be in [2, {MAX_BLOCK_LEN}], got {block_len}")
        n = self.n = block_len
        n_bytes = (n + 7) // 8
        # C(a, b) by Pascal's rule, zero for b > a; 9 columns at least for n < 8
        choose = np.zeros((n + 1, max(n, 8) + 1), dtype=np.uint64)
        choose[:, 0] = 1
        for a in range(1, n + 1):
            choose[a, 1:] = choose[a - 1, 1:] + choose[a - 1, :-1]
        # C(n, k), with 0 for the single-outcome k = 0 and k = n: their rank
        # 0 then has bit length 0, width -1
        self._cnk = choose[n, : n + 1].copy()
        self._cnk[[0, n]] = 0
        # grow the tables bit by bit from each byte's last window: a set bit at
        # position p adds C(n - p, avalanches from p on); later bytes hold <= n - 8
        k_after = np.arange(max(n - 8, 0) + 1)
        tables = np.zeros((n_bytes, 1, k_after.size), dtype=np.uint64)
        for bit in range(8):
            pos = 8 * np.arange(n_bytes) + 8 - bit
            counts = k_after + 1 + _POPCOUNT[: 1 << bit, None]
            term = choose[np.maximum(n - pos, 0)][:, counts] * (pos <= n)[:, None, None]
            tables = np.concatenate([tables, tables + term], axis=1)
        self._stride = k_after.size
        self._tables = tables.reshape(n_bytes, -1)  # index: byte * stride + k_after
        self._folded = None
        if n <= 16:  # few enough patterns to fold the tables into one entry each
            self._folded = self._encode_words(np.arange(1 << n, dtype=np.uint64) << 64 - n)

    def _encode_words(self, words: np.ndarray):
        """(values, widths) of left-aligned block words by table sums."""
        block_bytes = words.astype(">u8").view(np.uint8).reshape(-1, 8)
        f = np.zeros(words.size, dtype=np.uint64)
        k = np.zeros(words.size, dtype=np.intp)
        for c in range(self._tables.shape[0] - 1, -1, -1):
            byte = block_bytes[:, c].astype(np.intp)
            f += self._tables[c][byte * self._stride + k]
            k += _POPCOUNT[byte]
        # width = bit_length(f XOR C(n, k)) - 1, the bit length read from the
        # float exponent, which rounding may carry one too high
        x = f ^ self._cnk[k]
        length = np.frexp(x.astype(np.float64))[1]
        length -= x < _POW2[length]
        values = f & (np.maximum(_POW2[length], 1) - np.uint64(1))
        return values, (length - 1).astype(np.int8)

    def encode(self, windows: np.ndarray):
        """Encode a window array whose length is a multiple of ``n``.

        Returns (values, widths, stats), one entry per block; width -1
        marks a k = 0 or k = n discard and width 0 a width-0 subblock.
        """
        n = self.n
        n_blocks = windows.size // n
        if self._folded is None:
            values, widths = self._encode_words(_block_words(np.packbits(windows), n, n_blocks))
        else:
            pattern = fold_words(windows, n)
            values, widths = self._folded[0][pattern], self._folded[1][pattern]
        k_discards = int(np.count_nonzero(widths < 0))
        stats = ExtractStats(
            windows_seen=int(windows.size),
            blocks_scanned=n_blocks,
            blocks_discarded_k0_kn=k_discards,
            fragments_discarded_alpha0=int(np.count_nonzero(widths == 0)),
            # each k-discard's -1 cancels against its count
            bits_emitted=int(widths.sum(dtype=np.int64)) + k_discards,
        )
        return values, widths, stats


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
            values, widths, stats = self._codec.encode(arr[:usable])
            stats.windows_seen = fed
            self.stats.add(stats)
            self._blocks_done[ch] += stats.blocks_scanned
            self._remainders[ch] = arr[usable:].copy()
            fragments.append((values, widths))
        if len(fragments) > 1 and len(self._packers) == 1:
            if min(self._blocks_done) != max(self._blocks_done):
                raise DomainError("channel chunks must cover equal full-block counts")
            # equal block counts: interleave into (block, channel) order
            fragments = [tuple(np.stack(col, axis=1).reshape(-1) for col in zip(*fragments))]
        for packer, (values, widths) in zip(self._packers, fragments):
            keep = widths > 0
            packer.add(np.compress(keep, values), np.compress(keep, widths))

    def finish(self) -> BitOutput:
        """Close the stream; pending partial blocks are dropped."""
        packer, *rest = self._packers
        for p in rest:
            packer.extend(p)
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
