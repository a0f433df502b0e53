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

One table-driven codec serves every n in 2..64 (see :class:`_BlockCodec`);
it reads blocks from the packed chunk, up to 16 windows per lookup for
n <= 16.  Neighbouring fragments are joined pairwise while the result
surely fits 64 bits, then ORed into big-endian 64-bit words, most
significant bit first.  The tests check this codec against the
brute-force encoder in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
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

_BATCH = 1 << 14  # queued fragments that start a packing pass


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


def unpack_bits(data: bytes, total_bits: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    if total_bits > 8 * buf.size:
        raise DomainError(f"{total_bits} bits do not fit in {buf.size} bytes")
    return np.unpackbits(buf)[:total_bits]


class BitPacker:
    """Accumulates (value, width) fragments into an MSB-first byte string.

    Fragments are ORed into big-endian 64-bit words at their bit offsets;
    fewer than 64 bits carry over to the next pass, so feeding the same
    fragments in any chunking yields identical bytes.  Calls are queued
    and packed together once ``_BATCH`` fragments wait, or when the
    bits are read, since each pass costs tens of microseconds however
    few fragments it packs.
    """

    def __init__(self):
        self._full: list[bytes] = []
        self._carry = np.uint64(0)  # the bit_length % 64 pending bits, left-aligned
        self._bits = 0  # packed so far
        self._queue: list[tuple[np.ndarray, np.ndarray]] = []
        self._queued = 0

    @property
    def bit_length(self) -> int:
        self._pack()
        return self._bits

    def add(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append fragments; each value must fit its width, 0..64 bits."""
        lengths = np.asarray(lengths).astype(np.int64)
        self._queue.append((np.asarray(values).astype(np.uint64), lengths))
        self._queued += lengths.size
        if self._queued >= _BATCH:
            self._pack()

    def _pack(self) -> None:
        if not self._queued:
            self._queue = []
            return
        values, lengths = (np.concatenate(column) for column in zip(*self._queue))
        self._queue, self._queued = [], 0
        pending = self._bits % 64
        ends = np.cumsum(lengths) + pending
        starts = ends - lengths
        offset = starts & 63
        # each value left-aligned in a word, then moved to its offset
        aligned = values << (64 - lengths).astype(np.uint64)
        total = int(ends[-1])
        words = np.zeros((total >> 6) + 1, dtype=np.uint64)  # the last one pending
        # no fragment outgrows a word, so each word up to the last start
        # holds a start; its pieces are disjoint, so their sum is their OR
        last = int(starts[-1]) >> 6
        first = np.searchsorted(starts, np.arange(0, 64 * last + 1, 64))
        words[: last + 1] = np.add.reduceat(aligned >> offset.astype(np.uint64), first)
        split = np.flatnonzero(offset + lengths > 64)
        words[(starts[split] >> 6) + 1] |= aligned[split] << (64 - offset[split]).astype(np.uint64)
        words[0] |= self._carry
        self._full.append(words[: total >> 6].astype(">u8").tobytes())
        self._carry = words[-1]
        self._bits += total - pending

    def extend(self, other: "BitPacker") -> None:
        """Append everything ``other`` holds, one word per fragment."""
        data = other.getvalue()
        words = np.frombuffer(data + bytes(-len(data) % 8), dtype=">u8").astype(np.uint64)
        lengths = np.full(words.size, 64)
        lengths[-1:] -= -other.bit_length % 64
        self.add(words >> (64 - lengths).astype(np.uint64), lengths)

    def getvalue(self) -> bytes:
        self._pack()
        tail = np.array([self._carry], dtype=">u8").tobytes()[: (self._bits % 64 + 7) // 8]
        return b"".join(self._full) + tail


# ---------------------------------------------------------------------------
# block codec

# avalanches in each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, dtype=np.intp)
# _POW2[e] = 2^(e-1), the least integer of bit length e (0 for e = 0)
_POW2 = np.array([0] + [1 << e for e in range(64)], dtype=np.uint64)
_LOW = np.maximum(_POW2, 1) - np.uint64(1)  # _LOW[e] = 2^(e-1) - 1, masks f mod 2^(e-1)
_SPAN = 16  # most windows per folded table index
_INTERLEAVE = 1 << 20  # windows per channel interleaved at a time


def _block_words(packed: np.ndarray, n: int, n_blocks: int) -> np.ndarray:
    """The n-window blocks of an MSB-first packed stream as left-aligned
    uint64 words; the bits after each block are those that follow it.

    Eight blocks fill n bytes, so block r of every eight starts at bit
    r*n % 8 of byte r*n // 8 of its n-byte row: one strided big-endian
    8-byte read and one shift, plus a ninth byte where bit + n > 64.
    """
    groups = -(-n_blocks // 8)
    if not groups:
        return np.zeros(0, dtype=np.uint64)
    buf = np.zeros(groups * n + 8, dtype=np.uint8)  # room for the last row's reads
    buf[: packed.size] = packed
    words = np.empty((groups, 8), dtype=np.uint64)
    for r in range(8):
        byte, bit = divmod(r * n, 8)
        col = np.ndarray(groups, ">u8", buf, byte, (n,)).astype(np.uint64)
        col <<= np.uint64(bit)
        if bit + n > 64:
            col |= buf[byte + 8 :: n][:groups] >> (8 - bit)
        words[:, r] = col
    return words.reshape(-1)[:n_blocks]


def _premerge(values: np.ndarray, widths: np.ndarray, levels: int):
    """Join neighbouring fragments pairwise, v1 << w2 | v2 and w1 + w2,
    ``levels`` times; zero-width padding fills the last pairs."""
    pad = -values.size % (1 << levels)
    if pad:
        values = np.concatenate((values, np.zeros(pad, values.dtype)))
        widths = np.concatenate((widths, np.zeros(pad, widths.dtype)))
    v, w = values.astype(np.uint64), widths.astype(np.uint64)
    for _ in range(levels):
        v = (v[0::2] << w[1::2]) | v[1::2]
        w = w[0::2] + w[1::2]
    return v, w


class _BlockCodec:
    """Rank tables for encoding many blocks of one length at once.

    The rank is additive over a block's bytes: byte c adds
    ``tables[c, byte, k_after]``, where k_after counts the avalanches in
    the later bytes.  The subblock is closed-form: the fragment width is
    bit_length(f XOR C(n, k)) - 1 and its value f mod 2^width.

    :meth:`encode` packs its windows once.  For n <= 16 the tables are
    folded at construction into one entry per pattern of 16 // n
    consecutive blocks, so one lookup encodes up to 16 windows; where n
    divides 16 the index is a 16-bit word of the packed bytes.  An entry
    holds the blocks' fragments concatenated, their summed width and
    their numbers of k- and width-0 discards.  For n > 16 the table
    sums run only on blocks that are neither empty nor full.
    ``levels`` is how often neighbouring fragments can be joined
    pairwise and still fit 64 bits.
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
        # float64 holds every f XOR C(n, k) exactly unless C(n, k) reaches 2^53
        self._rounds = int(self._cnk.max()) >= 1 << 53
        self._mask = ~np.uint64((1 << (64 - n)) - 1)  # the n leading bits of a word
        self._per = max(_SPAN // n, 1)  # blocks per table index or fragment
        self._folded = self._fold() if n <= 16 else None
        widest = self._per * (math.comb(n, n // 2).bit_length() - 1)  # of one fragment
        self.levels = (64 // widest).bit_length() - 1

    def _fold(self):
        """(values, widths, discards) per pattern of ``per`` blocks; the two
        bytes of a discards entry count its k- and its width-0 discards."""
        n = self.n
        values, widths = self._encode_words(np.arange(1 << n, dtype=np.uint64) << np.uint64(64 - n))
        values = values.astype(np.uint16)  # 13 bits at most, even concatenated
        fit = np.maximum(widths, 0).astype(np.uint16)
        discards = np.stack([widths < 0, widths == 0], axis=1).astype(np.uint8)
        value, width, count = values, fit, discards
        for _ in range(self._per - 1):  # one more block in the trailing bits
            value = ((value[:, None] << fit) | values).ravel()
            width = (width[:, None] + fit).ravel()
            count = (count[:, None] + discards).reshape(-1, 2)
        return value, width.astype(np.uint8), count.view(np.uint16).ravel()

    def _encode_words(self, words: np.ndarray):
        """(values, widths) of left-aligned block words by table sums."""
        block_bytes = words.astype(">u8").view(np.uint8).reshape(-1, 8)
        last = self._tables.shape[0] - 1
        byte = block_bytes[:, last].astype(np.intp)
        f = self._tables[last][byte * self._stride]  # no later bytes: k_after = 0
        k = _POPCOUNT[byte]
        for c in range(last - 1, -1, -1):
            byte = block_bytes[:, c].astype(np.intp)
            f += self._tables[c][byte * self._stride + k]
            k += _POPCOUNT[byte]
        # width = bit_length(f XOR C(n, k)) - 1, the bit length read from the
        # float exponent, which rounding may carry one too high
        x = f ^ self._cnk[k]
        length = np.frexp(x.astype(np.float64))[1]
        if self._rounds:
            length -= x < _POW2[length]
        return f & _LOW[length], (length - 1).astype(np.int8)

    def encode(self, windows: np.ndarray):
        """Encode a 0/1 window array whose length is a multiple of ``n``.

        Returns (values, widths, stats): fragments of 0..64 bits in
        block order, each covering one or more blocks; discarded blocks
        add no bits.  ``stats.windows_seen`` is left to the caller.
        """
        n, per = self.n, self._per
        n_blocks = windows.size // n
        packed = np.packbits(windows)
        if self._folded is None:
            words = _block_words(packed, n, n_blocks) & self._mask
            live = (words != 0) & (words != self._mask)  # k = 0 and k = n emit nothing
            if not live.all():
                words = words[live]
            values, widths = self._encode_words(words)
            k_discards = n_blocks - words.size
            alpha0 = int(np.count_nonzero(widths == 0))
        else:
            span = n * per
            n_index = -(-n_blocks // per)
            if span == _SPAN:
                packed = np.concatenate((packed, np.zeros(packed.size % 2, np.uint8)))
                index = packed.view(">u2").astype(np.intp)
            else:
                index = (_block_words(packed, span, n_index) >> np.uint64(64 - span)).astype(np.intp)
            table_values, table_widths, table_discards = self._folded
            values, widths = table_values[index], table_widths[index]
            discards = table_discards[index].view(np.uint8)
            # the last index's zero padding reads as k = 0 blocks
            k_discards = int(discards[0::2].sum()) - (per * n_index - n_blocks)
            alpha0 = int(discards[1::2].sum())
        stats = ExtractStats(
            blocks_scanned=n_blocks,
            blocks_discarded_k0_kn=k_discards,
            fragments_discarded_alpha0=alpha0,
            bits_emitted=int(widths.sum(dtype=np.int64)),
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
    orders blocks by (block index, channel position) and needs every
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
        # per-channel merging keeps one packer per channel until finish()
        self._packers = [BitPacker() for _ in range(n_channels if policy == "per-channel" else 1)]
        self.stats = ExtractStats()

    def feed(self, per_channel_windows: Sequence[np.ndarray]) -> None:
        if len(per_channel_windows) != len(self._remainders):
            raise DomainError(
                f"expected {len(self._remainders)} channel chunks, got {len(per_channel_windows)}"
            )
        n = self._codec.n
        chunks = [as_bit_array(win) for win in per_channel_windows]
        joined = [
            np.concatenate([rem, arr]) if rem.size else arr
            for rem, arr in zip(self._remainders, chunks)
        ]
        usable = [arr.size - arr.size % n for arr in joined]
        packers = self._packers
        round_robin = len(joined) > len(packers)
        if round_robin and len(set(usable)) > 1:  # before any state changes
            raise DomainError("channel chunks must cover equal full-block counts")
        self.stats.windows_seen += sum(arr.size for arr in chunks)
        self._remainders = [arr[u:].copy() for arr, u in zip(joined, usable)]
        streams = [arr[:u] for arr, u in zip(joined, usable)]
        if round_robin:
            # equal block counts: interleave into (block, channel) order, a
            # slice at a time so that the copy stays small
            rows = [s.reshape(-1, n) for s in streams]
            step = -(-_INTERLEAVE // n)
            streams = (
                np.stack([r[lo : lo + step] for r in rows], axis=1).reshape(-1)
                for lo in range(0, len(rows[0]), step)
            )
            packers = itertools.repeat(packers[0])
        for packer, arr in zip(packers, streams):
            values, widths, stats = self._codec.encode(arr)
            self.stats.add(stats)
            packer.add(*_premerge(values, widths, self._codec.levels))

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
