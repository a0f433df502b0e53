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

Rows stay packed end to end: TIMEBIN1 payloads reach the codec as read,
window arrays are packed once, and partial blocks carry over as bits.  One
table-driven codec serves every n in 2..64 (see :class:`_BlockCodec`), up
to 16 windows per lookup for n <= 16.  Round-robin merging interleaves the
channels' blocks, not their windows: 64-bit block words for n > 16, n-bit
values for n <= 16.  Neighbouring fragments are joined pairwise while the
result surely fits 64 bits, then scatter-added, which ORs them, into
big-endian 64-bit words, most significant bit first.  The tests check this codec against the
brute-force encoder in ``tests/oracles.py``.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import sys
import tempfile
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
_LITTLE = sys.byteorder == "little"  # native words are byte-swapped to big-endian


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
    packer = BitPacker(kept := _Kept())
    # copies, since the packer may overwrite the arrays it is given
    packer.add(np.array(values, dtype=np.uint64), np.array(lengths, dtype=np.int64))
    packer.close()
    return unpack_bits(b"".join(kept), packer.bit_length)


def check_chunks(payloads: Sequence[np.ndarray], counts: Sequence[int]) -> list[int]:
    """The counts as ints, if each payload is a 1-D uint8 array that holds
    its count of MSB-first bits, as the chunk readers yield them."""
    try:  # numpy integers become ints, which join_packed's carry needs
        counts = [operator.index(c) for c in counts]
    except TypeError:
        raise DomainError(f"window counts must be integers, got {counts!r}") from None
    if len(counts) != len(payloads) or not all(
        isinstance(p, np.ndarray) and (p.dtype, p.ndim) == (np.uint8, 1) and 0 <= c <= 8 * p.size
        for p, c in zip(payloads, counts)
    ):
        raise DomainError("payloads must be 1-D uint8 arrays of ceil(count / 8) bytes or more")
    return counts


def join_packed(carry: tuple[int, int], payload: np.ndarray, usable: int, total: int):
    """Join the carried (value, width) bits and the payload's, ``total`` bits in all:
    the bytes of the first ``usable`` and the rest as the next carry; later bits drop."""
    (value, bits), row = carry, payload
    if bits:  # shifted by 3 array operations, unless the carry is whole bytes
        (lead, shift), head = divmod(bits, 8), (value << -bits % 8).to_bytes(-(-bits // 8), "big")
        row = np.zeros(lead + 1 + payload.size, dtype=np.uint8)
        row[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        row[lead : lead + payload.size] |= payload >> shift
        if shift:
            row[lead + 1 :] |= payload << (8 - shift)
    tail = int.from_bytes(row[usable // 8 : -(-total // 8)].tobytes(), "big") >> (-total % 8)
    return row[: -(-usable // 8)], (tail & ((1 << (total - usable)) - 1), total - usable)


class _Workspace:
    """Named arrays kept from one call to the next, so that a chunk-sized
    temporary is allocated once, not on every feed: ``work(name, size,
    dtype, room)`` is the first ``size`` entries of the array kept under
    that name and dtype, which grows, to ``room`` entries or more, only
    when it is too short.  Users whose arrays are never alive at the same
    time may share a slot by asking for the same name and dtype."""

    def __init__(self):
        self._arrays: dict[tuple[str, str], np.ndarray] = {}

    def __call__(self, name: str, size: int, dtype, room: int = 0) -> np.ndarray:
        key = name, np.dtype(dtype).str
        arr = self._arrays.get(key)
        if arr is None or arr.size < size:
            arr = self._arrays[key] = np.empty(max(size, room), dtype)
        return arr[:size]

    def clear(self) -> None:
        self._arrays.clear()


def unpack_bits(data: bytes, total_bits: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8)
    if total_bits > 8 * buf.size:
        raise DomainError(f"{total_bits} bits do not fit in {buf.size} bytes")
    return np.unpackbits(buf)[:total_bits]


class _Kept(list):
    """A sink that keeps what is written to it, uncopied, for ``b"".join``."""

    write = list.append


class BitPacker:
    """Packs (value, width) fragments into MSB-first bytes for ``sink.write``.

    Fragments are ORed into big-endian 64-bit words at their bit offsets;
    fewer than 64 bits carry over to the next pass, so feeding the same
    fragments in any chunking yields identical bytes.  One running sum
    of the widths gives each fragment's end.  No fragment outgrows a
    word, so it lands in two words at most: its last (end mod 64) bits
    go to the top of the word its end falls in, the rest to the bottom
    of the word before.  Pieces that share a word are disjoint, so a pass
    scatter-adds them into zeroed words (``np.add.at``), which ORs them.
    Calls are queued and packed together once ``_BATCH`` fragments wait,
    or when the bit count is read, since each pass costs tens of
    microseconds however few fragments it packs; a lone queued call is
    packed in its own arrays, several are joined first.

    Each pass hands its whole words, as one big-endian word array, to
    ``sink.write`` and keeps only the pending bits, which :meth:`close`
    writes, zero padded to a byte.  The sink may keep the word array as
    it is: the packer never writes to it again.
    """

    def __init__(self, sink, work=None):
        self._work = work or _Workspace()
        self._write = sink.write
        self._carry = np.uint64(0)  # the bit_length % 64 pending bits, left-aligned
        self._bits = 0  # packed so far
        self._queue: list[tuple[np.ndarray, np.ndarray]] = []
        self._queued = 0

    @property
    def bit_length(self) -> int:
        self._pack()
        return self._bits

    def add(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append fragments; each value must fit its width, 0..64 bits.

        The packer owns the arrays it is given: it reads them when the
        queue is packed and may overwrite them then, so the caller must
        neither change nor read them again."""
        lengths = np.asarray(lengths, dtype=np.int64)
        self._queue.append((np.asarray(values, dtype=np.uint64), lengths))
        self._queued += lengths.size
        if self._queued >= _BATCH:
            self._pack()

    def _pack(self) -> None:
        if not self._queued:
            self._queue = []
            return
        work, size = self._work, self._queued
        if len(self._queue) == 1:  # packed in place
            (values, lengths), = self._queue
        else:  # joined in the codec's slots, dead once its encode has returned
            queued_values, queued_lengths = zip(*self._queue)
            values = np.concatenate(queued_values, out=work("f", size, np.uint64))
            lengths = np.concatenate(queued_lengths, out=work("index", size, np.int64))
        self._queue, self._queued = [], 0
        pending = self._bits % 64
        lengths[0] += pending  # lengths are dead once summed
        ends = np.cumsum(lengths, out=work("K", size, np.int64))
        total = int(ends[-1])
        shift = np.bitwise_and(ends, 63, out=lengths).view(np.uint64)
        word = np.right_shift(ends, 6, out=ends)
        # no fragment outgrows a word: its low `shift` bits start its end's
        # word (two shifts: at shift 0 one would be 64), the rest end the
        # word before
        tail = np.left_shift(values, np.uint64(1), out=work("term", size, np.uint64))
        values >>= shift
        tail <<= np.subtract(np.uint64(63), shift, out=shift)
        # at their offsets the pieces in a word are disjoint, so adding them
        # ORs them; word j is words[j + 1]
        words = np.zeros((total >> 6) + 2, dtype=np.uint64)
        words[1] = self._carry
        np.add.at(words, word, values)
        np.add.at(words[1:], word, tail)
        self._carry = words[(total >> 6) + 1]
        full = words[1 : (total >> 6) + 1]
        if _LITTLE:
            full.byteswap(inplace=True)  # big-endian words, in place
        self._write(full)
        self._bits += total - pending

    def close(self) -> None:
        """Write the pending bits, zero padded, to the sink; nothing may be
        added after."""
        self._pack()
        self._write(int(self._carry).to_bytes(8, "big")[: (self._bits % 64 + 7) // 8])


# ---------------------------------------------------------------------------
# block codec

# avalanches in each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, dtype=np.intp)
# _POW2[e] = 2^(e-1), the least integer of bit length e (0 for e = 0)
_POW2 = np.array([0] + [1 << e for e in range(64)], dtype=np.uint64)
_SPAN = 16  # most windows per folded table index
_INTERLEAVE = 1 << 20  # windows per channel interleaved at a time
_SPILL_BLOCK = 1 << 18  # bytes of a spilled channel appended at a time, whole words


def _block_words(packed: np.ndarray, n: int, n_blocks: int, out=None) -> np.ndarray:
    """The n-window blocks of an MSB-first packed stream in the n leading
    bits of uint64 words, the first ``n_blocks`` entries of ``out`` (1-D,
    at least n_blocks rounded up to 8 long, of any stride) or of a new
    array; the bits after the blocks are not specified.

    Where 8 divides n, every block starts on a byte: one big-endian 8-byte
    read every n // 8 bytes, of the row itself unless the last reads run
    past it (n < 64).  Otherwise eight blocks fill n bytes, so block r of
    every eight starts at bit r*n % 8 of byte r*n // 8 of its n-byte row:
    one strided big-endian 8-byte read and one shift, plus a ninth byte
    where bit + n > 64.
    """
    groups = -(-n_blocks // 8)
    out = np.empty(8 * groups, dtype=np.uint64) if out is None else out
    if not n_blocks:
        return out[:0]
    if n % 8 == 0:
        end = (n_blocks - 1) * (n // 8) + 8  # where the last read ends
        if packed.size < end:
            packed = np.concatenate((packed, np.zeros(end - packed.size, np.uint8)))
        out[:n_blocks] = np.ndarray(n_blocks, ">u8", packed, 0, (n // 8,))
        return out[:n_blocks]
    buf = np.zeros(groups * n + 8, dtype=np.uint8)  # room for the last row's reads
    buf[: packed.size] = packed
    words = out[: 8 * groups].reshape(groups, 8)  # a view, whatever the stride
    for r in range(8):
        byte, bit = divmod(r * n, 8)
        col = np.ndarray(groups, ">u8", buf, byte, (n,)).astype(np.uint64)
        col <<= np.uint64(bit)
        if bit + n > 64:
            col |= buf[byte + 8 :: n][:groups] >> (8 - bit)
        words[:, r] = col
    return out[:n_blocks]


def _premerge(values: np.ndarray, widths: np.ndarray, levels: int):
    """Join neighbouring fragments pairwise, v1 << w2 | v2 and w1 + w2,
    ``levels`` times; zero-width padding fills the last pairs."""
    pad = -values.size % (1 << levels)
    if pad:
        values = np.concatenate((values, np.zeros(pad, values.dtype)))
        widths = np.concatenate((widths, np.zeros(pad, widths.dtype)))
    v, w = values.astype(np.uint64, copy=False), widths.astype(np.uint64)
    for _ in range(levels):
        v = (v[0::2] << w[1::2]) | v[1::2]
        w = w[0::2] + w[1::2]
    return v, w.view(np.int64)  # widths <= 64, the packer's length type


class _BlockCodec:
    """Rank tables for encoding many blocks of one length at once.

    The rank is additive over a block's bytes: byte c adds
    ``tables[c, 256 * k_after + byte]``, where k_after counts the
    avalanches in the later bytes.  For n > 16 each block keeps
    K = 256 * k_after through the byte-column loop, from its last byte to
    its first, so one add, K + byte, indexes both the column's table and
    ``_next``, one table for all columns that holds the next column's K,
    256 * (k_after + popcount(byte)): a column costs one add and two
    gathers (the last column, at K = 0, only its two gathers), and
    k = K >> 8 at the end.  The subblock is closed-form: the
    fragment width is bit_length(f XOR C(n, k)) - 1 and its value
    f mod 2^width.

    :meth:`encode` packs its windows once, each channel on its own.  For
    n <= 16 the tables are folded at construction into one entry per
    pattern of 16 // n consecutive blocks, so one lookup encodes up to 16
    windows; where n divides 16 a channel's index is a 16-bit word of its
    packed bytes, and several channels' indices are split into blocks,
    interleaved and joined again.  An entry holds the blocks' fragments
    concatenated, their summed width and their numbers of k- and width-0
    discards.  For n > 16 the table sums run only on blocks that are
    neither empty nor full.
    ``levels`` is how often neighbouring fragments can be joined
    pairwise and still fit 64 bits.
    """

    def __init__(self, block_len: int):
        if not 2 <= block_len <= MAX_BLOCK_LEN:
            raise DomainError(f"block_len must be in [2, {MAX_BLOCK_LEN}], got {block_len}")
        n = self.n = block_len
        n_bytes = (n + 7) // 8
        # C(a, b), zero for b > a; 9 columns at least for n < 8
        choose = np.array(
            [[math.comb(a, b) for b in range(max(n, 8) + 1)] for a in range(n + 1)], dtype=np.uint64
        )
        # C(n, k), with 0 for the single-outcome k = 0 and k = n: their rank
        # 0 then has bit length 0, width -1
        self._cnk = choose[n, : n + 1].copy()
        self._cnk[[0, n]] = 0
        # grow the tables bit by bit from each byte's last window: a set bit at
        # position p adds C(n - p, avalanches from p on); later bytes hold <= n - 8
        k_after = np.arange(max(n - 8, 0) + 1)
        tables = np.zeros((n_bytes, k_after.size, 1), dtype=np.uint64)
        for bit in range(8):
            pos = 8 * np.arange(n_bytes) + 8 - bit
            counts = k_after[:, None] + 1 + _POPCOUNT[: 1 << bit]
            term = choose[np.maximum(n - pos, 0)][:, counts] * (pos <= n)[:, None, None]
            tables = np.concatenate([tables, tables + term], axis=2)
        self._tables = tables.reshape(n_bytes, -1)  # index: 256 * k_after + byte
        self._next = (256 * (k_after[:, None] + _POPCOUNT)).ravel()  # the next byte's 256 * k_after
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

    def _encode_words(self, words: np.ndarray, work=None, room: int = 0):
        """(values, widths) of left-aligned block words by table sums; the
        byte-column loop and the subblock run in ``work``'s arrays (see
        :class:`_Workspace`), at least ``room`` long."""
        work = work or _Workspace()
        size = words.size
        block_bytes = words.view(np.uint8).reshape(-1, 8)
        block_bytes = block_bytes[:, ::-1] if _LITTLE else block_bytes  # most significant first
        index, term = work("index", size, np.intp, room), work("term", size, np.uint64, room)
        f, K = work("f", size, np.uint64, room), work("K", size, np.intp, room)  # K = 256 * k_after
        last = self._tables.shape[0] - 1
        index[...] = block_bytes[:, last]  # k_after = 0
        self._tables[last].take(index, out=f, mode="clip")
        self._next.take(index, out=K, mode="clip")
        for c in range(last - 1, -1, -1):
            np.add(K, block_bytes[:, c], out=index)
            f += self._tables[c].take(index, out=term, mode="clip")
            self._next.take(index, out=K, mode="clip")
        # width = bit_length(f XOR C(n, k)) - 1, the bit length read from the
        # float exponent, which rounding may carry one too high
        cnk = self._cnk.take(np.right_shift(K, 8, out=K), out=term, mode="clip")
        x = np.bitwise_xor(f, cnk, out=term)
        length = index  # the loop's index slot, dead by now
        mantissa = work("mantissa", size, np.float64, room)
        mantissa[...] = x
        np.frexp(mantissa, out=(mantissa, length))
        if self._rounds:  # only a float rounded up to a power of two can read high
            fix = np.flatnonzero(mantissa == 0.5)
            length[fix] -= x[fix] < _POW2[length[fix]]
        length -= 1  # the width; values are f mod 2^width
        mask = np.left_shift(np.uint64(1), length.view(np.uint64), out=term)
        mask -= np.uint64(1)
        return f & mask, length.astype(np.int8)

    def _index(self, packed: np.ndarray, n_blocks: int) -> np.ndarray:
        """Folded-table indices of ``per`` consecutive blocks each, from
        one packed channel of ``n_blocks`` blocks; zero bits pad the last."""
        span, count = self.n * self._per, -(-n_blocks // self._per)
        if span == _SPAN:  # a 16-bit word of the packed bytes
            packed = np.concatenate((packed, np.zeros(packed.size % 2, np.uint8)))
            index = packed.view(">u2").astype(np.intp)
        else:
            index = (_block_words(packed, span, count) >> np.uint64(64 - span)).astype(np.intp)
        if self._per * count > n_blocks:  # zero the bits after the blocks
            index[-1] &= -1 << self.n * (self._per * count - n_blocks)
        return index

    def _rejoin(self, indices: list[np.ndarray], n_blocks: int) -> np.ndarray:
        """Indices of ``per`` blocks in (block, channel) order, from each
        channel's own: split into n-bit blocks, interleaved, joined again."""
        n, per = self.n, self._per
        shifts = np.uint16(n) * np.arange(per - 1, -1, -1, dtype=np.uint16)
        blocks = np.stack(indices).astype(np.uint16)[:, :, None] >> shifts
        blocks &= np.uint16((1 << n) - 1)
        blocks = np.stack(list(blocks.reshape(len(indices), -1)[:, :n_blocks]), axis=1).ravel()
        blocks = np.concatenate((blocks, np.zeros(-blocks.size % per, np.uint16)))
        index = blocks[0::per] << shifts[0]
        for j in range(1, per):
            index |= blocks[j::per] << shifts[j]
        return index.astype(np.intp)

    def encode(self, rows, row_blocks: int, work=None):
        """Encode the ``row_blocks`` blocks that lead each uint8 row of
        ceil(row_blocks * n / 8) bytes, MSB first; later bits are ignored.
        One row is a 1-D array, equal rows (one per channel) a 2-D array or a
        sequence; rows are only read, their blocks taken in (block, row) order.

        Returns (values, widths, stats): fragments of 0..64 bits in
        block order, each covering one or more blocks; discarded blocks
        add no bits.  ``stats.windows_seen`` is left to the caller.
        ``work`` keeps the temporaries of n > 16 from one call to the next;
        the values and widths are new arrays, never ``work``'s, so a
        :class:`BitPacker` may take them over.
        """
        n, per = self.n, self._per
        packed = [rows] if isinstance(rows, np.ndarray) and rows.ndim == 1 else rows
        n_blocks = row_blocks * len(packed)
        if self._folded is None:
            work, height = work or _Workspace(), -(-row_blocks // 8) * 8
            # each row's block words in its column of one (block, row) slot
            slot = work("words", height * len(packed), np.uint64).reshape(-1, len(packed))
            for column, row in zip(slot.T, packed):
                _block_words(row, n, row_blocks, column)
            words = slot[:row_blocks].reshape(-1)
            if n < 64:
                words &= self._mask
            # k = 0 and k = n emit nothing: words 0 (which wraps) and the mask
            live = np.subtract(words, np.uint64(1), out=work("term", n_blocks, np.uint64))
            live = np.less(live, self._mask - np.uint64(1), out=work("live", n_blocks, np.bool_))
            if not live.all():
                words = words[live]
            values, widths = self._encode_words(words, work, n_blocks)
            k_discards = n_blocks - words.size
            alpha0 = int(np.count_nonzero(widths == 0))
        else:
            index = [self._index(row, row_blocks) for row in packed]
            index = index[0] if len(index) == 1 else self._rejoin(index, row_blocks)
            table_values, table_widths, table_discards = self._folded
            values, widths = table_values[index], table_widths[index]
            discards = table_discards[index].view(np.uint8)
            # the last index's zero padding reads as k = 0 blocks
            k_discards = int(discards[0::2].sum()) - (per * index.size - n_blocks)
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

    Every :meth:`feed` supplies one chunk per channel, as windows or as
    packed payload bytes.  Each channel carries its trailing partial block
    into the next feed as bits, so the output does not depend on the
    chunking.  ``round-robin-block`` orders blocks by (block index, channel
    position) and needs every feed to leave the channels at equal full-block
    counts; the codec takes the channels' byte slices as rows and interleaves
    their blocks, whole bytes of at least ``_INTERLEAVE`` windows per channel
    at a time; ``per-channel`` concatenates whole channels in order.  With
    one channel both policies give the plain block-order output.

    Output goes to ``sink.write`` as it is packed (see :class:`BitPacker`).
    With no sink the merger packs into a private one that keeps the word
    arrays uncopied, and :meth:`finish` returns them joined, as one
    :class:`BitOutput`.  Per-channel merging writes channel 0 straight
    through and spills the others, to anonymous temp files in
    ``spill_dir`` when there is a sink and to memory when not, until
    :meth:`finish` appends them.
    """

    def __init__(self, block_len: int, n_channels: int = 1, policy: str = "round-robin-block",
                 sink=None, spill_dir=None):
        if policy not in MERGE_POLICIES:
            raise DomainError(f"unknown merge policy {policy!r}")
        if n_channels < 1:
            raise DomainError("need at least one channel")
        self._codec = _codec(block_len)
        self._remainders = ((0, 0),) * n_channels  # (value, bit count) of a partial block
        spills = n_channels - 1 if policy == "per-channel" else 0
        self._spills = [io.BytesIO() if sink is None else tempfile.TemporaryFile(dir=spill_dir)
                        for _ in range(spills)]
        self._work = _Workspace()  # the chunk-sized temporaries, until finish()
        self._sink = _Kept() if sink is None else sink
        self._packers = [BitPacker(out, self._work) for out in (self._sink, *self._spills)]
        self.stats = ExtractStats()

    def feed(self, chunks: Sequence[np.ndarray], counts: Sequence[int] | None = None) -> None:
        """One chunk per channel: 0/1 window arrays, or with ``counts`` uint8
        payloads of counts[i] windows packed MSB first (later bits ignored)."""
        if len(chunks) != len(self._remainders):
            raise DomainError(f"expected {len(self._remainders)} channel chunks, got {len(chunks)}")
        if counts is None:
            counts = [np.size(win) for win in chunks]
            chunks = [np.packbits(as_bit_array(win)) for win in chunks]
        counts = check_chunks(chunks, counts)
        n = self._codec.n
        totals = [bits + c for (_, bits), c in zip(self._remainders, counts)]
        usable = [t - t % n for t in totals]
        round_robin = len(chunks) > len(self._packers)
        if round_robin and len(set(usable)) > 1:  # before any state changes
            raise DomainError("channel chunks must cover equal full-block counts")
        self.stats.windows_seen += int(sum(counts))
        rows, self._remainders = zip(*map(join_packed, self._remainders, chunks, usable, totals))
        packers, jobs = self._packers, [(row, u // n) for row, u in zip(rows, usable)]
        if round_robin:
            # equal block counts: the codec takes the channels' byte slices as
            # rows, uncopied, and interleaves their blocks a slice at a time
            step = -(-_INTERLEAVE // (8 * n)) * n  # bytes of whole blocks
            jobs = [(tuple(r[lo : lo + step] for r in rows), min(8 * step, usable[0] - 8 * lo) // n)
                    for lo in range(0, rows[0].size, step)]
            packers = itertools.repeat(packers[0])
        for packer, job in zip(packers, jobs):
            values, widths, stats = self._codec.encode(*job, self._work)
            self.stats.add(stats)
            packer.add(*_premerge(values, widths, self._codec.levels))

    def finish(self) -> BitOutput | None:
        """Close the stream; pending partial blocks are dropped.  Returns the
        output, or None when it went to the caller's sink."""
        packer, *rest = self._packers
        for spilled, spill in zip(rest, self._spills):
            # every spilled word, the last one partial, is a fragment
            spilled.close()
            bits = spilled.bit_length
            spill.seek(0)
            for start in range(0, bits, 8 * _SPILL_BLOCK):
                block = spill.read(_SPILL_BLOCK)
                words = np.frombuffer(block + bytes(-len(block) % 8), ">u8").astype(np.uint64)
                lengths = np.full(words.size, 64, dtype=np.int64)
                lengths[-1] = min(8 * _SPILL_BLOCK, bits - start) - 64 * (words.size - 1)
                packer.add(words >> (64 - lengths).view(np.uint64), lengths)
        packer.close()
        self.close()
        if isinstance(self._sink, _Kept):  # the caller gave no sink
            return BitOutput(b"".join(self._sink), self.stats.bits_emitted, self.stats)
        return None

    def close(self) -> None:
        """Drop the spilled channels and the kept arrays; :meth:`finish`
        calls this itself."""
        for spill in self._spills:
            spill.close()
        self._work.clear()


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
