"""Quality evaluation of raw detector output and extracted bits.

Covers worst-case (min-) entropy of d-bit words, the consecutive-block
uniformity matrix, the entropy deficit caused by afterpulsing, a
lightweight statistical sanity screen, and export of bit files for an
external statistical test suite.

Each report is accumulated from packed chunks, the (payload, count)
pairs that the chunk readers of :mod:`streamio` yield, by one object with
``update(payload, count)`` and ``result()``: :class:`MinEntropyCounts`,
:class:`UniformityCounts` or :class:`SanityCounts`.  None holds more than
one chunk of its input, and none unpacks it.  Each refuses a chunk whose
payload does not hold its count of bits, as ``StreamingMerger.feed``
does, before it counts anything.  Min-entropy and uniformity count
MSB-first words, read from the packed bytes as the extractor reads
blocks, into one histogram: d-bit words, or 2n-bit words for the pairs
of n-window blocks, whose row and column sums are the per-pattern block
counts; an odd last block leads the bits carried short of a pair.  The
sanity screen keeps four integers, the ones, the pairs of adjacent ones
and the first and last bit, from which its run count and its lag-1
correlation both follow.  The batch functions pack their 0/1 input
``_SLICE`` bits at a time into the same accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .combinatorics import binomial
from .errors import DomainError, UnsupportedCaseError
from .extractor import (_POPCOUNT, DetectionStream, _block_words, as_bit_array, check_chunks,
                        join_packed)
from .streamio import write_ascii_bits, write_packed_bits

MAX_WORD_BITS = 16
UNIFORMITY_MAX_BLOCK = 12  # counts matrix is 4^n cells
_ROWS = 64  # counts rows whose deviations are evaluated at a time
_SLICE = 1 << 20  # bits of a 0/1 array packed into one update at a time


class _WordCounts:
    """Histogram of the non-overlapping MSB-first ``width``-bit words of
    (payload, count) chunks as the chunk readers yield them: ``count``
    bits packed MSB first, later bits ignored.  The bits short of a word
    carry to the next update, as in ``extractor.StreamingMerger``, so the
    counts do not depend on the chunking."""

    def __init__(self, width: int):
        self.width, self.bits, self.carry = width, 0, (0, 0)
        self.counts = np.zeros(1 << width, dtype=np.int64)

    def update(self, payload: np.ndarray, count: int) -> None:
        (count,) = check_chunks([payload], [count])
        total = self.carry[1] + count
        usable = total - total % self.width
        row, self.carry = join_packed(self.carry, payload, usable, total)
        words = _block_words(row, self.width, usable // self.width)
        # scatter-added: np.bincount would allocate 2^width cells per update
        np.add.at(self.counts, np.right_shift(words, np.uint64(64 - self.width), out=words), 1)
        self.bits += count


def _fed(counter, bits):
    """``counter``'s result for a 0/1 sequence, fed ``_SLICE`` bits at a time."""
    arr = as_bit_array(bits)
    for lo in range(0, arr.size, _SLICE):
        counter.update(np.packbits(arr[lo : lo + _SLICE]), min(_SLICE, arr.size - lo))
    return counter.result()


def statistical_error_scale(word_bits: int, word_count: int) -> float:
    """Relative per-bin frequency fluctuation: 1/sqrt(words per bin)."""
    if word_count <= 0:
        raise DomainError(f"word_count must be > 0, got {word_count}")
    return math.sqrt((1 << word_bits) / word_count)


@dataclass(frozen=True)
class MinEntropyReport:
    word_bits: int
    word_count: int
    histogram: np.ndarray
    min_entropy: float
    deviation: float  # word_bits - min_entropy
    stat_error_scale: float
    bound_5x_scale: float
    passed: bool  # deviation < bound_5x_scale


class MinEntropyCounts(_WordCounts):
    """:func:`min_entropy`'s report, accumulated from packed chunks; the
    report holds the counter's histogram, so no update may follow it."""

    def __init__(self, word_bits: int = 8):
        if not (1 <= word_bits <= MAX_WORD_BITS):
            raise DomainError(f"word_bits must be in [1, {MAX_WORD_BITS}], got {word_bits}")
        super().__init__(word_bits)

    def result(self) -> MinEntropyReport:
        d, bits = self.width, self.bits
        if bits < d:
            raise DomainError(f"need at least {d} bits for {d}-bit words, got {bits}")
        h_inf = -math.log2(self.counts.max() / (bits // d))
        scale = statistical_error_scale(d, bits // d)
        return MinEntropyReport(d, bits // d, self.counts, h_inf, d - h_inf, scale, 5.0 * scale,
                                d - h_inf < 5.0 * scale)


def min_entropy(bits, word_bits: int = 8) -> MinEntropyReport:
    """Min-entropy of non-overlapping ``word_bits``-bit words.

    H_inf = -log2(max word frequency); the deviation from ``word_bits``
    measures distance from uniform, to be read against
    ``stat_error_scale`` for the sample size: it passes below five
    times that scale.
    """
    return _fed(MinEntropyCounts(word_bits), bits)


# ---------------------------------------------------------------------------
# consecutive-block uniformity


@dataclass(frozen=True)
class UniformityMatrix:
    """Counts of disjoint consecutive block-pattern pairs (x then y).

    Patterns index the matrix by their MSB-first window value.  The
    deviations are maxima in units of each cell's own sampling standard
    error, so "looks uniform" reads as a small single number; the
    matrix passes when both deviations stay below 5 and the same-k
    imbalance below 4.
    """

    block_len: int
    counts: np.ndarray  # (2^n, 2^n) pair counts
    pair_count: int
    pattern_counts: np.ndarray  # per-pattern block counts over the whole stream
    symmetry_deviation: float  # max |c(x,y)-c(y,x)| / sqrt(c(x,y)+c(y,x))
    independence_deviation: float  # max Pearson residual vs product of marginals
    subblock_max_z: float  # max pairwise count imbalance within an equal-k class
    passed: bool


def _pattern_popcounts(n: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(1 << n)], dtype=np.int64)


def k_grouped_order(block_len: int) -> np.ndarray:
    """Pattern permutation sorted by avalanche count then value, the
    conventional axis ordering for displaying the uniformity matrix."""
    k = _pattern_popcounts(block_len)
    return np.lexsort((np.arange(1 << block_len), k))


class UniformityCounts(_WordCounts):
    """:func:`uniformity_matrix`'s report, accumulated from packed chunks of
    windows; the report holds the counter's histogram, so no update may
    follow it."""

    def __init__(self, block_len: int = 4):
        if not (2 <= block_len <= UNIFORMITY_MAX_BLOCK):
            raise DomainError(f"uniformity matrix supports block lengths 2..{UNIFORMITY_MAX_BLOCK}")
        super().__init__(2 * block_len)

    def result(self) -> UniformityMatrix:
        block_len = self.width // 2
        pair_count, odd = divmod(self.bits // block_len, 2)
        if not pair_count:
            raise DomainError("need at least two full blocks for pair statistics")
        # the pair x then y is the 2n-bit word x * 2^n + y; every block is a
        # row or a column of the pair matrix, except an odd last one, which
        # leads the carry
        size = 1 << block_len
        counts = self.counts.reshape(size, size)
        row, col = counts.sum(axis=1), counts.sum(axis=0)
        pattern_counts = row + col
        if odd:
            value, bits = self.carry
            pattern_counts[value >> (bits - block_len)] += 1

        # both maxima are taken over a slice of rows at a time, so that at
        # n = 12 no further 4^n-cell array is alive beside counts
        symmetry_deviation = independence_deviation = 0.0
        for a in range(0, size, _ROWS):
            rows, mirror = counts[a : a + _ROWS], counts[:, a : a + _ROWS].T
            diff = np.abs(rows - mirror)
            tot = rows + mirror
            expected = np.outer(row[a : a + _ROWS], col) / pair_count
            # Pearson residuals need a few expected counts per cell to be
            # normal-ish; rarely populated cells are excluded from their max
            with np.errstate(divide="ignore", invalid="ignore"):
                sym_z = np.where(tot > 0, diff / np.sqrt(tot), 0.0)
                ind_z = np.where(expected >= 10, np.abs(rows - expected) / np.sqrt(expected), 0.0)
            symmetry_deviation = max(symmetry_deviation, float(sym_z.max()))
            independence_deviation = max(independence_deviation, float(ind_z.max()))

        # for counts a <= b, (b - a) / sqrt(a + b) rises with b and falls with
        # a, so each k class's largest pairwise value is its min against its max
        ks = _pattern_popcounts(block_len)
        sub_z = 0.0
        for k in range(1, block_len):
            cls = pattern_counts[ks == k]
            lo, hi = int(cls.min()), int(cls.max())
            if hi:
                sub_z = max(sub_z, (hi - lo) / math.sqrt(lo + hi))

        passed = symmetry_deviation < 5.0 and independence_deviation < 5.0 and sub_z < 4.0
        return UniformityMatrix(block_len, counts, pair_count, pattern_counts,
                                symmetry_deviation, independence_deviation, sub_z, passed)


def uniformity_matrix(stream: DetectionStream, block_len: int = 4) -> UniformityMatrix:
    return _fed(UniformityCounts(block_len), stream.windows)


# ---------------------------------------------------------------------------
# afterpulse entropy deficit


@dataclass(frozen=True)
class AfterpulseEntropyReport:
    p: float
    taps: tuple[float, ...]
    block_len: int
    k: int
    event_probs: tuple[float, ...]
    conditional_entropy: float
    deficit: float  # log2 C(n, k) - conditional_entropy


def afterpulse_entropy(
    p: float, taps, block_len: int = 4, k: int = 1
) -> AfterpulseEntropyReport:
    """Entropy left in a single-avalanche block when afterpulsing skews it.

    The probability that the lone avalanche sits in window i is
    (1-p)^(i-1) * p * prod_{j=1..n-i} (1 - p - taps[j-1]): gates after
    the avalanche must each stay quiet against their elevated tap
    probability.  The entropy is taken over these probabilities
    normalized within the k = 1 class; the deficit is computed directly
    from the ratios to the uniform distribution, so values as small as
    1e-12 are meaningful.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if k != 1:
        raise UnsupportedCaseError(
            "event probabilities are modeled for single-avalanche blocks only (k = 1)"
        )
    n = block_len
    taps = tuple(float(t) for t in taps)
    if any(t < 0 for t in taps):
        raise DomainError("afterpulse taps must be >= 0")
    padded = taps + (0.0,) * max(0, n - 1 - len(taps))
    if any(p + t > 1.0 for t in padded):
        raise DomainError("p plus tap exceeds 1; event probabilities undefined")
    q = 1.0 - p
    probs = [math.prod((q - t for t in padded[: n - i]), start=q ** (i - 1) * p)
             for i in range(1, n + 1)]
    total = math.fsum(probs)
    cond = [x / total for x in probs]
    entropy = -math.fsum(c * math.log2(c) for c in cond if c > 0)
    count = binomial(n, k)
    # sum_i q_i log2(q_i * C): exact cancellation-free form of log2 C - entropy
    deficit = math.fsum(c * math.log1p(count * c - 1.0) for c in cond if c > 0) / math.log(2)
    return AfterpulseEntropyReport(
        p=p,
        taps=taps,
        block_len=n,
        k=k,
        event_probs=tuple(probs),
        conditional_entropy=entropy,
        deficit=deficit,
    )


# ---------------------------------------------------------------------------
# sanity screen and export


@dataclass(frozen=True)
class SanityReport:
    n_bits: int
    monobit_z: float
    runs_z: float
    lag1_z: float
    passed: bool

    def z_scores(self) -> dict[str, float]:
        return {"monobit": self.monobit_z, "runs": self.runs_z, "lag1": self.lag1_z}


class SanityCounts:
    """:func:`sanity_tests`' report, accumulated from packed chunks as four
    integers: ones, pairs of adjacent ones, and the first and last bit."""

    def __init__(self):
        self.n = self.ones = self.both = self.first = self.last = 0

    def update(self, payload: np.ndarray, count: int) -> None:
        (count,) = check_chunks([payload], [count])
        if not count:
            return
        row = payload[: -(-count // 8)].copy()
        row[-1] &= -(1 << -count % 8) & 0xFF  # the bits after count go
        lead, values = int(row[0]) >> 7, np.arange(256)
        byte_counts = np.bincount(row, minlength=256)
        # pairs within a byte, across each byte edge and across the chunk edge
        pairs = byte_counts @ _POPCOUNT[values & values >> 1]
        pairs += np.count_nonzero(row[:-1] & row[1:] >> 7) + (self.last & lead)
        self.ones, self.both = self.ones + int(byte_counts @ _POPCOUNT), self.both + int(pairs)
        self.first = self.first if self.n else lead
        self.last = int(row[-1]) >> -count % 8 & 1
        self.n += count

    def result(self) -> SanityReport:
        n, ones, both = self.n, self.ones, self.both
        if n < 10_000:
            raise DomainError(f"sanity screen needs >= 10000 bits, got {n}")
        zeros = n - ones
        monobit_z = (2.0 * ones - n) / math.sqrt(n)
        # lag-1 counts: ones in bits[:-1], in bits[1:] and in both at once
        m, head, tail = n - 1, ones - self.last, ones - self.first

        if ones == 0 or zeros == 0:
            runs_z = math.inf
        else:
            runs = 1 + head + tail - 2 * both  # a run ends where exactly one of a pair is 1
            expected = 1.0 + 2.0 * ones * zeros / n
            variance = (expected - 1.0) * (expected - 2.0) / (n - 1.0)
            runs_z = (runs - expected) / math.sqrt(variance)

        # Pearson correlation of bits[:-1] and bits[1:] from exact integer counts;
        # a constant side (one 1 or one 0, at an end) has no correlation
        spread = head * (m - head) * tail * (m - tail)
        lag1_z = (m * both - head * tail) / math.sqrt(spread) * math.sqrt(m) if spread else math.inf
        passed = max(abs(monobit_z), abs(runs_z), abs(lag1_z)) < 4.0
        return SanityReport(n, monobit_z, runs_z, lag1_z, passed)


def sanity_tests(bits) -> SanityReport:
    """Quick pre-test screen: bit balance, run count, lag-1 correlation.

    Pass means every statistic is within 4 standard deviations of its
    ideal; it is a smoke check, not a substitute for a full statistical
    test battery.
    """
    return _fed(SanityCounts(), bits)


def export_nist(bits, path, fmt: str = "ascii") -> Path:
    """Write bits for the external statistical test suite.

    ``ascii`` writes one '0'/'1' byte per bit; ``packed`` writes
    MSB-first bytes plus a sidecar recording the exact bit count.
    """
    path = Path(path)
    arr = as_bit_array(bits)
    if fmt == "ascii":
        write_ascii_bits(path, arr)
    elif fmt == "packed":
        write_packed_bits(path, np.packbits(arr).tobytes(), int(arr.size))
    else:
        raise DomainError(f"unknown export format {fmt!r}")
    return path
