"""Independent brute-force references used to check the library.

Everything here is written directly from the defining formulas with
stdlib primitives only, deliberately ignoring the library's fast paths,
so agreement is meaningful.  The exceptions are the simulator
references: the afterpulse reference, a per-candidate loop that keeps
numpy only for array access, and the whole-simulator reference, which
evaluates p(t) at every window with the library's own expression; and
the uniformity-deviation reference, the dense whole-matrix numpy
expressions that the library now evaluates a slice of rows at a time;
the sanity reference, which keeps numpy for its two lag-1 passes; the
whole-file reader, which unpacks bytes with ``np.unpackbits``; and the
whole-stream writer, a test helper on the library's own TIMEBIN1 writer.
"""

from __future__ import annotations

import decimal
import json
import math
from collections import Counter
from itertools import combinations as iter_combinations
from pathlib import Path

import numpy as np

from timebinrng.streamio import StreamWriter

_FAR_PAST = -(1 << 62)


def file_bits(path):
    """The whole 0/1 array an input file holds, read without the library.

    A file that starts with b"TIMEBIN1" holds the windows its header
    counts, packed from byte 32.  A file beside a ``.meta.json`` sidecar
    whose ``format`` is ``packed-bits-msb-first``, or absent, holds the
    sidecar's ``total_bits`` packed from byte 0.  Any other file holds
    its '0'/'1' characters.  Packed bits must fill the file exactly,
    zero padded.
    """
    data = Path(path).read_bytes()
    sidecar = Path(f"{path}.meta.json")
    meta = json.loads(sidecar.read_bytes()) if sidecar.exists() else None
    if data[:8] == b"TIMEBIN1":
        count, base = int.from_bytes(data[8:16], "little"), 32
    elif isinstance(meta, dict) and meta.get("format", "packed-bits-msb-first") == "packed-bits-msb-first":
        count, base = meta["total_bits"], 0
    else:
        return np.array([byte - ord("0") for byte in data if byte in b"01"], dtype=np.uint8)
    assert len(data) == base + (count + 7) // 8, (len(data), base, count)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=base))
    assert not bits[count:].any(), "nonzero padding"
    return bits[:count]


def write_stream(path, stream):
    """Write a whole DetectionStream as one TIMEBIN1 file."""
    with StreamWriter(path, stream.window_period * 1e9, stream.channel_id) as w:
        w.write(stream.windows)


def pascal_triangle(n_max):
    """Binomials by the addition rule only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        rows.append(row)
    return rows


def naive_rank(n, positions):
    """Sum of C(n - p_j, k - j + 1) over the 1-based ordered positions."""
    k = len(positions)
    total = 0
    for j, p in enumerate(positions, start=1):
        a, b = n - p, k - j + 1
        total += math.comb(a, b) if 0 <= b <= a else 0
    return total


def byte_rank_term(n, column, k_after, byte):
    """The rank that byte ``column`` of an n-window block adds when it holds
    ``byte``, its most significant bit the earliest window, and ``k_after``
    avalanches follow in later bytes: C(n - p, avalanches from p on) summed
    over its set windows p = 8 * column + 1.. that lie inside the block."""
    total = 0
    for j in range(8):
        if byte >> (7 - j) & 1 and 8 * column + j + 1 <= n:
            from_here = bin(byte & ((1 << (8 - j)) - 1)).count("1") + k_after
            total += math.comb(n - (8 * column + j + 1), from_here)
    return total


def naive_encode(n, window_bits):
    """Fragment (value, bit_length) for one block, or None if discarded.

    Walks the power-of-two subblocks of C(n, k) from the largest down,
    exactly as defined: ranks below 2^m encode directly in m bits;
    later subblocks encode the offset at their own width; a width-0
    subblock encodes nothing.
    """
    positions = [i + 1 for i, b in enumerate(window_bits) if b]
    k = len(positions)
    if k == 0 or k == n:
        return None
    f = naive_rank(n, positions)
    c = math.comb(n, k)
    exponents = [i for i in range(c.bit_length() - 1, -1, -1) if (c >> i) & 1]
    start = 0
    for width in exponents:
        if f < start + (1 << width):
            return None if width == 0 else (f - start, width)
        start += 1 << width
    raise AssertionError("rank out of range")


def all_patterns(n):
    """Every 0/1 window tuple of length n."""
    for x in range(1 << n):
        yield tuple((x >> (n - 1 - j)) & 1 for j in range(n))


def all_combinations(n, k):
    """Every ascending 1-based position tuple with k of n windows set."""
    return iter_combinations(range(1, n + 1), k)


def bits_of_fragment(value, width):
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def pack_reference(fragments):
    """MSB-first packing via plain string concatenation."""
    bitstring = "".join(format(v, f"0{w}b") for v, w in fragments)
    padded = bitstring + "0" * (-len(bitstring) % 8)
    data = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
    return data, len(bitstring)


def subblock_max_z_reference(pattern_counts, n):
    """Largest |c_x - c_y| / sqrt(c_x + c_y) over every pair of n-window
    patterns x, y with the same avalanche count k, 0 < k < n, by a pairwise
    loop; pairs with no blocks count 0."""
    best = 0.0
    for k in range(1, n):
        cls = [int(pattern_counts[x]) for x in range(1 << n) if bin(x).count("1") == k]
        for a, b in iter_combinations(cls, 2):
            if a + b:
                best = max(best, abs(a - b) / math.sqrt(a + b))
    return best


def uniformity_deviations_reference(counts):
    """(symmetry, independence) deviations of a pair-count matrix, each
    over the whole matrix at once: max |c(x,y) - c(y,x)| / sqrt(c(x,y) + c(y,x)),
    and the largest Pearson residual |c - e| / sqrt(e) over the cells whose
    expected count e = row * col / pairs is at least 10."""
    diff = np.abs(counts - counts.T)
    tot = counts + counts.T
    with np.errstate(divide="ignore", invalid="ignore"):
        sym_z = np.where(tot > 0, diff / np.sqrt(tot), 0.0)
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        ind_z = np.where(expected >= 10, np.abs(counts - expected) / np.sqrt(expected), 0.0)
    return float(sym_z.max()), float(ind_z.max())


def block_counts_reference(windows, n):
    """(pattern counts, pair counts) of a 0/1 window sequence, block by
    block: every full n-window block's MSB-first value counts once in an
    int64 array, and every disjoint consecutive pair (x, y) of blocks once
    in a Counter; a trailing partial block and an odd last block form no
    pair."""
    patterns = []
    for start in range(0, len(windows) - n + 1, n):
        value = 0
        for bit in windows[start : start + n]:
            value = 2 * value + int(bit)
        patterns.append(value)
    pattern_counts = np.zeros(1 << n, dtype=np.int64)
    for x in patterns:
        pattern_counts[x] += 1
    return pattern_counts, Counter(zip(patterns[0::2], patterns[1::2]))


def sanity_reference(bits):
    """(monobit, runs, lag1) z-scores of a 0/1 array, the runs counted
    directly as one plus the number of neighbours that differ, and the
    lag-1 Pearson correlation taken from exact integer counts."""
    n = len(bits)
    ones = int(np.count_nonzero(bits))
    zeros = n - ones
    monobit_z = (2.0 * ones - n) / math.sqrt(n)
    if ones == 0 or zeros == 0:
        runs_z = math.inf
    else:
        runs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
        expected = 1.0 + 2.0 * ones * zeros / n
        variance = (expected - 1.0) * (expected - 2.0) / (n - 1.0)
        runs_z = (runs - expected) / math.sqrt(variance)
    m, head, tail = n - 1, ones - int(bits[-1]), ones - int(bits[0])
    both = int(np.count_nonzero(bits[1:] & bits[:-1]))
    spread = head * (m - head) * tail * (m - tail)
    lag1_z = (m * both - head * tail) / math.sqrt(spread) * math.sqrt(m) if spread else math.inf
    return monobit_z, runs_z, lag1_z


def event_probs_reference(p, taps, n):
    """Probability that a block's lone avalanche sits in window i = 1..n:
    (1-p)^(i-1) * p, times 1 - p - taps[j-1] for each of the n - i quiet
    gates after it, multiplied in that order."""
    q = 1.0 - p
    padded = tuple(float(t) for t in taps) + (0.0,) * max(0, n - 1 - len(taps))
    probs = []
    for i in range(1, n + 1):
        prob = q ** (i - 1) * p
        for j in range(1, n - i + 1):
            prob *= q - padded[j - 1]
        probs.append(prob)
    return tuple(probs)


def crossing_reference(n, p):
    """Both roots in k of p^k q^(n-k) + p^(n-k) q^k = 2^(1-n), by bisecting
    that equation in ``decimal`` arithmetic at 50 significant digits, 120
    halvings each, on [0, n/2] and on [n/2, n]: the weight exceeds 2^(1-n)
    at k = 0 and k = n and falls below it at k = n/2 unless p = 1/2."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p = decimal.Decimal(p)
        lp, lq = p.ln(), (1 - p).ln()
        target = decimal.Decimal(2) ** (1 - n)

        def excess(k):
            return (k * lp + (n - k) * lq).exp() + ((n - k) * lp + k * lq).exp() - target

        half = decimal.Decimal(n) / 2
        roots = []
        for lo, hi in ((decimal.Decimal(0), half), (half, decimal.Decimal(n))):
            lo_above = excess(lo) > 0
            for _ in range(120):
                mid = (lo + hi) / 2
                if (excess(mid) > 0) == lo_above:
                    lo = mid
                else:
                    hi = mid
            roots.append(float((lo + hi) / 2))
    return tuple(roots)


def rate_weights(n, expanded=True):
    """w_k for k = 1..n-1: the sum of width * 2^width over the set bits of
    C(n, k), the bits its binary expansion emits, else C(n, k) log2 C(n, k)."""
    weights = []
    for k in range(1, n):
        c = math.comb(n, k)
        if expanded:
            weights.append(sum(e * (1 << e) for e in range(c.bit_length()) if (c >> e) & 1))
        else:
            weights.append(c * math.log2(c))
    return weights


def rate_reference(n, p, expanded=True, weights=None):
    """Bits per window, one ``math.fsum`` over k = 1..n-1 of p^k q^(n-k) w_k."""
    weights = weights or rate_weights(n, expanded)
    q = 1.0 - p
    return math.fsum(p**k * q ** (n - k) * w for k, w in enumerate(weights, start=1)) / n


def time_average_reference(n, base, amplitude, omega, duration, phases=1024, steps=4096):
    """Mean of ``rate_reference(n, base + amplitude sin(omega t))`` over
    t in [0, duration], by brute quadrature in the phase theta = omega t:
    the whole drift periods by the trapezoid rule on ``phases`` points
    (exact for a periodic integrand of degree below ``phases``), the
    remainder by Simpson's rule on ``steps`` intervals."""
    span = omega * duration
    if span == 0.0:
        return rate_reference(n, base)
    sign = 1.0 if span > 0 else -1.0
    span = abs(span)

    weights = rate_weights(n)

    def f(phi):
        return rate_reference(n, base + amplitude * math.sin(sign * phi), weights=weights)

    periods = math.floor(span / (2.0 * math.pi))
    rest = span - periods * 2.0 * math.pi
    h = 2.0 * math.pi / phases
    whole = h * math.fsum(f(i * h) for i in range(phases)) if periods else 0.0
    h = rest / steps
    simpson = h / 3.0 * math.fsum(
        (1 if i in (0, steps) else 4 if i % 2 else 2) * f(i * h) for i in range(steps + 1)
    )
    return (periods * whole + simpson) / span


def afterpulse_reference(
    clicks: np.ndarray,
    u: np.ndarray,
    p: np.ndarray | float,
    taps: tuple[float, ...],
    start_index: int,
    last_avalanche: int,
) -> int:
    """Add tap-induced clicks in place; returns the new last-avalanche index.

    Only windows with p <= u < p + max(taps) can change state, so the
    sequential pass touches a small candidate set.
    """
    max_tap = max(taps)
    depth = len(taps)
    candidates = np.nonzero((~clicks.astype(bool)) & (u < np.asarray(p) + max_tap))[0]
    # most recent unconditional click at or before i-1, local coordinates
    marks = np.where(clicks, np.arange(clicks.size, dtype=np.int64), _FAR_PAST)
    prev_click = np.concatenate(([_FAR_PAST], np.maximum.accumulate(marks)[:-1]))
    p_arr = p if isinstance(p, np.ndarray) else None
    last = last_avalanche
    for i in candidates:
        gi = start_index + int(i)
        prev = prev_click[i] + start_index if prev_click[i] != _FAR_PAST else _FAR_PAST
        ref = max(prev, last)
        d = gi - ref
        if 1 <= d <= depth:
            pi = p_arr[i] if p_arr is not None else p
            if u[i] < pi + taps[d - 1]:
                clicks[i] = 1
                last = gi
    tail = np.nonzero(clicks)[0]
    if tail.size:
        last = max(last, start_index + int(tail[-1]))
    return last


def simulate_reference(model, n_windows, seed, channel_id=0, t0=0.0):
    """The simulated stream as one chunk, p(t) evaluated at every window.

    The uniform draws, the full-array threshold ``u < clip(p_at(t))`` and
    the afterpulse loop, with no bound on p: the per-window path the
    library's bounded modulation must reproduce bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, channel_id])))
    start, count, period = 0, n_windows, model.window_period
    u = rng.random(count)
    if model.modulation is not None:
        t = t0 + (start + np.arange(count, dtype=np.float64)) * period
        p = np.clip(model.modulation.p_at(t), 0.0, 1.0)
    else:
        p = model.base_probability()
    clicks = (u < p).view(np.uint8)
    if model.afterpulse_taps:
        afterpulse_reference(clicks, u, p, model.afterpulse_taps, start, _FAR_PAST)
    return clicks
