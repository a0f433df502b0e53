"""Exact integer combinatorics for time-bin block encoding.

A block of ``n`` detection windows containing ``k`` avalanches is one of
C(n, k) equally likely position patterns.  This module ranks such a
pattern to an integer in [0, C(n,k)), inverts the ranking, and splits
C(n, k) into its power-of-two subblocks (the binary expansion used by
the Elias-style bit encoder).

All arithmetic is exact.  ``n`` is capped at 64 so every value fits in
an unsigned 64-bit word, which keeps the block encoder's tables in
fixed-width integer arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoEntropyError

MAX_BLOCK_LEN = 64


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) for 0 <= k <= n <= 64; it fits in 64 unsigned bits
    (C(64, 32) ~ 1.8e18)."""
    if not (0 <= k <= n <= MAX_BLOCK_LEN):
        raise DomainError(f"binomial requires 0 <= k <= n <= {MAX_BLOCK_LEN}, got n={n} k={k}")
    return math.comb(n, k)


@dataclass(frozen=True)
class Combination:
    """k avalanche positions inside an n-window block, 1-based, ascending."""

    n: int
    k: int
    positions: tuple[int, ...]

    def __post_init__(self):
        if not (2 <= self.n <= MAX_BLOCK_LEN):
            raise DomainError(f"block length must be in [2, {MAX_BLOCK_LEN}], got {self.n}")
        if not (0 <= self.k <= self.n):
            raise DomainError(f"k must be in [0, n], got k={self.k} n={self.n}")
        pos = tuple(self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) != self.k:
            raise DomainError(f"expected {self.k} positions, got {len(pos)}")
        if any(not (1 <= p <= self.n) for p in pos):
            raise DomainError(f"positions must lie in [1, {self.n}]: {pos}")
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise DomainError(f"positions must be strictly increasing: {pos}")


@dataclass(frozen=True)
class BinomialExpansion:
    """Set-bit exponents of C(n, k), descending; the leading one is the
    width of the largest (directly encodable) subblock."""

    n: int
    k: int
    exponents: tuple[int, ...]


def rank_combination(c: Combination) -> int:
    """Map a position pattern to its integer rank in [0, C(n,k)).

    The rank is the sum over the j-th occupied window position p_j of
    C(n - p_j, k - j + 1): the information revealed by learning each
    successive position.  The map is a bijection onto [0, C(n,k)) and
    strictly increases when any single position moves earlier.
    """
    if c.k == 0 or c.k == c.n:
        raise NoEntropyError(
            f"block with k={c.k} of n={c.n} has a single outcome; discard it"
        )
    rank = 0
    for j, p in enumerate(c.positions, start=1):
        rank += math.comb(c.n - p, c.k - j + 1)
    return rank


def unrank_combination(n: int, k: int, rank: int) -> Combination:
    """Inverse of :func:`rank_combination` for round-trip checks."""
    if not (1 <= k <= n - 1):
        raise DomainError(f"unrank requires 1 <= k <= n-1, got n={n} k={k}")
    total = binomial(n, k)
    if not (0 <= rank < total):
        raise DomainError(f"rank {rank} out of range [0, {total})")
    positions = []
    p = 1
    for j in range(1, k + 1):
        # advance p until the j-th term C(n-p, k-j+1) is <= remaining rank
        while math.comb(n - p, k - j + 1) > rank:
            p += 1
        rank -= math.comb(n - p, k - j + 1)
        positions.append(p)
        p += 1
    return Combination(n, k, tuple(positions))


def binary_expansion(n: int, k: int) -> BinomialExpansion:
    """Exponents of the set bits of C(n, k), largest first."""
    if not (1 <= k <= n - 1):
        raise DomainError(f"binary_expansion requires 1 <= k <= n-1, got n={n} k={k}")
    value = binomial(n, k)
    exponents = tuple(i for i in range(value.bit_length() - 1, -1, -1) if (value >> i) & 1)
    return BinomialExpansion(n, k, exponents)
