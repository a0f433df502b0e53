"""Closed-form yield analysis of the block extractor.

For click probability p and block length n, the extractor's expected
output is

* ``shannon_binary(p)``      -- the single-trial entropy ceiling,
* ``block_entropy_rate``     -- bits/window before binary expansion:
                                (1/n) sum_k C(n,k) p^k q^(n-k) log2 C(n,k),
* ``binary_rate``            -- bits/window actually emitted after the
                                power-of-two subblock expansion.

Both rates are one numpy sum over k = 1..n-1 of p^k q^(n-k) w_k, taken
for one p or a whole array of p.  Under a sinusoidal drift p(t), the
mean of ``binary_rate`` over the window T (``time_average_binary_rate``)
is exact for any T: the rate is a trigonometric polynomial of degree n
in the drift phase, so its mean is a finite sum over its Fourier
coefficients.

The module also verifies, numerically, that p = 1/2 maximizes the block
rate and that the rate at p = 1/2 increases towards 1 with n.  The
symmetrized weight function p^k q^(n-k) + p^(n-k) q^k crosses its
p = 1/2 value exactly twice in k (the structure behind the optimality
proof); ``crossing_points`` derives both crossings in closed form
rather than searching for them."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .combinatorics import MAX_BLOCK_LEN, binary_expansion, binomial
from .errors import DomainError, check_finite


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p}")


def _check_n(n: int) -> None:
    if not (2 <= n <= MAX_BLOCK_LEN):
        raise DomainError(f"block length must be in [2, {MAX_BLOCK_LEN}], got {n}")


def shannon_binary(p: float) -> float:
    """Entropy of one Bernoulli trial, in bits."""
    _check_p(p)
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def _per_k_sum(n: int, p, weights):
    """(1/n) sum_{k=1}^{n-1} p^k q^(n-k) w_k, for a float p or an array of p."""
    p = np.asarray(p, dtype=np.float64)[..., None]
    k = np.arange(1, n)
    return (p**k * (1.0 - p) ** (n - k) * np.asarray(weights, dtype=np.float64)).sum(axis=-1) / n


@lru_cache(maxsize=None)
def _entropy_weights(n: int) -> tuple[float, ...]:
    """For k = 1..n-1: C(n,k) log2 C(n,k)."""
    return tuple(binomial(n, k) * math.log2(binomial(n, k)) for k in range(1, n))


def block_entropy_rate(n: int, p: float) -> float:
    """Expected bits per window of the block ranking, before expansion."""
    _check_n(n)
    _check_p(p)
    return float(_per_k_sum(n, p, _entropy_weights(n)))


@lru_cache(maxsize=None)
def _expansion_bit_weights(n: int) -> tuple[int, ...]:
    """For k = 1..n-1: total bits emitted over all C(n,k) patterns,
    i.e. sum of width * 2^width over the expansion's subblocks."""
    return tuple(
        sum(w * (1 << w) for w in binary_expansion(n, k).exponents)
        for k in range(1, n)
    )


def binary_rate(n: int, p: float) -> float:
    """Expected bits per window actually emitted after expansion."""
    _check_n(n)
    _check_p(p)
    return float(_per_k_sum(n, p, _expansion_bit_weights(n)))


# ---------------------------------------------------------------------------
# slow modulation


@dataclass(frozen=True)
class ModulationProfile:
    """Sinusoidal drive of the click probability: base + amplitude*sin(w*t)."""

    base: float
    amplitude: float
    angular_frequency: float  # rad/s
    duration: float  # averaging window, seconds

    def __post_init__(self):
        for f in fields(self):
            check_finite(f.name, getattr(self, f.name))
        if self.amplitude < 0:
            raise DomainError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (0.0 < self.base - self.amplitude and self.base + self.amplitude < 1.0):
            raise DomainError(
                "modulated probability must stay in (0, 1): "
                f"base={self.base} amplitude={self.amplitude}"
            )
        if not self.duration > 0:
            raise DomainError(f"duration must be > 0, got {self.duration}")

    def p_at(self, t):
        """Click probability at time ``t`` (scalar or array, seconds)."""
        return self.base + self.amplitude * np.sin(self.angular_frequency * t)


_PHASES = 256  # samples of one drift period, more than twice the degree n <= 64


def time_average_binary_rate(n: int, profile: ModulationProfile) -> float:
    """Mean of :func:`binary_rate` over the window [0, T], however many
    drift periods it spans.

    H_b(n, base + amp sin(theta)) is a trigonometric polynomial of degree
    n in theta, so the rfft of 256 phase samples holds its coefficients
    g_j exactly.  Its mean over theta in [0, Theta], Theta = omega*T, is
    Re sum_{|j|<=n} g_j K(j Theta) with K(x) = (e^{ix} - 1)/(ix), K(0) = 1,
    written with sinc so that no term cancels when x is small.
    """
    _check_n(n)
    theta = 2.0 * np.pi * np.arange(_PHASES) / _PHASES
    p = profile.base + profile.amplitude * np.sin(theta)
    g = np.fft.rfft(_per_k_sum(n, p, _expansion_bit_weights(n)))[: n + 1] / _PHASES
    span = profile.angular_frequency * profile.duration
    check_finite("angular_frequency * duration", span)
    x = np.arange(n + 1) * span
    kernel = np.sinc(x / np.pi) + 1j * np.sin(x / 2.0) * np.sinc(x / (2.0 * np.pi))
    terms = (g * kernel).real
    return float(2.0 * terms.sum() - terms[0])


# ---------------------------------------------------------------------------
# numeric verification of the optimality structure


_GRID_SLICE = 1024  # p values of the optimality grid evaluated at a time


@dataclass(frozen=True)
class OptimalPRecord:
    n: int
    grid_step: float
    argmax_p: float
    max_violation: float  # max over the grid of H(n,p) - H(n,1/2)
    passed: bool


def verify_optimal_p(n: int, grid_step: float = 0.01) -> OptimalPRecord:
    """Check on a p-grid that the block rate peaks at p = 1/2."""
    _check_n(n)
    if not (0.0 < grid_step <= 0.1):
        raise DomainError(f"grid_step must be in (0, 0.1], got {grid_step}")
    reference = block_entropy_rate(n, 0.5)
    best_h, best_p = reference, 0.5  # unless a grid value beats p = 1/2
    stop = int(1.0 / grid_step) + 2
    for a in range(1, stop, _GRID_SLICE):  # grid values i * grid_step, a slice at a time
        grid = np.arange(a, min(a + _GRID_SLICE, stop)) * grid_step
        h = _per_k_sum(n, grid[grid < 1.0], _entropy_weights(n))
        if h.size and h.max() > best_h:  # a later equal value keeps the first, as np.argmax
            best_h, best_p = float(h.max()), float(grid[np.argmax(h)])
    max_violation = best_h - reference
    passed = max_violation <= 1e-12 and abs(best_p - 0.5) <= grid_step * (1 + 1e-9)
    return OptimalPRecord(n, grid_step, best_p, max_violation, passed)


@dataclass(frozen=True)
class MonotoneRecord:
    n_max: int
    values: tuple[float, ...]  # block rate at p = 1/2 for n = 2..n_max
    strictly_increasing: bool
    below_one: bool
    passed: bool


def verify_monotone_convergence(n_max: int = 64) -> MonotoneRecord:
    """Check that the p = 1/2 block rate climbs towards (but below) 1."""
    if not (3 <= n_max <= MAX_BLOCK_LEN):
        raise DomainError(f"n_max must be in [3, {MAX_BLOCK_LEN}], got {n_max}")
    values = tuple(block_entropy_rate(n, 0.5) for n in range(2, n_max + 1))
    increasing = all(b > a for a, b in zip(values, values[1:]))
    below_one = all(v < 1.0 for v in values)
    return MonotoneRecord(n_max, values, increasing, below_one, increasing and below_one)


def crossing_points(n: int, p: float) -> tuple[float, float]:
    """Roots in k of p^k q^(n-k) + p^(n-k) q^k = 2^(1-n).

    With x = k - n/2 the weight is 2 (pq)^(n/2) cosh(x ln(q/p)), so it
    dips below its p = 1/2 value around k = n/2 and crosses it exactly
    twice, at n/2 -+ acosh((4pq)^(-n/2)) / |ln(q/p)|.  With d = p - q,
    ln(4pq) is log1p(-d^2) and ln(q/p) is log1p(-d/p) for |d| < 1/2,
    and acosh(e^a) = a + log1p(sqrt(-expm1(-2a))), so no term cancels,
    however close p is to 1/2 or to 0 or 1.
    """
    _check_n(n)
    _check_p(p)
    if p == 0.5:
        raise DomainError("p = 1/2 is degenerate: the identity holds for every k")
    d = 2.0 * p - 1.0  # exact for p >= 1/4
    if abs(d) < 0.5:
        log_4pq, log_q_p = math.log1p(-d * d), math.log1p(-d / p)
    else:  # no cancellation here, and d / p would overflow for a subnormal p
        log_4pq, log_q_p = math.log(4.0 * p * (1.0 - p)), math.log1p(-p) - math.log(p)
    a = -0.5 * n * log_4pq
    x = (a + math.log1p(math.sqrt(-math.expm1(-2.0 * a)))) / abs(log_q_p)
    return n / 2.0 - x, n / 2.0 + x
