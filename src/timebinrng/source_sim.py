"""Seeded simulation of gated avalanche-detector channels.

A gate window clicks when the Poisson photon/dark-carrier count behind
it is nonzero: p = 1 - exp(-eta * (light + dark)).  An optional slow
sinusoidal modulation drives the click probability directly, standing
in for intensity or temperature drift.  The drift is slow: p moves
by about 4e-4 over 4,096 windows of the lit scenarios.  So a modulated
chunk evaluates p only at the two end windows of each 4,096-window
sub-interval and bounds it in between by the Lipschitz constant
|amplitude * angular_frequency| plus a small absolute slack.  A draw
below the bound clicks, one at or above it does not, and only the
draws in between (about 0.1%) get p evaluated, with the same
expression as for the whole chunk, so the stream is exactly the one
the full evaluation gives.  Afterpulsing adds ``taps[d-1]`` to the
click probability of the d-th gate after the most recent avalanche,
for d up to the tap list length.  Each chunk's afterpulses are
resolved exactly and mostly vectorised: only windows with
p <= u < p + max(taps) can change state, most of them are settled by
the latest unconditional click alone, and the rest, which wait on an
earlier tap-induced click, take one pass over just those windows.
Without taps, a chunk needs about 2 bytes per window beside its 8-byte
draws.

Streams are reproducible: window i consumes exactly the i-th uniform
draw of a PCG64 generator seeded with SeedSequence([seed, channel_id]),
so a stream is fully determined by (model, n_windows, seed, channel_id)
regardless of chunking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .efficiency import ModulationProfile
from .errors import DomainError, check_finite
from .extractor import DetectionStream

GENERATOR_TAG = "numpy-pcg64 seedseq=[seed,channel_id]"

_FAR_PAST = -(1 << 62)

_SPAN = 4096  # windows per sub-interval over which a modulated p is bounded
_SLACK = 1e-9  # absolute margin of that bound, far above the rounding in t, w*t and sin


@dataclass(frozen=True)
class SourceModel:
    """Physical parameters of one detector channel."""

    mean_photons: float = 0.0  # mean photons per pulse reaching the APD
    dark_rate: float = 0.0  # mean dark carriers per window
    efficiency: float = 1.0  # detection efficiency
    window: float = 2.5e-9  # gate width, seconds (informational)
    modulation: ModulationProfile | None = None
    afterpulse_taps: tuple[float, ...] = ()
    gate_frequency: float = 1e6  # Hz

    def __post_init__(self):
        object.__setattr__(self, "afterpulse_taps", tuple(self.afterpulse_taps))
        for name in ("mean_photons", "dark_rate", "efficiency", "window", "gate_frequency"):
            check_finite(name, getattr(self, name))
        for tap in self.afterpulse_taps:
            check_finite("afterpulse tap", tap)
        if self.mean_photons < 0 or self.dark_rate < 0:
            raise DomainError("photon and dark-carrier means must be >= 0")
        if not (0.0 <= self.efficiency <= 1.0):
            raise DomainError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not self.window > 0:
            raise DomainError(f"gate width must be > 0, got {self.window}")
        if not self.gate_frequency > 0:
            raise DomainError(f"gate frequency must be > 0, got {self.gate_frequency}")
        if any(t < 0 for t in self.afterpulse_taps):
            raise DomainError("afterpulse taps must be >= 0")
        max_tap = max(self.afterpulse_taps, default=0.0)
        if self.peak_probability() + max_tap > 1.0:
            raise DomainError(
                "click probability plus afterpulse tap exceeds 1; "
                "reduce intensity, modulation amplitude, or taps"
            )

    def base_probability(self) -> float:
        """Unmodulated click probability from light plus dark counts."""
        return 1.0 - math.exp(-self.efficiency * (self.mean_photons + self.dark_rate))

    def peak_probability(self) -> float:
        if self.modulation is not None:
            return self.modulation.base + self.modulation.amplitude
        return self.base_probability()

    @property
    def window_period(self) -> float:
        return 1.0 / self.gate_frequency


def click_probability(model: SourceModel, t: float = 0.0):
    """Click probability at time ``t`` (scalar or array)."""
    if model.modulation is not None:
        return np.clip(model.modulation.p_at(t), 0.0, 1.0)
    return model.base_probability()


def _below(u: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """u < bound[j] for every window of the j-th sub-interval, as a bool array."""
    out = np.empty(u.size, dtype=bool)
    full = u.size - u.size % _SPAN
    np.less(
        u[:full].reshape(-1, _SPAN),
        bound[: full // _SPAN, None],
        out=out[:full].reshape(-1, _SPAN),
    )
    np.less(u[full:], bound[-1], out=out[full:])
    return out


def _bound_modulated(model: SourceModel, times, count: int):
    """Per sub-interval bounds lo <= p <= hi on a modulated chunk of ``count`` windows.

    p is evaluated at the two end windows of each sub-interval only.
    The float time grid is monotone, so every window lies between its
    sub-interval's ends, and p stays within L * (t_b - t_a) of both end
    values, L = |amplitude * angular_frequency|.
    """
    first = np.arange(0, count, _SPAN)
    t = times(np.concatenate((first, np.minimum(first + (_SPAN - 1), count - 1))))
    p = click_probability(model, t)
    k = first.size
    mod = model.modulation
    reach = abs(mod.amplitude * mod.angular_frequency) * (t[k:] - t[:k]) + _SLACK
    return np.minimum(p[:k], p[k:]) - reach, np.maximum(p[:k], p[k:]) + reach


def _resolve_afterpulses(
    clicks: np.ndarray,
    u: np.ndarray,
    ceiling: np.ndarray | float,
    p_of,
    taps: tuple[float, ...],
    start_index: int,
    last_avalanche: int,
) -> int:
    """Add tap-induced clicks in place; returns the new last-avalanche index.

    Only a candidate, a window that did not click on its own and has
    u < p + max(taps), can change state.  ``ceiling`` is at least
    p + max(taps) at every window: a float, or one value per
    sub-interval of p.  Windows under it that are no candidates never
    click and so change nothing.  ``p_of(idx)`` gives p at local
    indices, so p is evaluated at those windows only.  A candidate
    clicks when its distance d to the latest avalanche before it is at
    most len(taps) and u < p + taps[d - 1].  That avalanche is the
    latest unconditional click, or the one carried in from earlier
    chunks, unless an earlier candidate lies after it and within reach.
    Only the len(taps) windows before a candidate are looked at for it.
    All other candidates are settled in one vectorised step; the
    dependent ones follow in window order, one pass over just those,
    exact for chains of any length.
    Beyond one mask and O(candidates), nothing chunk-sized is allocated.
    """
    depth = len(taps)
    near = _below(u, ceiling) if np.ndim(ceiling) else u < ceiling
    np.greater(near, clicks.view(bool), out=near)  # and no click of its own
    cand = np.flatnonzero(near)
    del near
    carried = last_avalanche - start_index  # local position, before the chunk
    # distance to the latest unconditional or carried-in avalanche before
    # each candidate; depth + 1 is out of reach
    dist = np.full(cand.size, depth + 1, dtype=np.min_scalar_type(-(depth + 1)))
    for d in range(depth, 0, -1):  # the nearest one is written last
        hit = np.take(clicks, cand - d, mode="wrap") != 0
        before = np.searchsorted(cand, d)  # these look back past the chunk's start
        hit[:before] = cand[:before] - d == carried
        dist[hit] = d
    uc = u[cand]
    pc = p_of(cand)  # a float under constant p
    fired = np.zeros(cand.size, dtype=bool)
    for d, tap in enumerate(taps, 1):
        fired |= (dist == d) & (uc < pc + tap)
    del uc
    # dependent: the previous candidate lies after the reference, within reach
    dep = np.flatnonzero(np.diff(cand) < dist[1:]) + 1
    if dep.size:
        # state: distance from a candidate to the latest avalanche at or
        # before it, 0 if it clicked.  -1 marks a dependent predecessor,
        # whose state is the one the loop has just computed.
        state = np.where(fired, 0, dist)[dep - 1]
        state[1:][dep[1:] - 1 == dep[:-1]] = -1
        gap = cand[dep] - cand[dep - 1]
        tap_at = [*taps, -math.inf]  # tap at distance d; -inf never clicks
        p_dep = pc[dep].tolist() if np.ndim(pc) else itertools.repeat(pc)
        out = []
        s = 0
        for x, q, r, g, s_prev in zip(
            u[cand[dep]].tolist(), p_dep, dist[dep].tolist(), gap.tolist(), state.tolist()
        ):
            if s_prev >= 0:
                s = s_prev
            d = s + g  # the nearer of the predecessor's avalanche and the reference
            if d > r:
                d = r
            s = 0 if x < q + tap_at[d - 1] else d
            out.append(s)
        fired[dep] = np.equal(out, 0)
    clicks[cand[fired]] = 1
    # the latest avalanche, searched backwards _SPAN windows at a time
    for hi in range(clicks.size, 0, -_SPAN):
        lo = max(hi - _SPAN, 0)
        hits = np.flatnonzero(clicks[lo:hi])
        if hits.size:
            return start_index + lo + int(hits[-1])
    return last_avalanche


def iter_simulate(
    model: SourceModel,
    n_windows: int,
    seed: int,
    chunk_windows: int = 1 << 24,
    channel_id: int = 0,
    t0: float = 0.0,
) -> Iterator[np.ndarray]:
    """Yield the simulated stream in chunks of at most ``chunk_windows``.

    Chunk boundaries do not affect the generated windows; afterpulse
    state carries across both chunk and block boundaries.  The draws
    fill one buffer, reused for every chunk; no yielded chunk shares it.
    """
    if n_windows < 0:
        raise DomainError(f"n_windows must be >= 0, got {n_windows}")
    if chunk_windows < 1:
        raise DomainError(f"chunk_windows must be >= 1, got {chunk_windows}")
    check_finite("t0", t0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, channel_id])))
    taps = model.afterpulse_taps
    period = model.window_period
    constant_p = None if model.modulation is not None else model.base_probability()
    start = 0
    last_avalanche = _FAR_PAST
    buf = np.empty(min(chunk_windows, n_windows))  # the draws, refilled for every chunk

    def times(idx):  # the times of local windows idx of the chunk at ``start``
        return t0 + (start + idx).astype(np.float64) * period

    def p_of(idx):  # p at local windows idx, bit for bit as over the whole chunk
        return constant_p if constant_p is not None else click_probability(model, times(idx))

    while start < n_windows:
        count = min(chunk_windows, n_windows - start)
        u = rng.random(out=buf[:count])
        if constant_p is None:
            lo, hi = _bound_modulated(model, times, count)
            below = _below(u, lo)
            close = _below(u, hi)
            close ^= below  # lo <= u < hi: too close to call
            idx = np.flatnonzero(close)
            del close
            below[idx] = u[idx] < p_of(idx)
            clicks = below.view(np.uint8)
            ceiling = hi
        else:
            clicks = (u < constant_p).view(np.uint8)
            ceiling = constant_p
        if taps:
            last_avalanche = _resolve_afterpulses(
                clicks, u, ceiling + max(taps), p_of, taps, start, last_avalanche
            )
        yield clicks
        start += count


def simulate(
    model: SourceModel,
    n_windows: int,
    seed: int,
    channel_id: int = 0,
    t0: float = 0.0,
) -> DetectionStream:
    """Simulate one channel in full; see :func:`iter_simulate`."""
    chunks = list(iter_simulate(model, n_windows, seed, channel_id=channel_id, t0=t0))
    windows = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return DetectionStream(windows, channel_id=channel_id, window_period=model.window_period)


# ---------------------------------------------------------------------------
# scenario presets


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    channels: int
    light_on: bool
    description: str


SCENARIOS = {
    "a": ScenarioPreset("a", 1, True, "one modulated lit channel"),
    "b": ScenarioPreset("b", 2, True, "two modulated lit channels"),
    "c": ScenarioPreset("c", 2, False, "two dark-count-only channels"),
}

# Modulation of the lit scenarios.  The drive swings the click
# probability symmetrically about 1/2 over a 20 s period; the amplitude
# is the one consistent with the reference time-averaged yield of
# 0.3454 bits/window at block length 4.
LIT_MODULATION = ModulationProfile(
    base=0.5, amplitude=0.3, angular_frequency=0.1 * math.pi, duration=20.0
)

# Dark-carrier mean giving exactly p = 0.01 per window.
_DARK_RATE_1PCT = -math.log(0.99)


def preset(name: str) -> list[SourceModel]:
    """Source models for scenario ``a``, ``b``, or ``c``, one per channel."""
    if name not in SCENARIOS:
        raise DomainError(f"unknown scenario {name!r}; choose one of a, b, c")
    info = SCENARIOS[name]
    if info.light_on:
        model = SourceModel(
            mean_photons=math.log(1.98),  # light + dark together give p = 1/2 unmodulated
            dark_rate=_DARK_RATE_1PCT,
            efficiency=1.0,
            modulation=LIT_MODULATION,
            gate_frequency=1e6,
        )
    else:
        model = SourceModel(
            mean_photons=0.0,
            dark_rate=_DARK_RATE_1PCT,
            efficiency=1.0,
            modulation=None,
            gate_frequency=1e6,
        )
    return [model] * info.channels
