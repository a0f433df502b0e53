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

A large chunk is cut into contiguous slices, one per core this process
may run on, at multiples of the 4,096-window sub-interval.  Each slice
draws from its own generator, seeded the same way and kept from chunk
to chunk; ``PCG64.advance`` (about a microsecond) moves it on to the
slice's first window, so window i still takes the i-th draw and the
stream is the same on any number of cores.  The calling thread draws
slice 0 and a pool of threads, built on first use, the others.  A slice
only draws, thresholds against bounds computed beforehand and finds the
positions of its close calls and afterpulse candidates.  Everything
that evaluates p, resolves afterpulses or carries state from chunk to
chunk runs on the calling thread, so a wrapper around those functions,
such as a span tracer, sees one thread; every slice has ended before
the chunk is resolved and yielded.  A slice has at least 2^18 windows:
waking an idle core costs more than half the draws of a 2^16-window
chunk save, so small chunks, like those of a live 2^16-window loop,
stay on one thread and build no pool.
"""

from __future__ import annotations

import itertools
import math
import os
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
_MIN_SLICE = 1 << 18  # fewest windows a chunk is sliced into for another thread

_pool = None  # threads for slices 1 and up, shared by all streams as the cores are


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


def _below(u: np.ndarray, bound, out: np.ndarray | None = None) -> np.ndarray:
    """u < bound as a bool array: ``bound`` is a float, or one value per sub-interval of u."""
    if out is None:
        out = np.empty(u.size, dtype=bool)
    if not isinstance(bound, np.ndarray):
        return np.less(u, bound, out=out)
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
    cand: np.ndarray,
    p_of,
    taps: tuple[float, ...],
    start_index: int,
    last_avalanche: int,
) -> int:
    """Add tap-induced clicks in place; returns the new last-avalanche index.

    Only a candidate, a window that did not click on its own and has
    u < p + max(taps), can change state.  ``cand`` gives, in ascending
    order, the local positions of every candidate, and maybe of windows
    that change nothing: those at or above p + max(taps), and close calls
    of a modulated p that clicked on their own.  Such a click is the
    nearest avalanche of every later candidate within reach, so none of
    them depends on it.  ``p_of(idx)`` gives p at local indices, so p is
    evaluated at those windows only.  A candidate
    clicks when its distance d to the latest avalanche before it is at
    most len(taps) and u < p + taps[d - 1].  That avalanche is the
    latest unconditional click, or the one carried in from earlier
    chunks, unless an earlier candidate lies after it and within reach.
    Only the len(taps) windows before a candidate are looked at for it.
    All other candidates are settled in one vectorised step; the
    dependent ones follow in window order, one pass over just those,
    exact for chains of any length.
    Beyond O(candidates), nothing chunk-sized is allocated.
    """
    depth = len(taps)
    # local position, before the chunk; one further back than depth is out of reach
    carried = max(last_avalanche - start_index, -depth - 1)
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


def _slice_threads() -> int:
    """Threads a chunk's slices may run on, the calling one included."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cuts(count: int, threads: int) -> list[int]:
    """Slice edges of a chunk: multiples of _SPAN, _MIN_SLICE windows or more per slice."""
    k = min(threads, count // _MIN_SLICE)
    if k < 2:
        return [0, count]
    return [count * j // k // _SPAN * _SPAN for j in range(k)] + [count]


def _part(bound, a: int, b: int):
    """The bounds of windows a..b of a chunk, a a multiple of _SPAN."""
    return bound[a // _SPAN : -(-b // _SPAN)] if isinstance(bound, np.ndarray) else bound


def _positions(mask: np.ndarray, first: int, dtype) -> np.ndarray:
    """Chunk positions of the set windows of a slice that starts at ``first``."""
    idx = np.flatnonzero(mask)
    if first:
        idx += first
    return idx if dtype is np.intp else idx.astype(dtype)


def _draw_slice(rng, u, below, lo, hi, ceiling, first, dtype):
    """Draw and threshold windows ``first``.. of a chunk, whose draws are ``u``.

    Writes u < lo into ``below``.  Returns the chunk positions of the
    draws too close to call, lo <= u < hi (None without ``hi``, under a
    constant p), and, with a ``ceiling``, those of the draws under it
    and not under lo (else None).  Evaluates no p.
    """
    rng.random(out=u)
    _below(u, lo, out=below)
    close = near = mask = None
    if hi is not None:
        mask = _below(u, hi)
        mask ^= below
        close = _positions(mask, first, dtype)
    if ceiling is not None:
        mask = _below(u, ceiling, out=mask)
        np.greater(mask, below, out=mask)
        near = _positions(mask, first, dtype)
    return close, near


def _run_slices(jobs: list[tuple], threads: int) -> list[tuple]:
    """_draw_slice for every job, the first on this thread; all have ended on return."""
    global _pool
    if _pool is None:  # built on first use: concurrent.futures takes 7-11 ms to import
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="timebinrng-slice")
    futures = [_pool.submit(_draw_slice, *job) for job in jobs[1:]]
    try:
        first = _draw_slice(*jobs[0])
    finally:
        for f in futures:
            f.exception()  # waits; a slice's error is raised below
    return [first, *(f.result() for f in futures)]


def _joined(parts) -> np.ndarray | None:
    return parts[0] if len(parts) == 1 or parts[0] is None else np.concatenate(parts)


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
    A chunk of at least twice _MIN_SLICE windows is drawn and
    thresholded in slices on several threads; every slice has ended
    before the chunk is yielded, and p is only evaluated on the calling
    thread.
    """
    if n_windows < 0:
        raise DomainError(f"n_windows must be >= 0, got {n_windows}")
    if chunk_windows < 1:
        raise DomainError(f"chunk_windows must be >= 1, got {chunk_windows}")
    check_finite("t0", t0)
    seeds = np.random.SeedSequence([seed, channel_id])
    rngs = []  # one generator per slice, reused by the same slice of every chunk
    drawn = []  # the window each generator draws next
    threads = _slice_threads()
    taps = model.afterpulse_taps
    period = model.window_period
    constant_p = None if model.modulation is not None else model.base_probability()
    start = 0
    last_avalanche = _FAR_PAST
    buf = np.empty(min(chunk_windows, n_windows))  # the draws, refilled for every chunk
    # positions of several slices are joined, int32 in half the memory
    dtype = np.int32 if buf.size <= np.iinfo(np.int32).max else np.intp

    def times(idx):  # the times of local windows idx of the chunk at ``start``
        return t0 + np.add(idx, start, dtype=np.int64).astype(np.float64) * period

    def p_of(idx):  # p at local windows idx, bit for bit as over the whole chunk
        return constant_p if constant_p is not None else click_probability(model, times(idx))

    def moved(k, a, b):  # slice k's generator, at window a of the chunk, to draw up to b
        if k == len(rngs):
            rngs.append(np.random.Generator(np.random.PCG64(seeds)))
            drawn.append(0)
        if start + a > drawn[k]:  # window i takes the generator's i-th draw
            rngs[k].bit_generator.advance(start + a - drawn[k])
        drawn[k] = start + b
        return rngs[k]

    while start < n_windows:
        count = min(chunk_windows, n_windows - start)
        u = buf[:count]
        if constant_p is None:
            lo, hi = _bound_modulated(model, times, count)
            ceiling = hi + max(taps) if taps else None
        else:
            lo, hi = constant_p, None
            ceiling = constant_p + max(taps) if taps else None
        below = np.empty(count, dtype=bool)
        cuts = _cuts(count, threads)
        if len(cuts) == 2:  # one slice: no views, no jobs, positions not joined
            results = [_draw_slice(moved(0, 0, count), u, below, lo, hi, ceiling, 0, np.intp)]
        else:
            results = _run_slices([
                (moved(k, a, b), u[a:b], below[a:b],
                 _part(lo, a, b), _part(hi, a, b), _part(ceiling, a, b), a, dtype)
                for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
            ], threads)
        closes, nears = zip(*results)
        idx = _joined(closes)
        if idx is not None:
            below[idx] = u[idx] < p_of(idx)
        clicks = below.view(np.uint8)
        if taps:
            last_avalanche = _resolve_afterpulses(
                clicks, u, _joined(nears), p_of, taps, start, last_avalanche
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
