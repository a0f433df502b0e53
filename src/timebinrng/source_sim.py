"""Seeded simulation of gated avalanche-detector channels.

A gate window clicks when the Poisson photon/dark-carrier count behind
it is nonzero: p = 1 - exp(-eta * (light + dark)).  An optional slow
sinusoidal modulation drives the click probability directly, standing
in for intensity or temperature drift, and afterpulsing adds
``taps[d-1]`` to it at the d-th gate after the most recent avalanche,
for d up to the tap list length.  Each chunk has bounds lo and top: a
draw below lo clicks, one at or above top cannot, and only the
undecided draws in between get p evaluated, once each, with the same
expression as for the whole chunk, so the stream is exactly the one
the full evaluation gives.  A constant p is lo, and top is
p + max(taps), or absent without taps.  A modulated p moves by at
most about 3e-3 over 2^15 windows of the lit scenarios, so it is
evaluated at the two end windows of each 2^15-window sub-interval and
bounded in between by the mean of those two values, give or take half
the Lipschitz constant |amplitude * angular_frequency| times the
sub-interval's length, plus a small absolute slack; top adds max(taps)
to the upper bound.  Each sub-interval is thresholded with one scalar
compare per bound; about 0.3% of the lit scenarios' windows fall
between the bounds.  These p values settle the undecided draws' own
clicks, then the afterpulse resolve: exact and mostly vectorised, it
settles most candidates by the latest unconditional click alone, most
of the rest, which wait on an earlier candidate, by that candidate's
settled state, and only chains of such waits in one pass over just
those windows.
A chunk holds one byte per window, its clicks; the draws are made and
thresholded in 2^16-window blocks, into buffers each slice keeps from
chunk to chunk, and only the undecided draws are kept, with their
positions.

Streams are reproducible: window i consumes exactly the i-th uniform
draw of a PCG64 generator seeded with SeedSequence([seed, channel_id]),
so a stream is fully determined by (model, n_windows, seed, channel_id)
regardless of chunking.

A large chunk is cut into contiguous slices, one per core this process
may run on, at multiples of the 2^15-window sub-interval.  Each slice
draws from its own generator, seeded the same way and kept from chunk
to chunk; ``PCG64.advance`` (about a microsecond) moves it on to the
slice's first window, so window i still takes the i-th draw and the
stream is the same on any number of cores.  The calling thread draws
slice 0 and a pool of threads, built on first use, the others.  A slice
only draws, thresholds against bounds computed beforehand and keeps its
undecided draws and their positions.  Everything that evaluates p,
resolves afterpulses or carries state from chunk to chunk runs on the
calling thread, so a wrapper around those functions, such as a span
tracer, sees one thread; every slice has ended before the chunk is
resolved and yielded.  A slice has at least 2^18 windows:
waking an idle core costs more than half the draws of a 2^16-window
chunk save, so small chunks, like those of a live 2^16-window loop,
stay on one thread and build no pool.
"""

from __future__ import annotations

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

_SPAN = 1 << 15  # windows per sub-interval over which a modulated p is bounded
_SLACK = 1e-9  # absolute margin of that bound, far above the rounding in t, w*t and sin
_MIN_SLICE = 1 << 18  # fewest windows a chunk is sliced into for another thread
_BLOCK = 1 << 16  # windows a slice draws and thresholds at a time, a multiple of _SPAN

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


def _below(u: np.ndarray, bound, out: np.ndarray) -> np.ndarray:
    """u < bound into ``out``: ``bound`` is a float, or one value per sub-interval of u,
    each sub-interval one compare against a scalar."""
    if not isinstance(bound, np.ndarray):
        return np.less(u, bound, out=out)
    for j, a in enumerate(range(0, u.size, _SPAN)):
        np.less(u[a : a + _SPAN], bound[j], out=out[a : a + _SPAN])
    return out


def _bound_modulated(model: SourceModel, times, count: int):
    """Per sub-interval bounds (lo, top) of a modulated chunk of ``count`` windows.

    lo <= p <= top - max(taps).  p is evaluated at the two end windows
    of each sub-interval only.  The float time grid is monotone, so
    every window t lies between its sub-interval's ends t_a and t_b.
    With L = |amplitude * angular_frequency|, p(t) is at least
    max(p_a - L (t - t_a), p_b - L (t_b - t)), which is at least their
    mean, (p_a + p_b) / 2 - L (t_b - t_a) / 2, and at most the same
    mean plus L (t_b - t_a) / 2: the band is L (t_b - t_a) wide.
    """
    first = np.arange(0, count, _SPAN)
    t = times(np.concatenate((first, np.minimum(first + (_SPAN - 1), count - 1))))
    p = click_probability(model, t)
    k = first.size
    mod = model.modulation
    mid = (p[:k] + p[k:]) / 2
    reach = abs(mod.amplitude * mod.angular_frequency) * (t[k:] - t[:k]) / 2 + _SLACK
    return mid - reach, mid + reach + max(model.afterpulse_taps, default=0.0)


def _resolve_afterpulses(
    clicks: np.ndarray,
    uc: np.ndarray,
    cand: np.ndarray,
    pc,
    taps: tuple[float, ...],
    start_index: int,
    last_avalanche: int,
) -> int:
    """Add tap-induced clicks in place; returns the last-avalanche index to
    carry into the next chunk.

    That is the latest avalanche in the chunk's last len(taps) windows,
    the only ones the next chunk can reach, or, when none clicked there,
    ``last_avalanche`` as given: the latest one in a shorter chunk, and
    out of the next chunk's reach, like any avalanche it hides, otherwise.

    Only a candidate, a window that did not click on its own and has
    u < p + max(taps), can change state.  ``cand`` gives, in ascending
    order, the local positions of every candidate, and maybe of windows
    that change nothing: those at or above p + max(taps), and undecided
    draws of a modulated p that clicked on their own.  Such a click is
    the nearest avalanche of every later candidate within reach, so none
    of them depends on it.  ``uc`` holds the draws u at those positions
    and ``pc`` p there, one value per position or a float under
    constant p.  A candidate clicks when its
    distance d to the latest avalanche before it is at most len(taps)
    and u < p + taps[d - 1].  That avalanche is the latest
    unconditional click, or the one carried in from earlier chunks,
    unless an earlier candidate lies after it and within reach.
    Only the len(taps) windows before a candidate are looked at for it.
    All other candidates are settled in one vectorised step, and so is
    each dependent one whose predecessor candidate is not itself
    dependent, from that predecessor's settled state.  Only the chained
    ones follow in window order, one pass over just those, exact for
    chains of any length.
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
    fired = np.zeros(cand.size, dtype=bool)
    for d, tap in enumerate(taps, 1):
        fired |= (dist == d) & (uc < pc + tap)
    # dependent: the previous candidate lies after the reference, within reach
    dep = np.flatnonzero(np.diff(cand) < dist[1:]) + 1
    if dep.size:
        # state: distance from a candidate to the latest avalanche at or
        # before it, 0 if it clicked.  A dependent whose predecessor is not
        # dependent takes that predecessor's settled state, all in one step;
        # a chained one, whose predecessor is dependent too, takes the state
        # just computed for it, in window order.
        tap_at = [*taps, -math.inf]  # tap at distance d; -inf never clicks
        x, q = uc[dep], (pc[dep] if np.ndim(pc) else pc)
        gap, reach = cand[dep] - cand[dep - 1], dist[dep]
        # the nearer of the predecessor's avalanche and the reference
        d = np.minimum(np.where(fired, 0, dist)[dep - 1] + gap, reach)
        state = np.where(x < q + np.take(tap_at, d - 1), 0, d)
        chained = np.flatnonzero(dep[1:] - 1 == dep[:-1]) + 1
        if chained.size:
            state = state.tolist()
            rows = (a[chained].tolist() for a in (x, np.broadcast_to(q, x.shape), gap, reach))
            for j, xj, qj, g, r in zip(chained.tolist(), *rows):
                d = min(state[j - 1] + g, r)
                state[j] = 0 if xj < qj + tap_at[d - 1] else d
        fired[dep] = np.equal(state, 0)
    clicks[cand[fired]] = 1
    # the next chunk looks back len(taps) windows at most
    lo = max(clicks.size - depth, 0)
    hits = np.flatnonzero(clicks[lo:])
    return start_index + lo + int(hits[-1]) if hits.size else last_avalanche


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


def _draw_slice(rng, u, mask, below, lo, top, first):
    """Draw and threshold windows ``first``.. of a chunk, _BLOCK at a time.

    ``u`` and ``mask`` are the slice's block buffers.  Writes u < lo
    into ``below``.  Returns, for each block, the chunk positions of its
    undecided draws, lo <= u < top, and those draws; no block without
    ``top``.  Evaluates no p.
    """
    found = []
    for a in range(0, below.size, _BLOCK):
        b = min(a + _BLOCK, below.size)
        ub = u[: b - a]
        rng.random(out=ub)
        _below(ub, _part(lo, a, b), out=below[a:b])
        if top is not None:
            m = _below(ub, _part(top, a, b), out=mask[: b - a])
            m ^= below[a:b]  # lo <= top, so every draw below lo is below top too
            idx = np.flatnonzero(m)
            found.append((idx + (first + a), ub[idx]))
    return found


def _run_slices(jobs: list[tuple], threads: int) -> list:
    """_draw_slice for every job, the first on this thread; all have ended on return.

    The pool for the others is built when a chunk first has more than one slice.
    """
    global _pool
    if _pool is None and len(jobs) > 1:  # concurrent.futures takes 7-11 ms to import
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="timebinrng-slice")
    futures = [_pool.submit(_draw_slice, *job) for job in jobs[1:]]
    try:
        first = _draw_slice(*jobs[0])
    finally:
        for f in futures:
            f.exception()  # waits; a slice's error is raised below
    return [first, *(f.result() for f in futures)]


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
    state carries across both chunk and block boundaries.  Each slice
    draws into one _BLOCK-window buffer of its own, reused for every
    block of every chunk; no yielded chunk shares it.
    A chunk of at least twice _MIN_SLICE windows is drawn and
    thresholded in slices on several threads; every slice has ended
    before the chunk is yielded, and p is only evaluated on the calling
    thread.
    """
    if n_windows < 0:
        raise DomainError(f"n_windows must be >= 0, got {n_windows}")
    if chunk_windows < 1:
        raise DomainError(f"chunk_windows must be >= 1, got {chunk_windows}")
    if seed < 0 or channel_id < 0:
        raise DomainError(f"seed and channel_id must be >= 0, got {seed} and {channel_id}")
    check_finite("t0", t0)
    seeds = np.random.SeedSequence([seed, channel_id])
    slots = []  # per slice: generator and block buffers, reused by the same slice of every chunk
    drawn = []  # the window each generator draws next
    threads = _slice_threads()
    taps = model.afterpulse_taps
    period = model.window_period
    constant_p = None if model.modulation is not None else model.base_probability()
    start = 0
    last_avalanche = _FAR_PAST
    block = min(_BLOCK, chunk_windows, n_windows)

    def times(idx):  # the times of local windows idx of the chunk at ``start``
        return t0 + np.add(idx, start, dtype=np.int64).astype(np.float64) * period

    def moved(k, a, b):  # slice k's slot, its generator at window a of the chunk, to draw up to b
        if k == len(slots):
            rng = np.random.Generator(np.random.PCG64(seeds))
            slots.append((rng, np.empty(block), np.empty(block, dtype=bool)))
            drawn.append(0)
        if start + a > drawn[k]:  # window i takes the generator's i-th draw
            slots[k][0].bit_generator.advance(start + a - drawn[k])
        drawn[k] = start + b
        return slots[k]

    while start < n_windows:
        count = min(chunk_windows, n_windows - start)
        if constant_p is None:
            lo, top = _bound_modulated(model, times, count)
        else:  # u < p settles every click but those a tap adds to draws in p..top
            lo, top = constant_p, constant_p + max(taps) if taps else None
        below = np.empty(count, dtype=bool)
        cuts = _cuts(count, threads)
        jobs = [
            (*moved(k, a, b), below[a:b], _part(lo, a, b), _part(top, a, b), a)
            for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
        ]
        found = [pair for part in _run_slices(jobs, threads) for pair in part]
        clicks = below.view(np.uint8)
        if top is not None:  # the blocks' undecided positions and draws, joined
            idx, uc = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
            del found  # the blocks' arrays, before the resolve's temporaries
            p = constant_p
            if p is None:  # p at the undecided windows, bit for bit as over the whole chunk
                p = click_probability(model, times(idx))
                below[idx] = uc < p
            if taps:
                last_avalanche = _resolve_afterpulses(
                    clicks, uc, idx, p, taps, start, last_avalanche
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


# Modulation of the lit scenarios.  The drive swings the click
# probability symmetrically about 1/2 over a 20 s period; the amplitude
# is the one consistent with the reference time-averaged yield of
# 0.3454 bits/window at block length 4.
LIT_MODULATION = ModulationProfile(
    base=0.5, amplitude=0.3, angular_frequency=0.1 * math.pi, duration=20.0
)

# Dark-carrier mean giving exactly p = 0.01 per window.
_DARK_RATE_1PCT = -math.log(0.99)

# light + dark together give p = 1/2 unmodulated
_LIT = SourceModel(
    mean_photons=math.log(1.98), dark_rate=_DARK_RATE_1PCT, modulation=LIT_MODULATION
)
_DARK = SourceModel(dark_rate=_DARK_RATE_1PCT)

# one model per channel: one modulated lit channel, two of them, two dark-count-only ones
SCENARIOS = {"a": (_LIT,), "b": (_LIT, _LIT), "c": (_DARK, _DARK)}


def preset(name: str) -> list[SourceModel]:
    """Source models for scenario ``a``, ``b``, or ``c``, one per channel."""
    if name not in SCENARIOS:
        raise DomainError(f"unknown scenario {name!r}; choose one of a, b, c")
    return list(SCENARIOS[name])
