import math
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import simulate_reference
from timebinrng import source_sim
from timebinrng import (
    DomainError,
    ModulationProfile,
    SourceModel,
    click_probability,
    iter_simulate,
    preset,
    simulate,
)
from timebinrng.source_sim import LIT_MODULATION


class TestClickProbability:
    def test_no_source_no_dark(self):
        assert click_probability(SourceModel(mean_photons=0.0, dark_rate=0.0)) == 0.0

    def test_ln2_gives_half(self):
        model = SourceModel(mean_photons=math.log(2.0), efficiency=1.0)
        assert click_probability(model) == pytest.approx(0.5, abs=1e-15)

    def test_efficiency_scales_exponent(self):
        model = SourceModel(mean_photons=2.0 * math.log(2.0), efficiency=0.5)
        assert click_probability(model) == pytest.approx(0.5, abs=1e-15)

    def test_lit_preset_swing(self):
        (model,) = preset("a")
        period = 2 * math.pi / model.modulation.angular_frequency
        peak = click_probability(model, period / 4)
        trough = click_probability(model, 3 * period / 4)
        assert peak == pytest.approx(model.modulation.base + model.modulation.amplitude)
        assert trough == pytest.approx(model.modulation.base - model.modulation.amplitude)


class TestSimulate:
    def test_zero_probability_stream_is_silent(self):
        stream = simulate(SourceModel(), 10_000, seed=1)
        assert stream.windows.sum() == 0

    def test_deterministic_given_seed(self):
        model = SourceModel(mean_photons=math.log(2.0))
        a = simulate(model, 50_000, seed=9)
        b = simulate(model, 50_000, seed=9)
        assert np.array_equal(a.windows, b.windows)
        c = simulate(model, 50_000, seed=10)
        assert not np.array_equal(a.windows, c.windows)

    def test_channels_are_independent_streams(self):
        model = SourceModel(mean_photons=math.log(2.0))
        a = simulate(model, 50_000, seed=9, channel_id=0)
        b = simulate(model, 50_000, seed=9, channel_id=1)
        assert not np.array_equal(a.windows, b.windows)

    def test_chunking_does_not_change_the_stream(self):
        model = SourceModel(
            mean_photons=math.log(2.0), afterpulse_taps=(0.05, 0.02, 0.01)
        )
        one = np.concatenate(list(iter_simulate(model, 30_000, seed=3, chunk_windows=30_000)))
        many = np.concatenate(list(iter_simulate(model, 30_000, seed=3, chunk_windows=997)))
        assert np.array_equal(one, many)

    def test_empirical_rate_at_half(self):
        n = 1_000_000
        model = SourceModel(mean_photons=math.log(2.0))
        stream = simulate(model, n, seed=123)
        sigma = 0.5 / math.sqrt(n)
        assert abs(stream.windows.mean() - 0.5) < 3 * sigma

    def test_iid_stream_has_no_lag_correlation(self):
        n = 10_000_000
        model = SourceModel(mean_photons=math.log(2.0))
        x = simulate(model, n, seed=77).windows.astype(np.float64)
        mean = x.mean()
        var = mean * (1 - mean)
        for lag in range(1, 9):
            corr = (np.mean(x[:-lag] * x[lag:]) - mean * mean) / var
            assert abs(corr) < 4 / math.sqrt(n - lag), lag

    def test_modulated_stream_tracks_p_of_t(self):
        (model,) = preset("a")
        n = 2_000_000  # 2 s at 1 MHz: first tenth of the modulation period
        stream = simulate(model, n, seed=5)
        t = np.arange(n) * model.window_period
        expected = model.modulation.p_at(t).mean()
        assert abs(stream.windows.mean() - expected) < 4 * 0.5 / math.sqrt(n)

    def test_negative_window_count_rejected(self):
        with pytest.raises(DomainError):
            simulate(SourceModel(), -1, seed=0)


class TestAfterpulsing:
    def test_distance_one_tap_raises_conditional_rate(self):
        p, tap = 0.3, 0.08
        model = SourceModel(mean_photons=-math.log(1 - p), afterpulse_taps=(tap,))
        clicks = simulate(model, 2_000_000, seed=21).windows
        after = clicks[1:][clicks[:-1] == 1]
        target = p + tap
        sigma = math.sqrt(target * (1 - target) / after.size)
        assert abs(after.mean() - target) < 3 * sigma

    def test_memory_is_most_recent_avalanche_only(self):
        # distance counts from the latest avalanche: right after a click
        # the first tap (zero here) applies, not the large second tap
        p, taps = 0.2, (0.0, 0.6)
        model = SourceModel(mean_photons=-math.log(1 - p), afterpulse_taps=taps)
        clicks = simulate(model, 2_000_000, seed=22).windows
        d1 = clicks[1:][clicks[:-1] == 1]
        sigma1 = math.sqrt(p * (1 - p) / d1.size)
        assert abs(d1.mean() - p) < 4 * sigma1
        at_d2 = (clicks[1:-1] == 0) & (clicks[:-2] == 1)
        d2 = clicks[2:][at_d2]
        target = p + taps[1]
        sigma2 = math.sqrt(target * (1 - target) / d2.size)
        assert abs(d2.mean() - target) < 4 * sigma2

    def test_memory_per_window(self):
        # a candidate looks back over len(taps) windows only: no array of
        # click positions, which took 16 B per click
        model = SourceModel(mean_photons=math.log(2.0), afterpulse_taps=(0.1, 0.05))
        n = 1 << 22
        tracemalloc.start()
        try:
            next(iter_simulate(model, n, seed=1, chunk_windows=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n <= 12.0  # u (8 B), clicks, one mask, O(candidates); 18 B with positions

    def test_zero_taps_equal_no_taps(self):
        base = SourceModel(mean_photons=math.log(2.0))
        tapped = SourceModel(mean_photons=math.log(2.0), afterpulse_taps=(0.0, 0.0))
        a = simulate(base, 100_000, seed=8)
        b = simulate(tapped, 100_000, seed=8)
        assert np.array_equal(a.windows, b.windows)

    def test_tap_overflow_rejected_at_construction(self):
        with pytest.raises(DomainError):
            SourceModel(mean_photons=10.0, afterpulse_taps=(0.5,))
        with pytest.raises(DomainError):
            SourceModel(
                modulation=ModulationProfile(0.5, 0.4, 1.0, 1.0),
                afterpulse_taps=(0.2,),
            )

    def test_negative_tap_rejected(self):
        with pytest.raises(DomainError):
            SourceModel(afterpulse_taps=(-0.1,))

    @pytest.mark.parametrize("make", [
        lambda x: SourceModel(dark_rate=x),
        lambda x: SourceModel(mean_photons=x),
        lambda x: SourceModel(gate_frequency=x),
        lambda x: SourceModel(afterpulse_taps=(0.01, x)),
        lambda x: ModulationProfile(0.5, 0.1, x, 1.0),
        lambda x: ModulationProfile(0.5, 0.1, 1.0, x),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.1", True])
    def test_non_finite_or_non_numeric_parameters_rejected(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    @given(st.data())
    def test_resolve_matches_reference_loop(self, data):
        modulated = data.draw(st.booleans(), "modulated")
        if modulated:
            amplitude = data.draw(st.floats(0.0, 0.3), "amplitude")
            base = data.draw(st.floats(amplitude + 0.01, 0.6), "base")
            omega = data.draw(st.floats(0.0, 3e5), "omega")  # periods down to ~20 windows
            model = SourceModel(modulation=ModulationProfile(base, amplitude, omega, 1.0))
        else:
            p = data.draw(st.floats(0.0, 0.6), "p")
            model = SourceModel(mean_photons=-math.log1p(-p))
        room = 1.0 - model.peak_probability()
        shares = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        taps = tuple(room * t for t in data.draw(st.lists(shares, min_size=1, max_size=4), "taps"))
        try:  # room * 1.0 reaches the peak + max(taps) = 1 limit, give or take rounding
            model = SourceModel(**{**vars(model), "afterpulse_taps": taps})
        except DomainError:
            taps = tuple(math.nextafter(t, 0.0) if t == max(taps) else t for t in taps)
            model = SourceModel(**{**vars(model), "afterpulse_taps": taps})
        n = data.draw(st.integers(1, 3_000), "windows")
        chunk = data.draw(st.integers(max(1, n // 64), n), "chunk")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        expected = simulate_reference(model, n, seed)  # whole-array p + afterpulse_reference
        got = np.concatenate(list(iter_simulate(model, n, seed, chunk_windows=chunk)))
        assert np.array_equal(got, expected)


@contextmanager
def recorded_p_at():
    """Patch ``ModulationProfile.p_at`` to record every time array it is given."""
    seen = []
    p_at = ModulationProfile.p_at

    def recording(self, t):
        seen.append(np.ravel(t))
        return p_at(self, t)

    with mock.patch.object(ModulationProfile, "p_at", recording):
        yield seen


class TestModulationBound:
    """A modulated chunk evaluates p(t) only where a draw is too close to call."""

    @given(st.data())
    def test_matches_whole_array_reference(self, data):
        amplitude = data.draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.45), "amplitude")
        base = data.draw(st.floats(amplitude + 0.01, 0.99 - amplitude), "base")
        # from constant p through the lit drift to many periods per sub-interval,
        # where the bound is vacuous and every window is evaluated
        magnitude = data.draw(
            st.sampled_from([0.0, 0.1 * math.pi, 1e7]) | st.floats(-3.0, 7.0).map(lambda e: 10**e),
            "omega",
        )
        omega = magnitude * data.draw(st.sampled_from([1, -1]), "sign")
        gate_frequency = data.draw(st.sampled_from([1e3, 1e6, 1e9]), "gate_frequency")
        room = 1.0 - (base + amplitude)
        taps = tuple(room * t for t in data.draw(st.lists(st.floats(0.0, 0.99), max_size=4), "taps"))
        model = SourceModel(
            modulation=ModulationProfile(base, amplitude, omega, 1.0),
            afterpulse_taps=taps,
            gate_frequency=gate_frequency,
        )
        t0 = data.draw(st.sampled_from([0.0, 1e6]) | st.floats(0.0, 1e6), "t0")
        n = data.draw(st.integers(1, 5 * source_sim._SPAN), "windows")
        # chunks of any length split sub-intervals, which start anew in each chunk
        chunk = data.draw(st.integers(max(1, n // 16), n), "chunk")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        expected = simulate_reference(model, n, seed, t0=t0)
        with recorded_p_at() as seen:
            got = np.concatenate(list(iter_simulate(model, n, seed, chunk_windows=chunk, t0=t0)))
        assert np.array_equal(got, expected)
        # p is only ever evaluated at times of the whole-stream grid, bit for bit
        grid = t0 + np.arange(n, dtype=np.float64) * model.window_period
        assert np.isin(np.concatenate(seen).view(np.uint64), grid.view(np.uint64)).all()

    def test_p_is_evaluated_for_few_windows(self):
        (model,) = preset("a")
        n = 1 << 20
        with recorded_p_at() as seen:
            got = np.concatenate(list(iter_simulate(model, n, seed=4, chunk_windows=1 << 16)))
        assert np.array_equal(got, simulate_reference(model, n, seed=4))
        assert 0 < sum(t.size for t in seen) < 0.005 * n

    def test_memory_per_window(self):
        (model,) = preset("a")
        n = 1 << 22
        tracemalloc.start()
        try:
            next(iter_simulate(model, n, seed=1, chunk_windows=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n <= 12.0  # u (8 B) + clicks + one mask; 32 B with p at every window

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_t0_rejected(self, t0):
        (model,) = preset("a")
        with pytest.raises(DomainError, match="t0"):
            next(iter_simulate(model, 100, seed=1, t0=t0))


@contextmanager
def sliced(threads):
    """Cut every chunk into up to ``threads`` slices of at least 4,096 windows."""
    with mock.patch.object(source_sim, "_slice_threads", lambda: threads), \
            mock.patch.object(source_sim, "_MIN_SLICE", source_sim._SPAN):
        yield


def run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this copy of the package."""
    src = os.path.dirname(os.path.dirname(source_sim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def thread_recorder(fn, seen):
    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return fn(*args, **kwargs)

    return recording


class TestSlices:
    """Slices of a chunk draw on other threads from generators advanced to them."""

    @given(st.data())
    def test_matches_whole_array_reference(self, data):
        threads = data.draw(st.integers(1, 4), "threads")
        if data.draw(st.booleans(), "modulated"):
            # drift from the lit scenario's through a bound that changes a lot from one
            # sub-interval to the next (30 rad/s) to bounds too wide to settle any draw
            omega = data.draw(st.sampled_from([0.1 * math.pi, 30.0, 3e3, 3e5]), "omega")
            model = SourceModel(modulation=ModulationProfile(0.4, 0.3, omega, 1.0))
        else:
            model = SourceModel(mean_photons=-math.log1p(-data.draw(st.floats(0.0, 0.6), "p")))
        room = 1.0 - model.peak_probability()
        shares = data.draw(st.lists(st.floats(0.0, 0.99), max_size=3), "taps")
        model = SourceModel(**{**vars(model), "afterpulse_taps": tuple(room * t for t in shares)})
        # at least two sub-intervals, so that every chunk of 2 * 4,096 windows or more
        # is sliced; a shorter last chunk then draws alone from a moved generator
        n = data.draw(st.integers(2 * source_sim._SPAN, 12 * source_sim._SPAN), "windows")
        # most chunk lengths are no multiple of 4,096, so a chunk's last slice is ragged
        chunk = data.draw(st.integers(n // 5, n), "chunk")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        with sliced(threads):
            got = np.concatenate(list(iter_simulate(model, n, seed, chunk_windows=chunk)))
        assert np.array_equal(got, simulate_reference(model, n, seed))

    def test_cuts(self):
        with sliced(3):
            assert source_sim._cuts(3 * 4096 - 1, 3) == [0, 4096, 12287]  # two slices fit
            assert source_sim._cuts(3 * 4096, 3) == [0, 4096, 8192, 12288]
            assert source_sim._cuts(10**6, 3) == [0, 331776, 663552, 10**6]
        assert source_sim._cuts(1 << 19, 1) == [0, 1 << 19]
        assert source_sim._cuts((1 << 19) - 1, 8) == [0, (1 << 19) - 1]  # 2^18 or more per slice

    def test_p_and_resolve_run_on_the_iterating_thread(self):
        model = SourceModel(
            modulation=ModulationProfile(0.4, 0.3, 3e3, 1.0), afterpulse_taps=(0.1, 0.05)
        )
        n = 1 << 16
        seen, drawn = [], []
        with sliced(4), \
                mock.patch.object(ModulationProfile, "p_at", thread_recorder(ModulationProfile.p_at, seen)), \
                mock.patch.object(source_sim, "_resolve_afterpulses",
                                  thread_recorder(source_sim._resolve_afterpulses, seen)), \
                mock.patch.object(source_sim, "_draw_slice",
                                  thread_recorder(source_sim._draw_slice, drawn)):
            got = np.concatenate(list(iter_simulate(model, n, seed=6, chunk_windows=n // 2)))
        assert np.array_equal(got, simulate_reference(model, n, seed=6))
        assert seen and set(seen) == {threading.get_ident()}
        assert len(drawn) == 8 and len(set(drawn)) > 1  # the slices did run elsewhere

    def test_no_pool_on_one_thread(self):
        model = preset("c")[0]
        with sliced(1), mock.patch.object(source_sim, "_pool", None):
            for _ in iter_simulate(model, 1 << 20, seed=1):
                pass
            assert source_sim._pool is None

    def test_small_chunks_import_no_pool(self):
        # 2^16-window chunks are never sliced, whatever the number of cores
        code = (
            "import sys; from timebinrng import cli, source_sim as s\n"
            "for c in s.iter_simulate(s.preset('a')[0], 1 << 20, 1, chunk_windows=1 << 16): pass\n"
            "assert 'concurrent.futures' not in sys.modules, 'imported'"
        )
        run_python(code)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_builds_its_own_pool(self):
        # the child inherits the parent's pool object but none of its threads,
        # so a slice submitted there would wait for ever
        code = (
            "import os, signal, sys; from timebinrng import source_sim as s\n"
            "s._slice_threads = lambda: 2; s._MIN_SLICE = 4096\n"
            "m = s.preset('c')[0]\n"
            "first = list(s.iter_simulate(m, 1 << 14, 1))\n"
            "assert s._pool is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)\n"
            "    again = list(s.iter_simulate(m, 1 << 14, 1))\n"
            "    os._exit(0 if all((a == b).all() for a, b in zip(first, again)) else 3)\n"
            "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
        )
        run_python(code)


class TestSinIsBitwiseStable:
    """np.sin gives an element the same bits in a full, offset or gathered array.

    The bounded modulation evaluates p at gathered windows and must match
    an evaluation over the whole chunk bit for bit.
    """

    LENGTHS = sorted(
        {*range(1, 80)}
        | {(1 << e) + d for e in range(6, 21) for d in (-1, 0, 1) if (1 << e) + d <= 1 << 20}
    )

    def _arguments(self, rng, size):
        # w*t as the simulator forms it (small drift phases through 1e13 rad),
        # mixed with plain uniform phases, signs both ways
        magnitude = 10.0 ** rng.uniform(-3, 13, size)
        mixed = np.where(rng.random(size) < 0.5, magnitude, rng.uniform(0, 2e3, size))
        return np.where(rng.random(size) < 0.2, -mixed, mixed)

    def test_offsets_and_gathers(self):
        rng = np.random.default_rng(20261018)
        for size in self.LENGTHS:
            x = self._arguments(rng, size)
            full = np.sin(x).view(np.uint64)
            for offset in {1, 3, 7, 13} & set(range(size)):
                assert np.array_equal(np.sin(x[offset:]).view(np.uint64), full[offset:]), size
            for share in (0.001, 0.1, 0.5):
                idx = np.flatnonzero(rng.random(size) < share)
                assert np.array_equal(np.sin(x[idx]).view(np.uint64), full[idx]), size
            one = rng.integers(size)
            assert np.sin(x[one : one + 1]).view(np.uint64)[0] == full[one], size


class TestPresets:
    def test_scenario_a(self):
        models = preset("a")
        assert len(models) == 1
        mod = models[0].modulation
        assert mod.base == 0.5
        assert mod.angular_frequency == pytest.approx(0.1 * math.pi)
        assert mod is LIT_MODULATION

    def test_scenario_b_is_two_lit_channels(self):
        models = preset("b")
        assert len(models) == 2
        assert all(m.modulation is LIT_MODULATION for m in models)

    def test_scenario_c_is_dark_only(self):
        models = preset("c")
        assert len(models) == 2
        for m in models:
            assert m.modulation is None
            assert m.mean_photons == 0.0
            assert click_probability(m) == pytest.approx(0.01, abs=1e-15)

    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            preset("d")
