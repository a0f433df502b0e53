import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebinrng import efficiency
from timebinrng import (
    DomainError,
    ModulationProfile,
    SourceModel,
    binary_rate,
    block_entropy_rate,
    crossing_points,
    extract,
    shannon_binary,
    simulate,
    time_average_binary_rate,
    verify_monotone_convergence,
    verify_optimal_p,
)

from oracles import crossing_reference, rate_reference, time_average_reference


class TestShannon:
    def test_half_is_one_bit(self):
        assert shannon_binary(0.5) == 1.0

    def test_known_value(self):
        # second expression: log2(p^-p * q^-q)
        p = 0.3
        alt = math.log2(p**-p * (1 - p) ** -(1 - p))
        assert shannon_binary(p) == pytest.approx(alt, rel=1e-14)
        assert shannon_binary(p) == pytest.approx(0.8812908992306927, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.47])
    def test_symmetry(self, p):
        assert shannon_binary(p) == pytest.approx(shannon_binary(1 - p), abs=1e-13)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.2])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            shannon_binary(p)


class TestBlockEntropyRate:
    def test_reference_values(self):
        assert block_entropy_rate(5, 0.5) == pytest.approx(0.5604, abs=1e-4)
        assert block_entropy_rate(10, 0.5) == pytest.approx(0.7294, abs=1e-4)

    def test_two_window_block(self):
        # single k = 1 term: (1/2) * 2 * (1/4) * log2(2)
        assert block_entropy_rate(2, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_below_shannon(self):
        for p in np.arange(0.05, 1.0, 0.05):
            for n in (2, 4, 8, 16, 48):
                h = block_entropy_rate(n, float(p))
                assert h <= shannon_binary(float(p)) + 1e-12

    def test_converges_to_shannon(self):
        for p in (0.2, 0.35, 0.5):
            err_small = abs(block_entropy_rate(12, p) - shannon_binary(p))
            err_large = abs(block_entropy_rate(48, p) - shannon_binary(p))
            assert err_large < err_small


class TestPerKReference:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_rates_match_fsum(self, n):
        for p in np.arange(0.01, 1.0, 0.02):
            p = float(p)
            assert abs(binary_rate(n, p) - rate_reference(n, p)) <= 1e-14
            assert abs(block_entropy_rate(n, p) - rate_reference(n, p, expanded=False)) <= 1e-14


class TestBinaryRate:
    def test_dark_count_regime(self):
        assert binary_rate(4, 0.01) == pytest.approx(0.0197, abs=1e-4)

    def test_exact_at_half(self):
        # (1/4) * (1/16) * (8 + 10 + 8); cross-checked by the Monte-Carlo
        # extraction test in test_extractor
        assert binary_rate(4, 0.5) == pytest.approx(0.40625, abs=1e-15)

    def test_power_of_two_blocks_lose_nothing(self):
        assert binary_rate(2, 0.5) == pytest.approx(block_entropy_rate(2, 0.5), abs=1e-15)

    def test_never_exceeds_block_rate(self):
        for p in np.arange(0.05, 1.0, 0.05):
            for n in (2, 3, 4, 8, 16, 48):
                assert binary_rate(n, float(p)) <= block_entropy_rate(n, float(p)) + 1e-12

    def test_monte_carlo_agreement(self):
        # empirical bits/window vs the closed form, three parameter points
        cases = {(4, 0.3): 41, (4, 0.5): 42, (8, 0.5): 43}
        n_windows = 10_000_000
        for (n, p), seed in cases.items():
            model = SourceModel(mean_photons=-math.log(1.0 - p))
            stream = simulate(model, n_windows, seed=seed)
            out = extract(stream, n)
            rate = out.stats.bits_emitted / n_windows
            sigma = _bits_per_window_sigma(n, p, n_windows)
            assert abs(rate - binary_rate(n, p)) < 3 * sigma, (n, p)


def _bits_per_window_sigma(n, p, n_windows):
    """Exact standard error of empirical bits/window over IID blocks."""
    from timebinrng import binary_expansion

    q = 1 - p
    e_b = e_b2 = 0.0
    for k in range(1, n):
        w = p**k * q ** (n - k)
        for width in binary_expansion(n, k).exponents:
            e_b += w * (1 << width) * width
            e_b2 += w * (1 << width) * width * width
    var_block = e_b2 - e_b * e_b
    blocks = n_windows // n
    return math.sqrt(var_block * blocks) / n_windows


class TestTimeAverage:
    def test_reference_modulation(self):
        profile = ModulationProfile(0.5, 0.3, 0.1 * math.pi, 20.0)
        avg = time_average_binary_rate(4, profile)
        assert avg == pytest.approx(0.3454, abs=1e-3)
        # closed form over full periods: 0.40625 - 0.625 A^2 - 0.5625 A^4
        assert avg == pytest.approx(0.34544375, abs=1e-7)

    def test_zero_amplitude_reduces_to_constant(self):
        profile = ModulationProfile(0.37, 0.0, 1.0, 5.0)
        assert time_average_binary_rate(4, profile) == pytest.approx(
            binary_rate(4, 0.37), abs=1e-9
        )

    def test_modulation_strictly_lowers_the_average(self):
        moving = ModulationProfile(0.5, 0.2, 0.1 * math.pi, 20.0)
        assert time_average_binary_rate(4, moving) < binary_rate(4, 0.5)
        # quadrature cross-check of the same closed form as above
        assert time_average_binary_rate(4, moving) == pytest.approx(0.38035, abs=1e-6)

    @pytest.mark.parametrize("duration", [40.0, 80.0, 2000.0, 40.01, 119.9])
    def test_against_quadrature_reference(self, duration):
        # omega*T at or near a multiple of 4 pi puts every first sample of a
        # bisecting quadrature on a zero of sin(omega t)
        omega = 0.1 * math.pi
        avg = time_average_binary_rate(4, ModulationProfile(0.5, 0.3, omega, duration))
        assert abs(avg - time_average_reference(4, 0.5, 0.3, omega, duration)) <= 1e-12
        assert abs(avg - 0.34544375) < 2e-4

    def test_random_profiles_against_quadrature_reference(self):
        rng = np.random.default_rng(1502)
        for omega_scale in (0.0, -1.0, 1e-9, 1.0, 50.0, -50.0):
            for _ in range(2):
                n = int(rng.integers(2, 65))
                base = float(rng.uniform(0.02, 0.98))
                amplitude = float(rng.uniform(0.0, 0.999) * min(base, 1.0 - base))
                omega = omega_scale * float(rng.uniform(0.5, 2.0))
                duration = float(10 ** rng.uniform(-2.0, 6.3))
                profile = ModulationProfile(base, amplitude, omega, duration)
                reference = time_average_reference(n, base, amplitude, omega, duration)
                assert abs(time_average_binary_rate(n, profile) - reference) <= 1e-12, profile

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            ModulationProfile(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            ModulationProfile(0.5, 0.2, 1.0, 0.0)


class TestOptimalP:
    @pytest.mark.parametrize("n", [2, 4, 7, 16])
    def test_argmax_at_half(self, n):
        record = verify_optimal_p(n, 0.01)
        assert record.passed
        assert record.argmax_p == pytest.approx(0.5, abs=0.01)
        assert record.max_violation <= 1e-12

    def test_grid_symmetry(self):
        for i in range(1, 50):
            p = i * 0.01
            assert block_entropy_rate(6, p) == pytest.approx(
                block_entropy_rate(6, 1 - p), abs=1e-12
            )

    def test_step_validation(self):
        with pytest.raises(DomainError):
            verify_optimal_p(4, 0.5)

    @pytest.mark.parametrize("step", [0.1, 0.01, 0.003, 1 / 11, 1 / 13])
    @pytest.mark.parametrize("reference", [None, 0.0])
    def test_slices_keep_the_whole_grid_argmax(self, step, reference):
        # 5-value slices against one argmax over the whole grid.  A made-up
        # reference of 0 makes the grid's own maximum count; at steps 1/11 and
        # 1/13, h(k/N) and h(1 - k/N) tie for many n, in different slices,
        # and the first must win
        for n in range(2, 65):
            grid = np.arange(1, int(1.0 / step) + 2) * step
            h = efficiency._per_k_sum(n, grid[grid < 1.0], efficiency._entropy_weights(n))
            ref = block_entropy_rate(n, 0.5) if reference is None else reference
            best = int(np.argmax(h))
            with mock.patch.object(efficiency, "_GRID_SLICE", 5), \
                    mock.patch.object(efficiency, "block_entropy_rate", lambda n, p: ref):
                record = verify_optimal_p(n, step)
            assert record.argmax_p == (float(grid[best]) if h[best] > ref else 0.5), n
            assert record.max_violation == max(0.0, float(h[best]) - ref), n

    def test_memory_is_bounded(self):
        # the grid a slice at a time: its 100,000 values at once hold ~98 MiB
        verify_optimal_p(64, 0.1)  # cached weights
        tracemalloc.start()
        try:
            record = verify_optimal_p(64, 1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.passed
        assert peak <= 4 << 20


class TestMonotoneConvergence:
    def test_full_range(self):
        record = verify_monotone_convergence(64)
        assert record.passed
        assert record.values[-1] > 0.9
        assert record.values[-1] < 1.0

    def test_reference_gap(self):
        record = verify_monotone_convergence(10)
        h5, h10 = record.values[3], record.values[8]
        assert h5 == pytest.approx(0.5604, abs=1e-4)
        assert h10 == pytest.approx(0.7294, abs=1e-4)
        assert h10 > h5


class TestCrossingPoints:
    def test_symmetric_roots(self):
        x1, x2 = crossing_points(4, 0.6)
        assert x1 < x2
        assert x1 + x2 == pytest.approx(4.0, abs=1e-9)

    def test_against_dense_scan(self):
        # bracket the sign changes with a 10^4-point scan and check the
        # closed-form roots fall inside those brackets
        n, p = 4, 0.6
        q = 1 - p
        ks = np.linspace(0, n, 10_001)
        vals = p**ks * q ** (n - ks) + p ** (n - ks) * q**ks - 2.0 ** (1 - n)
        signs = np.sign(vals)
        flips = np.nonzero(np.diff(signs) != 0)[0]
        assert flips.size == 2
        x1, x2 = crossing_points(n, p)
        assert ks[flips[0]] <= x1 <= ks[flips[0] + 1]
        assert ks[flips[1]] <= x2 <= ks[flips[1] + 1]

    def test_residuals_vanish(self):
        for n, p in [(2, 0.3), (5, 0.8), (13, 0.45), (64, 0.7)]:
            q = 1 - p
            target = 2.0 ** (1 - n)
            for x in crossing_points(n, p):
                residual = p**x * q ** (n - x) + p ** (n - x) * q**x - target
                assert abs(residual) < 1e-12

    def test_endpoint_sign(self):
        # weight at k = 0 exceeds the p = 1/2 value whenever p != 1/2
        for n, p in [(2, 0.4), (6, 0.9), (17, 0.2)]:
            assert (1 - p) ** n + p**n > 2.0 ** (1 - n)

    @given(
        st.integers(2, 64),
        st.floats(0.01, 0.99).filter(lambda p: abs(p - 0.5) > 1e-3),
    )
    @settings(max_examples=80)
    def test_roots_sum_to_n(self, n, p):
        x1, x2 = crossing_points(n, p)
        assert 0 < x1 < x2 < n
        assert abs(x1 + x2 - n) < 1e-9

    def test_degenerate_p(self):
        with pytest.raises(DomainError):
            crossing_points(4, 0.5)

    @pytest.mark.parametrize(
        "n, p",
        [(n, p) for n in (2, 3, 4, 5, 8, 13, 16, 17, 33, 64)
         for p in (0.01, 0.3, 0.4999, 0.500001, 0.7, 0.99)]
        + [(64, 1e-300), (64, 1 - 1e-16), (17, 0.5 + 2**-40), (64, 0.5 - 2**-30),
           (2, 0.5 + 2**-52), (64, 5e-324), (3, 0.25), (3, 0.75), (5, 0.2499999999)],
    )
    def test_matches_decimal_reference(self, n, p):
        # near p = 1/2 and near 0 or 1 too (a subnormal p included), and on both
        # sides of the |p - q| = 1/2 switch between the two forms of the logarithms
        for x, ref in zip(crossing_points(n, p), crossing_reference(n, p)):
            assert abs(x - ref) <= 1e-12


class TestReport:
    def test_ordering_invariant(self):
        n, p = 6, 0.4
        assert 0 <= binary_rate(n, p) <= block_entropy_rate(n, p) <= shannon_binary(p) <= 1.0
