import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebinrng import (
    DetectionStream,
    DomainError,
    ModulationProfile,
    SourceModel,
    UnsupportedCaseError,
    afterpulse_entropy,
    export_nist,
    extract,
    k_grouped_order,
    min_entropy,
    preset,
    sanity_tests,
    simulate,
    statistical_error_scale,
    uniformity_matrix,
)
from timebinrng import analysis, streamio

from oracles import (
    block_counts_reference,
    event_probs_reference,
    file_bits,
    sanity_reference,
    subblock_max_z_reference,
    uniformity_deviations_reference,
)

# frozen against a 60-digit Decimal evaluation of the event probabilities
DEFICIT_TAP_43E4 = 1.0014767433492367e-07
DEFICIT_TAP_0033 = 6.4479864039054063e-04


def bits_from_string(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


class TestMinEntropy:
    def test_uniform_histogram_reaches_word_bits(self):
        d = 3
        words = np.arange(1 << d, dtype=np.uint16)
        bits = ((words[:, None] >> np.arange(d - 1, -1, -1)[None, :]) & 1).ravel()
        rep = min_entropy(bits.astype(np.uint8), d)
        assert rep.min_entropy == pytest.approx(d, abs=1e-12)
        assert rep.deviation == pytest.approx(0.0, abs=1e-12)

    def test_single_bit_words(self):
        rep = min_entropy(bits_from_string("0111"), 1)
        assert rep.min_entropy == pytest.approx(-math.log2(0.75), abs=1e-12)
        assert rep.histogram.tolist() == [1, 3]

    def test_partial_tail_word_dropped(self):
        rep = min_entropy(bits_from_string("0101010"), 2)
        assert rep.word_count == 3

    def test_words_are_msb_first(self):
        rep = min_entropy(bits_from_string("100001"), 3)
        assert rep.histogram[0b100] == 1
        assert rep.histogram[0b001] == 1

    @pytest.mark.parametrize("word_bits", range(1, 17))
    def test_histogram_matches_block_oracle(self, word_bits):
        # a partial tail word, and constant words at either end
        rng = np.random.default_rng(400 + word_bits)
        bits = np.concatenate((np.zeros(word_bits, np.uint8), rng.random(60 * word_bits) < 0.3,
                               np.ones(2 * word_bits - 1, np.uint8))).astype(np.uint8)
        rep = min_entropy(bits, word_bits)
        reference = block_counts_reference(bits, word_bits)[0]
        assert rep.histogram.dtype == np.int64
        assert (rep.histogram == reference).all()
        assert rep.word_count == bits.size // word_bits == reference.sum()

    @pytest.mark.parametrize("word_bits", [1, 3, 8, 16])
    def test_histogram_counted_in_slices(self, word_bits, monkeypatch):
        # 7 bits packed into each update: words straddle updates, and the
        # last update is ragged
        rng = np.random.default_rng(410 + word_bits)
        bits = (rng.random(60 * word_bits + word_bits - 1) < 0.4).astype(np.uint8)
        whole = min_entropy(bits, word_bits)
        monkeypatch.setattr(analysis, "_SLICE", 7)
        rep = min_entropy(bits, word_bits)
        assert (rep.histogram == block_counts_reference(bits, word_bits)[0]).all()
        assert (rep.histogram == whole.histogram).all() and rep.min_entropy == whole.min_entropy

    def test_single_bit_words_cost_under_1_5_bytes_per_bit(self):
        # np.bincount's intp copy of one word per bit once held 9 B/bit at d = 1
        bits = np.random.default_rng(411).integers(0, 2, 1 << 25, dtype=np.uint8)
        tracemalloc.start()
        try:
            rep = min_entropy(bits, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.histogram.sum() == bits.size
        assert peak <= 1.5 * bits.size

    def test_never_exceeds_shannon_of_histogram(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bits = (rng.random(4096) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            rep = min_entropy(bits, 4)
            freqs = rep.histogram / rep.word_count
            shannon = -sum(f * math.log2(f) for f in freqs if f > 0)
            assert rep.min_entropy <= shannon + 1e-12

    def test_extractor_output_is_near_uniform(self):
        # reduced-scale version of the full-size acceptance check
        for p, seed in ((0.3, 31), (0.5, 32), (0.7, 33)):
            model = SourceModel(mean_photons=-math.log(1 - p))
            out = extract(simulate(model, 4_000_000, seed=seed))
            bits = out.bit_array()
            for d in (1, 4, 8):
                rep = min_entropy(bits, d)
                assert rep.deviation < 5 * rep.stat_error_scale, (p, d)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            min_entropy(bits_from_string("01"), 0)
        with pytest.raises(DomainError):
            min_entropy(bits_from_string("01"), 17)
        with pytest.raises(DomainError):
            min_entropy(bits_from_string("01"), 3)

    def test_passed_is_deviation_below_five_scales(self):
        # 40,000 2-bit words, so the scale is 0.01; the most common word's
        # count puts the deviation at 4.5 and then 5.5 scales
        for top, expected in ((10_317, True), (10_388, False)):
            words = np.repeat(np.arange(4), [top, 20_000 - top, 10_000, 10_000])
            bits = ((words[:, None] >> np.array([1, 0])) & 1).ravel().astype(np.uint8)
            rep = min_entropy(bits, 2)
            assert rep.stat_error_scale == pytest.approx(0.01, rel=1e-12)
            assert rep.deviation / rep.stat_error_scale == pytest.approx(
                4.5 if expected else 5.5, abs=0.01
            )
            assert rep.bound_5x_scale == 5 * rep.stat_error_scale
            assert rep.passed is (rep.deviation < rep.bound_5x_scale) is expected


class TestStatErrorScale:
    def test_hundred_thousand_words_per_bin(self):
        for d in (1, 4, 8):
            assert statistical_error_scale(d, 100_000 * (1 << d)) == pytest.approx(
                3.16e-3, abs=5e-5
            )

    def test_one_word_per_bin(self):
        assert statistical_error_scale(5, 32) == 1.0

    def test_square_root_law(self):
        assert statistical_error_scale(4, 4000) == pytest.approx(
            2 * statistical_error_scale(4, 16000), rel=1e-12
        )

    def test_requires_words(self):
        with pytest.raises(DomainError):
            statistical_error_scale(4, 0)


class TestUniformityMatrix:
    def test_iid_stream_looks_uniform(self):
        model = SourceModel(mean_photons=math.log(2.0))
        stream = simulate(model, 4_000_000, seed=44)  # 1e6 blocks
        rep = uniformity_matrix(stream, 4)
        assert rep.pair_count == 500_000
        assert rep.counts.sum() == rep.pair_count
        assert rep.symmetry_deviation < 5
        assert rep.independence_deviation < 5
        assert rep.subblock_max_z < 4

    def test_alternating_patterns_flag_asymmetry(self):
        block_a = [0, 0, 1, 1]
        block_b = [1, 1, 0, 0]
        windows = np.array((block_a + block_b) * 512, dtype=np.uint8)
        rep = uniformity_matrix(DetectionStream(windows), 4)
        assert rep.counts[0b0011, 0b1100] == 512
        assert rep.counts[0b1100, 0b0011] == 0
        assert rep.symmetry_deviation > 5

    def test_modulated_stream_keeps_symmetry_and_subblock_uniformity(self):
        (model,) = preset("a")
        stream = simulate(model, 4_000_000, seed=45)
        rep = uniformity_matrix(stream, 4)
        assert rep.symmetry_deviation < 5
        assert rep.subblock_max_z < 4

    def test_k_grouped_order_matches_display_convention(self):
        order = k_grouped_order(4)
        ks = [bin(x).count("1") for x in order]
        assert ks == sorted(ks)
        assert list(order[:5]) == [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]
        assert order[-1] == 0b1111

    def test_needs_two_blocks(self):
        with pytest.raises(DomainError):
            uniformity_matrix(DetectionStream(np.zeros(5, dtype=np.uint8)), 4)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_subblock_max_z_matches_pairwise_oracle(self, n):
        # random pattern counts, ties and empty classes included, laid out as
        # a shuffled stream holding each pattern that many times
        rng = np.random.default_rng(100 + n)
        for high in (1, 2, 3, 8, 60, 200) * 4:
            counts = rng.integers(0, high, size=1 << n)
            counts[0] += 2  # two k = 0 blocks, so there is always a pair
            patterns = rng.permutation(np.repeat(np.arange(1 << n), counts))
            windows = (patterns[:, None] >> np.arange(n - 1, -1, -1)) & 1
            rep = uniformity_matrix(DetectionStream(windows.ravel().astype(np.uint8)), n)
            assert rep.pattern_counts.tolist() == counts.tolist()
            assert rep.subblock_max_z == subblock_max_z_reference(counts, n)

    @pytest.mark.parametrize("n", [4, 10])
    def test_subblock_max_z_of_a_drifting_stream_matches_oracle(self, n):
        (model,) = preset("a")
        rep = uniformity_matrix(simulate(model, 1_000_000, seed=46), n)
        assert rep.subblock_max_z > 0
        assert rep.subblock_max_z == subblock_max_z_reference(rep.pattern_counts, n)

    @pytest.mark.parametrize("rows", [5, analysis._ROWS])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_deviations_match_dense_reference(self, n, rows, monkeypatch):
        # an i.i.d. stream at p = 0.3 and one whose p swings 0.1..0.9 at 50 Hz;
        # 5 rows at a time leaves a ragged last slice for every n >= 3
        monkeypatch.setattr(analysis, "_ROWS", rows)
        drift = ModulationProfile(base=0.5, amplitude=0.4, angular_frequency=100 * math.pi,
                                  duration=1.0)
        iid = np.random.default_rng(300 + n).random(200_000) < 0.3
        streams = [
            DetectionStream(iid.astype(np.uint8)),
            simulate(SourceModel(modulation=drift), 200_000, seed=300 + n),
        ]
        for stream in streams:
            rep = uniformity_matrix(stream, n)
            assert rep.independence_deviation > 0
            reference = uniformity_deviations_reference(rep.counts)
            assert (rep.symmetry_deviation, rep.independence_deviation) == reference

    def test_memory_is_bounded_beside_counts(self):
        # five dense 4^12-cell float64 arrays once lived beside counts: 912 MiB at n = 12
        windows = (np.random.default_rng(301).random(48_000) < 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            rep = uniformity_matrix(DetectionStream(windows), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rep.counts.nbytes + (32 << 20)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_counts_match_block_oracle(self, n):
        # an odd block count with a partial tail, an even one without, constant
        # streams, and a single odd bit in the first or the odd last block
        rng = np.random.default_rng(500 + n)
        odd = n * 41
        single_first = np.zeros(odd, np.uint8)
        single_first[0] = 1
        single_last = np.ones(odd, np.uint8)
        single_last[-1] = 0
        streams = [
            (rng.random(odd + n - 1) < 0.4).astype(np.uint8),
            (rng.random(n * 40) < 0.6).astype(np.uint8),
            np.zeros(odd + 1, np.uint8),
            np.ones(odd + n - 1, np.uint8),
            single_first,
            single_last,
        ]
        if n == 12:  # a 4^12-cell report takes ~0.6 s
            streams = [streams[0], single_last]
        for windows in streams:
            rep = uniformity_matrix(DetectionStream(windows), n)
            pattern_counts, pairs = block_counts_reference(windows, n)
            assert rep.pattern_counts.dtype == np.int64
            assert (rep.pattern_counts == pattern_counts).all()
            cells = zip(*np.nonzero(rep.counts))
            assert {(int(x), int(y)): int(rep.counts[x, y]) for x, y in cells} == pairs
            assert rep.pair_count == sum(pairs.values()) == windows.size // n // 2

    @pytest.mark.parametrize("n", [2, 4])
    def test_pair_words_cost_under_3_bytes_per_window(self, n):
        # the block patterns, their int64 pairs and joint indices once lived
        # beside counts: 7.0 B/window at n = 2 and 3.5 at n = 4
        windows = (np.random.default_rng(302).random(1 << 22) < 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            rep = uniformity_matrix(DetectionStream(windows), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rep.counts.nbytes + 3 * windows.size

    def test_passed_is_the_5_5_4_sigma_rule(self):
        # pair-count matrices, each failing one bound alone, laid out as
        # streams of disjoint consecutive 4-window block pairs
        flat = np.full((16, 16), 100)
        asymmetric = flat.copy()
        asymmetric[0b0011, 0b1100] += 40  # block counts stay level
        asymmetric[0b1100, 0b0011] -= 40
        weight = np.ones(16)
        weight[0b0001] = 1.5
        skewed = np.rint(100 * np.outer(weight, weight)).astype(int)
        dependent = flat + 60 * np.eye(16, dtype=int)
        cases = {
            "flat": (flat, (True, True, True)),
            "asymmetric": (asymmetric, (False, True, True)),
            "same-k imbalance": (skewed, (True, True, False)),
            "dependent pairs": (dependent, (True, False, True)),
        }
        for name, (counts, expected) in cases.items():
            patterns = np.divmod(np.repeat(np.arange(256), counts.ravel()), 16)
            windows = (np.stack(patterns, axis=1).ravel()[:, None] >> np.arange(3, -1, -1)) & 1
            rep = uniformity_matrix(DetectionStream(windows.ravel().astype(np.uint8)), 4)
            assert (rep.counts == counts).all(), name
            below = (rep.symmetry_deviation < 5, rep.independence_deviation < 5,
                     rep.subblock_max_z < 4)
            assert below == expected, name
            assert rep.passed is all(below), name


class TestAfterpulseEntropy:
    def test_reference_event_probabilities(self):
        rep = afterpulse_entropy(0.5, [4.3e-4, 0.0, 0.0], 4, 1)
        assert rep.event_probs == pytest.approx(
            (0.062446, 0.062446, 0.062446, 0.0625), abs=5e-7
        )
        assert rep.conditional_entropy == pytest.approx(2.0, abs=1e-6)
        assert rep.deficit == pytest.approx(DEFICIT_TAP_43E4, rel=1e-9)

    def test_single_large_tap(self):
        rep = afterpulse_entropy(0.5, [0.033], 4, 1)
        assert rep.deficit == pytest.approx(DEFICIT_TAP_0033, rel=1e-9)

    def test_zero_taps_lose_nothing(self):
        rep = afterpulse_entropy(0.5, [0.0, 0.0, 0.0], 4, 1)
        assert rep.deficit == 0.0
        assert rep.conditional_entropy == 2.0  # log2 C(4,1)

    def test_deficit_monotone_in_each_tap(self):
        base = 0.0
        for tap in (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2):
            deficit = afterpulse_entropy(0.5, [tap], 4, 1).deficit
            assert deficit >= base
            base = deficit
        first = afterpulse_entropy(0.4, [0.01, 0.0], 4, 1).deficit
        second = afterpulse_entropy(0.4, [0.01, 0.02], 4, 1).deficit
        assert second >= first

    def test_entropy_plus_deficit_is_log2_count(self):
        rep = afterpulse_entropy(0.37, [0.02, 0.01], 6, 1)
        assert rep.conditional_entropy + rep.deficit == pytest.approx(
            math.log2(6), abs=1e-12
        )

    def test_event_probs_match_the_product_loop(self):
        rng = np.random.default_rng(600)
        for _ in range(2000):
            n = int(rng.integers(2, 21))
            p = float(rng.uniform(1e-6, 1.0))
            taps = (rng.random(int(rng.integers(0, 7))) * (1.0 - p)).tolist()
            rep = afterpulse_entropy(p, taps, n, 1)
            assert rep.event_probs == event_probs_reference(p, taps, n)

    def test_only_single_avalanche_blocks_supported(self):
        with pytest.raises(UnsupportedCaseError):
            afterpulse_entropy(0.5, [0.01], 4, 2)

    def test_tap_overflow_rejected(self):
        with pytest.raises(DomainError):
            afterpulse_entropy(0.9, [0.2], 4, 1)


class TestSanity:
    def test_reference_prg_passes(self):
        rng = np.random.default_rng(202)
        bits = (rng.random(200_000) < 0.5).astype(np.uint8)
        rep = sanity_tests(bits)
        assert rep.passed
        assert max(abs(z) for z in rep.z_scores().values()) < 4

    def test_all_ones_fails_hard(self):
        rep = sanity_tests(np.ones(20_000, dtype=np.uint8))
        assert not rep.passed
        assert rep.monobit_z > 100

    def test_alternating_bits_fail_runs(self):
        bits = np.tile([0, 1], 10_000).astype(np.uint8)
        rep = sanity_tests(bits)
        assert not rep.passed
        assert abs(rep.runs_z) > 4

    def test_needs_enough_bits(self):
        with pytest.raises(DomainError):
            sanity_tests(np.ones(100, dtype=np.uint8))

    def test_passed_flips_on_a_constant_stream(self):
        bits = (np.random.default_rng(203).random(50_000) < 0.5).astype(np.uint8)
        assert sanity_tests(bits).passed
        bits[20_000:40_000] = 0
        rep = sanity_tests(bits)
        assert not rep.passed
        assert rep.passed is (max(abs(z) for z in rep.z_scores().values()) < 4)
        assert not sanity_tests(np.zeros(20_000, dtype=np.uint8)).passed

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("where", [0, -1])
    def test_one_odd_bit_at_an_end(self, value, where):
        # one side of the lag-1 pair is constant: no correlation to divide by
        bits = np.full(20_000, 1 - value, dtype=np.uint8)
        bits[where] = value
        rep = sanity_tests(bits)
        assert rep.lag1_z == math.inf
        assert not rep.passed

    def test_z_scores_match_direct_run_count(self):
        rng = np.random.default_rng(206)
        streams = [
            (rng.random(20_001) < 0.5).astype(np.uint8),
            (np.cumsum(rng.random(20_000) < 0.3) % 2).astype(np.uint8),
            np.tile([0, 1], 10_000).astype(np.uint8),
            np.zeros(10_000, np.uint8),
            np.ones(10_001, np.uint8),
        ]
        for value in (0, 1):
            for where in (0, -1):
                bits = np.full(10_000, 1 - value, dtype=np.uint8)
                bits[where] = value
                streams.append(bits)
        for bits in streams:
            rep = sanity_tests(bits)
            assert rep.n_bits == bits.size
            assert (rep.monobit_z, rep.runs_z, rep.lag1_z) == sanity_reference(bits)

    def test_lag1_matches_pearson(self):
        rng = np.random.default_rng(204)
        bits = (np.cumsum(rng.random(30_001) < 0.4) % 2).astype(np.uint8)
        corr = np.corrcoef(bits[:-1].astype(float), bits[1:].astype(float))[0, 1]
        assert sanity_tests(bits).lag1_z == pytest.approx(corr * math.sqrt(30_000), rel=1e-9)

    def test_memory_is_bounded_per_bit(self):
        # the screen once held three float64 copies of the input, 16 B/bit
        bits = (np.random.default_rng(205).random(1 << 20) < 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            sanity_tests(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * bits.size


def report_fields(call):
    """The fields of the report that ``call`` returns, each with its type,
    arrays by dtype, shape and digest and floats by their bytes, so that
    equal means equal bit for bit; or the text of its DomainError."""
    try:
        report = call()
    except DomainError as exc:
        return str(exc)
    out = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):  # hashed in place: a 4^12-cell matrix is 128 MiB
            value = value.dtype.str, value.shape, hashlib.sha256(value).hexdigest()
        elif isinstance(value, float):
            value = struct.pack("<d", value)
        out[field.name] = type(getattr(report, field.name)), value
    return out


def fed_in_chunks(counter, bits, sizes, garbage):
    """Feed ``bits`` to an accumulator in chunks of the given sizes, then the
    rest; with ``garbage``, each payload has ones in its padding bits and
    one more byte, none of which the accumulator may read."""
    starts = np.cumsum([0, *sizes])
    for lo, hi in zip(starts, [*starts[1:], max(bits.size, starts[-1])]):
        chunk = bits[lo:hi]
        payload = np.packbits(chunk)
        if garbage:
            if chunk.size % 8:
                payload[-1] |= (1 << (-chunk.size % 8)) - 1
            payload = np.append(payload, np.uint8(0xA5))
        counter.update(payload, chunk.size)
    return counter.result()


@st.composite
def ragged_feeds(draw, lengths):
    """(bits, chunk sizes, garbage): a 0/1 array of a drawn length and click
    probability, and chunk sizes that include 0- and 1-bit chunks."""
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random(draw(lengths)) < p).astype(np.uint8)
    sizes = draw(st.lists(st.integers(0, 9) | st.integers(10, 4000), max_size=12))
    return bits, sizes, draw(st.booleans())


class TestAccumulators:
    """Each report's accumulator, fed a ragged chunking of packed payloads,
    gives the batch function's report field for field, or its DomainError."""

    @given(st.data())
    @settings(max_examples=80)
    def test_min_entropy(self, data):
        d = data.draw(st.integers(1, 16), label="word_bits")
        bits, sizes, garbage = data.draw(ragged_feeds(st.integers(0, 60 * d)))
        fed = report_fields(lambda: fed_in_chunks(analysis.MinEntropyCounts(d), bits, sizes,
                                                  garbage))
        assert fed == report_fields(lambda: min_entropy(bits, d))

    def check_uniformity(self, n, feed):
        bits, sizes, garbage = feed
        fed = report_fields(lambda: fed_in_chunks(analysis.UniformityCounts(n), bits, sizes,
                                                  garbage))
        assert fed == report_fields(lambda: uniformity_matrix(DetectionStream(bits), n))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_uniformity(self, data):
        n = data.draw(st.integers(2, 11), label="block_len")
        self.check_uniformity(n, data.draw(ragged_feeds(st.integers(0, 40 * n))))

    @given(ragged_feeds(st.integers(0, 600)))
    @settings(max_examples=2, deadline=None)
    def test_uniformity_at_the_largest_block(self, feed):
        # a 4^12-cell report takes ~0.7 s
        self.check_uniformity(analysis.UNIFORMITY_MAX_BLOCK, feed)

    @given(ragged_feeds(st.integers(0, 30) | st.integers(9_990, 12_000)))
    @settings(max_examples=60)
    def test_sanity(self, feed):
        bits, sizes, garbage = feed
        fed = report_fields(lambda: fed_in_chunks(analysis.SanityCounts(), bits, sizes, garbage))
        assert fed == report_fields(lambda: sanity_tests(bits))

    @pytest.mark.parametrize("payload, count", [
        (np.array([255], np.uint8), 800),  # 8 bits, not 800
        (np.array([[255]], np.uint8), 8),
        (np.array([255.0]), 8),
        (np.array([255], np.uint8), -1),
        (np.array([255], np.uint8), 8.0),
    ], ids=["short", "2-D", "float64", "negative", "non-integer"])
    @pytest.mark.parametrize("make", [
        lambda: analysis.MinEntropyCounts(8),
        lambda: analysis.UniformityCounts(4),
        analysis.SanityCounts,
    ], ids=["min-entropy", "uniformity", "sanity"])
    def test_malformed_chunk_is_refused_before_any_state_changes(self, make, payload, count):
        # as StreamingMerger.feed refuses it: no phantom bits are counted
        counter = make()
        counter.update(np.array([0b1011_0110, 0b0100_0000], np.uint8), 10)  # a 2-bit carry

        def state():
            return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(counter).items()}

        before = state()
        with pytest.raises(DomainError):
            counter.update(payload, count)
        assert state() == before


class TestExportNist:
    def test_ascii_is_byte_per_bit(self, tmp_path):
        path = export_nist(bits_from_string("111"), tmp_path / "bits.txt", "ascii")
        assert path.read_bytes() == b"111"

    def test_packed_writes_bytes_and_sidecar(self, tmp_path):
        path = export_nist(bits_from_string("111"), tmp_path / "bits.bin", "packed")
        assert path.read_bytes() == bytes([0b1110_0000])
        assert streamio.read_meta(path)["total_bits"] == 3

    @pytest.mark.parametrize("fmt", ["ascii", "packed"])
    def test_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        bits = (rng.random(1001) < 0.5).astype(np.uint8)
        path = export_nist(bits, tmp_path / f"bits.{fmt}", fmt)
        assert np.array_equal(file_bits(path), bits)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            export_nist(bits_from_string("1"), tmp_path / "x", "hex")
