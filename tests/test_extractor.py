import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebinrng import (
    BitPacker,
    DetectionStream,
    DomainError,
    StreamingExtractor,
    StreamingMerger,
    binary_rate,
    extract,
    merge_channels,
    simulate,
    SourceModel,
)
from timebinrng.combinatorics import MAX_BLOCK_LEN, binary_expansion, unrank_combination
from timebinrng.extractor import (
    _BATCH,
    MERGE_POLICIES,
    _codec,
    _premerge,
    fragments_to_bit_array,
)

from oracles import all_combinations, all_patterns, bits_of_fragment, naive_encode, pack_reference


def stream(bits, **kw):
    return DetectionStream(np.array(bits, dtype=np.uint8), **kw)


def encode(n, positions):
    """The shipped codec on one block: (value, width), or None if discarded."""
    out = extract(stream([int(i + 1 in positions) for i in range(n)]), n)
    if out.total_bits == 0:
        return None
    return int("".join(map(str, out.bit_array())), 2), out.total_bits


def pack(frags, cuts=()):
    """Pack (value, width) fragments with one BitPacker.add call
    per piece between the sorted cut positions."""
    values = np.array([v for v, _ in frags], dtype=np.int64)
    lengths = np.array([w for _, w in frags], dtype=np.uint8)
    packer = BitPacker()
    bounds = [0, *cuts, len(frags)]
    for lo, hi in zip(bounds, bounds[1:]):
        packer.add(values[lo:hi], lengths[lo:hi])
    return packer.getvalue(), packer.bit_length


class TestEncodeBlock:
    def test_rank_five_lands_in_second_subblock(self):
        assert encode(4, [1, 2]) == (1, 1)  # rank 5 of C(4,2)=4+2

    def test_rank_three_encodes_directly(self):
        assert encode(4, [1]) == (3, 2)  # rank 3 < 2^2

    def test_width_zero_subblock_discards(self):
        # C(5,1) = 4 + 1; the last pattern falls into the width-0 subblock
        assert encode(5, [1]) is None
        assert extract(stream([1, 0, 0, 0, 0]), 5).stats.fragments_discarded_alpha0 == 1

    def test_k_zero_and_k_full_discard(self):
        assert encode(4, []) is None
        assert encode(4, [1, 2, 3, 4]) is None

    def test_matches_naive_oracle_exhaustively(self):
        for n in range(2, 11):
            for pattern in all_patterns(n):
                positions = [i + 1 for i, b in enumerate(pattern) if b]
                assert encode(n, positions) == naive_encode(n, pattern)


class TestConditionalUniformity:
    def test_each_width_class_is_a_permutation(self):
        # all C(n,k) patterns, equally weighted: within every fragment
        # width the values 0..2^w-1 each occur exactly once
        for n in range(2, 11):
            for k in range(1, n):
                by_width = {}
                for pos in all_combinations(n, k):
                    frag = encode(n, pos)
                    if frag is not None:
                        by_width.setdefault(frag[1], []).append(frag[0])
                for width, values in by_width.items():
                    assert sorted(values) == list(range(1 << width))

    def test_bit_balance_is_exact(self):
        # 0s and 1s balance exactly at every (width, bit position) class
        for n in range(2, 11):
            for k in range(1, n):
                tallies = {}
                for pos in all_combinations(n, k):
                    frag = encode(n, pos)
                    if frag is None:
                        continue
                    value, width = frag
                    for b, bit in enumerate(bits_of_fragment(value, width)):
                        ones, total = tallies.get((width, b), (0, 0))
                        tallies[(width, b)] = (ones + bit, total + 1)
                for (width, b), (ones, total) in tallies.items():
                    assert ones * 2 == total


class TestExtract:
    def test_composes_block_fragments(self):
        out = extract(stream([1, 0, 0, 0, 1, 1, 0, 0]), 4)
        assert out.ascii_bits() == "111"
        assert out.stats.blocks_scanned == 2
        assert out.stats.bits_emitted == 3
        assert out.total_bits == 3

    def test_trailing_partial_block_dropped(self):
        out = extract(stream([1, 0, 0, 0, 1]), 4)
        assert out.stats.windows_seen == 5
        assert out.stats.blocks_scanned == 1
        assert out.ascii_bits() == "11"

    def test_empty_stream(self):
        out = extract(stream([]))
        assert out.total_bits == 0
        assert out.data == b""
        assert out.stats.blocks_scanned == 0

    def test_all_zero_stream_discards_everything(self):
        out = extract(stream([0] * 40), 4)
        assert out.total_bits == 0
        assert out.stats.blocks_discarded_k0_kn == 10

    def test_matches_scalar_path_exhaustively(self):
        # every pattern of every n in one stream: the bytes equal the
        # brute-force fragments packed by string concatenation
        for n in range(2, 11):
            patterns = list(all_patterns(n))
            windows = np.array(patterns, dtype=np.uint8).ravel()
            frags = [f for f in (naive_encode(n, p) for p in patterns) if f is not None]
            out = extract(DetectionStream(windows), n)
            assert (out.data, out.total_bits) == pack_reference(frags)

    def test_monte_carlo_rate_iid_half(self):
        n_windows = 1_000_000
        model = SourceModel(mean_photons=np.log(2.0))  # p = 1/2
        st_ = simulate(model, n_windows, seed=20260808)
        out = extract(st_, 4)
        rate = out.stats.bits_emitted / n_windows
        # exact per-block variance of emitted bits at p = 1/2:
        # E[B] = 26/16, E[B^2] = 50/16
        var_block = 50 / 16 - (26 / 16) ** 2
        sigma = np.sqrt(var_block * (n_windows / 4)) / n_windows
        assert abs(rate - binary_rate(4, 0.5)) < 3 * sigma

    def test_output_independent_of_stream_metadata(self):
        # blocks see only window values: drift parameters, channel and
        # period have no path into the bits
        rng = np.random.default_rng(5)
        windows = (rng.random(4000) < 0.37).astype(np.uint8)
        a = extract(DetectionStream(windows, channel_id=0, window_period=1e-6))
        b = extract(DetectionStream(windows, channel_id=3, window_period=5e-4))
        assert a.data == b.data and a.total_bits == b.total_bits

    def test_blockwise_composability(self):
        # output is the concatenation of per-block fragments, so block
        # reordering commutes with extraction; drifting p between blocks
        # cannot leak into the bits
        rng = np.random.default_rng(11)
        blocks = [(rng.random(4) < p).astype(np.uint8) for p in (0.1, 0.5, 0.9, 0.3)]
        whole = extract(DetectionStream(np.concatenate(blocks)))
        parts = [extract(DetectionStream(b)) for b in blocks]
        joined = "".join(p.ascii_bits() for p in parts)
        assert whole.ascii_bits() == joined


class TestStreamingExtractor:
    @given(st.lists(st.integers(0, 1), max_size=200), st.data())
    @settings(max_examples=60)
    def test_chunking_never_changes_output(self, bits, data):
        arr = np.array(bits, dtype=np.uint8)
        one_shot = extract(DetectionStream(arr) if bits else stream([]), 3)
        ex = StreamingExtractor(3)
        i = 0
        while i < len(bits):
            step = data.draw(st.integers(1, len(bits) - i))
            ex.feed(arr[i : i + step])
            i += step
        chunked = ex.finish()
        assert chunked.data == one_shot.data
        assert chunked.total_bits == one_shot.total_bits
        assert chunked.stats == one_shot.stats

    def test_remainder_carries_across_feeds(self):
        ex = StreamingExtractor(4)
        ex.feed(np.array([1, 0], dtype=np.uint8))
        ex.feed(np.array([0, 0, 1, 1, 0, 0], dtype=np.uint8))
        out = ex.finish()
        assert out.ascii_bits() == "111"


fragment_lists = st.lists(
    st.integers(1, 12).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))),
    max_size=64,
)


wide_fragment_lists = st.lists(
    st.integers(1, 64).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))),
    max_size=40,
)


class TestPackBits:
    def test_two_fragments(self):
        assert pack([(3, 2), (1, 1)]) == (bytes([0b1110_0000]), 3)

    def test_empty(self):
        assert pack([]) == (b"", 0)

    def test_three_bit_value(self):
        assert pack([(5, 3)]) == (bytes([0b1010_0000]), 3)

    @given(fragment_lists, st.data())
    def test_matches_string_reference(self, frags, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(frags)), max_size=8)))
        assert pack(frags, cuts) == pack_reference(frags)

    @given(wide_fragment_lists, st.integers(0, 40))
    def test_word_straddling_fragments(self, frags, cut):
        # widths up to a whole word straddle word boundaries at every offset
        values = np.array([v for v, _ in frags], dtype=np.uint64)
        lengths = np.array([w for _, w in frags])
        packer = BitPacker()
        packer.add(values[:cut], lengths[:cut])
        packer.add(values[cut:], lengths[cut:])
        assert (packer.getvalue(), packer.bit_length) == pack_reference(frags)

    @given(wide_fragment_lists, st.lists(st.integers(0, 40), max_size=8), st.integers(0, 48))
    def test_zero_width_fragments_add_nothing(self, frags, spots, cut):
        mixed = list(frags)
        for spot in spots:
            mixed.insert(spot, (0, 0))
        values = np.array([v for v, _ in mixed], dtype=np.uint64)
        lengths = np.array([w for _, w in mixed])
        packer = BitPacker()
        packer.add(values[:cut], lengths[:cut])
        packer.add(values[cut:], lengths[cut:])
        assert (packer.getvalue(), packer.bit_length) == pack_reference(frags)

    def test_zero_width_fragments_at_a_word_end(self):
        wide = (1 << 63) - 1
        assert pack([(wide, 64), (0, 0), (0, 0)]) == pack_reference([(wide, 64)])
        assert pack([(5, 32), (0, 0), (7, 32), (0, 0)], cuts=[2]) == pack_reference([(5, 32), (7, 32)])
        assert pack([(0, 0)]) == (b"", 0)

    def test_queued_calls_pack_like_one(self):
        # enough fragments that some calls start a packing pass of their own
        rng = np.random.default_rng(4)
        widths = rng.integers(0, 65, 3 * _BATCH)
        values = rng.integers(0, 1 << 63, widths.size, dtype=np.uint64) >> (64 - widths).astype(np.uint64)
        values[widths == 0] = 0
        packer = BitPacker()
        for lo in range(0, widths.size, 5000):
            packer.add(values[lo : lo + 5000], widths[lo : lo + 5000])
        frags = [(int(v), int(w)) for v, w in zip(values, widths) if w]
        assert (packer.getvalue(), packer.bit_length) == pack_reference(frags)

    def test_extend_appends_bits(self):
        first, second = BitPacker(), BitPacker()
        first.add(np.array([5]), np.array([3]))
        second.add(np.array([1, (1 << 64) - 1], dtype=np.uint64), np.array([1, 64]))
        first.extend(second)
        expected = pack_reference([(5, 3), (1, 1), ((1 << 64) - 1, 64)])
        assert (first.getvalue(), first.bit_length) == expected


class TestMergeChannels:
    def _two_channels(self):
        a = stream([1, 0, 0, 0, 1, 1, 0, 0], channel_id=0)
        b = stream([0, 1, 0, 0, 1, 0, 1, 0], channel_id=1)
        return [a, b]

    def test_round_robin_interleaves_by_block(self):
        merged = merge_channels(self._two_channels(), 4, "round-robin-block")
        a_frags = ["11", "1"]  # blocks 0, 1 of channel 0
        b_frags = ["10", "0"]  # blocks 0, 1 of channel 1
        assert merged.ascii_bits() == a_frags[0] + b_frags[0] + a_frags[1] + b_frags[1]

    def test_round_robin_orders_by_list_position(self):
        # channel ids play no part: the order of the list decides
        a, b = self._two_channels()
        a.channel_id, b.channel_id = 1, 0
        assert merge_channels([a, b], 4).ascii_bits() == "11" + "10" + "1" + "0"

    def test_round_robin_rejects_unequal_block_counts(self):
        a, b = self._two_channels()
        with pytest.raises(DomainError):
            merge_channels([a, stream(b.windows[:7])], 4, "round-robin-block")
        # a trailing partial block does not count
        merged = merge_channels([a, stream(list(b.windows) + [1])], 4)
        assert merged.ascii_bits() == "11" + "10" + "1" + "0"

    def test_single_channel_identity(self):
        s = stream([1, 0, 0, 0, 1, 1, 0, 0])
        for policy in ("round-robin-block", "per-channel"):
            merged = merge_channels([s], 4, policy)
            assert merged.data == extract(s).data
            assert merged.total_bits == extract(s).total_bits

    def test_per_channel_concatenates(self):
        merged = merge_channels(self._two_channels(), 4, "per-channel")
        assert merged.ascii_bits() == "11" + "1" + "10" + "0"

    def test_two_channels_double_the_yield(self):
        model = SourceModel(mean_photons=np.log(2.0))
        n = 400_000
        single = simulate(model, n, seed=1, channel_id=0)
        other = simulate(model, n, seed=1, channel_id=1)
        merged = merge_channels([single, other], 4, "round-robin-block")
        ratio = merged.stats.bits_emitted / extract(single).stats.bits_emitted
        assert abs(ratio - 2.0) < 0.02

    def test_needs_a_channel(self):
        with pytest.raises(DomainError):
            merge_channels([], 4, "per-channel")


class TestStreamingMerger:
    def test_matches_one_shot_merge(self):
        rng = np.random.default_rng(3)
        chans = [(rng.random(1003) < 0.4).astype(np.uint8) for _ in range(3)]
        for policy in ("round-robin-block", "per-channel"):
            one_shot = merge_channels([DetectionStream(w) for w in chans], 4, policy)
            merger = StreamingMerger(4, 3, policy)
            for lo in range(0, 1003, 97):
                merger.feed([w[lo : lo + 97] for w in chans])
            streamed = merger.finish()
            assert streamed.data == one_shot.data
            assert streamed.total_bits == one_shot.total_bits
            assert streamed.stats == one_shot.stats

    def test_unequal_feed_changes_nothing(self):
        rng = np.random.default_rng(5)
        chans = [(rng.random(30) < 0.5).astype(np.uint8) for _ in range(2)]
        merger = StreamingMerger(4, 2)
        merger.feed([w[:6] for w in chans])  # leaves a 2-window remainder in each channel
        before = (merger.stats.windows_seen, [r.copy() for r in merger._remainders])
        with pytest.raises(DomainError, match="equal full-block"):
            merger.feed([chans[0][6:14], chans[1][6:10]])  # 2 full blocks against 1
        assert merger.stats.windows_seen == before[0] == 12
        assert all(np.array_equal(r, b) for r, b in zip(merger._remainders, before[1]))
        merger.feed([w[6:] for w in chans])
        fresh = StreamingMerger(4, 2)
        fresh.feed(chans)
        got, expected = merger.finish(), fresh.finish()
        assert (got.data, got.total_bits, got.stats) == (
            expected.data, expected.total_bits, expected.stats
        )


class TestLargeBlocks:
    """Every block length's subblock edges, and block lengths above 16, which
    sum the per-byte rank tables instead of reading the folded table."""

    def test_every_subblock_edge_matches_oracle(self):
        # the first and last rank of every power-of-two subblock of C(n, k),
        # for every n and 0 < k < n, pin the closed-form subblock width
        for n in range(2, MAX_BLOCK_LEN + 1):
            positions = []
            for k in range(1, n):
                start = 0
                for e in binary_expansion(n, k).exponents:
                    for rank in sorted({start, start + (1 << e) - 1}):
                        positions.append(unrank_combination(n, k, rank).positions)
                    start += 1 << e
            blocks = np.zeros((len(positions), n), dtype=np.uint8)
            for row, pos in zip(blocks, positions):
                row[np.array(pos) - 1] = 1
            out = extract(DetectionStream(blocks.ravel()), n)
            frags = [naive_encode(n, block) for block in blocks.tolist()]
            kept = [f for f in frags if f is not None]
            assert (out.data, out.total_bits) == pack_reference(kept)
            assert out.stats.fragments_discarded_alpha0 == len(frags) - len(kept)

    def test_ranks_that_round_up_as_floats(self):
        # f XOR C(n, k) = 2^(e+1) - 1 has more than 53 bits, so float64 rounds
        # it up to 2^(e+1): the bit length must come out as e + 1 regardless
        blocks = []
        for n in range(2, MAX_BLOCK_LEN + 1):
            for k in range(1, n):
                c = math.comb(n, k)
                e = c.bit_length() - 1
                if e >= 53:
                    rank = ((1 << e) - 1) ^ (c % (1 << e))  # in the top subblock
                    row = np.zeros(n, dtype=np.uint8)
                    row[np.array(unrank_combination(n, k, rank).positions) - 1] = 1
                    blocks.append(row)
        assert len(blocks) > 100
        for row in blocks:
            n = row.size
            out = extract(DetectionStream(row), n)
            assert (out.data, out.total_bits) == pack_reference([naive_encode(n, row.tolist())])

    @pytest.mark.parametrize("n", [16, 17, 24, 33, 64])
    def test_vectorized_matches_scalar(self, n):
        rng = np.random.default_rng(n)
        windows = (rng.random(n * 50) < 0.5).astype(np.uint8)
        out = extract(DetectionStream(windows), n)
        blocks = windows.reshape(50, n).tolist()
        frags = [f for f in (naive_encode(n, b) for b in blocks) if f is not None]
        assert (out.data, out.total_bits) == pack_reference(frags)

    def test_yield_approaches_entropy_at_large_blocks(self):
        rng = np.random.default_rng(99)
        n_windows = 64 * 40_000
        windows = (rng.random(n_windows) < 0.5).astype(np.uint8)
        out = extract(DetectionStream(windows), 64)
        rate = out.stats.bits_emitted / n_windows
        assert abs(rate - binary_rate(64, 0.5)) < 0.01


class TestFragmentsToBitArray:
    def test_expansion_is_msb_first(self):
        bits = fragments_to_bit_array(
            np.array([3, 1], dtype=np.int64), np.array([2, 1], dtype=np.uint8)
        )
        assert bits.tolist() == [1, 1, 1]


def reference_merge(chans, n, policy):
    """Bytes, bit count and stats of a merge by the brute-force encoder."""
    per_channel = []
    stats = dict.fromkeys(
        ("blocks_scanned", "blocks_discarded_k0_kn", "fragments_discarded_alpha0", "bits_emitted"), 0
    )
    for windows in chans:
        blocks = windows[: windows.size - windows.size % n].reshape(-1, n).tolist()
        frags = []
        for block in blocks:
            frag = naive_encode(n, block)
            stats["blocks_scanned"] += 1
            if frag is None:
                key = "blocks_discarded_k0_kn" if sum(block) in (0, n) else "fragments_discarded_alpha0"
                stats[key] += 1
            else:
                stats["bits_emitted"] += frag[1]
            frags.append(frag)
        per_channel.append(frags)
    if policy == "round-robin-block":
        ordered = [f for row in zip(*per_channel) for f in row]
    else:
        ordered = [f for frags in per_channel for f in frags]
    data, total_bits = pack_reference([f for f in ordered if f is not None])
    stats["windows_seen"] = sum(w.size for w in chans)
    return data, total_bits, stats


class TestMergerOracle:
    """StreamingMerger against naive_encode + pack_reference: every block
    length, 1-3 channels, both policies, cuts anywhere, empty, full and
    random sources (empty and full blocks exercise the discard counts)."""

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, MAX_BLOCK_LEN), "n")
        n_channels = data.draw(st.integers(1, 3), "channels")
        policy = data.draw(st.sampled_from(MERGE_POLICIES), "policy")
        size = data.draw(st.integers(0, 48 * n), "windows per channel")
        p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), "p")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=6), "cuts"))
        rng = np.random.default_rng(seed)
        chans = [(rng.random(size) < p).astype(np.uint8) for _ in range(n_channels)]
        merger = StreamingMerger(n, n_channels, policy)
        bounds = [0, *cuts, size]
        for lo, hi in zip(bounds, bounds[1:]):
            merger.feed([w[lo:hi] for w in chans])
        out = merger.finish()
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert (out.data, out.total_bits) == (data_, total_bits)
        assert vars(out.stats) == stats

    def test_premerge_fills_whole_words(self):
        # n = 2 has 1-bit fragments, 8 to a 16-window index; three pairwise
        # joins reach 64 bits, exactly twice the widest 32-bit join
        rng = np.random.default_rng(2)
        first = rng.integers(0, 2, 64, dtype=np.uint8)
        windows = np.stack([first, 1 - first], axis=1).ravel()  # 64 blocks with k = 1
        codec = _codec(2)
        values, widths, _ = codec.encode(windows)
        values, widths = _premerge(values, widths, codec.levels)
        assert widths.tolist() == [64]
        out = extract(DetectionStream(windows), 2)
        assert (out.data, out.total_bits) == pack_reference([(int(b), 1) for b in first])
