import io
import math
import os
import tempfile
from unittest import mock

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
from timebinrng import extractor
from timebinrng.combinatorics import MAX_BLOCK_LEN, binary_expansion, unrank_combination
from timebinrng.extractor import (
    _BATCH,
    MERGE_POLICIES,
    _block_words,
    _codec,
    _premerge,
    fragments_to_bit_array,
)

from oracles import (
    all_combinations,
    all_patterns,
    bits_of_fragment,
    byte_rank_term,
    naive_encode,
    pack_reference,
)


def stream(bits, **kw):
    return DetectionStream(np.array(bits, dtype=np.uint8), **kw)


def encode(n, positions):
    """The shipped codec on one block: (value, width), or None if discarded."""
    out = extract(stream([int(i + 1 in positions) for i in range(n)]), n)
    if out.total_bits == 0:
        return None
    return int("".join(map(str, out.bit_array())), 2), out.total_bits


def closed(packer, sink):
    """The bytes and bit count that ``packer`` wrote to ``sink``, once closed."""
    packer.close()
    return sink.getvalue(), packer.bit_length


def pack(frags, cuts=()):
    """Pack (value, width) fragments with one BitPacker.add call
    per piece between the sorted cut positions."""
    values = np.array([v for v, _ in frags], dtype=np.int64)
    lengths = np.array([w for _, w in frags], dtype=np.uint8)
    packer = BitPacker(sink := io.BytesIO())
    bounds = [0, *cuts, len(frags)]
    for lo, hi in zip(bounds, bounds[1:]):
        packer.add(values[lo:hi], lengths[lo:hi])
    return closed(packer, sink)


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
        packer = BitPacker(sink := io.BytesIO())
        packer.add(values[:cut], lengths[:cut])
        packer.add(values[cut:], lengths[cut:])
        assert closed(packer, sink) == pack_reference(frags)

    @given(wide_fragment_lists, st.lists(st.integers(0, 40), max_size=8), st.integers(0, 48))
    def test_zero_width_fragments_add_nothing(self, frags, spots, cut):
        mixed = list(frags)
        for spot in spots:
            mixed.insert(spot, (0, 0))
        values = np.array([v for v, _ in mixed], dtype=np.uint64)
        lengths = np.array([w for _, w in mixed])
        packer = BitPacker(sink := io.BytesIO())
        packer.add(values[:cut], lengths[:cut])
        packer.add(values[cut:], lengths[cut:])
        assert closed(packer, sink) == pack_reference(frags)

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
        frags = [(int(v), int(w)) for v, w in zip(values, widths) if w]  # the packer owns the arrays
        packer = BitPacker(sink := io.BytesIO())
        for lo in range(0, widths.size, 5000):
            packer.add(values[lo : lo + 5000], widths[lo : lo + 5000])
        assert closed(packer, sink) == pack_reference(frags)

    @staticmethod
    def packed_in_passes(*passes):
        """Bytes and bit count of one BitPacker fed one pass per argument."""
        packer = BitPacker(sink := io.BytesIO())
        for frags in passes:
            values, widths = zip(*frags)
            packer.add(np.array(values, dtype=np.uint64), np.array(widths))
            packer.bit_length  # packs what is queued
        return closed(packer, sink)

    def test_whole_words_on_word_boundaries(self):
        a, b, c = (1 << 63) | 5, (1 << 64) - 1, 0x0123_4567_89AB_CDEF
        # starts at bits 0, 64 and 128 of a pass with no pending bits
        assert self.packed_in_passes([(a, 64), (b, 64), (c, 64)]) == pack_reference(
            [(a, 64), (b, 64), (c, 64)]
        )
        # 3 pending bits carried in, then 61 bits complete their word, so
        # the 64-bit fragments start on word boundaries again
        frags = [(5, 3), ((1 << 61) - 3, 61), (a, 64), (b, 64), (c, 64)]
        assert self.packed_in_passes(frags[:1], frags[1:]) == pack_reference(frags)
        # a pass that ends on a word end carries no bits into the next
        assert self.packed_in_passes(frags[:2], frags[2:]) == pack_reference(frags)

    def test_spill_into_the_carried_word_then_zero_widths(self):
        x, y = (1 << 40) - 7, (1 << 39) + 3
        spilled = [(x, 40), (y, 40)]  # y spills into the word carried to the next pass
        expected = pack_reference(spilled)
        assert self.packed_in_passes(spilled) == expected
        # width-0 fragments after the spill, in the next pass or in the same
        assert self.packed_in_passes(spilled, [(0, 0), (0, 0)]) == expected
        assert self.packed_in_passes(spilled + [(0, 0), (0, 0)]) == expected
        assert self.packed_in_passes(spilled, [(0, 0)], [(9, 4), (0, 0)]) == pack_reference(
            [*spilled, (9, 4)]
        )
        # pending bits, then a spill that ends exactly on the next word's end
        assert self.packed_in_passes([(1, 24)], [(x, 40), (0, 0), ((1 << 64) - 2, 64)]) == (
            pack_reference([(1, 24), (x, 40), ((1 << 64) - 2, 64)])
        )

    @given(wide_fragment_lists, st.data())
    def test_sink_receives_the_reference_bytes(self, frags, data):
        # ragged calls, some packed at once: the sink gets whole words as they
        # are packed, then close() writes the pending bits
        cuts = sorted(data.draw(st.lists(st.integers(0, len(frags)), max_size=8)))
        values = np.array([v for v, _ in frags], dtype=np.uint64)
        lengths = np.array([w for _, w in frags], dtype=np.int64)
        sink = io.BytesIO()
        packer = BitPacker(sink)
        bounds = [0, *cuts, len(frags)]
        for lo, hi in zip(bounds, bounds[1:]):
            packer.add(values[lo:hi], lengths[lo:hi])
            if data.draw(st.booleans()):
                packer.bit_length  # packs what is queued
                assert len(sink.getvalue()) == packer.bit_length // 64 * 8
        packer.close()
        assert (sink.getvalue(), packer.bit_length) == pack_reference(frags)


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

    @pytest.mark.parametrize("packed", [False, True])
    def test_unequal_feed_changes_nothing(self, packed):
        rng = np.random.default_rng(5)
        chans = [(rng.random(30) < 0.5).astype(np.uint8) for _ in range(2)]

        def feed(merger, chunks):
            if packed:
                merger.feed([np.packbits(w) for w in chunks], [w.size for w in chunks])
            else:
                merger.feed(chunks)

        merger = StreamingMerger(4, 2)
        feed(merger, [w[:6] for w in chans])  # leaves a 2-window remainder in each channel
        before = (vars(merger.stats).copy(), tuple(merger._remainders))
        assert [bits for _, bits in before[1]] == [2, 2]
        with pytest.raises(DomainError, match="equal full-block"):
            feed(merger, [chans[0][6:14], chans[1][6:10]])  # 2 full blocks against 1
        assert merger.stats.windows_seen == 12
        assert (vars(merger.stats), tuple(merger._remainders)) == before
        feed(merger, [w[6:] for w in chans])
        fresh = StreamingMerger(4, 2)
        fresh.feed(chans)
        got, expected = merger.finish(), fresh.finish()
        assert (got.data, got.total_bits, got.stats) == (
            expected.data, expected.total_bits, expected.stats
        )


class TestPackedFeed:
    """``StreamingMerger.feed`` with packed payloads and window counts."""

    def test_bits_after_the_count_are_ignored(self):
        # 3 windows 101 with 1s after them in the payload's last byte; a join
        # that ORed the carried byte into the next payload would turn the
        # second chunk's 0000 0 into 1111 1 and emit from blocks that have none
        windows = np.array([1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
        expected = extract(DetectionStream(windows), 4)
        cases = [(1, "round-robin-block"), (2, "round-robin-block"), (2, "per-channel")]
        for n_channels, policy in cases:
            merger = StreamingMerger(4, n_channels, policy)
            merger.feed([np.array([0b1011_1111], dtype=np.uint8)] * n_channels, [3] * n_channels)
            rest = np.packbits(windows[3:])
            rest[-1] |= 0b111  # 13 windows, then three more stray bits
            merger.feed([rest] * n_channels, [13] * n_channels)
            out = merger.finish()
            fresh = merge_channels([DetectionStream(windows)] * n_channels, 4, policy)
            assert (out.data, out.total_bits, out.stats) == (
                fresh.data, fresh.total_bits, fresh.stats
            )
            assert out.stats.bits_emitted == n_channels * expected.stats.bits_emitted

    @pytest.mark.parametrize("n", [4, 5, 17, 64])
    def test_stray_bits_after_the_last_block_emit_nothing(self, n):
        # every bit after the payload's windows set: the codec must not read
        # them as blocks, nor the carry keep them
        windows = np.zeros(3 * n + 2, dtype=np.uint8)
        windows[1] = 1
        payload = np.packbits(np.ones(windows.size + 8 * 3, dtype=np.uint8))
        payload[: (windows.size + 7) // 8] = np.packbits(windows)
        payload[windows.size // 8] |= 0xFF >> windows.size % 8
        merger = StreamingMerger(n)
        merger.feed([payload], [windows.size])
        merger.feed([np.zeros(n, dtype=np.uint8)], [8 * n - windows.size % n])
        out = merger.finish()
        full = np.concatenate((windows, np.zeros(8 * n - windows.size % n, np.uint8)))
        expected = extract(DetectionStream(full), n)
        assert (out.data, out.total_bits, out.stats) == (
            expected.data, expected.total_bits, expected.stats
        )

    def test_short_payload_is_refused_before_any_state_changes(self):
        merger = StreamingMerger(4, 2)
        merger.feed([np.array([0b1010_0000], np.uint8)] * 2, [3, 3])
        before = (vars(merger.stats).copy(), tuple(merger._remainders))
        good = np.array([0b0110_1100, 0b1000_0000], np.uint8)
        for payloads, counts in [
            ([good, good[:1]], [9, 9]),  # 9 windows need 2 bytes
            ([good, good], [9]),
            ([good, good], [9, -1]),
            ([good, good.astype(np.int64)], [9, 9]),
            ([good, good[None, :]], [9, 9]),
        ]:
            with pytest.raises(DomainError, match="ceil"):
                merger.feed(payloads, counts)
        assert (vars(merger.stats), tuple(merger._remainders)) == before
        merger.feed([good, good], [9, 9])
        bits = np.unpackbits(np.array([0b1010_0000, 0b0110_1100, 0b1000_0000], np.uint8))
        windows = np.concatenate((bits[:3], bits[8:17]))
        expected = merge_channels([DetectionStream(windows)] * 2, 4)
        out = merger.finish()
        assert (out.data, out.total_bits, out.stats) == (
            expected.data, expected.total_bits, expected.stats
        )

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    @pytest.mark.parametrize("policy", ["round-robin-block", "per-channel"])
    def test_numpy_integer_counts_match_int_counts(self, dtype, policy):
        # ragged feeds carry partial 17-window blocks, and partial bytes, as
        # (value, width) from one feed to the next
        rng = np.random.default_rng(71)
        sizes = [500, 501, 37, 1000]
        pieces = np.split((rng.random(sum(sizes)) < 0.5).astype(np.uint8), np.cumsum(sizes)[:-1])
        outs = []
        for kind in (int, dtype):
            merger = StreamingMerger(17, 2, policy)
            for piece in pieces:
                merger.feed([np.packbits(piece)] * 2, [kind(piece.size)] * 2)
            out = merger.finish()
            outs.append((out.data, out.total_bits, out.stats))
        assert outs[0] == outs[1]
        assert outs[0][2].windows_seen == 2 * sum(sizes)

    @pytest.mark.parametrize("count", [9.0, "9", None])
    def test_non_integer_count_is_refused_before_any_state_changes(self, count):
        merger = StreamingMerger(4)
        merger.feed([np.array([0b1010_0000], np.uint8)], [3])
        before = (vars(merger.stats).copy(), tuple(merger._remainders))
        with pytest.raises(DomainError, match="integers"):
            merger.feed([np.array([0b0110_1100, 0b1000_0000], np.uint8)], [count])
        assert (vars(merger.stats), tuple(merger._remainders)) == before


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

    def test_ranks_that_round_down_as_floats(self):
        # f XOR C(n, k) = 2^e + d has more than 53 bits, so float64 rounds it
        # to 2^e or just above: the bit length must stay e + 1, which a check
        # for an exact power of two in the float alone would read as e
        cases = 0
        for n in range(2, MAX_BLOCK_LEN + 1):
            rows, widths = [], []
            for k in range(1, n):
                c = math.comb(n, k)
                e = c.bit_length() - 1
                if e >= 53:
                    for d in (1, 2, 3):
                        rank = ((1 << e) + d) ^ c  # below 2^e, in the top subblock
                        row = np.zeros(n, dtype=np.uint8)
                        row[np.array(unrank_combination(n, k, rank).positions) - 1] = 1
                        rows.append(row)
                        widths.append(e)
            if rows:
                frags = [naive_encode(n, row.tolist()) for row in rows]
                assert [width for _, width in frags] == widths
                out = extract(DetectionStream(np.concatenate(rows)), n)
                assert (out.data, out.total_bits) == pack_reference(frags)
                cases += len(rows)
        assert cases > 300

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


class TestBlockWords:
    @pytest.mark.parametrize("n", range(17, MAX_BLOCK_LEN + 1))
    def test_words_match_unpacked_bits(self, n):
        # each word's n leading bits hold its block; the row is cut at
        # exactly ceil(n * n_blocks / 8) bytes, so the last reads run past it
        rng = np.random.default_rng(n)
        for n_blocks in range(1, 18):
            bits = rng.integers(0, 2, n * n_blocks, dtype=np.uint8)
            packed = np.packbits(bits)
            assert packed.size == -(-n * n_blocks // 8)
            words = _block_words(packed, n, n_blocks).astype(">u8")
            got = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1)
            assert np.array_equal(got[:, :n], bits.reshape(n_blocks, n))


class TestRankKernel:
    """The n > 16 byte-column loop: one add and two gathers per column over
    K = 256 * k_after, from tables laid out as [column, 256 * k_after + byte]."""

    @pytest.mark.parametrize("n", [17, 24, 33, 57, 64])
    def test_tables_match_brute_force_terms(self, n):
        codec = _codec(n)
        k_afters = range(max(n - 8, 0) + 1)
        assert codec._tables.tolist() == [
            [byte_rank_term(n, c, k, byte) for k in k_afters for byte in range(256)]
            for c in range((n + 7) // 8)
        ]
        assert codec._next.tolist() == [
            256 * (k + bin(byte).count("1")) for k in k_afters for byte in range(256)
        ]

    @pytest.mark.parametrize("n", [17, 24, 33, 57, 64])
    def test_reachable_indices_lie_inside_the_tables(self, n):
        # the gathers clip, which would silently clamp an index past a
        # table's end: walk every K the kernel can reach, column by column
        # from the last, whose bits after the block are zero
        codec = _codec(n)
        last = (n + 7) // 8 - 1
        reach = {0}
        for c in range(last, -1, -1):
            bytes_ = [b for b in range(256) if c < last or (b & 0xFF >> (n - 8 * last)) == 0]
            index = {K + b for K in reach for b in bytes_}
            assert max(index) < min(codec._tables.shape[1], codec._next.size)
            reach = set(codec._next[sorted(index)].tolist())
        assert max(reach) == 256 * n  # the last K holds the block's k

    @pytest.mark.parametrize("policy", MERGE_POLICIES)
    @pytest.mark.parametrize("n", [36, 64])
    def test_fragments_queued_across_feeds_keep_their_values(self, n, policy):
        # at n >= 36 fragments reach the packer unjoined and wait in its
        # queue for many feeds, while each encode reuses the kept slots
        assert _codec(n).levels == 0
        rng = np.random.default_rng(n)
        chans = [(rng.random(60 * n + 5) < 0.5).astype(np.uint8) for _ in range(2)]
        merger = StreamingMerger(n, 2, policy)
        for lo in range(0, chans[0].size, 3 * n + 1):
            merger.feed([w[lo : lo + 3 * n + 1] for w in chans])
        out = merger.finish()
        one_shot = merge_channels([DetectionStream(w) for w in chans], n, policy)
        assert (out.data, out.total_bits, out.stats) == (
            one_shot.data, one_shot.total_bits, one_shot.stats
        )
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert (out.data, out.total_bits) == (data_, total_bits)
        assert vars(out.stats) == stats


class TestWorkspace:
    def test_slots_are_keyed_by_name_and_dtype(self):
        work = extractor._Workspace()
        kept = work("slot", 4, np.int64)
        kept[...] = 7
        other = work("slot", 4, np.uint8)
        assert other.dtype == np.uint8 and not np.shares_memory(kept, other)
        again = work("slot", 3, np.int64)
        assert np.shares_memory(kept, again) and again.tolist() == [7, 7, 7]


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

    @pytest.mark.parametrize("n", [2, 4, 5, 16, 17, 24, 40, 64])
    @given(data=st.data())
    @settings(max_examples=50)
    def test_several_interleave_steps_per_feed(self, n, data):
        # a few blocks per interleave step, so that one feed takes several;
        # ragged feeds leave the channels different remainders
        n_channels = data.draw(st.integers(2, 3), "channels")
        policy = data.draw(st.sampled_from(MERGE_POLICIES), "policy")
        step = data.draw(st.integers(1, 3 * n), "windows per interleave step")
        # full blocks per channel after each feed
        blocks = sorted(set(data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))))
        tails = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=len(blocks), max_size=len(blocks)),
                     min_size=n_channels, max_size=n_channels),
            "remainders",
        )
        p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), "p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        chans = [(rng.random(n * blocks[-1] + t[-1]) < p).astype(np.uint8) for t in tails]
        merger = StreamingMerger(n, n_channels, policy)
        los = [0] * n_channels
        with mock.patch.object(extractor, "_INTERLEAVE", step):
            for i, b in enumerate(blocks):
                his = [n * b + t[i] for t in tails]
                merger.feed([w[lo:hi] for w, lo, hi in zip(chans, los, his)])
                los = his
        out = merger.finish()
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert (out.data, out.total_bits) == (data_, total_bits)
        assert vars(out.stats) == stats

    @pytest.mark.parametrize("n", [2, 4, 5, 16, 17, 24, 64])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_ragged_packed_feeds(self, n, data):
        # packed chunks of a multiple of 8 windows, but not of n where 8 allows
        # it (n = 2 and 4 divide 8), and one chunk of any length, as a file's
        # last, anywhere; its payload has stray bits after its windows
        n_channels = data.draw(st.integers(1, 3), "channels")
        policy = data.draw(st.sampled_from(MERGE_POLICIES), "policy")
        eights = st.integers(1, 4 * n).map(lambda k: 8 * k)
        sizes = data.draw(st.lists(eights.filter(lambda w: w % n or 8 % n == 0), max_size=5))
        at = data.draw(st.integers(0, len(sizes)), "ragged chunk's place")
        sizes.insert(at, data.draw(st.integers(0, 3 * n), "ragged chunk"))
        interleave = data.draw(st.sampled_from([1, 1 << 20]), "_INTERLEAVE")
        p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), "p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        chans = [(rng.random(sum(sizes)) < p).astype(np.uint8) for _ in range(n_channels)]
        packed, windowed = (StreamingMerger(n, n_channels, policy) for _ in range(2))
        lo = 0
        with mock.patch.object(extractor, "_INTERLEAVE", interleave):
            for size in sizes:
                chunks = [w[lo : lo + size] for w in chans]
                payloads = [np.packbits(c) for c in chunks]
                for payload in payloads[: n_channels if size % 8 else 0]:
                    payload[-1] |= rng.integers(0, 256, dtype=np.uint8) & (0xFF >> size % 8)
                packed.feed(payloads, [size] * n_channels)
                windowed.feed(chunks)
                lo += size
        got, expected = packed.finish(), windowed.finish()
        assert (got.data, got.total_bits, got.stats) == (
            expected.data, expected.total_bits, expected.stats
        )
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert (got.data, got.total_bits) == (data_, total_bits)
        assert vars(got.stats) == stats

    @given(st.data())
    @settings(max_examples=60)
    def test_sink_and_spill_files_match_brute_force(self, data):
        # output written as it is packed, per-channel spills appended from
        # temp files a few words at a time
        n = data.draw(st.sampled_from([2, 4, 5, 16, 17, 40, 64]), "n")
        n_channels = data.draw(st.integers(1, 3), "channels")
        policy = data.draw(st.sampled_from(MERGE_POLICIES), "policy")
        size = data.draw(st.integers(0, 60 * n), "windows per channel")
        p = data.draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0), "p")
        cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=4), "cuts"))
        spill_block = data.draw(st.sampled_from([8, 24, 1 << 18]), "_SPILL_BLOCK")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        chans = [(rng.random(size) < p).astype(np.uint8) for _ in range(n_channels)]
        sink = io.BytesIO()
        with tempfile.TemporaryDirectory() as spill_dir:
            merger = StreamingMerger(n, n_channels, policy, sink, spill_dir)
            bounds = [0, *cuts, size]
            with mock.patch.object(extractor, "_SPILL_BLOCK", spill_block):
                for lo, hi in zip(bounds, bounds[1:]):
                    merger.feed([w[lo:hi] for w in chans])
                assert merger.finish() is None
            assert os.listdir(spill_dir) == []
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert sink.getvalue() == data_
        assert vars(merger.stats) == stats and stats["bits_emitted"] == total_bits

    @pytest.mark.parametrize("policy", MERGE_POLICIES)
    @pytest.mark.parametrize("n", [4, 17, 64])
    def test_read_only_inputs(self, n, policy):
        # the codec reads the callers' arrays in place, so it must never write
        rng = np.random.default_rng(n)
        chans = [(rng.random(40 * n + 3) < 0.4).astype(np.uint8) for _ in range(2)]
        originals = [w.copy() for w in chans]
        for w in chans:
            w.setflags(write=False)
        merger = StreamingMerger(n, 2, policy)
        with mock.patch.object(extractor, "_INTERLEAVE", 7 * n):
            for lo, hi in [(0, 13 * n + 1), (13 * n + 1, 40 * n + 3)]:
                merger.feed([w[lo:hi] for w in chans])
        out = merger.finish()
        data_, total_bits, stats = reference_merge(chans, n, policy)
        assert (out.data, out.total_bits) == (data_, total_bits)
        assert vars(out.stats) == stats
        assert all(np.array_equal(w, o) for w, o in zip(chans, originals))

    @pytest.mark.parametrize("n_channels", [2, 3])
    @pytest.mark.parametrize("n", [57, 63, 64])
    def test_empty_and_full_blocks_among_live_ones(self, n, n_channels):
        # k = 0 words wrap below zero when one is taken off, and at n = 64
        # the all-ones word is the mask itself: both must drop, in place,
        # whatever channel and block they fall on, the live ones kept in order
        rng = np.random.default_rng(n + n_channels)
        kinds = rng.integers(0, 4, (n_channels, 40))  # 0 empty, 1 full, else random
        chans = []
        for row in kinds:
            blocks = (rng.random((row.size, n)) < 0.5).astype(np.uint8)
            blocks[row == 0], blocks[row == 1] = 0, 1
            chans.append(np.append(blocks.ravel(), rng.integers(0, 2, 5, dtype=np.uint8)))
        originals = [w.copy() for w in chans]
        out = merge_channels([DetectionStream(w) for w in chans], n)
        data_, total_bits, stats = reference_merge(chans, n, "round-robin-block")
        assert (out.data, out.total_bits) == (data_, total_bits)
        assert vars(out.stats) == stats
        assert stats["blocks_discarded_k0_kn"] == np.count_nonzero(kinds < 2)
        assert all(np.array_equal(w, o) for w, o in zip(chans, originals))

    def test_premerge_fills_whole_words(self):
        # n = 2 has 1-bit fragments, 8 to a 16-window index; three pairwise
        # joins reach 64 bits, exactly twice the widest 32-bit join
        rng = np.random.default_rng(2)
        first = rng.integers(0, 2, 64, dtype=np.uint8)
        windows = np.stack([first, 1 - first], axis=1).ravel()  # 64 blocks with k = 1
        codec = _codec(2)
        values, widths, _ = codec.encode(np.packbits(windows), 64)
        values, widths = _premerge(values, widths, codec.levels)
        assert widths.tolist() == [64]
        out = extract(DetectionStream(windows), 2)
        assert (out.data, out.total_bits) == pack_reference([(int(b), 1) for b in first])
