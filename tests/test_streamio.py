import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from timebinrng import DetectionStream, DomainError, StreamFormatError, export_nist, extract
from timebinrng import cli, streamio

from oracles import file_bits, write_stream


def random_stream(n, seed=0, channel=2, period=1e-6):
    rng = np.random.default_rng(seed)
    return DetectionStream(
        (rng.random(n) < 0.4).astype(np.uint8),
        channel_id=channel,
        window_period=period,
    )


class TestTbd1:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 1000, 4097])
    def test_round_trip(self, tmp_path, n):
        s = random_stream(n)
        path = tmp_path / "s.tbd1"
        write_stream(path, s)
        count, period_ns, channel = streamio.read_stream_header(path)
        assert np.array_equal(file_bits(path), s.windows)
        payload = b"".join(p.tobytes() for p, _ in streamio.iter_stream_payload(path, 1024))
        assert payload == np.packbits(s.windows).tobytes()
        assert channel == s.channel_id
        assert period_ns * 1e-9 == pytest.approx(s.window_period)

    def test_header_fields(self, tmp_path):
        path = tmp_path / "s.tbd1"
        write_stream(path, random_stream(100, period=1e-6))
        count, period_ns, channel = streamio.read_stream_header(path)
        assert (count, period_ns, channel) == (100, 1000, 2)
        raw = path.read_bytes()
        assert raw[:8] == b"TIMEBIN1"
        assert len(raw) == 32 + (100 + 7) // 8

    def test_incremental_writer_matches_one_shot(self, tmp_path):
        s = random_stream(1003)
        a, b = tmp_path / "a.tbd1", tmp_path / "b.tbd1"
        write_stream(a, s)
        with streamio.StreamWriter(b, 1000, channel_id=2) as w:
            for lo in range(0, 1003, 61):
                w.write(s.windows[lo : lo + 61])
        assert a.read_bytes() == b.read_bytes()

    def test_writer_bytes_are_header_and_packed_windows(self, tmp_path):
        # chunks that end on and off byte edges, each written from its packed row
        s = random_stream(1003)
        path = tmp_path / "s.tbd1"
        with streamio.StreamWriter(path, 1000, channel_id=2) as w:
            lo = 0
            for size in (8, 1, 7, 61, 16, 0, 910):
                w.write(s.windows[lo : lo + size])
                lo += size
        head = struct.pack("<8sQQQ", b"TIMEBIN1", 1003, 1000, 2)
        assert path.read_bytes() == head + np.packbits(s.windows).tobytes()

    def test_chunked_reader(self, tmp_path):
        s = random_stream(5000)
        path = tmp_path / "s.tbd1"
        write_stream(path, s)
        chunks = list(streamio.iter_stream_windows(path, chunk_windows=1024))
        assert np.array_equal(np.concatenate(chunks), s.windows)

    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_stream_payload(path))
        assert err.value.offset == 0

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "trunc.tbd1"
        write_stream(path, random_stream(1000))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_stream_payload(path))
        assert err.value.offset == len(data) - 10

    def test_unclosed_writer_is_rejected(self, tmp_path):
        # a writer that never reached close() leaves count 0 before its payload
        path = tmp_path / "crashed.tbd1"
        write_stream(path, random_stream(1000))
        data = bytearray(path.read_bytes())
        data[8:16] = bytes(8)
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError) as err:
            streamio.read_stream_header(path)
        assert err.value.offset == 32

    def test_trailing_bytes_name_offset(self, tmp_path):
        path = tmp_path / "long.tbd1"
        write_stream(path, random_stream(1000))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_stream_windows(path))
        assert err.value.offset == size

    def test_nonzero_padding_names_offset(self, tmp_path):
        path = tmp_path / "pad.tbd1"
        write_stream(path, random_stream(1001))  # 1 window in the last byte
        data = bytearray(path.read_bytes())
        data[-1] |= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_stream_payload(path))
        assert err.value.offset == len(data) - 1

    def test_payload_shrinking_after_the_header_read_names_offset(self, tmp_path):
        # the CLI reads the header once and hands it to the chunk reader
        path = tmp_path / "shrinks.tbd1"
        write_stream(path, random_stream(1000))
        header = streamio.read_stream_header(path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        chunks = streamio.iter_stream_windows(path, chunk_windows=512, _header=header)
        assert next(chunks).size == 512
        with pytest.raises(StreamFormatError, match="payload ends early") as err:
            next(chunks)
        assert err.value.offset == len(data) - 10

    def test_payload_reader_shrinking_after_the_header_read_names_offset(self, tmp_path):
        # the reader the CLI's extract uses: same check, same offset
        path = tmp_path / "shrinks.tbd1"
        stream = random_stream(1000)
        write_stream(path, stream)
        header = streamio.read_stream_header(path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        chunks = streamio.iter_stream_payload(path, chunk_windows=512, _header=header)
        payload, count = next(chunks)
        assert count == 512 and payload.tobytes() == np.packbits(stream.windows[:512]).tobytes()
        with pytest.raises(StreamFormatError, match="payload ends early") as err:
            next(chunks)
        assert err.value.offset == len(data) - 10

    def test_payload_chunks_are_the_stored_bytes(self, tmp_path):
        path = tmp_path / "s.tbd1"
        stream = random_stream(1001)
        write_stream(path, stream)
        chunks = list(streamio.iter_stream_payload(path, chunk_windows=496))
        assert [count for _, count in chunks] == [496, 496, 9]
        assert b"".join(p.tobytes() for p, _ in chunks) == path.read_bytes()[streamio.HEADER_SIZE :]

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.tbd1"
        path.write_bytes(b"TIMEBIN1\x01")
        with pytest.raises(StreamFormatError):
            streamio.read_stream_header(path)


class TestAscii:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bits.txt"
        streamio.write_ascii_bits(path, [1, 1, 1])
        assert path.read_bytes() == b"111"
        assert file_bits(path).tolist() == [1, 1, 1]
        assert [(p.tobytes(), c) for p, c in streamio.iter_ascii_payload(path)] == [(b"\xe0", 3)]

    def test_whitespace_tolerated(self):
        got = streamio.parse_ascii_bits(b"10 1\n1\r\n\t0")
        assert got.tolist() == [1, 0, 1, 1, 0]

    def test_invalid_character_offset(self):
        with pytest.raises(StreamFormatError) as err:
            streamio.parse_ascii_bits(b"0101x01")
        assert err.value.offset == 4

    @pytest.mark.parametrize("read", [1, 5, 64, 1 << 16])
    @pytest.mark.parametrize("chunk", [8, 24, 1 << 10])
    def test_payload_chunks_read_a_block_at_a_time(self, tmp_path, monkeypatch, read, chunk):
        # whitespace anywhere, blocks of any size: chunks of exactly ``chunk``
        # windows, the last one fewer, whose bits are the whole file's
        rng = np.random.default_rng(read + chunk)
        text = rng.choice(np.frombuffer(b"0011 \n", np.uint8), 3001)
        path = tmp_path / "w.txt"
        path.write_bytes(text.tobytes())
        monkeypatch.setattr(streamio, "_ASCII_READ", read)
        windows = file_bits(path)
        chunks = list(streamio.iter_ascii_payload(path, chunk))
        assert sum(count for _, count in chunks) == windows.size
        assert [count for _, count in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert 0 < chunks[-1][1] <= chunk
        got = np.concatenate([np.unpackbits(payload)[:count] for payload, count in chunks])
        assert np.array_equal(got, windows)

    @pytest.mark.parametrize("at", [0, 70, 127, 128, 299])
    def test_block_reader_offsets_are_file_offsets(self, tmp_path, monkeypatch, at):
        data = bytearray(b"01\n" * 100)
        data[at] = ord("x")
        path = tmp_path / "w.txt"
        path.write_bytes(bytes(data))
        monkeypatch.setattr(streamio, "_ASCII_READ", 64)
        for chunk in (8, 1 << 10):  # the offset whether or not a chunk was yielded before it
            with pytest.raises(StreamFormatError, match="invalid character 'x'") as err:
                list(streamio.iter_ascii_payload(path, chunk))
            assert err.value.offset == at

    def test_peak_holds_one_chunk(self, tmp_path):
        # a tail view of the joined 0/1 windows, and the local that named
        # them, kept a read chunk alive through the next one's reads: 3.55
        # against 2.42 B per chunk window for a one-chunk file
        chunk, rng = 1 << 18, np.random.default_rng(11)

        def peak(chunks):
            path = tmp_path / f"{chunks}.txt"
            path.write_bytes(rng.choice(np.frombuffer(b"01", np.uint8), chunks * chunk).tobytes())
            tracemalloc.start()
            try:
                for _ in streamio.iter_ascii_payload(path, chunk):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(1), peak(4)
        assert four <= 1.2 * one, (one, four)


class TestBitFiles:
    def test_packed_round_trip_with_sidecar(self, tmp_path):
        out = extract(random_stream(1000))
        path = tmp_path / "bits.bin"
        streamio.write_bit_output(path, out, fmt="packed")
        assert streamio.meta_path(path).exists()
        meta = streamio.read_meta(path)
        assert meta["total_bits"] == out.total_bits
        assert meta["stats"]["bits_emitted"] == out.stats.bits_emitted
        assert np.array_equal(file_bits(path), out.bit_array())
        chunks = list(streamio.iter_bits_payload(path, 64))
        assert [count for _, count in chunks[:-1]] == [64] * (len(chunks) - 1)
        assert sum(count for _, count in chunks) == out.total_bits
        assert b"".join(p.tobytes() for p, _ in chunks) == out.data

    def test_sidecar_keys(self, tmp_path):
        # extract's sidecar and the exported bit file's share one writer
        out = extract(random_stream(1000))
        streamio.write_bit_output(tmp_path / "a.bin", out, extra={"command": "extract"})
        streamio.write_bit_output(tmp_path / "b.bin", out)
        export_nist(out.bit_array(), tmp_path / "c.bin", "packed")
        keys = [set(streamio.read_meta(tmp_path / f"{name}.bin")) for name in "abc"]
        assert keys == [
            {"format", "total_bits", "stats", "command"},
            {"format", "total_bits", "stats"},
            {"format", "total_bits"},
        ]

    def test_ascii_round_trip(self, tmp_path):
        out = extract(random_stream(1000))
        path = tmp_path / "bits.txt"
        streamio.write_bit_output(path, out, fmt="ascii")
        assert np.array_equal(file_bits(path), out.bit_array())
        payload = b"".join(p.tobytes() for p, _ in streamio.iter_ascii_payload(path, 64))
        assert payload == out.data

    def test_sidecar_format_decides_the_kind(self, tmp_path):
        # simulate --format ascii leaves a sidecar beside its ASCII windows
        path = tmp_path / "windows.txt"
        streamio.write_ascii_bits(path, [1, 0, 0, 1, 1])
        streamio.write_meta(path, {"command": "simulate", "format": "ascii"})
        assert streamio.packed_bits_meta(path) is None
        kind, _, chunks = cli._open_input(path, 8)
        assert kind is None and [(p.tobytes(), c) for p, c in chunks] == [(b"\x98", 5)]
        packed = tmp_path / "bits.bin"
        streamio.write_packed_bits(packed, b"\x98", 5)
        assert streamio.packed_bits_meta(packed)["format"] == streamio.PACKED_BITS
        kind, _, chunks = cli._open_input(packed, 8)
        assert kind == "bits" and [(p.tobytes(), c) for p, c in chunks] == [(b"\x98", 5)]

    def test_sidecar_bit_count_validated(self, tmp_path):
        path = tmp_path / "bits.bin"
        path.write_bytes(b"\xff")
        streamio.write_meta(path, {"total_bits": 99})
        with pytest.raises(StreamFormatError):
            list(streamio.iter_bits_payload(path))

    @pytest.mark.parametrize(
        "sidecar, offset",
        [
            (b'{"total_bits": 8', 16),  # truncated JSON
            (b'{"t": "\xff"}', 7),  # not UTF-8
            (b"{}", 0),  # no total_bits
            (b"[8]", 0),  # not an object
            (b'{"total_bits": -5}', 0),
            (b'{"total_bits": 8.0}', 0),
            (b'{"total_bits": true}', 0),
            (b'{"total_bits": "8"}', 0),
        ],
    )
    def test_bad_sidecar_names_offset(self, tmp_path, sidecar, offset):
        path = tmp_path / "bits.bin"
        path.write_bytes(b"\xff")
        streamio.meta_path(path).write_bytes(sidecar)
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_bits_payload(path))
        assert err.value.offset == offset

    @pytest.mark.parametrize("total_bits, data, offset", [
        (12, b"\xff", 1),  # one byte short
        (8, b"\xff\x00", 1),  # trailing byte
        (0, b"\x00", 0),
        (5, b"\xfc", 0),  # padding bit set
    ])
    def test_payload_must_fill_exactly(self, tmp_path, total_bits, data, offset):
        path = tmp_path / "bits.bin"
        path.write_bytes(data)
        streamio.write_meta(path, {"total_bits": total_bits})
        with pytest.raises(StreamFormatError) as err:
            list(streamio.iter_bits_payload(path))
        assert err.value.offset == offset


class TestAtomicOutputs:
    def test_failed_writer_leaves_no_file(self, tmp_path):
        path = tmp_path / "s.tbd1"
        with pytest.raises(RuntimeError):
            with streamio.StreamWriter(path, 1000) as w:
                w.write(np.ones(100, dtype=np.uint8))
                raise RuntimeError("source failed")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "s.tbd1"
        write_stream(path, random_stream(100))
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with streamio.StreamWriter(path, 1000) as w:
                w.write(np.ones(100, dtype=np.uint8))
                raise RuntimeError("source failed")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_rewrite_keeps_old_output_and_sidecar(self, tmp_path):
        path = tmp_path / "bits.bin"
        streamio.write_packed_bits(path, b"\x98", 5)
        files = [path, streamio.meta_path(path)]
        before = [f.read_bytes() for f in files]
        with pytest.raises(RuntimeError):
            with streamio.atomic_open(path) as fh:
                fh.write(b"10011")
                raise RuntimeError("source failed")
        assert [f.read_bytes() for f in files] == before
        assert sorted(tmp_path.iterdir()) == sorted(files)

    def test_rewrite_drops_the_old_sidecar(self, tmp_path):
        # an ASCII file written over a packed one is not read through its sidecar
        path = tmp_path / "bits.bin"
        export_nist(np.ones(16, dtype=np.uint8), path, "packed")
        export_nist(np.array([1, 0, 0, 1, 1], dtype=np.uint8), path, "ascii")
        assert list(tmp_path.iterdir()) == [path]
        assert [(p.tobytes(), c) for p, c in cli._open_input(path, 8)[2]] == [(b"\x98", 5)]

    def test_stream_appears_only_on_close(self, tmp_path):
        path = tmp_path / "s.tbd1"
        w = streamio.StreamWriter(path, 1000)
        w.write(np.ones(9, dtype=np.uint8))
        assert not path.exists()
        w.close()
        assert streamio.read_stream_header(path) == (9, 1000, 0)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("period_ns", [0, 0.49, -1, 1 << 64, math.inf, math.nan])
    def test_period_the_header_cannot_hold_creates_no_file(self, tmp_path, period_ns):
        with pytest.raises(DomainError, match="window period"):
            streamio.StreamWriter(tmp_path / "s.tbd1", period_ns)
        assert list(tmp_path.iterdir()) == []

    def test_period_rounds_to_whole_ns(self, tmp_path):
        path = tmp_path / "s.tbd1"
        write_stream(path, random_stream(9, period=0.51e-9))
        streamio.StreamWriter(tmp_path / "t.tbd1", (1 << 64) - 1).close()
        assert streamio.read_stream_header(path)[1] == 1
        assert streamio.read_stream_header(tmp_path / "t.tbd1")[1] == (1 << 64) - 1


# ---------------------------------------------------------------------------
# reader fuzz: damaged or random input raises StreamFormatError, nothing else

_WINDOWS = (np.arange(45) % 3 == 0).astype(np.uint8)
VALID_TBD1 = struct.pack("<8sQQQ", b"TIMEBIN1", 45, 1000, 2) + np.packbits(_WINDOWS).tobytes()
VALID_PACKED = np.packbits(_WINDOWS[:13]).tobytes()
VALID_SIDECAR = json.dumps({"total_bits": 13}).encode()
VALID_ASCII = b"0110 1\n01\r\n"


@st.composite
def damaged(draw, valid: bytes):
    """Random bytes, or ``valid`` truncated, extended or with bits flipped."""
    how = draw(st.sampled_from(["random", "truncate", "append", "flip"]))
    if how == "random":
        return draw(st.binary(max_size=64))
    if how == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if how == "append":
        return valid + draw(st.binary(min_size=1, max_size=9))
    data = bytearray(valid)
    for bit in draw(st.lists(st.integers(0, 8 * len(valid) - 1), min_size=1, max_size=3)):
        data[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(data)


def only_format_errors(read, *args):
    try:
        read(*args)
    except StreamFormatError:
        pass


fuzz = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestReaderFuzz:
    @fuzz
    @given(data=damaged(VALID_TBD1))
    def test_timebin1_readers(self, tmp_path, data):
        path = tmp_path / "s.tbd1"
        path.write_bytes(data)
        only_format_errors(streamio.read_stream_header, path)
        only_format_errors(lambda: list(streamio.iter_stream_windows(path, chunk_windows=16)))
        only_format_errors(lambda: list(streamio.iter_stream_payload(path, chunk_windows=16)))
        only_format_errors(lambda: list(streamio.iter_ascii_payload(path, chunk_windows=16)))
        only_format_errors(lambda: list(cli._open_input(path, 16)[2]))

    @fuzz
    @given(data=damaged(VALID_PACKED), sidecar=st.just(VALID_SIDECAR) | damaged(VALID_SIDECAR))
    def test_packed_bits_with_sidecar(self, tmp_path, data, sidecar):
        path = tmp_path / "bits.bin"
        path.write_bytes(data)
        streamio.meta_path(path).write_bytes(sidecar)
        only_format_errors(lambda: list(streamio.iter_bits_payload(path, chunk_windows=8)))
        only_format_errors(lambda: list(cli._open_input(path, 8)[2]))

    @fuzz
    @given(data=damaged(VALID_ASCII))
    def test_ascii_readers(self, tmp_path, data):
        only_format_errors(streamio.parse_ascii_bits, data)
        path = tmp_path / "bits.txt"
        path.write_bytes(data)
        only_format_errors(lambda: list(streamio.iter_ascii_payload(path, chunk_windows=8)))
        only_format_errors(lambda: list(cli._open_input(path, 8)[2]))

    def test_valid_files_read_back(self, tmp_path):
        path = tmp_path / "s.tbd1"
        path.write_bytes(VALID_TBD1)
        chunks = [(p.tobytes(), c) for p, c in streamio.iter_stream_payload(path)]
        assert chunks == [(np.packbits(_WINDOWS).tobytes(), 45)]
        path = tmp_path / "bits.bin"
        path.write_bytes(VALID_PACKED)
        streamio.meta_path(path).write_bytes(VALID_SIDECAR)
        chunks = [(p.tobytes(), c) for p, c in streamio.iter_bits_payload(path)]
        assert chunks == [(np.packbits(_WINDOWS[:13]).tobytes(), 13)]
