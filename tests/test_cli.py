import contextlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timebinrng import (
    DetectionStream,
    SourceModel,
    extractor,
    merge_channels,
    min_entropy,
    sanity_tests,
    simulate,
    streamio,
    uniformity_matrix,
)
from timebinrng.cli import main

from oracles import file_bits, write_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_scenario_a_writes_one_stream(self, tmp_path, capsys):
        out = tmp_path / "a.tbd1"
        code, _, _ = run(
            capsys, "simulate", "--scenario", "a", "--windows", "10000",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        count, period_ns, channel = streamio.read_stream_header(out)
        assert (count, period_ns, channel) == (10000, 1000, 0)
        meta = streamio.read_meta(out)
        assert meta["seed"] == 7
        assert meta["generator"].startswith("numpy-pcg64")
        assert (tmp_path / "a.tbd1.manifest.json").exists()

    def test_scenario_b_writes_two_streams(self, tmp_path, capsys):
        out = tmp_path / "b.tbd1"
        code, _, _ = run(
            capsys, "simulate", "--scenario", "b", "--windows", "8000",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        for ch in (0, 1):
            path = tmp_path / f"b.ch{ch}.tbd1"
            assert streamio.read_stream_header(path)[2] == ch

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "simulate", "--scenario", "a", "--windows", "100",
            "--out", str(tmp_path / "x.tbd1"),
        )
        assert code == 2

    def test_model_file(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "channels": [{
                "mean_photons": 0.6931471805599453,
                "dark_rate": 0.0,
                "efficiency": 1.0,
                "gate_frequency": 1e6,
                "modulation": None,
                "afterpulse_taps": [],
            }]
        }))
        out = tmp_path / "m.tbd1"
        code, _, _ = run(
            capsys, "simulate", "--model-file", str(cfg), "--windows", "50000",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert abs(file_bits(out).mean() - 0.5) < 0.01

    @pytest.mark.parametrize("text", [
        '{"chans": []}',
        '{"channels": [',
        '[1]',
        '[{"dark_rate": "x"}]',
        '[{"dark_rate": 0.01, "bogus": 1}]',
        '[{"dark_rate": NaN}]',
        '[{"dark_rate": 0.01, "afterpulse_taps": [0.01, NaN]}]',
    ], ids=["no-channels-key", "bad-json", "not-an-object", "string-value", "unknown-key",
            "nan-dark-rate", "nan-tap"])
    def test_bad_model_file_is_input_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "model.json"
        cfg.write_text(text)
        out = tmp_path / "m.tbd1"
        code, _, err = run(
            capsys, "simulate", "--model-file", str(cfg), "--windows", "100",
            "--seed", "3", "--out", str(out),
        )
        assert code == 2
        assert err.startswith(f"error: {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize("t0", ["nan", "inf", "-inf"])
    def test_non_finite_t0_is_input_error(self, tmp_path, capsys, t0):
        out = tmp_path / "a.tbd1"
        code, _, err = run(
            capsys, "simulate", "--scenario", "a", "--windows", "1000",
            "--seed", "7", "--out", str(out), "--t0", t0,
        )
        assert code == 2
        assert "t0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gate_frequency", [4e9, 1e-11], ids=["rounds-to-0-ns", "over-u64"])
    def test_period_the_header_cannot_hold_is_input_error(self, tmp_path, capsys, gate_frequency):
        # the second channel's period fails, so not even the first one is written
        channel = {"dark_rate": 0.01, "gate_frequency": 1e6}
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps([channel, {**channel, "gate_frequency": gate_frequency}]))
        code, _, err = run(
            capsys, "simulate", "--model-file", str(cfg), "--windows", "100",
            "--seed", "3", "--out", str(tmp_path / "m.tbd1"),
        )
        assert code == 2
        assert "window period" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_ascii_format(self, tmp_path, capsys):
        out = tmp_path / "a.txt"
        code, _, _ = run(
            capsys, "simulate", "--scenario", "a", "--windows", "997",
            "--seed", "1", "--out", str(out), "--format", "ascii",
        )
        assert code == 0
        assert len(file_bits(out)) == 997


class TestExtract:
    def _simulate(self, tmp_path, capsys, scenario="a", windows=40000):
        out = tmp_path / "s.tbd1"
        run(capsys, "simulate", "--scenario", scenario, "--windows", str(windows),
            "--seed", "11", "--out", str(out))
        if scenario == "a":
            return [out]
        return [tmp_path / f"s.ch{c}.tbd1" for c in range(2)]

    def test_single_stream(self, tmp_path, capsys):
        (stream,) = self._simulate(tmp_path, capsys)
        bits = tmp_path / "bits.bin"
        code, out_text, _ = run(capsys, "extract", str(stream), "-N", "4", "--out", str(bits))
        assert code == 0
        assert "bits_per_window" in out_text
        meta = streamio.read_meta(bits)
        assert meta["block_len"] == 4
        assert meta["total_bits"] > 0
        assert file_bits(bits).size == meta["total_bits"]

    def test_merge_two_channels_round_robin(self, tmp_path, capsys):
        streams = self._simulate(tmp_path, capsys, scenario="b")
        bits = tmp_path / "merged.bin"
        code, out_text, _ = run(
            capsys, "extract", *map(str, streams), "--merge", "round-robin-block",
            "--out", str(bits),
        )
        assert code == 0
        assert "channels = 2" in out_text

    def test_ascii_output_for_external_suite(self, tmp_path, capsys):
        (stream,) = self._simulate(tmp_path, capsys)
        bits = tmp_path / "bits.txt"
        code, _, _ = run(capsys, "extract", str(stream), "--format", "ascii", "--out", str(bits))
        assert code == 0
        data = bits.read_bytes()
        assert set(data) <= {ord("0"), ord("1")}

    def test_malformed_stream_reports_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0101012101")
        code, _, err = run(capsys, "extract", str(bad), "--out", str(tmp_path / "o.bin"))
        assert code == 2
        assert "byte offset 6" in err

    def test_packed_bit_file_is_input_error(self, tmp_path, capsys):
        # its bytes "01\n" would read as two ASCII windows if the sidecar were ignored
        packed = tmp_path / "bits.bin"
        streamio.write_packed_bits(packed, b"01\n", 24)
        bits = tmp_path / "o.bin"
        code, _, err = run(capsys, "extract", str(packed), "-N", "2", "--out", str(bits))
        assert code == 2
        assert str(packed) in err
        assert "window stream (TIMEBIN1 or ascii windows)" in err
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(bits.name)]

    def test_missing_input(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract", str(tmp_path / "nope.tbd1"), "--out", str(tmp_path / "o.bin")
        )
        assert code == 2

    def test_reads_each_header_once(self, tmp_path, capsys, monkeypatch):
        streams = self._simulate(tmp_path, capsys, scenario="b", windows=4000)
        read_header = streamio.read_stream_header
        calls = []

        def counted(path):
            calls.append(str(path))
            return read_header(path)

        monkeypatch.setattr(streamio, "read_stream_header", counted)
        code, _, _ = run(
            capsys, "extract", *map(str, streams), "--chunk-windows", "1024",
            "--out", str(tmp_path / "merged.bin"),
        )
        assert code == 0
        assert calls == list(map(str, streams))

    @pytest.mark.parametrize("merge", ["round-robin-block", "per-channel"])
    def test_packed_chunks_of_both_formats_match_the_library(self, tmp_path, capsys, merge):
        # 17 does not divide the 136-window chunks, so partial blocks carry
        # as bits, shifted; per-channel inputs of unequal length run out apart
        rng = np.random.default_rng(4)
        sizes = [1001, 1001] if merge == "round-robin-block" else [1001, 650]
        chans = [(rng.random(size) < 0.3).astype(np.uint8) for size in sizes]
        expected = merge_channels([DetectionStream(w) for w in chans], 17, merge)
        for fmt in ("tbd1", "ascii"):
            paths = [tmp_path / f"c{i}.{fmt}" for i in range(2)]
            for path, w in zip(paths, chans):
                if fmt == "ascii":
                    streamio.write_ascii_bits(path, w)
                else:
                    write_stream(path, DetectionStream(w))
            bits = tmp_path / f"{fmt}.bin"
            code, _, _ = run(capsys, "extract", *map(str, paths), "-N", "17", "--merge", merge,
                             "--chunk-windows", "136", "--out", str(bits))
            assert code == 0
            meta = json.loads(streamio.meta_path(bits).read_text())
            assert bits.read_bytes() == expected.data
            assert meta["total_bits"] == expected.total_bits
            assert meta["stats"] == vars(expected.stats)

    @pytest.mark.parametrize("chunk", ["0", "-8", "7"])
    @pytest.mark.parametrize("fmt", ["ascii", "tbd1"])
    def test_chunk_windows_must_be_positive_multiple_of_8(self, tmp_path, capsys, chunk, fmt):
        stream = tmp_path / f"s.{fmt}"
        run(capsys, "simulate", "--scenario", "a", "--windows", "64", "--seed", "1",
            "--out", str(stream), "--format", fmt)
        bits = tmp_path / "o.bin"
        code, _, err = run(capsys, "extract", str(stream), "-N", "4",
                           "--chunk-windows", chunk, "--out", str(bits))
        assert code == 2
        assert "--chunk-windows must be a positive multiple of 8" in err
        # no output, sidecar or manifest
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(bits.name)]


    def test_bad_character_after_the_first_read_block(self, tmp_path, capsys):
        # the feed that reaches it stops the run before any output exists, at its file offset
        data = bytearray(b"0110\n" * 30_000)
        at = len(data) - 7
        data[at] = ord("2")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(bytes(data))
        with pytest.raises(streamio.StreamFormatError) as parsed:
            streamio.parse_ascii_bits(bytes(data))
        assert parsed.value.offset == at > streamio._ASCII_READ
        bits = tmp_path / "o.bin"
        code, _, err = run(capsys, "extract", str(bad), "--chunk-windows", "1024",
                           "--out", str(bits))
        assert code == 2
        assert f"byte offset {at})" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

    def test_ascii_input_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        # no counting pass: the bytes parsed add up to the file size
        windows = tmp_path / "w.txt"
        run(capsys, "simulate", "--scenario", "a", "--windows", "150001", "--seed", "1",
            "--out", str(windows), "--format", "ascii")
        parse = streamio.parse_ascii_bits
        parsed = []

        def counted(data, *args):
            parsed.append(len(data))
            return parse(data, *args)

        monkeypatch.setattr(streamio, "parse_ascii_bits", counted)
        code, _, _ = run(capsys, "extract", str(windows), "-N", "4", "--chunk-windows", "4096",
                         "--out", str(tmp_path / "o.bin"))
        assert code == 0
        assert sum(parsed) == windows.stat().st_size > streamio._ASCII_READ

    @pytest.mark.parametrize("extra", [1, 288, 4096])
    def test_round_robin_unequal_counts_leave_nothing(self, tmp_path, capsys, extra):
        # an ASCII input and a TIMEBIN1 one that holds ``extra`` windows more;
        # found by the feed where their chunk counts first differ
        (stream,) = self._simulate(tmp_path, capsys, windows=12_000 + extra)
        windows = tmp_path / "w.txt"
        streamio.write_ascii_bits(windows, file_bits(stream)[:12_000])
        before = sorted(p.name for p in tmp_path.iterdir())
        for inputs in ([windows, stream], [stream, windows]):
            code, _, err = run(capsys, "extract", *map(str, inputs), "-N", "17",
                               "--chunk-windows", "4096", "--out", str(tmp_path / "o.bin"))
            assert code == 2
            assert "equal window counts per channel" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fmt", ["packed", "ascii"])
    def test_input_shrinking_after_the_first_feed_leaves_nothing(
        self, tmp_path, capsys, monkeypatch, fmt
    ):
        # three per-channel inputs, two of them spilled; the last one loses
        # its end once the first chunks are fed
        streams = self._simulate(tmp_path, capsys, scenario="b", windows=40_000)
        streams.append(tmp_path / "s.ch1.txt")
        streamio.write_ascii_bits(streams[-1], file_bits(streams[1]))
        shrinking = streams[0]
        data = shrinking.read_bytes()
        real = streamio.iter_stream_payload

        def payload(path, *args, **kwargs):
            chunks = real(path, *args, **kwargs)
            yield next(chunks)
            if Path(path) == shrinking:
                shrinking.write_bytes(data[:-10])
            yield from chunks

        monkeypatch.setattr(streamio, "iter_stream_payload", payload)
        before = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(capsys, "extract", *map(str, streams[::-1]), "--merge", "per-channel",
                           "-N", "17", "--format", fmt, "--chunk-windows", "4096",
                           "--out", str(tmp_path / "o.bin"))
        assert code == 2
        assert f"payload ends early (byte offset {len(data) - 10})" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestExtractMemory:
    """Extract holds no output-sized buffer: its in-process peak stays flat
    while the input grows 16x.  Packing passes, spill appends and chunks
    are made small, so that the small input already fills every buffer
    whose size they bound."""

    SMALL, LARGE = 1 << 18, 1 << 22  # windows per channel

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("memory")
        for windows in (self.SMALL, self.LARGE):
            stream = d / f"b{windows}.tbd1"
            assert main(["simulate", "--scenario", "b", "--windows", str(windows), "--seed", "3",
                         "--out", str(stream)]) == 0
            streamio.write_ascii_bits(d / f"b{windows}.ch1.txt",
                                      file_bits(d / f"b{windows}.ch1.tbd1"))
        return d

    CASES = {
        "round-robin": (["ch0.tbd1", "ch1.tbd1"], ["--merge", "round-robin-block"]),
        "round-robin-ascii-input": (["ch0.tbd1", "ch1.txt"], ["--merge", "round-robin-block"]),
        "per-channel": (["ch0.tbd1", "ch1.txt", "ch1.tbd1"], ["--merge", "per-channel"]),
    }

    @pytest.mark.parametrize("fmt", ["packed", "ascii"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_peak_is_flat_in_input_length(self, inputs, tmp_path, capsys, monkeypatch, case, fmt):
        names, opts = self.CASES[case]
        monkeypatch.setattr(extractor, "_BATCH", 1 << 10)
        monkeypatch.setattr(extractor, "_SPILL_BLOCK", 1 << 13, raising=False)

        def peak(windows):
            argv = ["extract", *(str(inputs / f"b{windows}.{name}") for name in names), *opts,
                    "-N", "64", "--format", fmt, "--chunk-windows", str(1 << 14),
                    "--out", str(tmp_path / "o.bin")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(self.SMALL)  # codec tables and other one-time state
        small, large = peak(self.SMALL), peak(self.LARGE)
        assert (tmp_path / "o.bin").stat().st_size > 800_000
        assert large - small < 1 << 20, (small, large)

    def test_single_feed_shares_the_codec_slots(self, tmp_path, capsys):
        # one 2^20-window feed a channel at n = 64: the packer packs in the
        # codec's kept slots, dead once encode returns, instead of its own
        # beside them (4.7-4.9 MiB while the two sets coexisted)
        assert main(["simulate", "--scenario", "b", "--windows", str(1 << 20), "--seed", "3",
                     "--out", str(tmp_path / "b.tbd1")]) == 0
        argv = ["extract", str(tmp_path / "b.ch0.tbd1"), str(tmp_path / "b.ch1.tbd1"), "-N", "64",
                "--out", str(tmp_path / "o.bin")]
        assert main(argv) == 0  # codec tables and other one-time state
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()
        assert peak < 4 << 20, peak


class TestAnalyze:
    def _bits_file(self, tmp_path, capsys, windows=2_000_000):
        stream = tmp_path / "s.tbd1"
        run(capsys, "simulate", "--scenario", "a", "--windows", str(windows),
            "--seed", "13", "--out", str(stream))
        bits = tmp_path / "bits.bin"
        run(capsys, "extract", str(stream), "--out", str(bits))
        return stream, bits

    def test_min_entropy_and_sanity_pass(self, tmp_path, capsys):
        _, bits = self._bits_file(tmp_path, capsys)
        code, out_text, _ = run(
            capsys, "analyze", str(bits), "--min-entropy", "-d", "4", "--sanity"
        )
        assert code == 0
        assert "[min-entropy]" in out_text and "[sanity]" in out_text
        assert out_text.count("pass = true") == 2

    def test_uniformity_on_iid_stream(self, tmp_path, capsys):
        stream = tmp_path / "c.tbd1"
        run(capsys, "simulate", "--scenario", "c", "--windows", "2000000",
            "--seed", "13", "--out", str(stream))
        code, out_text, _ = run(
            capsys, "analyze", str(tmp_path / "c.ch0.tbd1"), "--uniformity", "-N", "4"
        )
        assert code == 0
        assert "symmetry_deviation" in out_text

    def test_uniformity_flags_drifting_source(self, tmp_path, capsys):
        # slow drift correlates neighboring raw blocks, so the raw-stream
        # independence check fails; the extracted bits are what stay clean
        stream, _ = self._bits_file(tmp_path, capsys)
        code, out_text, _ = run(capsys, "analyze", str(stream), "--uniformity", "-N", "4")
        assert code == 1
        assert "pass = false" in out_text

    def test_sanity_on_constant_file_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_bytes(b"0" * 20000)
        code, out_text, _ = run(capsys, "analyze", str(path), "--sanity")
        assert code == 1
        assert "pass = false" in out_text

    @pytest.mark.parametrize("text", [b"1" + b"0" * 19_999, b"1" * 19_999 + b"0"])
    def test_sanity_on_one_odd_bit_fails(self, tmp_path, capsys, text):
        path = tmp_path / "odd.txt"
        path.write_bytes(text)
        code, out_text, err = run(capsys, "analyze", str(path), "--sanity")
        assert code == 1
        assert "pass = false" in out_text and "lag1_z = inf" in out_text
        assert "Traceback" not in err

    def test_wrong_input_kind_is_per_check_error(self, tmp_path, capsys):
        stream, bits = self._bits_file(tmp_path, capsys, windows=200_000)
        # bit-level check on a window stream: that check errors, the rest run
        code, out_text, _ = run(
            capsys, "analyze", str(stream), "--sanity", "--uniformity"
        )
        assert code == 1
        assert "error =" in out_text
        assert "symmetry_deviation" in out_text

    @pytest.mark.parametrize(
        "sidecar", [b'{"total_bits": 8', b"{}", b'{"total_bits": -5}', b'{"total_bits": 9}']
    )
    def test_bad_sidecar_is_format_error(self, tmp_path, capsys, sidecar):
        bits = tmp_path / "bits.bin"
        bits.write_bytes(b"\x5a" * 2000)
        streamio.meta_path(bits).write_bytes(sidecar)
        code, out_text, err = run(capsys, "analyze", str(bits), "--min-entropy", "--sanity")
        assert code == 2
        assert "byte offset" in err
        assert "pass =" not in out_text

    def test_requires_a_check(self, tmp_path, capsys):
        _, bits = self._bits_file(tmp_path, capsys, windows=200_000)
        code, _, err = run(capsys, "analyze", str(bits))
        assert code == 2

    def test_ascii_extract_over_a_packed_one_reads_as_ascii(self, tmp_path, capsys):
        # a packed run, then an ASCII run to the same path: analyze reads the
        # ASCII codes, through the sidecar the ASCII run wrote
        stream, packed = self._bits_file(tmp_path, capsys, windows=200_000)
        packed_meta = streamio.read_meta(packed)
        out = tmp_path / "v.bin"
        assert run(capsys, "extract", str(stream), "-N", "16", "--out", str(out))[0] == 0
        assert run(capsys, "extract", str(stream), "-N", "4", "--format", "ascii",
                   "--out", str(out))[0] == 0
        meta = streamio.read_meta(out)
        assert set(meta) == set(packed_meta)
        assert meta["format"] == "ascii"
        assert meta["total_bits"] == meta["stats"]["bits_emitted"] == out.stat().st_size
        code, out_text, err = run(capsys, "analyze", str(out), "--sanity")
        assert err == "" and code in (0, 1)
        ((name, values),) = parse_report(out_text)
        assert values["n_bits"] == out.stat().st_size
        assert values["monobit_z"] == pytest.approx(sanity_tests(file_bits(out)).monobit_z,
                                                    rel=1e-5)

    def test_report_file(self, tmp_path, capsys):
        _, bits = self._bits_file(tmp_path, capsys, windows=200_000)
        report = tmp_path / "report.txt"
        code, out_text, _ = run(capsys, "analyze", str(bits), "--sanity", "--out", str(report))
        assert report.read_text() == out_text


class TestAnalyzeMemory:
    """Analyze holds no input-sized buffer: the peak RSS of a child process
    running one check stays flat while its input grows 16x, on each kind of
    input the check reads.  The inputs are random bytes written directly."""

    SMALL, LARGE = 1 << 20, 1 << 24  # windows or bits
    CASES = [("tbd1", "--uniformity"), ("bin", "--min-entropy"), ("bin", "--sanity"),
             ("txt", "--min-entropy"), ("txt", "--uniformity"), ("txt", "--sanity")]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("analyze-memory")
        rng = np.random.default_rng(17)
        for size in (self.SMALL, self.LARGE):
            payload = rng.integers(0, 256, size // 8, dtype=np.uint8).tobytes()
            header = struct.pack("<8sQQQ", streamio.MAGIC, size, 1, 0)
            (d / f"{size}.tbd1").write_bytes(header + payload)
            streamio.write_packed_bits(d / f"{size}.bin", payload, size)
            (d / f"{size}.txt").write_bytes(streamio.ascii_codes(np.unpackbits(
                np.frombuffer(payload, np.uint8))).tobytes())
        return d

    # a child's peak RSS counts the memory of the process it was forked from,
    # so a small launcher, not this test process, starts the analyze child;
    # glibc's fixed mmap threshold returns freed chunk-sized arrays at once,
    # so that the peak follows the live arrays, not the heap's fragmentation
    LAUNCHER = "\n".join([
        "import os, subprocess, sys",
        "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)",
        "_, status, usage = os.wait4(child.pid, 0)",
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)",
    ])

    def peak_mib(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(streamio.__file__).parents[1]),
               "MALLOC_MMAP_THRESHOLD_": "65536"}
        launched = subprocess.run([sys.executable, "-c", self.LAUNCHER, sys.executable, "-m",
                                   "timebinrng", "analyze", *argv],
                                  capture_output=True, text=True, env=env, check=True)
        code, kib = map(int, launched.stdout.split())
        assert code in (0, 1)
        return kib / 1024

    @pytest.mark.parametrize("suffix, check", CASES)
    def test_peak_is_flat_in_input_length(self, inputs, suffix, check):
        small, large = (self.peak_mib(str(inputs / f"{size}.{suffix}"), check)
                        for size in (self.SMALL, self.LARGE))
        assert large - small < 2, (small, large)


# each check's report keys, in print order
REPORT_KEYS = {
    "min-entropy": ["word_bits", "word_count", "min_entropy", "deviation",
                    "stat_error_scale", "bound_5x_scale", "pass"],
    "uniformity": ["block_len", "pair_count", "symmetry_deviation",
                   "independence_deviation", "subblock_max_z", "pass"],
    "sanity": ["n_bits", "monobit_z", "runs_z", "lag1_z", "pass"],
}
INT_KEYS = {"word_bits", "word_count", "block_len", "pair_count", "n_bits"}


def parse_report(text):
    """An analyze report as a list of (check, {key: value}) sections, values
    parsed as numbers (ints exactly) and ``pass`` as a bool; key order kept."""
    assert text.endswith("\n") and not text.endswith("\n\n")
    sections = []
    for block in text[:-1].split("\n\n"):  # one blank line between sections
        header, *lines = block.split("\n")
        assert header.startswith("[") and header.endswith("]"), header
        values = {}
        for line in lines:
            key, sep, value = line.partition(" = ")
            assert sep and key not in values, line
            if key == "pass":
                assert value in ("true", "false")
                values[key] = value == "true"
            elif key == "error":
                values[key] = value
            else:
                values[key] = int(value) if key in INT_KEYS else float(value)
        sections.append((header[1:-1], values))
    return sections


@pytest.fixture(scope="module")
def analyze_inputs(tmp_path_factory):
    """A drifting TIMEBIN1 stream, its packed extracted bits, and an ASCII
    window file (no sidecar) of an IID stream."""
    tmp = tmp_path_factory.mktemp("analyze")
    paths = {"stream": tmp / "a.tbd1", "bits": tmp / "bits.bin", "ascii": tmp / "iid.txt"}
    assert main(["simulate", "--scenario", "a", "--windows", "2000000", "--seed", "13",
                 "--out", str(paths["stream"])]) == 0
    assert main(["extract", str(paths["stream"]), "--out", str(paths["bits"])]) == 0
    iid = simulate(SourceModel(mean_photons=math.log(2.0)), 400_000, seed=13)
    streamio.write_ascii_bits(paths["ascii"], iid.windows)
    return paths


class TestAnalyzeReport:
    """The report layout: one ``[check]`` section per check in a fixed order,
    ``key = value`` lines, then ``pass`` or ``error``; sections apart by one
    blank line."""

    def test_bit_checks_keys_values_and_pass_rules(self, analyze_inputs, capsys):
        bits = analyze_inputs["bits"]
        code, out_text, _ = run(capsys, "analyze", str(bits), "--sanity", "--min-entropy",
                                "-d", "4")
        sections = parse_report(out_text)
        assert [name for name, _ in sections] == ["min-entropy", "sanity"]
        for name, values in sections:
            assert list(values) == REPORT_KEYS[name]
        ent, san = (values for _, values in sections)
        lib = min_entropy(file_bits(bits), 4)
        assert ent["word_bits"] == 4 and ent["word_count"] == lib.word_count
        for key in ("min_entropy", "deviation", "stat_error_scale"):
            assert ent[key] == pytest.approx(getattr(lib, key), rel=1e-5, abs=1e-6)
        assert ent["bound_5x_scale"] == pytest.approx(5 * lib.stat_error_scale, rel=1e-5)
        assert ent["pass"] is (lib.deviation < 5 * lib.stat_error_scale)
        lib = sanity_tests(file_bits(bits))
        assert san["n_bits"] == lib.n_bits
        for key in ("monobit_z", "runs_z", "lag1_z"):
            assert san[key] == pytest.approx(getattr(lib, key), rel=1e-5, abs=5e-5)
        assert san["pass"] is lib.passed
        assert code == (0 if ent["pass"] and san["pass"] else 1)

    def test_uniformity_keys_values_and_pass_rule(self, analyze_inputs, capsys):
        stream = analyze_inputs["stream"]
        code, out_text, _ = run(capsys, "analyze", str(stream), "--uniformity", "-N", "3")
        ((name, values),) = parse_report(out_text)
        assert name == "uniformity" and list(values) == REPORT_KEYS[name]
        lib = uniformity_matrix(DetectionStream(file_bits(stream)), 3)
        assert values["block_len"] == 3 and values["pair_count"] == lib.pair_count
        for key in ("symmetry_deviation", "independence_deviation", "subblock_max_z"):
            assert values[key] == pytest.approx(getattr(lib, key), rel=1e-5, abs=5e-5)
        rule = (lib.symmetry_deviation < 5 and lib.independence_deviation < 5
                and lib.subblock_max_z < 4)
        assert values["pass"] is rule
        assert code == (0 if rule else 1)

    def test_ascii_windows_serve_every_check(self, analyze_inputs, capsys):
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["ascii"]),
                                "--uniformity", "--sanity", "--min-entropy")
        sections = parse_report(out_text)
        assert [name for name, _ in sections] == ["min-entropy", "uniformity", "sanity"]
        for name, values in sections:
            assert list(values) == REPORT_KEYS[name]
        assert code == (0 if all(values["pass"] for _, values in sections) else 1)

    def test_wrong_kind_checks_error_and_the_rest_run(self, analyze_inputs, capsys):
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["stream"]),
                                "--sanity", "--uniformity", "--min-entropy")
        assert code == 1
        sections = parse_report(out_text)
        assert [name for name, _ in sections] == ["min-entropy", "uniformity", "sanity"]
        for name in ("min-entropy", "sanity"):
            assert dict(sections)[name] == {
                "error": "bit-level checks need a bit file (ascii or packed); "
                         "got a TIMEBIN1 window stream"
            }
        assert list(dict(sections)["uniformity"]) == REPORT_KEYS["uniformity"]

        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["bits"]), "--uniformity")
        assert code == 1
        assert parse_report(out_text) == [("uniformity", {
            "error": "uniformity needs a window stream (TIMEBIN1 or ascii windows); "
                     "got a packed bit file"
        })]

    def test_report_file_equals_stdout(self, analyze_inputs, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["stream"]),
                                "--uniformity", "--sanity", "--out", str(report))
        assert code == 1
        assert report.read_text() == out_text
        manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
        assert manifest["command"] == "analyze" and manifest["outputs"] == [str(report)]

    @pytest.mark.parametrize(
        "name, kind, checks",
        [
            ("iter_stream_payload", "stream", ["--min-entropy", "--uniformity", "--sanity"]),
            ("iter_bits_payload", "bits", ["--min-entropy", "--sanity"]),
            ("iter_ascii_payload", "ascii", ["--min-entropy", "--uniformity", "--sanity"]),
        ],
    )
    def test_reads_the_input_once(self, analyze_inputs, capsys, monkeypatch, name, kind, checks):
        # one chunk reader, each of whose windows or bits is read once
        reader = getattr(streamio, name)
        calls, counts = [], []

        def counted(path, *args, **kwargs):
            calls.append(path)
            for payload, count in reader(path, *args, **kwargs):
                counts.append(count)
                yield payload, count

        monkeypatch.setattr(streamio, name, counted)
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs[kind]), *checks)
        assert len(parse_report(out_text)) == len(checks)
        assert len(calls) == 1
        assert sum(counts) == file_bits(analyze_inputs[kind]).size

    def test_reads_a_packed_sidecar_once(self, analyze_inputs, capsys, monkeypatch):
        # the opener hands the sidecar it read to the bit reader
        read_meta, calls = streamio.read_meta, []

        def counted(path):
            calls.append(path)
            return read_meta(path)

        monkeypatch.setattr(streamio, "read_meta", counted)
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["bits"]), "--sanity")
        assert code in (0, 1) and [name for name, _ in parse_report(out_text)] == ["sanity"]
        assert list(map(str, calls)) == [str(analyze_inputs["bits"])]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--min-entropy", "-d", "0"], "--word-bits"),
            (["--min-entropy", "-d", "17"], "--word-bits"),
            (["--sanity", "--min-entropy", "-d", "-3"], "--word-bits"),
            (["--uniformity", "-N", "13"], "--block-len"),
            (["--uniformity", "-N", "1"], "--block-len"),
        ],
    )
    def test_option_out_of_range_is_usage_error(
        self, analyze_inputs, capsys, monkeypatch, tmp_path, argv, message
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the input was read")

        for reader in ("is_tbd1", "packed_bits_meta", "read_stream_header", "iter_stream_payload",
                       "iter_bits_payload", "iter_ascii_payload"):
            monkeypatch.setattr(streamio, reader, unread)
        report = tmp_path / "report.txt"
        code, out_text, err = run(capsys, "analyze", str(analyze_inputs["stream"]), *argv,
                                  "--out", str(report))
        assert code == 2
        assert out_text == ""
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_options_of_unrequested_checks_are_not_checked(self, analyze_inputs, capsys):
        code, out_text, _ = run(capsys, "analyze", str(analyze_inputs["bits"]), "--sanity",
                                "-d", "0", "-N", "13")
        assert [name for name, _ in parse_report(out_text)] == ["sanity"]
        assert code == (0 if "pass = true" in out_text else 1)

    def test_simulated_ascii_windows_serve_every_check(self, tmp_path, capsys):
        # simulate --format ascii writes a sidecar too: its format, not its
        # presence, tells ASCII windows from packed bits
        assert run(capsys, "simulate", "--scenario", "b", "--windows", "100000", "--seed", "3",
                   "--format", "ascii", "--out", str(tmp_path / "b.txt"))[0] == 0
        windows = tmp_path / "b.ch0.txt"
        assert streamio.read_meta(windows)["format"] == "ascii"
        code, out_text, err = run(capsys, "analyze", str(windows),
                                  "--uniformity", "-N", "2", "--sanity")
        assert code in (0, 1) and err == ""
        sections = parse_report(out_text)
        assert [(name, list(values)) for name, values in sections] == [
            ("uniformity", REPORT_KEYS["uniformity"]), ("sanity", REPORT_KEYS["sanity"])
        ]
        # its packed extract output still goes to the bit checks only
        bits = tmp_path / "bits.bin"
        assert run(capsys, "extract", str(windows), "-N", "4", "--out", str(bits))[0] == 0
        code, out_text, _ = run(capsys, "analyze", str(bits), "--uniformity", "--sanity")
        sections = dict(parse_report(out_text))
        assert sections["uniformity"] == {
            "error": "uniformity needs a window stream (TIMEBIN1 or ascii windows); "
                     "got a packed bit file"
        }
        assert list(sections["sanity"]) == REPORT_KEYS["sanity"]


class TestEfficiency:
    def test_single_point(self, capsys):
        code, out_text, _ = run(capsys, "efficiency", "-N", "5", "-p", "0.5")
        assert code == 0
        line = out_text.splitlines()[1].split("\t")
        assert float(line[3]) == pytest.approx(0.5604, abs=1e-4)

    def test_profile_average(self, capsys):
        code, out_text, _ = run(
            capsys, "efficiency", "-N", "4",
            "--profile", "base=0.5,amp=0.3,omega=0.1pi,T=20",
        )
        assert code == 0
        assert float(out_text.splitlines()[1].split("\t")[-1]) == pytest.approx(
            0.3454, abs=1e-3
        )

    def test_block_rate_column_increases_with_n(self, capsys):
        code, out_text, _ = run(capsys, "efficiency", "-N", "2..64", "-p", "0.5")
        assert code == 0
        rates = [float(line.split("\t")[3]) for line in out_text.splitlines()[1:]]
        assert len(rates) == 63
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "efficiency", "-N", "4", "-p", "0.1..0.9")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["-N", "2..8:0"],
        ["-N", "2..8:-2"],
        ["-p", "0.1..0.5:0"],
        ["-p", "0.1..0.5:-0.1"],
        ["-p", "0.1..inf:0.1"],
        ["-p", "0.1..0.5:nan"],
        ["-p", "0..0.5:1e-12"],
        ["-N", "2..1000002"],
        ["-N", "8..2"],
        ["-p", "0.5..0.1:-0.1"],
        ["-N", ","],
        ["-p", "abc"],
        ["-N", "x"],
        ["-N", "2..8:x"],
        ["-p", "0.1..0.5:y"],
        ["--profile", "base=0.5,amp=0.3,omega=0.1pi"],
        ["--profile", "base=0.5,amp=0.3,omega=0.1pi,T"],
        ["--profile", "base=0.5,amp=0.3,omega=x,T=20"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_argument_is_usage_error(self, capsys, argv):
        # a zero, negative, tiny or non-finite step or end once looped for ever
        code, out_text, err = run(capsys, "efficiency", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert out_text == ""


    @pytest.mark.parametrize("argv", [
        ["-N", "4", "-p", "0.5..2:0.5"],
        ["-N", "60..70", "-p", "0.5"],
        ["-N", "60..70", "--profile", "base=0.5,amp=0.3,omega=0.1pi,T=20"],
    ], ids=lambda argv: " ".join(argv))
    def test_range_leaving_the_domain_prints_no_rows(self, capsys, argv):
        # the first rows are valid; a table used to be printed up to the bad one
        code, out_text, err = run(capsys, "efficiency", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert out_text == ""

class TestBench:
    def test_reports_throughput(self, capsys):
        code, out_text, _ = run(
            capsys, "bench", "--scenario", "a", "--windows", "200000", "--seed", "5"
        )
        assert code == 0
        assert "end_to_end_mwin_per_s" in out_text

    @pytest.mark.parametrize("windows", ["0", "-5"])
    def test_no_windows_is_input_error(self, capsys, windows):
        code, _, err = run(capsys, "bench", "--windows", windows)
        assert code == 2
        assert "--windows" in err


class TestInterruptedExtract:
    def test_no_output_beside_another_runs_records(self, tmp_path, capsys, monkeypatch):
        # an extract over an earlier one fails at each write and each rename
        # of its output, sidecar and manifest in turn: the output that is left
        # sits beside its own run's sidecar and manifest or beside none
        stream = tmp_path / "s.tbd1"
        run(capsys, "simulate", "--scenario", "a", "--windows", "40000", "--seed", "11",
            "--out", str(stream))
        out = tmp_path / "v.bin"
        records = [out, streamio.meta_path(out), streamio.manifest_path(out)]
        runs = {}
        for block_len in ("16", "4"):  # the -N 4 run's files are the earlier ones
            assert run(capsys, "extract", str(stream), "-N", block_len, "--out", str(out))[0] == 0
            runs[block_len] = [r.read_bytes() for r in records]
        assert runs["16"][0] != runs["4"][0]
        atomic_open, replace = streamio.atomic_open, os.replace
        steps, fail_at = itertools.count(), None

        def step():
            if next(steps) == fail_at:
                raise OSError("injected failure")

        @contextlib.contextmanager
        def failing_open(path):
            with atomic_open(path) as fh:
                yield fh
                step()  # the write

        def failing_replace(src, dst):
            step()  # the rename
            replace(src, dst)

        monkeypatch.setattr(streamio, "atomic_open", failing_open)
        monkeypatch.setattr(os, "replace", failing_replace)
        names = {p.name for p in tmp_path.iterdir()}
        for fail_at in [*range(6), None]:
            for record, data in zip(records, runs["4"]):
                record.write_bytes(data)
            steps = itertools.count()
            with pytest.raises(OSError) if fail_at is not None else contextlib.nullcontext():
                run(capsys, "extract", str(stream), "-N", "16", "--out", str(out))
            left = [r.read_bytes() if r.exists() else None for r in records]
            (own,) = [files for files in runs.values() if files[0] == left[0]]
            assert all(data in (None, mine) for data, mine in zip(left[1:], own[1:])), fail_at
            assert {p.name for p in tmp_path.iterdir()} <= names  # no temp file stays
        assert next(steps) == 6 and left == runs["16"]


class TestInterruptedSimulate:
    def test_no_channel_beside_an_older_runs_manifest(self, tmp_path, capsys, monkeypatch):
        # a two-channel seed-2 run over a seed-1 run fails to rename its second
        # channel: the new first channel is left, but not beside the manifest
        # whose argv says seed 1, which is named after --out, not after a channel
        base = tmp_path / "b.tbd1"
        argv = ["simulate", "--scenario", "b", "--windows", "4000", "--out", str(base)]
        assert run(capsys, *argv, "--seed", "1")[0] == 0
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert streamio.manifest_path(base).name in old
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "b.ch1.tbd1":
                raise OSError("injected failure")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            run(capsys, *argv, "--seed", "2")
        ch0, ch1 = tmp_path / "b.ch0.tbd1", tmp_path / "b.ch1.tbd1"
        assert ch0.read_bytes() != old[ch0.name] and streamio.read_meta(ch0)["seed"] == 2
        assert ch1.read_bytes() == old[ch1.name]
        assert not streamio.manifest_path(base).exists()
        assert {p.name for p in tmp_path.iterdir()} <= set(old)  # no temp file stays


class TestReproducibility:
    def test_pipeline_is_byte_deterministic(self, tmp_path, capsys):
        digests = []
        for tag in ("x", "y"):
            stream = tmp_path / f"{tag}.tbd1"
            bits = tmp_path / f"{tag}.bin"
            run(capsys, "simulate", "--scenario", "a", "--windows", "100000",
                "--seed", "99", "--out", str(stream))
            run(capsys, "extract", str(stream), "--out", str(bits))
            digests.append((stream.read_bytes(), bits.read_bytes()))
        assert digests[0] == digests[1]

    def test_manifest_replay_reproduces_outputs(self, tmp_path, capsys):
        out = tmp_path / "r.tbd1"
        run(capsys, "simulate", "--scenario", "a", "--windows", "50000",
            "--seed", "4", "--out", str(out))
        manifest = json.loads((tmp_path / "r.tbd1.manifest.json").read_text())
        first = out.read_bytes()
        out.unlink()
        assert main(manifest["argv"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_chunk_size_does_not_change_outputs(self, tmp_path, capsys):
        blobs = []
        for chunk in ("8192", "65536"):
            stream = tmp_path / f"c{chunk}.tbd1"
            bits = tmp_path / f"c{chunk}.bin"
            run(capsys, "simulate", "--scenario", "a", "--windows", "70000",
                "--seed", "77", "--out", str(stream), "--chunk-windows", chunk)
            run(capsys, "extract", str(stream), "--out", str(bits),
                "--chunk-windows", chunk)
            blobs.append((stream.read_bytes(), bits.read_bytes()))
        assert blobs[0] == blobs[1]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "timebinrng", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "timebinrng" in proc.stdout
