import json
import subprocess
import sys

import numpy as np
import pytest

from timebinrng import DetectionStream, merge_channels, streamio
from timebinrng.cli import main


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
        stream = streamio.read_stream(out)
        assert abs(stream.windows.mean() - 0.5) < 0.01

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
        assert len(streamio.read_ascii_bits(out)) == 997


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
        assert streamio.read_bits(bits).size == meta["total_bits"]

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
                    streamio.write_stream(path, DetectionStream(w))
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

    def test_report_file(self, tmp_path, capsys):
        _, bits = self._bits_file(tmp_path, capsys, windows=200_000)
        report = tmp_path / "report.txt"
        code, out_text, _ = run(capsys, "analyze", str(bits), "--sanity", "--out", str(report))
        assert report.read_text() == out_text


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
