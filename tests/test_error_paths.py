"""Inputs the library and the CLI must refuse, each with its own error.

One test per check that no other test reaches: a range check on a
model or profile, a malformed argument to a stream or codec function,
and the CLI's exit-2 paths for model files, merges and profiles.
"""

import json
import math

import numpy as np
import pytest

from timebinrng import (
    Combination,
    DetectionStream,
    DomainError,
    ModulationProfile,
    SourceModel,
    StreamFormatError,
    StreamingExtractor,
    StreamingMerger,
    afterpulse_entropy,
    extract,
    iter_simulate,
    simulate,
    streamio,
    time_average_binary_rate,
    uniformity_matrix,
    unrank_combination,
    verify_monotone_convergence,
)
from timebinrng.cli import main
from timebinrng.extractor import as_bit_array, unpack_bits

from oracles import write_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLibrary:
    @pytest.mark.parametrize("kwargs", [{"channel_id": -1}, {"window_period": 0.0},
                                        {"window_period": -1e-6}])
    def test_detection_stream(self, kwargs):
        with pytest.raises(DomainError):
            DetectionStream(np.zeros(8, dtype=np.uint8), **kwargs)

    @pytest.mark.parametrize("windows", [np.zeros((2, 4), dtype=np.uint8),
                                         np.array([0, 2, 1], dtype=np.uint8)],
                             ids=["2-D", "value-2"])
    def test_as_bit_array(self, windows):
        with pytest.raises(DomainError):
            as_bit_array(windows)

    def test_unpack_more_bits_than_bytes_hold(self):
        with pytest.raises(DomainError, match="do not fit"):
            unpack_bits(b"\xff\x00", 17)

    @pytest.mark.parametrize("block_len", [1, 65])
    def test_block_length(self, block_len):
        with pytest.raises(DomainError, match="block_len"):
            StreamingExtractor(block_len)
        with pytest.raises(DomainError, match="block_len"):
            extract(DetectionStream(np.zeros(130, dtype=np.uint8)), block_len)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_combination_and_unrank_k(self, k):
        with pytest.raises(DomainError, match="k must be"):
            Combination(4, k, ())
        with pytest.raises(DomainError, match="unrank requires"):
            unrank_combination(4, k, 0)

    @pytest.mark.parametrize("n_max", [2, 65])
    def test_monotone_convergence_range(self, n_max):
        with pytest.raises(DomainError, match="n_max"):
            verify_monotone_convergence(n_max)

    def test_merger_policy_and_chunk_count(self):
        with pytest.raises(DomainError, match="policy"):
            StreamingMerger(4, 2, "interleave")
        merger = StreamingMerger(4, 2)
        with pytest.raises(DomainError, match="expected 2 channel chunks"):
            merger.feed([np.zeros(8, dtype=np.uint8)])

    @pytest.mark.parametrize("kwargs", [
        {"mean_photons": -0.1},
        {"dark_rate": -0.1},
        {"efficiency": 1.5},
        {"efficiency": -0.1},
        {"window": 0.0},
        {"gate_frequency": 0.0},
        {"afterpulse_taps": (0.01, -0.01)},
        {"mean_photons": 0.7, "afterpulse_taps": (0.6,)},
        {"mean_photons": math.inf},
        {"afterpulse_taps": (math.nan,)},
    ], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_source_model_ranges(self, kwargs):
        with pytest.raises(DomainError):
            SourceModel(**kwargs)

    def test_modulated_peak_plus_tap_over_one(self):
        profile = ModulationProfile(0.5, 0.3, 1.0, 1.0)
        with pytest.raises(DomainError, match="exceeds 1"):
            SourceModel(modulation=profile, afterpulse_taps=(0.25,))

    def test_drift_phase_past_the_float_range(self):
        profile = ModulationProfile(0.5, 0.3, 1e200, 1e200)
        with pytest.raises(DomainError, match="angular_frequency"):
            time_average_binary_rate(4, profile)

    def test_negative_modulation_amplitude(self):
        with pytest.raises(DomainError, match="amplitude"):
            ModulationProfile(0.5, -0.1, 1.0, 1.0)

    def test_iter_simulate_chunk_windows(self):
        with pytest.raises(DomainError, match="chunk_windows"):
            next(iter_simulate(SourceModel(dark_rate=0.1), 100, seed=1, chunk_windows=0))

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1, "channel_id": -1}])
    def test_negative_seed_or_channel(self, kwargs):
        model = SourceModel(dark_rate=0.1)
        with pytest.raises(DomainError, match="seed and channel_id"):
            next(iter_simulate(model, 100, **kwargs))
        with pytest.raises(DomainError, match="seed and channel_id"):
            simulate(model, 100, **kwargs)

    def test_header_with_period_zero(self, tmp_path):
        path = tmp_path / "s.tbd1"
        write_stream(path, DetectionStream(np.ones(16, dtype=np.uint8)))
        raw = bytearray(path.read_bytes())
        raw[16:24] = bytes(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="period") as err:
            streamio.read_stream_header(path)
        assert err.value.offset == 16

    @pytest.mark.parametrize("chunk", [0, 12, -8])
    def test_payload_chunk_not_a_multiple_of_8(self, tmp_path, chunk):
        path = tmp_path / "s.tbd1"
        write_stream(path, DetectionStream(np.ones(16, dtype=np.uint8)))
        with pytest.raises(StreamFormatError, match="multiple of 8"):
            next(streamio.iter_stream_payload(path, chunk))

    def test_write_bit_output_format(self, tmp_path):
        out = extract(DetectionStream(np.tile([0, 1, 1, 0], 4).astype(np.uint8)), 4)
        with pytest.raises(StreamFormatError, match="format"):
            streamio.write_bit_output(tmp_path / "o.bin", out, fmt="hex")
        assert list(tmp_path.iterdir()) == []

    def test_uniformity_block_length(self):
        stream = DetectionStream(np.zeros(13 * 4, dtype=np.uint8))
        with pytest.raises(DomainError, match="block lengths"):
            uniformity_matrix(stream, 13)

    @pytest.mark.parametrize("p, taps", [(0.0, [0.01]), (1.0, [0.01]), (0.5, [0.01, -0.01])],
                             ids=["p=0", "p=1", "negative-tap"])
    def test_afterpulse_entropy_arguments(self, p, taps):
        with pytest.raises(DomainError):
            afterpulse_entropy(p, taps, 4, 1)


class TestCli:
    def test_round_robin_merge_of_unequal_inputs(self, tmp_path, capsys):
        paths = [tmp_path / "c0.tbd1", tmp_path / "c1.tbd1"]
        for path, size in zip(paths, (64, 72)):
            write_stream(path, DetectionStream(np.ones(size, dtype=np.uint8)))
        out = tmp_path / "o.bin"
        code, _, err = run(capsys, "extract", *map(str, paths), "--merge", "round-robin-block",
                           "--out", str(out))
        assert code == 2
        assert "equal window counts" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "a", "--windows", "100", "--format", "tbd1"],
        ["simulate", "--scenario", "b", "--windows", "100", "--format", "ascii"],
        ["bench", "--scenario", "a", "--windows", "100"],
    ], ids=["simulate-tbd1", "simulate-ascii", "bench"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        out = ["--out", str(tmp_path / "s.out")] if argv[0] == "simulate" else []
        code, out_text, err = run(capsys, *argv, "--seed", "-1", *out)
        assert code == 2
        assert err.startswith("error: ") and "seed" in err
        assert out_text == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_profile_key(self, capsys):
        code, out_text, err = run(capsys, "efficiency", "-N", "4",
                                  "--profile", "base=0.5,amp=0.3,omega=0.1pi,T=20,phase=1")
        assert code == 2
        assert "unknown profile key 'phase'" in err
        assert out_text == ""

    def test_recorded_model_with_modulation_round_trips(self, tmp_path, capsys):
        # the model a scenario-a sidecar records, fed back as a model file,
        # simulates the same stream
        first = tmp_path / "a.tbd1"
        run(capsys, "simulate", "--scenario", "a", "--windows", "20000", "--seed", "11",
            "--out", str(first))
        model = streamio.read_meta(first)["model"]
        assert model["modulation"] is not None
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"channels": [model]}))
        again = tmp_path / "m.tbd1"
        code, _, _ = run(capsys, "simulate", "--model-file", str(cfg), "--windows", "20000",
                         "--seed", "11", "--out", str(again))
        assert code == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("channels", [
        [{"dark_rate": 0.01, "modulation": {"base": 0.5, "amplitude": 0.1,
                                            "angular_frequency": 1.0}}],
        [{"dark_rate": 0.01, "modulation": {"base": 0.5, "amplitude": 0.1,
                                            "angular_frequency": 1.0, "duration": 1.0,
                                            "phase": 0.0}}],
        [{"dark_rate": 0.01, "modulation": [0.5, 0.1, 1.0, 1.0]}],
        [{"dark_rate": 0.01, "afterpulse_taps": 0.01}],
        [{"dark_rate": 0.01, "afterpulse_taps": {"1": 0.01}}],
        [],
    ], ids=["modulation-missing-key", "modulation-extra-key", "modulation-not-an-object",
            "taps-a-number", "taps-an-object", "no-channels"])
    def test_bad_model_file_is_input_error(self, tmp_path, capsys, channels):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"channels": channels}))
        out = tmp_path / "m.tbd1"
        code, _, err = run(capsys, "simulate", "--model-file", str(cfg), "--windows", "100",
                           "--seed", "3", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {cfg}: ")
        assert not out.exists()
