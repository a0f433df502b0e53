"""Pinned sha256 digests of simulate, extract and analyze output.

The simulator is a pure function of (model, seed, channel, window count)
under ``GENERATOR_TAG``, and extraction a pure function of (windows, n,
merge policy), so these digests must survive every refactor.  A digest
may change only together with a new ``GENERATOR_TAG`` or stream format
magic, and the change is recorded in CHANGES.md.

Each case runs in two chunkings, which must give the same digest, and
each simulate case once more with its chunk drawn in slices on other
threads.  ``analyze`` is pinned by exit code and stdout on each input
kind under every combination of checks, the wrong-kind ones included.
"""

import hashlib
import itertools
import json
import math
from dataclasses import asdict
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from timebinrng import (
    SourceModel,
    StreamingExtractor,
    StreamingMerger,
    iter_simulate,
    preset,
)
from timebinrng import source_sim, streamio
from timebinrng.cli import main
from timebinrng.source_sim import LIT_MODULATION

from oracles import file_bits

SEED = 20261018
WINDOWS = 200_003  # no multiple of 8 or of any n below: every case has a partial tail
CHUNKS = (WINDOWS, 4_104)  # one feed, and many that split blocks and bytes

# single-channel afterpulse models, beside the scenario presets
AFTERPULSE_MODELS = {
    # scenario c's dark channel (p = 0.01) with three afterpulse taps
    "afterpulse": SourceModel(
        mean_photons=0.0,
        dark_rate=-math.log(0.99),
        efficiency=1.0,
        afterpulse_taps=(0.02, 0.01, 0.005),
    ),
    # the lit drive p(t) with two taps: the resolve's per-window p branch
    "modulated-afterpulse": SourceModel(
        modulation=LIT_MODULATION, afterpulse_taps=(0.1, 0.05)
    ),
    # p = 0.05 with large taps: long chains of tap-induced clicks
    "dense-chain": SourceModel(dark_rate=-math.log(0.95), afterpulse_taps=(0.9, 0.0, 0.9)),
}


def _models(source: str) -> list[SourceModel]:
    if source in AFTERPULSE_MODELS:
        return [AFTERPULSE_MODELS[source]]
    return preset(source)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _out_digest(out) -> str:
    """Output bytes, exact bit count and all five stats fields."""
    meta = json.dumps({"total_bits": out.total_bits, **asdict(out.stats)}, sort_keys=True)
    return _sha(out.data, meta.encode())


def _chunks(arr: np.ndarray, size: int):
    return [arr[i : i + size] for i in range(0, arr.size, size)]


@lru_cache(maxsize=None)
def _windows(source: str, channel: int) -> np.ndarray:
    model = _models(source)[channel]
    return np.concatenate(list(iter_simulate(model, WINDOWS, SEED, channel_id=channel)))


SIMULATE = {
    ("a", 0): "f053008bdbc49afab234beff9a0fb20e635e3c28f7724a48ed8298ee3d5ed21e",
    ("b", 0): "f053008bdbc49afab234beff9a0fb20e635e3c28f7724a48ed8298ee3d5ed21e",
    ("b", 1): "d351069f031fe427e8b3fe469a7c1cb4d085b3c921d32dba5ee4614337270fd1",
    ("c", 0): "691e9206387b3b8c0944dc184fc223d483b4271041b696146dcbd4c90f880e22",
    ("c", 1): "fd0a2dddaca09a458370e85b623c8026564b48a679eb7605372083dde686bb54",
    ("afterpulse", 0): "c60f345e489030c8c6c9bf8b58e603b9e2c7ff9dad3ec4378b184c925962d4f5",
    ("modulated-afterpulse", 0): "abd95ab8fb1d73ebb09a118fd81862868a9b95e781442552c68826ad93081615",
    ("dense-chain", 0): "3490a6537bb2bdd0ddc2cee3bcca08bc760ca516f02ca1232abe0c04ccb52e76",
}

EXTRACT = {
    ("a", 2): "643306bc46075f5539fe4111e9f4b18db06b6436fac3ee4cd81ac051d8649e83",
    ("a", 4): "df5c266e06d9c7753be8a046eb088b87718386297b946201618680240cad79c8",
    ("a", 8): "deb6717c67c62ecc58131029f77e2917b5817aa41da37d49c0655f025b24584e",
    ("a", 16): "72f9eedd408cf610259e0e5439b602c8745e9984d97c9da5d61384eb7b842cc9",
    ("a", 17): "c47f16c25c2fbd63482ffc67bc9b268e807d797719348f0627d78aa3dd3729af",
    ("a", 33): "83027fb7108391d3a52537128ffce0d44db4264e7c1edaa11bbd811a3266072c",
    ("a", 64): "2ea8e68ac83506651c24bfb25c06055368a0858e2006ae3938df743c9701f477",
    ("afterpulse", 17): "dba64f6d95576f98335f495a006149c842ed7fdfa1872ef54e6d88241369f08f",
    ("c", 8): "4aa4b9d5350f489d013e9a628709012e8f725b813669999ba15aa957aacdd01d",
}

MERGE = {
    ("per-channel", 4): "eee61c238afaf0fc6c1065102972415d087212abf74bfd52816d105cde02f366",
    ("per-channel", 17): "0463ce15fa1b8924eca4835cab9950c54d85eaa982427443687dd4a660cfffa9",
    ("per-channel", 64): "af7f045a89b7cb150c0cc066f0b85edeecd6c8f12b869e0468869707cd23880b",
    ("round-robin-block", 4): "647abb59d894f1bc7a8dbf81964e4911eafb2dec0e1c7a1a4372a299d0197d17",
    ("round-robin-block", 17): "9cf23d327a381f76bc2a1830a54d24ddb09bb742eee49441d7f7cd9c63a4ce58",
    ("round-robin-block", 64): "829cdf57148f98df25cf74562c94b3878b01a2e248a264deb4e7e87ba351b6b0",
}

CLI_BYTES = {
    "b.ch0.tbd1": "604b2e415b909506e1be0628022675b20e14c744ef24e21834670d3741b5105e",
    "b.ch1.tbd1": "723d3c20fb195b6469af3dcd4285099b9686f5c113f9ad5bfa23f6ca0fa6ceb4",
    "pair-per-channel": "dcdf5d8fee2e67fe276947b32132fe64a25803f0900d2c70c4e8190d173cf746",
    "pair-round-robin": "8663c26bd424235e5e8c2105e7161a17309778f9e0d368968193ffb29c530203",
    "single-ascii": "df912c83a0f3401ca361a6006bf1158417ff86c53a04e3ede2af0ecb121ccb0a",
    "single-ascii-out": "ecd43f122c765ad8f0f88a093eb691ac44369896ba870ba3b5b3436f83fcdb4a",
    "single-tbd1": "df912c83a0f3401ca361a6006bf1158417ff86c53a04e3ede2af0ecb121ccb0a",
    "triple-per-channel": "851b50c4a132166be949a647b6a895bf5737cc5b7c1159ec8997101aa10cd6f0",
    "triple-per-channel-ascii": "9ac4f3ad1e4f319d710870132c0757232f819081bf7fdf1c45eab2878788d1bb",
}

CLI_STATS = {  # sidecar "stats" of the packed outputs
    "pair-per-channel": dict(windows_seen=400006, blocks_scanned=6250, blocks_discarded_k0_kn=0,
                             fragments_discarded_alpha0=0, bits_emitted=367313),
    "pair-round-robin": dict(windows_seen=400006, blocks_scanned=23528, blocks_discarded_k0_kn=1,
                             fragments_discarded_alpha0=0, bits_emitted=300262),
    "single-ascii": dict(windows_seen=200003, blocks_scanned=50000, blocks_discarded_k0_kn=6238,
                         fragments_discarded_alpha0=0, bits_emitted=81386),
    "single-tbd1": dict(windows_seen=200003, blocks_scanned=50000, blocks_discarded_k0_kn=6238,
                        fragments_discarded_alpha0=0, bits_emitted=81386),
    "triple-per-channel": dict(windows_seen=600009, blocks_scanned=35292, blocks_discarded_k0_kn=1,
                               fragments_discarded_alpha0=0, bits_emitted=450389),
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("source, channel", sorted(SIMULATE))
def test_simulate(source, channel, chunk):
    model = _models(source)[channel]
    parts = iter_simulate(model, WINDOWS, SEED, chunk_windows=chunk, channel_id=channel)
    assert _sha(np.concatenate(list(parts)).tobytes()) == SIMULATE[source, channel]


@pytest.mark.parametrize("threads", (2, 3))
@pytest.mark.parametrize("source, channel", sorted(SIMULATE))
def test_simulate_in_slices(source, channel, threads):
    # the chunk cut into slices of at least 4,096 windows, drawn on other threads
    # 4,096 windows at a time
    model = _models(source)[channel]
    with mock.patch.object(source_sim, "_slice_threads", lambda: threads), \
            mock.patch.object(source_sim, "_MIN_SLICE", 4096), \
            mock.patch.object(source_sim, "_BLOCK", 4096):
        parts = iter_simulate(model, WINDOWS, SEED, channel_id=channel)
        assert _sha(np.concatenate(list(parts)).tobytes()) == SIMULATE[source, channel]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("source, n", sorted(EXTRACT))
def test_extract(source, n, chunk):
    ex = StreamingExtractor(n)
    for part in _chunks(_windows(source, 0), chunk):
        ex.feed(part)
    assert _out_digest(ex.finish()) == EXTRACT[source, n]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("policy, n", sorted(MERGE))
def test_merge(policy, n, chunk):
    merger = StreamingMerger(n, 2, policy)
    per_channel = [_chunks(_windows("b", ch), chunk) for ch in (0, 1)]
    for parts in zip(*per_channel):
        merger.feed(list(parts))
    assert _out_digest(merger.finish()) == MERGE[policy, n]


def _cli(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def cli_streams(tmp_path_factory):
    """Scenario b through the CLI: a TIMEBIN1 pair and channel 0 as ASCII."""
    d = tmp_path_factory.mktemp("golden")
    common = ("--scenario", "b", "--windows", WINDOWS, "--seed", SEED)
    _cli("simulate", *common, "--out", d / "b.tbd1", "--chunk-windows", 65_536)
    _cli("simulate", *common, "--out", d / "b.txt", "--format", "ascii")
    return d


CLI_CASES = {
    "single-tbd1": (["b.ch0.tbd1"], ["-N", 4]),
    "single-ascii": (["b.ch0.txt"], ["-N", 4]),
    "single-ascii-out": (["b.ch0.tbd1"], ["-N", 17, "--format", "ascii"]),
    "pair-round-robin": (["b.ch0.tbd1", "b.ch1.tbd1"], ["-N", 17]),
    "pair-per-channel": (["b.ch0.tbd1", "b.ch1.txt"], ["-N", 64, "--merge", "per-channel"]),
    # three channels: two spilled behind the first
    "triple-per-channel": (["b.ch1.tbd1", "b.ch0.txt", "b.ch0.tbd1"],
                           ["-N", 17, "--merge", "per-channel"]),
    "triple-per-channel-ascii": (["b.ch1.tbd1", "b.ch0.txt", "b.ch0.tbd1"],
                                 ["-N", 17, "--merge", "per-channel", "--format", "ascii"]),
}


def test_cli_streams(cli_streams):
    for name in ("b.ch0.tbd1", "b.ch1.tbd1"):
        assert _sha((cli_streams / name).read_bytes()) == CLI_BYTES[name]
    assert np.array_equal(file_bits(cli_streams / "b.ch0.txt"), _windows("b", 0))


@pytest.mark.parametrize("chunk", (1 << 24, 4_104))
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_extract(cli_streams, tmp_path, case, chunk):
    inputs, opts = CLI_CASES[case]
    out = tmp_path / "bits.out"
    _cli("extract", *(cli_streams / i for i in inputs), *opts,
         "--chunk-windows", chunk, "--out", out)
    assert _sha(out.read_bytes()) == CLI_BYTES[case]
    if "--format" not in opts:
        assert streamio.read_meta(out)["stats"] == CLI_STATS[case]


# analyze's input kinds: a TIMEBIN1 window stream, simulate's ASCII windows
# and the packed bits of the pair-round-robin extract
ANALYZE_FILES = {"tbd1": "b.ch0.tbd1", "ascii": "b.ch0.txt", "packed": "bits.bin"}
ANALYZE_CHECKS = ("--min-entropy", "--uniformity", "--sanity")

ANALYZE = {  # (exit code, stdout digest) at -d 5 -N 3
    ("ascii", "--min-entropy"): (0, "abf6513ec37157ea3a86ed797e40ca29cc76cb5e48a14fe0356edd198344385b"),
    ("ascii", "--uniformity"): (0, "4eda5995bf1c511a30ae8567a632834c3a54a0358d84da7828f3e15b63545aac"),
    ("ascii", "--sanity"): (1, "417e00f8edc47a1a93c395da8adc74a5884f0d2d0dcc4306dbac4e3dfba4617a"),
    ("ascii", "--min-entropy --uniformity"): (0, "1ce29f5cdd70ad3d7e59b1de36b54bfdc7087dd632f124041fe9ba8e52fd16bc"),
    ("ascii", "--min-entropy --sanity"): (1, "52f6ad04e3dbb7cf122831248dd431aa9b0a64c2246b2d842f6f90f8e276c0e2"),
    ("ascii", "--uniformity --sanity"): (1, "97397261bc27e6970f866fd2532437bb76f5db9b5a7de3ca741a9227d80eea20"),
    ("ascii", "--min-entropy --uniformity --sanity"): (1, "08c48a5eb5f39b6e15b4a7ab7df3c3da0c85c9f1a61289b4955adcb8a9a290dc"),
    ("packed", "--min-entropy"): (0, "6cca37da929e00868062fd66ba206a3765d8375a215fd4192faf743bce5afdac"),
    ("packed", "--uniformity"): (1, "224187869e6bf2cb17292d7faf97c264ffe49ac816dc6a1769170db92b566644"),
    ("packed", "--sanity"): (0, "13161bb0be585a93d6dfed113fb80d462ea85ee9070ca82db561e5cb8dde8911"),
    ("packed", "--min-entropy --uniformity"): (1, "493cac5b45d3d88449fdea134e42c32d3613ca63491b022ac109289b92efcce1"),
    ("packed", "--min-entropy --sanity"): (0, "0dd5d9201b559bfcc3b5ff8dca22c83544f3e9efd701d91a1f8cd98d6a81a17f"),
    ("packed", "--uniformity --sanity"): (1, "c6ccc16ad10f64402d37ba22ef7e11a7a3c93dd81d490c0da29df9528da1a1c2"),
    ("packed", "--min-entropy --uniformity --sanity"): (1, "158c65e11c276309b0bcea5509493770a6e0576fb2cfe5d9e38d44ae0361bb37"),
    ("tbd1", "--min-entropy"): (1, "8eb02007a494f25b2948ce80285604bf2a236828eb70fc1396f14cb4f4ed7e18"),
    ("tbd1", "--uniformity"): (0, "4eda5995bf1c511a30ae8567a632834c3a54a0358d84da7828f3e15b63545aac"),
    ("tbd1", "--sanity"): (1, "fd331ed28cd9ced70cc8732097431c8444fdd5140ad2671ddf68d3b001031712"),
    ("tbd1", "--min-entropy --uniformity"): (1, "4233c025e67cef4ce6ffe22942b6d38fe53f3b8f2c0cd7cd30942bd16fdc376a"),
    ("tbd1", "--min-entropy --sanity"): (1, "3306c972597e0a7fe575d3ccc62b95967b378297191f3e1289e873e937440760"),
    ("tbd1", "--uniformity --sanity"): (1, "da63e044025a1071ff9d6c24a59f4e191576e53122c2bcd512522ffa49c6a000"),
    ("tbd1", "--min-entropy --uniformity --sanity"): (1, "e8c3254b61bff2d17c3e1b747c6da1b1dca89e991719c3fc4a9cccb13dfb0d6a"),
}


@pytest.fixture(scope="module")
def analyze_files(cli_streams):
    _cli("extract", cli_streams / "b.ch0.tbd1", cli_streams / "b.ch1.tbd1", "-N", 17,
         "--out", cli_streams / "bits.bin")
    return cli_streams


def test_analyze_cases_cover_every_check_combination():
    combos = [" ".join(c) for r in (1, 2, 3) for c in itertools.combinations(ANALYZE_CHECKS, r)]
    assert sorted(ANALYZE) == sorted((kind, c) for kind in ANALYZE_FILES for c in combos)


@pytest.mark.parametrize("kind, checks", sorted(ANALYZE))
def test_cli_analyze(analyze_files, capsys, kind, checks):
    code = main(["analyze", str(analyze_files / ANALYZE_FILES[kind]), *checks.split(),
                 "-d", "5", "-N", "3"])
    assert (code, _sha(capsys.readouterr().out.encode())) == ANALYZE[kind, checks]
