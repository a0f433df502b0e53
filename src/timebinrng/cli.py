"""Command-line pipelines: simulate, extract, analyze, efficiency, bench.

Every file-producing run writes a ``<output>.manifest.json`` holding
the exact argument vector, seeds, and toolkit version needed to
reproduce it byte for byte.  All randomness flows from the --seed
argument; nothing reads ambient entropy.

Exit codes: 0 success (and all requested property checks passed),
1 a property check failed, 2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import min_entropy, sanity_tests, uniformity_matrix
from .efficiency import (
    ModulationProfile,
    binary_rate,
    block_entropy_rate,
    shannon_binary,
    time_average_binary_rate,
)
from .errors import DomainError, TimebinError
from .extractor import (
    MERGE_POLICIES,
    DetectionStream,
    StreamingExtractor,
    StreamingMerger,
)
from .source_sim import GENERATOR_TAG, SCENARIOS, SourceModel, iter_simulate, preset
from . import streamio

_DEFAULT_CHUNK = 1 << 20  # windows per chunk: 8 MiB of draws while simulating


# ---------------------------------------------------------------------------
# helpers


def _model_to_dict(model: SourceModel) -> dict:
    d = asdict(model)
    d["afterpulse_taps"] = list(model.afterpulse_taps)
    return d


_MODEL_KEYS = frozenset(f.name for f in fields(SourceModel))
_MODULATION_KEYS = frozenset(f.name for f in fields(ModulationProfile))


def _model_from_dict(d) -> SourceModel:
    if not isinstance(d, dict):
        raise DomainError(f"a channel must be a JSON object, got {d!r}")
    unknown = d.keys() - _MODEL_KEYS
    if unknown:
        raise DomainError(f"unknown model keys {sorted(unknown)}")
    kwargs = dict(d)
    mod = kwargs.pop("modulation", None)
    if mod is not None:
        if not isinstance(mod, dict) or mod.keys() != _MODULATION_KEYS:
            raise DomainError(
                f"modulation must be null or an object with keys {sorted(_MODULATION_KEYS)}"
            )
        kwargs["modulation"] = ModulationProfile(**mod)
    taps = kwargs.get("afterpulse_taps", [])
    if not isinstance(taps, list):
        raise DomainError(f"afterpulse_taps must be a list, got {taps!r}")
    return SourceModel(**kwargs)


def _load_models(path) -> list[SourceModel]:
    try:
        cfg = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DomainError(f"{path}: not a JSON model file: {exc}") from None
    if isinstance(cfg, dict):
        if cfg.keys() != {"channels"}:
            raise DomainError(f"{path}: a model object needs exactly one key, 'channels'")
        cfg = cfg["channels"]
    if not isinstance(cfg, list) or not cfg:
        raise DomainError(f"{path}: channels must be a non-empty list")
    models = []
    for channel, entry in enumerate(cfg):
        try:
            models.append(_model_from_dict(entry))
        except DomainError as exc:
            raise DomainError(f"{path}: channel {channel}: {exc}") from None
    return models


def _channel_path(base: str, channel: int, channels: int) -> Path:
    if channels == 1:
        return Path(base)
    p = Path(base)
    return p.with_name(f"{p.stem}.ch{channel}{p.suffix}")


def _write_manifest(primary_out: str, argv: list[str], command: str, outputs: list[str]) -> None:
    manifest = {
        "tool": "timebinrng",
        "version": __version__,
        "command": command,
        "argv": argv,
        "generator": GENERATOR_TAG,
        "outputs": outputs,
    }
    streamio.write_json(str(primary_out) + ".manifest.json", manifest)


def _parse_float_pi(text: str) -> float:
    text = text.strip()
    if text.endswith("pi"):
        return float(text[:-2] or "1") * math.pi
    return float(text)


def _parse_range(text: str, kind: str):
    """`4`, `2..8`, `2..8:2`, or comma lists; kind is 'int' or 'float'."""
    conv = int if kind == "int" else _parse_float_pi
    if "," in text:
        return [conv(s) for s in text.split(",") if s]
    if ".." in text:
        lo_s, rest = text.split("..", 1)
        if ":" in rest:
            hi_s, step_s = rest.split(":", 1)
            step = conv(step_s)
        else:
            hi_s, step = rest, conv("1") if kind == "int" else None
        if step is None:
            raise DomainError(f"float range {text!r} needs an explicit :step")
        lo, hi = conv(lo_s), conv(hi_s)
        out = []
        v = lo
        while v <= hi + (1e-12 if kind == "float" else 0):
            out.append(v if kind == "int" else round(v, 12))
            v += step
        return out
    return [conv(text)]


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args, argv: list[str]) -> int:
    if args.scenario:
        models = preset(args.scenario)
        scenario = args.scenario
    else:
        models = _load_models(args.model_file)
        scenario = None
    outputs = []
    for channel, model in enumerate(models):
        out_path = _channel_path(args.out, channel, len(models))
        outputs.append(str(out_path))
        period_ns = int(round(model.window_period * 1e9))
        chunks = iter_simulate(
            model,
            args.windows,
            args.seed,
            chunk_windows=args.chunk_windows,
            channel_id=channel,
            t0=args.t0,
        )
        if args.format == "tbd1":
            with streamio.StreamWriter(out_path, period_ns, channel) as writer:
                for chunk in chunks:
                    writer.write(chunk)
        else:
            with streamio.atomic_open(out_path) as fh:
                for chunk in chunks:
                    fh.write(streamio.ascii_codes(chunk))
        streamio.write_meta(
            out_path,
            {
                "command": "simulate",
                "version": __version__,
                "scenario": scenario,
                "model": _model_to_dict(model),
                "windows": args.windows,
                "seed": args.seed,
                "channel_id": channel,
                "generator": GENERATOR_TAG,
                "t0": args.t0,
                "format": args.format,
            },
        )
        print(f"wrote {out_path} ({args.windows} windows, channel {channel})")
    _write_manifest(args.out, argv, "simulate", outputs)
    return 0


# ---------------------------------------------------------------------------
# extract


def _open_input(path, chunk_windows: int):
    """Window count, window period (s; None for ASCII) and chunk iterator."""
    if streamio.is_tbd1(path):
        count, period_ns, _ = streamio.read_stream_header(path)
        return count, period_ns * 1e-9, streamio.iter_stream_windows(path, chunk_windows)
    windows = streamio.read_ascii_bits(path)
    chunks = (windows[i : i + chunk_windows] for i in range(0, windows.size, chunk_windows))
    return windows.size, None, chunks


def _cmd_extract(args, argv: list[str]) -> int:
    if args.chunk_windows <= 0 or args.chunk_windows % 8:
        raise DomainError(
            f"--chunk-windows must be a positive multiple of 8, got {args.chunk_windows}"
        )
    inputs = args.inputs
    counts, periods, iters = zip(*(_open_input(p, args.chunk_windows) for p in inputs))
    if args.merge == "round-robin-block" and len(set(counts)) != 1:
        raise DomainError(
            "round-robin-block merging needs equal window counts per channel; "
            f"got {list(counts)}"
        )
    merger = StreamingMerger(args.block_len, len(inputs), args.merge)
    empty = np.zeros(0, dtype=np.uint8)
    for chunks in itertools.zip_longest(*iters, fillvalue=empty):
        merger.feed(chunks)
    result = merger.finish()

    streamio.write_bit_output(
        args.out,
        result,
        fmt=args.format,
        extra={
            "command": "extract",
            "version": __version__,
            "block_len": args.block_len,
            "merge_policy": args.merge if len(inputs) > 1 else None,
            "inputs": list(inputs),
        },
    )
    _write_manifest(args.out, argv, "extract", [args.out])

    stats = result.stats
    windows_per_channel = max(counts)
    print(f"channels = {len(inputs)}")
    for name, value in asdict(stats).items():
        print(f"{name} = {value}")
    if stats.windows_seen:
        print(f"bits_per_window = {stats.bits_emitted / stats.windows_seen:.6f}")
        print(f"bits_per_channel_window = {stats.bits_emitted / windows_per_channel:.6f}")
    if periods[0] and windows_per_channel:
        rate = stats.bits_emitted / (windows_per_channel * periods[0])
        print(f"throughput_mbps = {rate / 1e6:.4f}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _analyze_input(path):
    """Classify the input: ('tbd1'|'packed'|'ascii')."""
    if streamio.is_tbd1(path):
        return "tbd1"
    if streamio.meta_path(path).exists():
        return "packed"
    return "ascii"


def _cmd_analyze(args, argv: list[str]) -> int:
    checks = [
        name
        for name, wanted in (
            ("min-entropy", args.min_entropy),
            ("uniformity", args.uniformity),
            ("sanity", args.sanity),
        )
        if wanted
    ]
    if not checks:
        raise DomainError("select at least one of --min-entropy, --uniformity, --sanity")
    kind = _analyze_input(args.input)
    lines: list[str] = []
    all_pass = True

    def bits_input() -> np.ndarray:
        if kind == "tbd1":
            raise DomainError(
                "bit-level checks need a bit file (ascii or packed); "
                "got a TIMEBIN1 window stream"
            )
        return streamio.read_bits(args.input)

    def window_stream() -> DetectionStream:
        if kind == "packed":
            raise DomainError(
                "uniformity needs a window stream (TIMEBIN1 or ascii windows); "
                "got a packed bit file"
            )
        if kind == "tbd1":
            return streamio.read_stream(args.input)
        return DetectionStream(streamio.read_ascii_bits(args.input))

    for check in checks:
        lines.append(f"[{check}]")
        try:
            if check == "min-entropy":
                rep = min_entropy(bits_input(), args.word_bits)
                bound = 5.0 * rep.stat_error_scale
                ok = rep.deviation < bound
                lines += [
                    f"word_bits = {rep.word_bits}",
                    f"word_count = {rep.word_count}",
                    f"min_entropy = {rep.min_entropy:.6f}",
                    f"deviation = {rep.deviation:.6g}",
                    f"stat_error_scale = {rep.stat_error_scale:.6g}",
                    f"bound_5x_scale = {bound:.6g}",
                    f"pass = {str(ok).lower()}",
                ]
            elif check == "uniformity":
                rep = uniformity_matrix(window_stream(), args.block_len)
                ok = (
                    rep.symmetry_deviation < 5.0
                    and rep.independence_deviation < 5.0
                    and rep.subblock_max_z < 4.0
                )
                lines += [
                    f"block_len = {rep.block_len}",
                    f"pair_count = {rep.pair_count}",
                    f"symmetry_deviation = {rep.symmetry_deviation:.4f}",
                    f"independence_deviation = {rep.independence_deviation:.4f}",
                    f"subblock_max_z = {rep.subblock_max_z:.4f}",
                    f"pass = {str(ok).lower()}",
                ]
            else:
                rep = sanity_tests(bits_input())
                ok = rep.passed
                lines += [
                    f"n_bits = {rep.n_bits}",
                    f"monobit_z = {rep.monobit_z:.4f}",
                    f"runs_z = {rep.runs_z:.4f}",
                    f"lag1_z = {rep.lag1_z:.4f}",
                    f"pass = {str(ok).lower()}",
                ]
        except DomainError as exc:  # format errors end the run with exit 2
            lines.append(f"error = {exc}")
            ok = False
        all_pass = all_pass and ok
        lines.append("")

    report = "\n".join(lines).rstrip() + "\n"
    sys.stdout.write(report)
    if args.out:
        with streamio.atomic_open(args.out) as fh:
            fh.write(report.encode())
        _write_manifest(args.out, argv, "analyze", [args.out])
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# efficiency


def _parse_profile(text: str) -> ModulationProfile:
    fields = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        fields[key.strip()] = _parse_float_pi(value)
    aliases = {
        "base": "base",
        "amp": "amplitude",
        "amplitude": "amplitude",
        "omega": "angular_frequency",
        "angular_frequency": "angular_frequency",
        "t": "duration",
        "duration": "duration",
    }
    kwargs = {}
    for key, value in fields.items():
        name = aliases.get(key.lower())
        if name is None:
            raise DomainError(f"unknown profile key {key!r}")
        kwargs[name] = value
    return ModulationProfile(**kwargs)


def _cmd_efficiency(args, argv: list[str]) -> int:
    ns = _parse_range(args.block_len, "int")
    if args.profile:
        profile = _parse_profile(args.profile)
        print("N\tbase\tamplitude\tomega\tduration\tHb_avg")
        for n in ns:
            avg = time_average_binary_rate(n, profile)
            print(
                f"{n}\t{profile.base:.6g}\t{profile.amplitude:.6g}"
                f"\t{profile.angular_frequency:.6g}\t{profile.duration:.6g}\t{avg:.6f}"
            )
        return 0
    ps = _parse_range(args.p, "float")
    print("N\tp\tshannon\tblock_rate\tbinary_rate")
    for n in ns:
        for p in ps:
            print(
                f"{n}\t{p:.6g}\t{shannon_binary(p):.6f}"
                f"\t{block_entropy_rate(n, p):.6f}\t{binary_rate(n, p):.6f}"
            )
    return 0


# ---------------------------------------------------------------------------
# bench


def _cmd_bench(args, argv: list[str]) -> int:
    if args.windows < 1:
        raise DomainError(f"--windows must be >= 1, got {args.windows}")
    models = preset(args.scenario)
    model = models[0]
    t0 = time.perf_counter()
    extractor = StreamingExtractor(args.block_len)
    sim_seconds = 0.0
    mark = time.perf_counter()
    for chunk in iter_simulate(model, args.windows, args.seed, chunk_windows=args.chunk_windows):
        sim_seconds += time.perf_counter() - mark
        extractor.feed(chunk)
        mark = time.perf_counter()
    result = extractor.finish()
    total = time.perf_counter() - t0
    extract_seconds = total - sim_seconds
    print(f"windows = {args.windows}")
    print(f"bits_emitted = {result.stats.bits_emitted}")
    print(f"simulate_mwin_per_s = {args.windows / sim_seconds / 1e6:.1f}")
    print(f"extract_mwin_per_s = {args.windows / extract_seconds / 1e6:.1f}")
    print(f"end_to_end_mwin_per_s = {args.windows / total / 1e6:.1f}")
    print(f"bits_per_window = {result.stats.bits_emitted / max(args.windows, 1):.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebinrng",
        description="Time-bin block randomness extraction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"timebinrng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate seeded detector streams")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=sorted(SCENARIOS), help="preset a, b, or c")
    src.add_argument("--model-file", help="JSON source model configuration")
    sim.add_argument("--windows", type=int, required=True, help="windows per channel")
    sim.add_argument("--seed", type=int, required=True, help="base seed (mandatory)")
    sim.add_argument("--out", required=True, help="output stream path (base name)")
    sim.add_argument("--format", choices=("tbd1", "ascii"), default="tbd1")
    sim.add_argument("--t0", type=float, default=0.0, help="simulation start time, s")
    sim.add_argument("--chunk-windows", type=int, default=_DEFAULT_CHUNK)
    sim.set_defaults(func=_cmd_simulate)

    ext = sub.add_parser("extract", help="turn streams into random bits")
    ext.add_argument("inputs", nargs="+", help="stream files (TIMEBIN1 or ascii)")
    ext.add_argument("-N", "--block-len", type=int, default=4)
    ext.add_argument("--format", choices=("packed", "ascii"), default="packed")
    ext.add_argument("--merge", choices=MERGE_POLICIES, default="round-robin-block")
    ext.add_argument("--out", required=True)
    ext.add_argument("--chunk-windows", type=int, default=_DEFAULT_CHUNK)
    ext.set_defaults(func=_cmd_extract)

    ana = sub.add_parser("analyze", help="quality reports on streams or bits")
    ana.add_argument("input")
    ana.add_argument("--min-entropy", action="store_true")
    ana.add_argument("-d", "--word-bits", type=int, default=8)
    ana.add_argument("--uniformity", action="store_true")
    ana.add_argument("-N", "--block-len", type=int, default=4)
    ana.add_argument("--sanity", action="store_true")
    ana.add_argument("--out", help="also write the report to this file")
    ana.set_defaults(func=_cmd_analyze)

    eff = sub.add_parser("efficiency", help="yield tables: S, H, Hb")
    eff.add_argument("-N", "--block-len", default="4", help="int, a..b, or comma list")
    eff.add_argument("-p", default="0.5", help="float, a..b:step, or comma list")
    eff.add_argument("--profile", help="base=..,amp=..,omega=..,T=.. (time-averaged)")
    eff.set_defaults(func=_cmd_efficiency)

    ben = sub.add_parser("bench", help="simulate+extract throughput")
    ben.add_argument("--scenario", choices=sorted(SCENARIOS), default="a")
    ben.add_argument("--windows", type=int, default=10_000_000)
    ben.add_argument("--seed", type=int, default=1)
    ben.add_argument("-N", "--block-len", type=int, default=4)
    ben.add_argument("--chunk-windows", type=int, default=_DEFAULT_CHUNK)
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (TimebinError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
