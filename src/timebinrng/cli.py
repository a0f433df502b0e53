"""Command-line pipelines: simulate, extract, analyze, efficiency, bench.

Every file-producing run writes a ``<output>.manifest.json`` holding
the exact argument vector, seeds, and toolkit version needed to
reproduce it byte for byte.  A multi-channel ``simulate`` names its
manifest after ``--out``, which no channel's output replaces, so it
removes an older run's manifest there before it writes any channel.
All randomness flows from the --seed argument; nothing reads ambient
entropy.

``analyze`` prints one ``[check]`` section per requested check, in the
order min-entropy, uniformity, sanity, with a blank line between
sections.  Each holds the report's scalar fields as ``key = value``
lines (ints exact, floats to 6 significant digits) and then
``pass = true|false``, or a single ``error = ...`` line when the check
cannot run on this input.  The input file is read at most once, a chunk
at a time: each chunk goes to the accumulator of every requested check
that the input serves, so no check holds the input or unpacks it.

Exit codes: 0 success (and all requested property checks passed),
1 a property check failed or could not run on its input, 2 usage or
input-format errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import MAX_WORD_BITS, UNIFORMITY_MAX_BLOCK
from .analysis import MinEntropyCounts, SanityCounts, UniformityCounts
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
    StreamingExtractor,
    StreamingMerger,
)
from .source_sim import GENERATOR_TAG, SCENARIOS, SourceModel, iter_simulate, preset
from . import streamio

_DEFAULT_CHUNK = 1 << 20  # windows per chunk: 1 MiB of clicks while simulating
_MAX_RANGE = 10**6  # values an efficiency range may select, far more than any table needs


# ---------------------------------------------------------------------------
# helpers


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
    streamio.write_json(streamio.manifest_path(primary_out), manifest)


def _parse_number(text: str, kind: str = "float"):
    """An int, or a float that may end in ``pi``; kind is 'int' or 'float'."""
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        return float(text[:-2] or "1") * math.pi if text.endswith("pi") else float(text)
    except ValueError:
        raise DomainError(f"not {'an integer' if kind == 'int' else 'a number'}: {text!r}") from None


def _parse_range(text: str, kind: str):
    """`4`, `2..8`, `2..8:2`, or comma lists; kind is 'int' or 'float'."""
    if "," in text:
        out = [_parse_number(s, kind) for s in text.split(",") if s]
    elif ".." in text:
        lo_s, _, rest = text.partition("..")
        hi_s, colon, step_s = rest.partition(":")
        if not colon and kind == "float":
            raise DomainError(f"float range {text!r} needs an explicit :step")
        lo, hi, step = (_parse_number(s, kind) for s in (lo_s, hi_s, step_s if colon else "1"))
        if not (step > 0 and all(map(math.isfinite, (lo, hi, step)))):
            raise DomainError(f"range {text!r} needs finite ends and a step > 0")
        if (hi - lo) / step >= _MAX_RANGE:
            raise DomainError(f"range {text!r} selects more than {_MAX_RANGE} values")
        out = []
        v = lo
        while v <= hi + (1e-12 if kind == "float" else 0):
            out.append(v if kind == "int" else round(v, 12))
            v += step
    else:
        out = [_parse_number(text, kind)]
    if not out:
        raise DomainError(f"range {text!r} selects nothing")
    return out


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args, argv: list[str]) -> int:
    if args.scenario:
        models = preset(args.scenario)
        scenario = args.scenario
    else:
        models = _load_models(args.model_file)
        scenario = None
    if args.format == "tbd1":  # no channel is written unless every header can hold its period
        for model in models:
            streamio.check_period_ns(model.window_period * 1e9)
    if len(models) > 1:  # no new channel beside an older run's manifest, named after --out
        streamio.manifest_path(args.out).unlink(missing_ok=True)
    outputs = []
    for channel, model in enumerate(models):
        out_path = _channel_path(args.out, channel, len(models))
        outputs.append(str(out_path))
        chunks = iter_simulate(
            model,
            args.windows,
            args.seed,
            chunk_windows=args.chunk_windows,
            channel_id=channel,
            t0=args.t0,
        )
        if args.format == "tbd1":
            with streamio.StreamWriter(out_path, model.window_period * 1e9, channel) as writer:
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
                "model": asdict(model),
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
    """What ``path`` holds, its window period and its (payload, count) chunks.

    The kind is "windows" for a TIMEBIN1 stream, "bits" for a file whose
    sidecar says it holds packed bits, and None for ASCII, which serves
    as either; the period (s) is None unless the file is TIMEBIN1.
    """
    if streamio.is_tbd1(path):
        header = streamio.read_stream_header(path)
        chunks = streamio.iter_stream_payload(path, chunk_windows, _header=header)
        return "windows", header[1] * 1e-9, chunks
    meta = streamio.packed_bits_meta(path)
    if meta is not None:
        return "bits", None, streamio.iter_bits_payload(path, chunk_windows, _meta=meta)
    return None, None, streamio.iter_ascii_payload(path, chunk_windows)


def _cmd_extract(args, argv: list[str]) -> int:
    if args.chunk_windows <= 0 or args.chunk_windows % 8:
        raise DomainError(
            f"--chunk-windows must be a positive multiple of 8, got {args.chunk_windows}"
        )
    inputs = args.inputs
    kinds, periods, iters = zip(*(_open_input(p, args.chunk_windows) for p in inputs))
    if "bits" in kinds:
        raise DomainError(f"{inputs[kinds.index('bits')]}: extract needs a window stream"
                          " (TIMEBIN1 or ascii windows); got a packed bit file")
    fed = [0] * len(inputs)  # windows fed per channel
    ascii_out = args.format == "ascii"
    # the output is written as it is packed; spilled channels wait beside it
    with streamio.atomic_open(args.out) as fh:
        sink = streamio.AsciiSink(fh) if ascii_out else fh
        merger = StreamingMerger(args.block_len, len(inputs), args.merge, sink,
                                 spill_dir=Path(args.out).parent)
        with contextlib.closing(merger):
            for chunks in itertools.zip_longest(*iters, fillvalue=(np.zeros(0, np.uint8), 0)):
                payloads, counts = zip(*chunks)
                fed = [f + c for f, c in zip(fed, counts)]
                # each input yields exactly --chunk-windows a chunk until it ends
                if args.merge == "round-robin-block" and len(set(counts)) > 1:
                    raise DomainError("round-robin-block merging needs equal window counts per"
                                      f" channel; got {fed} windows up to the first unequal chunk")
                merger.feed(payloads, counts)
            merger.finish()
        stats = merger.stats
        if ascii_out:  # the codes of the last byte's padding bits go
            fh.truncate(stats.bits_emitted)
    streamio.write_meta(args.out, {
        "format": "ascii" if ascii_out else streamio.PACKED_BITS,
        "total_bits": stats.bits_emitted,
        "stats": asdict(stats),
        "command": "extract",
        "version": __version__,
        "block_len": args.block_len,
        "merge_policy": args.merge if len(inputs) > 1 else None,
        "inputs": list(inputs),
    })
    _write_manifest(args.out, argv, "extract", [args.out])

    windows_per_channel = max(fed)
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


# one row per check, in report order: its section name, the input it reads
# and the accumulator of its report, fed that input's packed chunks
_CHECKS = (
    ("min-entropy", "bits", lambda args: MinEntropyCounts(args.word_bits)),
    ("uniformity", "windows", lambda args: UniformityCounts(args.block_len)),
    ("sanity", "bits", lambda args: SanityCounts()),
)
_WRONG_INPUT = {
    "bits": "bit-level checks need a bit file (ascii or packed); got a TIMEBIN1 window stream",
    "windows":
        "uniformity needs a window stream (TIMEBIN1 or ascii windows); got a packed bit file",
}


def _report(rep) -> dict:
    """A report's scalar fields in order, then ``pass``."""
    values = ((f.name, getattr(rep, f.name)) for f in fields(rep) if f.name != "passed")
    return {**{k: v for k, v in values if not isinstance(v, np.ndarray)}, "pass": rep.passed}


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _cmd_analyze(args, argv: list[str]) -> int:
    checks = [row for row in _CHECKS if getattr(args, row[0].replace("-", "_"))]
    if not checks:
        raise DomainError("select at least one of --min-entropy, --uniformity, --sanity")
    if args.min_entropy and not 1 <= args.word_bits <= MAX_WORD_BITS:
        raise DomainError(f"--word-bits must be in 1..{MAX_WORD_BITS}, got {args.word_bits}")
    if args.uniformity and not 2 <= args.block_len <= UNIFORMITY_MAX_BLOCK:
        raise DomainError(f"--block-len must be in 2..{UNIFORMITY_MAX_BLOCK}, got {args.block_len}")
    # the input is read once, if at all, a chunk at a time, and each chunk
    # goes to every check of a kind the input serves
    kind, _, chunks = _open_input(args.input, _DEFAULT_CHUNK)
    counters = [build(args) if kind in (None, view) else None for _, view, build in checks]
    served = [counter for counter in counters if counter is not None]
    for payload, count in chunks if served else ():
        for counter in served:
            counter.update(payload, count)
    sections, all_pass = [], True
    for (name, view, _), counter in zip(checks, counters):
        try:
            if counter is None:
                raise DomainError(_WRONG_INPUT[view])
            report = _report(counter.result())
        except DomainError as exc:  # format errors end the run with exit 2
            report = {"error": str(exc)}
        all_pass = all_pass and report.get("pass", False)
        lines = (f"{key} = {_text(value)}" for key, value in report.items())
        sections.append("\n".join([f"[{name}]", *lines]))

    text = "\n\n".join(sections) + "\n"
    sys.stdout.write(text)
    if args.out:
        with streamio.atomic_open(args.out) as fh:
            fh.write(text.encode())
        _write_manifest(args.out, argv, "analyze", [args.out])
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# efficiency


_PROFILE_ALIASES = {"amp": "amplitude", "omega": "angular_frequency", "t": "duration"}


def _parse_profile(text: str) -> ModulationProfile:
    kwargs = {}
    for part in text.split(","):
        if not part:
            continue
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise DomainError(f"profile part {part!r} is not key=value")
        name = _PROFILE_ALIASES.get(key.lower(), key.lower())
        if name not in _MODULATION_KEYS:
            raise DomainError(f"unknown profile key {key!r}")
        kwargs[name] = _parse_number(value)
    missing = _MODULATION_KEYS - kwargs.keys()
    if missing:
        raise DomainError(f"profile needs {', '.join(sorted(missing))}")
    return ModulationProfile(**kwargs)


def _cmd_efficiency(args, argv: list[str]) -> int:
    # every row is computed before any is printed, so a range that leaves
    # the domain prints no partial table
    ns = _parse_range(args.block_len, "int")
    if args.profile:
        profile = _parse_profile(args.profile)
        header = "N\tbase\tamplitude\tomega\tduration\tHb_avg"
        rows = [
            f"{n}\t{profile.base:.6g}\t{profile.amplitude:.6g}"
            f"\t{profile.angular_frequency:.6g}\t{profile.duration:.6g}"
            f"\t{time_average_binary_rate(n, profile):.6f}"
            for n in ns
        ]
    else:
        ps = _parse_range(args.p, "float")
        header = "N\tp\tshannon\tblock_rate\tbinary_rate"
        rows = [
            f"{n}\t{p:.6g}\t{shannon_binary(p):.6f}"
            f"\t{block_entropy_rate(n, p):.6f}\t{binary_rate(n, p):.6f}"
            for n in ns
            for p in ps
        ]
    print("\n".join([header, *rows]))
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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
