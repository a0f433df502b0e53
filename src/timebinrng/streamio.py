"""File formats for detection streams and extracted bits.

Binary stream format ``TIMEBIN1``::

    bytes 0..7    magic b"TIMEBIN1"
    bytes 8..15   window count, little-endian u64
    bytes 16..23  window period in nanoseconds, little-endian u64
    bytes 24..31  channel id, little-endian u64
    bytes 32..    windows packed 8 per byte, MSB first, zero padded

The extractor takes payloads packed, as :func:`iter_stream_payload` reads them.

ASCII streams and bit files use one '0'/'1' character per window/bit;
whitespace is ignored on input.  Packed bit files carry their exact bit
count in an adjacent ``<name>.meta.json`` sidecar of ``format``
``packed-bits-msb-first``.  Each kind of file has one chunked reader,
:func:`iter_stream_payload`, :func:`iter_bits_payload` or
:func:`iter_ascii_payload`, and all three yield the same packed
``(payload, count)`` chunks.

Every writer goes through a temp file beside its target and renames it
into place, so an output appears whole or not at all.  The target's
sidecar goes just before the rename: a reader sees an output with the
sidecar its own run wrote after it, or with none.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DomainError, StreamFormatError
from .extractor import BitOutput, as_bit_array, join_packed

MAGIC = b"TIMEBIN1"
PACKED_BITS = "packed-bits-msb-first"  # the sidecar ``format`` of a packed bit file
_HEADER = struct.Struct("<8sQQQ")
HEADER_SIZE = _HEADER.size

_WS_CODES = {ord(" "), ord("\t"), ord("\n"), ord("\r")}
_ASCII_READ = 1 << 16  # bytes of ASCII text parsed, or of packed bits spelled out, at a time


@contextmanager
def atomic_open(path):
    """Binary file handle whose contents replace ``path`` on a clean exit,
    after ``path``'s sidecar and manifest are removed; after an exception
    ``path``, its sidecar and its manifest are left as they were."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        for record in (meta_path(path), manifest_path(path)):  # no new output beside
            record.unlink(missing_ok=True)  # an older run's sidecar or manifest
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def manifest_path(path) -> Path:
    return Path(str(path) + ".manifest.json")


def write_meta(path, payload: dict) -> None:
    write_json(meta_path(path), payload)


def read_meta(path):
    """The sidecar's JSON value; unreadable JSON raises StreamFormatError."""
    source = meta_path(path)
    try:
        return json.loads(source.read_bytes())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        at = getattr(exc, "pos", getattr(exc, "start", 0))
        raise StreamFormatError(f"{source}: not valid JSON", offset=at) from None


# ---------------------------------------------------------------------------
# TIMEBIN1 streams


def check_period_ns(period_ns) -> int:
    """``period_ns`` rounded to whole ns, if a TIMEBIN1 header can hold it."""
    whole = round(period_ns) if math.isfinite(period_ns) else 0
    if not 0 < whole < 1 << 64:
        raise DomainError(f"window period must round to 1..2^64-1 ns, got {period_ns} ns")
    return whole


class StreamWriter:
    """Incremental TIMEBIN1 writer; usable as a context manager.

    The stream goes through :func:`atomic_open`: :meth:`close` publishes
    it, and leaving the ``with`` block by an exception discards it.
    A period the header cannot hold raises DomainError before that.
    """

    def __init__(self, path, window_period_ns: float, channel_id: int = 0):
        self._period_ns = check_period_ns(window_period_ns)
        self._channel = int(channel_id)
        self._count = 0
        self._tail = (0, 0)  # (value, width) of the bits short of a byte
        self._output = atomic_open(path)
        self._fh = self._output.__enter__()
        self._fh.write(_HEADER.pack(MAGIC, 0, self._period_ns, self._channel))

    def write(self, windows) -> None:
        arr = as_bit_array(windows)
        total = self._tail[1] + arr.size
        row, self._tail = join_packed(self._tail, np.packbits(arr), total - total % 8, total)
        self._fh.write(row)
        self._count += int(arr.size)

    def close(self) -> None:
        if self._fh.closed:
            return
        value, bits = self._tail
        self._fh.write((value << -bits % 8).to_bytes(-(-bits // 8), "big"))
        self._fh.seek(8)
        self._fh.write(struct.pack("<Q", self._count))
        self._output.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.close()
        elif not self._fh.closed:
            self._output.__exit__(*exc)


def _check_payload(fh, count: int, base: int = 0) -> None:
    """The file must end at ``count`` zero-padded MSB-first bits from ``base``."""
    size = os.fstat(fh.fileno()).st_size
    expected = base + (count + 7) // 8
    if size != expected:
        raise StreamFormatError(
            f"{fh.name}: {count} bits need {expected} bytes, file has {size}",
            offset=min(size, expected),
        )
    if count % 8:
        fh.seek(expected - 1)
        if fh.read(1)[0] & (0xFF >> (count % 8)):
            raise StreamFormatError(f"{fh.name}: nonzero padding bits", offset=expected - 1)


def read_stream_header(path) -> tuple[int, int, int]:
    """Return (window_count, window_period_ns, channel_id).

    The file must hold exactly the header's window count, zero padded.
    """
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise StreamFormatError(f"{path}: truncated header", offset=len(head))
        magic, count, period_ns, channel = _HEADER.unpack(head)
        if magic != MAGIC:
            raise StreamFormatError(f"{path}: bad magic {magic!r}", offset=0)
        if period_ns == 0:
            raise StreamFormatError(f"{path}: window period must be nonzero", offset=16)
        _check_payload(fh, count, base=HEADER_SIZE)
    return count, period_ns, channel


def _payload_chunks(path, base: int, count: int, chunk_windows: int):
    """Yield (payload, count) chunks of at most ``chunk_windows`` of the
    ``count`` MSB-first packed bits stored from byte ``base`` of ``path``."""
    if chunk_windows <= 0 or chunk_windows % 8:
        raise StreamFormatError("chunk_windows must be a positive multiple of 8")
    with open(path, "rb") as fh:
        fh.seek(base)
        for start in range(0, count, chunk_windows):
            take = min(chunk_windows, count - start)
            buf = fh.read((take + 7) // 8)
            if len(buf) < (take + 7) // 8:  # the file shrank since its size was checked
                at = base + start // 8 + len(buf)
                raise StreamFormatError(f"{path}: payload ends early", offset=at)
            yield np.frombuffer(buf, dtype=np.uint8), take


def iter_stream_payload(
    path, chunk_windows: int = 1 << 24, *, _header: tuple[int, int, int] | None = None
) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (payload, window count) chunks of at most ``chunk_windows``
    windows: the uint8 payload holds them packed MSB first, as stored.

    ``_header`` is what :func:`read_stream_header` returned for ``path``,
    from a caller that read it already; it is not read a second time.
    """
    count, _, _ = read_stream_header(path) if _header is None else _header
    yield from _payload_chunks(path, HEADER_SIZE, count, chunk_windows)


def iter_stream_windows(path, chunk_windows=1 << 24, *, _header=None) -> Iterator[np.ndarray]:
    """The chunks of :func:`iter_stream_payload` as 0/1 window arrays."""
    chunks = iter_stream_payload(path, chunk_windows, _header=_header)
    return (np.unpackbits(payload)[:count] for payload, count in chunks)


def is_tbd1(path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(8) == MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# ASCII '0'/'1' files


def parse_ascii_bits(data: bytes, source: str = "<data>", base: int = 0) -> np.ndarray:
    """Parse '0'/'1' text into a 0/1 array; whitespace is skipped.  An
    error's offset counts from ``base``, where ``data`` starts in its file."""
    raw = np.frombuffer(data, dtype=np.uint8)
    is_bit = (raw == ord("0")) | (raw == ord("1"))
    is_ws = np.isin(raw, list(_WS_CODES))
    bad = ~(is_bit | is_ws)
    if bad.any():
        at = int(np.nonzero(bad)[0][0])
        raise StreamFormatError(f"{source}: invalid character {chr(raw[at])!r}", offset=base + at)
    return (raw[is_bit] == ord("1")).astype(np.uint8)


def iter_ascii_payload(path, chunk_windows: int = 1 << 24) -> Iterator[tuple[np.ndarray, int]]:
    """The windows of an ASCII file as :func:`iter_stream_payload` yields a
    TIMEBIN1 stream's: packed chunks of exactly ``chunk_windows``, the last
    one fewer, parsed ``_ASCII_READ`` bytes at a time, each byte once."""
    if chunk_windows <= 0 or chunk_windows % 8:
        raise StreamFormatError("chunk_windows must be a positive multiple of 8")
    held: list[np.ndarray] = []
    size = 0
    with open(path, "rb") as fh:
        for base in itertools.count(0, _ASCII_READ):
            data = fh.read(_ASCII_READ)
            if not data:
                break
            held.append(parse_ascii_bits(data, str(path), base))
            size += held[-1].size
            if size >= chunk_windows:
                joined = np.concatenate(held)
                whole = size - size % chunk_windows
                # the tail copied and the joined windows dropped before any
                # chunk goes out, so that they are not alive beside the next
                held, size = [joined[whole:].copy()], size - whole
                packed = np.packbits(joined[:whole])
                del joined
                for lo in range(0, whole // 8, chunk_windows // 8):
                    yield packed[lo : lo + chunk_windows // 8], chunk_windows
    if size:
        yield np.packbits(np.concatenate(held)), size


def ascii_codes(bits) -> np.ndarray:
    """The '0'/'1' character codes of a 0/1 sequence, one uint8 per bit."""
    return as_bit_array(bits) + np.uint8(ord("0"))


def write_ascii_bits(path, bits) -> None:
    with atomic_open(path) as fh:
        fh.write(ascii_codes(bits))


class AsciiSink:
    """Writes MSB-first packed bytes to ``fh`` as '0'/'1' codes, one per
    bit, ``_ASCII_READ`` bytes at a time; the last byte's padding is
    written too, so the caller truncates the file to its bit count."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data) -> None:
        packed = np.frombuffer(data, dtype=np.uint8)
        for lo in range(0, packed.size, _ASCII_READ):
            codes = np.unpackbits(packed[lo : lo + _ASCII_READ])
            codes += np.uint8(ord("0"))
            self._fh.write(codes)


# ---------------------------------------------------------------------------
# extracted-bit files


def write_packed_bits(path, data: bytes, total_bits: int, extra: dict | None = None) -> None:
    """Write MSB-first packed bytes plus their sidecar: the exact bit count
    and the ``extra`` keys."""
    with atomic_open(path) as fh:
        fh.write(data)
    write_meta(path, {"format": PACKED_BITS, "total_bits": total_bits, **(extra or {})})


def write_bit_output(path, out: BitOutput, fmt: str = "packed", extra: dict | None = None) -> None:
    """Write extractor output as packed bytes plus sidecar, or as ASCII."""
    if fmt == "ascii":
        write_ascii_bits(path, out.bit_array())
    elif fmt == "packed":
        stats = {"stats": asdict(out.stats)}
        write_packed_bits(path, out.data, out.total_bits, {**stats, **(extra or {})})
    else:
        raise StreamFormatError(f"unknown bit output format {fmt!r}")


def packed_bits_meta(path):
    """The sidecar of ``path`` if it is a packed bit file, else None.

    The sidecar's ``format`` key decides: a file with no sidecar, or with
    one of another format, such as the ``ascii`` that ``simulate
    --format ascii`` writes, holds ASCII '0'/'1'.  A sidecar without the
    key is taken for a packed bit file's, whose bit count it must hold.
    """
    if not meta_path(path).exists():
        return None
    meta = read_meta(path)
    packed = not isinstance(meta, dict) or meta.get("format", PACKED_BITS) == PACKED_BITS
    return meta if packed else None


def iter_bits_payload(
    path, chunk_windows: int = 1 << 24, *, _meta=None
) -> Iterator[tuple[np.ndarray, int]]:
    """The bits of a packed bit file as :func:`iter_stream_payload` yields a
    TIMEBIN1 stream's windows.  Its sidecar must hold the bit count, and
    the file exactly that many bits, zero padded.

    ``_meta`` is what :func:`packed_bits_meta` returned for ``path``, from
    a caller that read it already; it is not read a second time.
    """
    meta = packed_bits_meta(path) if _meta is None else _meta
    total_bits = meta.get("total_bits") if isinstance(meta, dict) else None
    if type(total_bits) is not int or total_bits < 0:
        raise StreamFormatError(
            f"{meta_path(path)}: total_bits must be an integer >= 0, got {total_bits!r}", offset=0
        )
    with open(path, "rb") as fh:
        _check_payload(fh, total_bits)
    yield from _payload_chunks(path, 0, total_bits, chunk_windows)
