"""File formats for detection streams and extracted bits.

Binary stream format ``TIMEBIN1``::

    bytes 0..7    magic b"TIMEBIN1"
    bytes 8..15   window count, little-endian u64
    bytes 16..23  window period in nanoseconds, little-endian u64
    bytes 24..31  channel id, little-endian u64
    bytes 32..    windows packed 8 per byte, MSB first, zero padded

ASCII streams and bit files use one '0'/'1' character per window/bit;
whitespace is ignored on input.  Packed bit files carry their exact bit
count in an adjacent ``<name>.meta.json`` sidecar.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import StreamFormatError
from .extractor import BitOutput, DetectionStream, as_bit_array

MAGIC = b"TIMEBIN1"
_HEADER = struct.Struct("<8sQQQ")
HEADER_SIZE = _HEADER.size

_ASCII_CODES = {ord("0"), ord("1")}
_WS_CODES = {ord(" "), ord("\t"), ord("\n"), ord("\r")}


def meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_meta(path, payload: dict) -> None:
    meta_path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_meta(path) -> dict:
    return json.loads(meta_path(path).read_text())


# ---------------------------------------------------------------------------
# TIMEBIN1 streams


class StreamWriter:
    """Incremental TIMEBIN1 writer; usable as a context manager."""

    def __init__(self, path, window_period_ns: int, channel_id: int = 0):
        self._path = Path(path)
        self._fh = open(self._path, "wb")
        self._period_ns = int(window_period_ns)
        self._channel = int(channel_id)
        self._count = 0
        self._tail = np.zeros(0, dtype=np.uint8)
        self._fh.write(_HEADER.pack(MAGIC, 0, self._period_ns, self._channel))

    def write(self, windows) -> None:
        arr = as_bit_array(windows)
        self._count += int(arr.size)
        if self._tail.size:
            arr = np.concatenate([self._tail, arr])
        cut = (arr.size // 8) * 8
        if cut:
            self._fh.write(np.packbits(arr[:cut]).tobytes())
        self._tail = arr[cut:].copy()

    def close(self) -> None:
        if self._fh.closed:
            return
        if self._tail.size:
            self._fh.write(np.packbits(self._tail).tobytes())
        self._fh.seek(8)
        self._fh.write(struct.pack("<Q", self._count))
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_stream(path, stream: DetectionStream) -> None:
    period_ns = int(round(stream.window_period * 1e9))
    with StreamWriter(path, period_ns, stream.channel_id) as w:
        w.write(stream.windows)


def read_stream_header(path) -> tuple[int, int, int]:
    """Return (window_count, window_period_ns, channel_id).

    The file must hold exactly the header's window count, zero padded;
    a writer that never reached ``close()`` leaves a count of 0 before a
    nonempty payload, which fails here.
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
        size = os.fstat(fh.fileno()).st_size
        expected = HEADER_SIZE + (count + 7) // 8
        if size != expected:
            raise StreamFormatError(
                f"{path}: {count} windows need {expected} bytes, file has {size}",
                offset=min(size, expected),
            )
        if count % 8:
            fh.seek(expected - 1)
            if fh.read(1)[0] & (0xFF >> (count % 8)):
                raise StreamFormatError(f"{path}: nonzero padding bits", offset=expected - 1)
    return count, period_ns, channel


def iter_stream_windows(path, chunk_windows: int = 1 << 24) -> Iterator[np.ndarray]:
    """Yield the stream's windows as 0/1 arrays of at most ``chunk_windows``."""
    if chunk_windows % 8:
        raise StreamFormatError("chunk_windows must be a multiple of 8")
    count, _, _ = read_stream_header(path)
    remaining = count
    offset = HEADER_SIZE
    with open(path, "rb") as fh:
        fh.seek(HEADER_SIZE)
        while remaining > 0:
            take = min(remaining, chunk_windows)
            nbytes = (take + 7) // 8
            buf = fh.read(nbytes)
            if len(buf) < nbytes:
                raise StreamFormatError(
                    f"{path}: stream payload ends early", offset=offset + len(buf)
                )
            offset += nbytes
            yield np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:take]
            remaining -= take


def read_stream(path) -> DetectionStream:
    count, period_ns, channel = read_stream_header(path)
    chunks = list(iter_stream_windows(path, chunk_windows=1 << 24))
    windows = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return DetectionStream(windows, channel_id=channel, window_period=period_ns * 1e-9)


def is_tbd1(path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(8) == MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# ASCII '0'/'1' files


def parse_ascii_bits(data: bytes, source: str = "<data>") -> np.ndarray:
    """Parse '0'/'1' text into a 0/1 array; whitespace is skipped."""
    raw = np.frombuffer(data, dtype=np.uint8)
    is_bit = (raw == ord("0")) | (raw == ord("1"))
    is_ws = np.isin(raw, list(_WS_CODES))
    bad = ~(is_bit | is_ws)
    if bad.any():
        at = int(np.nonzero(bad)[0][0])
        raise StreamFormatError(
            f"{source}: invalid character {chr(raw[at])!r}", offset=at
        )
    return (raw[is_bit] == ord("1")).astype(np.uint8)


def read_ascii_bits(path) -> np.ndarray:
    return parse_ascii_bits(Path(path).read_bytes(), source=str(path))


def write_ascii_bits(path, bits) -> None:
    arr = as_bit_array(bits)
    out = np.where(arr, ord("1"), ord("0")).astype(np.uint8)
    Path(path).write_bytes(out.tobytes())


# ---------------------------------------------------------------------------
# extracted-bit files


def write_bit_output(path, out: BitOutput, fmt: str = "packed", extra: dict | None = None) -> None:
    """Write extractor output as packed bytes plus sidecar, or as ASCII."""
    path = Path(path)
    if fmt == "ascii":
        write_ascii_bits(path, out.bit_array())
        return
    if fmt != "packed":
        raise StreamFormatError(f"unknown bit output format {fmt!r}")
    path.write_bytes(out.data)
    meta = {
        "format": "packed-bits-msb-first",
        "total_bits": out.total_bits,
        "stats": {
            "windows_seen": out.stats.windows_seen,
            "blocks_scanned": out.stats.blocks_scanned,
            "blocks_discarded_k0_kn": out.stats.blocks_discarded_k0_kn,
            "fragments_discarded_alpha0": out.stats.fragments_discarded_alpha0,
            "bits_emitted": out.stats.bits_emitted,
        },
    }
    if extra:
        meta.update(extra)
    write_meta(path, meta)


def read_bits(path) -> np.ndarray:
    """Read a bit file: packed bytes with a sidecar, else ASCII '0'/'1'."""
    path = Path(path)
    if meta_path(path).exists():
        meta = read_meta(path)
        total_bits = int(meta["total_bits"])
        buf = np.frombuffer(path.read_bytes(), dtype=np.uint8)
        if total_bits > 8 * buf.size:
            raise StreamFormatError(
                f"{path}: sidecar claims {total_bits} bits but file has {buf.size} bytes",
                offset=buf.size,
            )
        return np.unpackbits(buf)[:total_bits]
    return read_ascii_bits(path)
