"""Flat binary parameter container.

Layout: magic "ICGW", version u32, record count u32, then per tensor:
name length u32, UTF-8 name, rank u32, extents as u64, little-endian f64
payload. Everything little-endian.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ParseError

MAGIC = b"ICGW"
VERSION = 1


def save_checkpoint(path, tensors):
    """Write a name -> ndarray mapping; insertion order is preserved."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, array in tensors.items():
            arr = np.ascontiguousarray(array, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Read the container back into a name -> float64 ndarray dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic at byte 0 (expected {MAGIC!r})")
    offset = 4

    def take(n, what):
        nonlocal offset
        if offset + n > len(blob):
            raise ParseError(f"{path}: truncated {what} at byte {offset}")
        chunk = blob[offset:offset + n]
        offset += n
        return chunk

    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version} at byte 4")
    out = {}
    for _ in range(count):
        record_at = offset
        try:
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            name = take(name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", take(4, "rank"))
            shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
            payload_at = offset
            payload = take(8 * math.prod(shape), f"payload of '{name}'")
            array = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as exc:  # a name that is not UTF-8, or extents numpy cannot hold
            raise ParseError(f"{path}: malformed record at byte {record_at} ({exc})") from exc
        finite = np.isfinite(array.ravel())
        if not finite.all():
            raise ParseError(f"{path}: non-finite value in '{name}' at byte "
                             f"{payload_at + 8 * int(np.argmin(finite))}")
        out[name] = array
    if offset != len(blob):
        raise ParseError(f"{path}: {len(blob) - offset} trailing bytes at byte {offset}")
    return out
