"""Flat binary parameter container.

Layout: magic "ICGW", version u32, record count u32, then per tensor:
name length u32, UTF-8 name, rank u32, extents as u64, little-endian f64
payload. Everything little-endian.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .formats import Cursor, write_file

MAGIC = b"ICGW"
VERSION = 1


def save_checkpoint(path, tensors):
    """Write a name -> ndarray mapping; insertion order is preserved."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, array in tensors.items():
        arr = np.ascontiguousarray(array, dtype="<f8")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded,
                  struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape), arr.tobytes()]
    write_file(path, b"".join(parts))


def load_checkpoint(path):
    """Read the container back into a name -> float64 ndarray dict."""
    cur = Cursor(path)
    if cur.take(4, "magic") != MAGIC:
        raise cur.error("bad magic", note=f"expected {MAGIC!r}")
    version, count = struct.unpack("<II", cur.take(8, "header"))
    if version != VERSION:
        raise cur.error(f"unsupported version {version}")
    out = {}
    for _ in range(count):
        record_at = cur.at
        try:
            (name_len,) = struct.unpack("<I", cur.take(4, "name length"))
            name = cur.take(name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", cur.take(4, "rank"))
            shape = struct.unpack(f"<{rank}Q", cur.take(8 * rank, "extents"))
            payload = cur.take(8 * math.prod(shape), f"payload of '{name}'")
            array = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as exc:  # a name that is not UTF-8, or extents numpy cannot hold
            raise cur.error("malformed record", record_at, str(exc)) from exc
        if name in out:
            raise cur.error(f"repeated record '{name}'", record_at)
        finite = np.isfinite(array.ravel())
        if not finite.all():
            raise cur.error(f"non-finite value in '{name}'", cur.mark + 8 * int(np.argmin(finite)))
        out[name] = array
    if cur.at != len(cur.blob):
        raise cur.error(f"{len(cur.blob) - cur.at} trailing bytes", cur.at)
    return out
