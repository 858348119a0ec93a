"""Readers and writers for PFM depth maps, PPM images, and PLY point clouds.

All writers round-trip bit-exactly at their declared precision: PFM payloads
are float32, PLY positions float32 with 8-bit colors, PPM 8-bit. Parse
failures raise ParseError with the byte offset of the offending data.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError


# ---------------------------------------------------------------------------
# PFM (grayscale "Pf"): dims line, scale line (sign = endianness), bottom-up rows
# ---------------------------------------------------------------------------

def write_pfm(path, data):
    """Write a (H, W) array as little-endian float32 PFM."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ParseError(f"PFM writer expects (H, W), got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(data).astype("<f4").tobytes())


def read_pfm(path):
    """Read a grayscale PFM into a float32 (H, W) array (top-down rows)."""
    with open(path, "rb") as fh:
        blob = fh.read()

    offset = 0

    def next_line():
        nonlocal offset
        end = blob.find(b"\n", offset)
        if end < 0:
            raise ParseError(f"{path}: unterminated header line at byte {offset}")
        line = blob[offset:end].strip()
        offset = end + 1
        return line

    magic = next_line()
    if magic == b"PF":
        raise ParseError(f"{path}: color PFM not supported (byte 0)")
    if magic != b"Pf":
        raise ParseError(f"{path}: bad magic {magic!r} at byte 0")
    dims_at = offset
    dims = next_line().split()
    try:
        w, h = int(dims[0]), int(dims[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: bad dimensions line at byte {dims_at}") from exc
    if w < 0 or h < 0:
        raise ParseError(f"{path}: negative dimensions {w} x {h} at byte {dims_at}")
    scale_at = offset
    try:
        scale = float(next_line())
    except ValueError as exc:
        raise ParseError(f"{path}: bad scale line at byte {scale_at}") from exc
    if scale == 0:
        raise ParseError(f"{path}: zero scale at byte {scale_at}")
    dtype = "<f4" if scale < 0 else ">f4"
    need = w * h * 4
    if len(blob) - offset < need:
        raise ParseError(
            f"{path}: payload truncated at byte {offset} (need {need} bytes, "
            f"have {len(blob) - offset})"
        )
    data = np.frombuffer(blob[offset:offset + need], dtype=dtype).reshape(h, w)
    return np.flipud(data).astype(np.float32)


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)
# ---------------------------------------------------------------------------

def write_ppm(path, image):
    """Write a (3, H, W) float image in [0, 1] as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ParseError(f"PPM writer expects (3, H, W), got {image.shape}")
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    """Read a binary P6 image into (3, H, W) float64 in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def next_token():
        nonlocal offset
        while offset < len(blob):
            if blob[offset:offset + 1].isspace():
                offset += 1
            elif blob[offset:offset + 1] == b"#":
                end = blob.find(b"\n", offset)
                offset = len(blob) if end < 0 else end + 1
            else:
                break
        start = offset
        while offset < len(blob) and not blob[offset:offset + 1].isspace():
            offset += 1
        if start == offset:
            raise ParseError(f"{path}: missing header token at byte {start}")
        return blob[start:offset]

    magic = next_token()
    if magic != b"P6":
        raise ParseError(f"{path}: bad magic {magic!r} at byte 0")
    try:
        w = int(next_token())
        h = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise ParseError(f"{path}: malformed header near byte {offset}") from exc
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval} at byte {offset}")
    offset += 1  # single whitespace after maxval
    need = w * h * 3
    if len(blob) - offset < need:
        raise ParseError(f"{path}: pixel data truncated at byte {offset}")
    pixels = np.frombuffer(blob[offset:offset + need], dtype=np.uint8)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# PLY point clouds: x, y, z float32 + red, green, blue uchar
# ---------------------------------------------------------------------------

_VERTEX_DTYPE = np.dtype(
    [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
     ("red", "u1"), ("green", "u1"), ("blue", "u1")]
)


def write_ply(path, points, colors=None):
    """Write points (N, 3) and colors (N, 3) in [0, 1] (white if omitted) as binary PLY."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if colors is None:
        colors = np.ones((n, 3))
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    rgb = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.uint8)
    rec = np.empty(n, dtype=_VERTEX_DTYPE)
    rec["x"], rec["y"], rec["z"] = points.astype("<f4").T
    rec["red"], rec["green"], rec["blue"] = rgb.T
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rec.tobytes())


def read_ply(path):
    """Read a vertex-only PLY; returns (points (N, 3) f64, colors (N, 3) in [0, 1])."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0
    lines = []
    while True:
        end = blob.find(b"\n", offset)
        if end < 0:
            raise ParseError(f"{path}: header missing end_header (byte {offset})")
        line = blob[offset:end].decode("ascii", errors="replace").strip()
        lines.append((line, offset))
        offset = end + 1
        if line == "end_header":
            break

    if not lines or lines[0][0] != "ply":
        raise ParseError(f"{path}: bad magic at byte 0")
    fmt = None
    count = None
    fields = []
    _PLY_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8",
                  "uchar": "u1", "uint8": "u1"}
    in_vertex = False
    for line, at in lines[1:-1]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            if parts[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"{path}: unsupported format '{parts[1]}' at byte {at}")
            fmt = parts[1]
        elif parts[0] == "element":
            if parts[1] == "vertex":
                count = int(parts[2])
                in_vertex = True
            else:
                if in_vertex:
                    in_vertex = False
                if int(parts[2]) != 0:
                    raise ParseError(
                        f"{path}: unsupported element '{parts[1]}' at byte {at}"
                    )
        elif parts[0] == "property" and in_vertex:
            if parts[1] not in _PLY_TYPES:
                raise ParseError(f"{path}: unsupported property type '{parts[1]}' at byte {at}")
            fields.append((parts[2], _PLY_TYPES[parts[1]]))
    if fmt is None or count is None:
        raise ParseError(f"{path}: header missing format or vertex element")
    names = [name for name, _ in fields]
    for needed in ("x", "y", "z", "red", "green", "blue"):
        if needed not in names:
            raise ParseError(f"{path}: vertex element lacks property '{needed}'")

    if fmt == "binary_little_endian":
        dtype = np.dtype(fields)
        need = dtype.itemsize * count
        if len(blob) - offset < need:
            raise ParseError(f"{path}: vertex data truncated at byte {offset}")
        rec = np.frombuffer(blob[offset:offset + need], dtype=dtype)
    else:
        text = blob[offset:].decode("ascii", errors="replace").split()
        per = len(fields)
        if len(text) < per * count:
            raise ParseError(f"{path}: ascii vertex data truncated at byte {offset}")
        table = np.array(text[: per * count], dtype=np.float64).reshape(count, per)
        rec = {name: table[:, i] for i, (name, _) in enumerate(fields)}

    points = np.stack(
        [np.asarray(rec["x"], np.float64), np.asarray(rec["y"], np.float64),
         np.asarray(rec["z"], np.float64)], axis=1
    )
    colors = np.stack(
        [np.asarray(rec["red"], np.float64), np.asarray(rec["green"], np.float64),
         np.asarray(rec["blue"], np.float64)], axis=1
    ) / 255.0
    return points, colors
