"""Every on-disk format (PFM depth maps, PPM images, PLY point clouds, camera
and pair files) and the only code that opens files: `read_file`, the atomic
`write_file`, and the one `Cursor` every reader parses through.

Writers round-trip bit-exactly at their declared precision: PFM payloads are
float32, PLY positions float32 with 8-bit colors, PPM 8-bit. A file that
cannot be read or parsed raises ParseError naming it and the byte offset.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import threading

import numpy as np

from .errors import ParameterError, ParseError
from .geometry import Camera


# ---------------------------------------------------------------------------
# the one reader, writer and cursor
# ---------------------------------------------------------------------------

def read_file(path):
    """The bytes of `path`; a file that cannot be read raises ParseError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from exc


def write_file(path, data):
    """Write bytes, or str as UTF-8, to a temporary file beside `path` and rename
    it over `path`, which so holds the old bytes or the new, never a part. The
    temporary name ends in the process and thread ids, not the target's
    extension, so a listing by extension never picks up a leftover."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_TOKEN = re.compile(rb"(?:\s+|#[^\n]*)*(\S*)")  # whitespace and '#' comments, then a token


class Cursor:
    """A read position `at` in one file's bytes; `mark` is where the last line,
    token or chunk began, the offset `error` reports unless given another."""

    def __init__(self, path):
        self.path, self.blob = path, read_file(path)
        self.at = self.mark = 0

    def error(self, what, at=None, note=None):
        """A ParseError naming the file and the byte offset, for the caller to raise."""
        at = self.mark if at is None else at
        return ParseError(f"{self.path}: {what} at byte {at}" + (f" ({note})" if note else ""))

    def line(self):
        """The next line without its newline, stripped of surrounding whitespace."""
        end = self.blob.find(b"\n", self.at)
        if end < 0:
            raise self.error("unterminated line", self.at)
        self.mark, self.at = self.at, end + 1
        return self.blob[self.mark:end].strip()

    def token(self):
        """The next whitespace-separated token, skipping '#' comments."""
        match = _TOKEN.match(self.blob, self.at)
        if not match.group(1):
            raise self.error("unexpected end of file", len(self.blob))
        self.mark, self.at = match.span(1)
        return match.group(1)

    def take(self, n, what):
        """The next `n` bytes."""
        if self.at + n > len(self.blob):
            raise self.error(f"truncated {what}", self.at,
                             f"need {n} bytes, have {len(self.blob) - self.at}")
        self.mark, self.at = self.at, self.at + n
        return self.blob[self.mark:self.at]


# ---------------------------------------------------------------------------
# PFM (grayscale "Pf"): dims line, scale line (sign = endianness), bottom-up rows
# ---------------------------------------------------------------------------

def write_pfm(path, data):
    """Write a (H, W) array as little-endian float32 PFM."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ParseError(f"PFM writer expects (H, W), got shape {data.shape}")
    h, w = data.shape
    write_file(path, f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
               + np.flipud(data).astype("<f4").tobytes())


def read_pfm(path):
    """Read a grayscale PFM into a float32 (H, W) array (top-down rows)."""
    cur = Cursor(path)
    magic = cur.line()
    if magic != b"Pf":
        raise cur.error(f"bad magic {magic!r} (grayscale 'Pf' only)")
    dims = cur.line().split()
    try:
        w, h = int(dims[0]), int(dims[1])
    except (IndexError, ValueError) as exc:
        raise cur.error("bad dimensions line") from exc
    if w < 0 or h < 0:
        raise cur.error(f"negative dimensions {w} x {h}")
    try:
        scale = float(cur.line())
    except ValueError as exc:
        raise cur.error("bad scale line") from exc
    if scale == 0 or not np.isfinite(scale):
        raise cur.error(f"scale {scale} is not a finite nonzero number")
    payload = cur.take(w * h * 4, "payload")
    data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4").reshape(h, w)
    finite = np.isfinite(data)
    if not finite.all():
        first = int(np.argmin(finite.ravel()))
        raise cur.error("non-finite value", cur.mark + 4 * first,
                        f"payload starts at byte {cur.mark}")
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
    write_file(path, f"P6\n{w} {h}\n255\n".encode("ascii")
               + quantized.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    """Read a binary P6 image into (3, H, W) float64 in [0, 1]."""
    cur = Cursor(path)
    magic = cur.token()
    if magic != b"P6":
        raise cur.error(f"bad magic {magic!r}")
    try:
        w, h, maxval = int(cur.token()), int(cur.token()), int(cur.token())
    except ValueError as exc:
        raise cur.error("malformed header") from exc
    if w < 0 or h < 0:
        raise cur.error(f"negative dimensions {w} x {h}")
    if maxval != 255:
        raise cur.error(f"unsupported maxval {maxval}")
    cur.take(1, "header")  # the single whitespace byte after maxval
    pixels = np.frombuffer(cur.take(w * h * 3, "pixel data"), dtype=np.uint8)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# PLY point clouds: x, y, z float32 + red, green, blue uchar
# ---------------------------------------------------------------------------

_VERTEX_DTYPE = np.dtype(
    [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
     ("red", "u1"), ("green", "u1"), ("blue", "u1")]
)
_PLY_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8", "uchar": "u1", "uint8": "u1"}


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
    write_file(path, header.encode("ascii") + rec.tobytes())


def read_ply(path):
    """Read a vertex-only PLY; returns (points (N, 3) f64, colors (N, 3) in [0, 1])."""
    cur = Cursor(path)
    if cur.line() != b"ply":
        raise cur.error("bad magic")
    fmt = count = None
    fields = []
    in_vertex = False
    while (line := cur.line().decode("ascii", errors="replace")) != "end_header":
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        try:
            if parts[0] == "format":
                if parts[1] not in ("ascii", "binary_little_endian"):
                    raise cur.error(f"unsupported format '{parts[1]}'")
                fmt = parts[1]
            elif parts[0] == "element":
                in_vertex = parts[1] == "vertex"
                if in_vertex:
                    count = int(parts[2])
                    if count < 0:
                        raise cur.error("negative vertex count")
                elif int(parts[2]) != 0:
                    raise cur.error(f"unsupported element '{parts[1]}'")
            elif parts[0] == "property" and in_vertex:
                if parts[1] not in _PLY_TYPES:
                    raise cur.error(f"unsupported property '{parts[1]}'")
                fields.append((parts[2], _PLY_TYPES[parts[1]]))
        except (IndexError, ValueError) as exc:
            raise cur.error(f"malformed header line '{line}'") from exc
    if fmt is None or count is None:
        raise cur.error("header missing format or vertex element")
    for needed in ("x", "y", "z", "red", "green", "blue"):
        if needed not in dict(fields):
            raise cur.error(f"vertex element lacks property '{needed}'")

    start = cur.at
    try:
        if fmt == "binary_little_endian":
            dtype = np.dtype(fields)
            rec = np.frombuffer(cur.take(dtype.itemsize * count, "vertex data"), dtype=dtype)
        else:  # a short table fails the reshape
            per = len(fields)
            table = np.array(cur.blob[start:].split()[:per * count], np.float64).reshape(count, per)
            rec = {name: table[:, i] for i, (name, _) in enumerate(fields)}
    except ValueError as exc:
        raise cur.error("malformed vertex data", start, str(exc)) from exc

    points = np.stack([np.asarray(rec[k], np.float64) for k in ("x", "y", "z")], axis=1)
    colors = np.stack([np.asarray(rec[k], np.float64) for k in ("red", "green", "blue")],
                      axis=1) / 255.0
    finite = np.isfinite(points).all(axis=1) & np.isfinite(colors).all(axis=1)
    if not finite.all():
        raise cur.error(f"non-finite value in vertex {int(np.argmin(finite))} of the data "
                        f"starting", start)
    return points, colors


# ---------------------------------------------------------------------------
# camera text files: "extrinsic", 4x4 world-to-camera; "intrinsic", 3x3 K;
# then "depth_min depth_max"
# ---------------------------------------------------------------------------

def write_camera(path, cam):
    """Write one camera per file, every value with 17 significant digits."""
    ext = np.eye(4)
    ext[:3, :3], ext[:3, 3] = cam.R, cam.t
    rows = [" ".join(f"{v:.17g}" for v in row) for row in [*ext, *cam.K]]
    lines = ["extrinsic", *rows[:4], "", "intrinsic", *rows[4:], "",
             f"{cam.depth_min:.17g} {cam.depth_max:.17g}"]
    write_file(path, "\n".join(lines) + "\n")


def read_camera(path):
    """Read a camera file as written by `write_camera`."""
    cur = Cursor(path)
    blocks = {}
    try:
        for label, size in (("extrinsic", 16), ("intrinsic", 9)):
            if cur.token() != label.encode("ascii"):
                raise cur.error(f"expected '{label}'")
            blocks[label] = np.array([float(cur.token()) for _ in range(size)])
        dmin, dmax = float(cur.token()), float(cur.token())
    except ValueError as exc:
        raise cur.error("malformed camera value") from exc
    ext, intr = blocks["extrinsic"].reshape(4, 4), blocks["intrinsic"].reshape(3, 3)
    if not np.isfinite([*ext.ravel(), *intr.ravel(), dmin, dmax]).all():
        raise ParseError(f"{path}: non-finite camera value")
    try:
        return Camera(intr, ext[:3, :3], ext[:3, 3], dmin, dmax)
    except ParameterError as exc:
        raise ParseError(f"{path}: invalid camera ({exc})") from exc


# ---------------------------------------------------------------------------
# pair lists: the view count, then per view its id, its source count and
# that many ranked "source_id score" pairs
# ---------------------------------------------------------------------------

def write_pair_file(path, pairs):
    lines = [str(len(pairs))]
    for ref, ranked in enumerate(pairs):
        lines.append(str(ref))
        entries = " ".join(f"{s} {score:.6f}" for s, score in ranked)
        lines.append(f"{len(ranked)} {entries}")
    write_file(path, "\n".join(lines) + "\n")


def read_pair_file(path):
    """Per view, its ranked [(source id, score), ...]; every view has a source."""
    cur = Cursor(path)
    pairs = {}
    try:
        n = int(cur.token())
        if n < 1:
            raise cur.error(f"view count {n} is not positive")
        # n distinct ids in [0, n) name every view once; a file too short for
        # n entries ends in a missing token before anything is allocated
        for _ in range(n):
            ref = int(cur.token())
            if not 0 <= ref < n or ref in pairs:
                raise cur.error(f"view id {ref} out of range or repeated")
            count = int(cur.token())
            if count < 1:
                raise cur.error(f"view {ref} lists {count} sources, needs at least 1")
            ranked, seen = [], set()
            for _ in range(count):
                src = int(cur.token())
                if not 0 <= src < n or src == ref or src in seen:
                    raise cur.error(f"source id {src} of view {ref} is out of range, "
                                    f"the view itself or repeated")
                seen.add(src)
                ranked.append((src, float(cur.token())))
                if not math.isfinite(ranked[-1][1]):
                    raise cur.error("non-finite score")
            pairs[ref] = ranked
    except ValueError as exc:
        raise cur.error("malformed number") from exc
    return [pairs[v] for v in range(n)]
