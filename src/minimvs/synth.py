"""Deterministic ray-cast scenes: images, cameras, and exact ground-truth depth.

Scenes are a handful of textured primitives (rectangles, spheres,
axis-aligned boxes) under a fixed-direction Lambertian light. Each pixel is
cast through its center; the nearest intersection gives the analytic depth
(the camera-frame z, exact up to float64 roundoff), and the background is
flagged invalid with depth 0. Rendering is a pure function of the scene, so
regenerating a dataset from the same seed reproduces the files byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .errors import ParameterError
from .geometry import Camera, backproject, pixel_grid, project, write_camera

_EPS = 1e-9


def _hash01(ix, iy, seed):
    """Deterministic lattice hash -> [0, 1); pure uint64 arithmetic."""
    with np.errstate(over="ignore"):
        h = ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        h ^= iy.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= np.uint64(seed) * np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xD6E8FEB86659FD93)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _value_noise(u, v, scale, seed):
    """Smooth value noise on the unit square."""
    pu = u * scale
    pv = v * scale
    i0 = np.floor(pu)
    j0 = np.floor(pv)
    fu = pu - i0
    fv = pv - j0
    su = fu * fu * (3.0 - 2.0 * fu)
    sv = fv * fv * (3.0 - 2.0 * fv)
    i0 = i0.astype(np.int64)
    j0 = j0.astype(np.int64)
    n00 = _hash01(i0, j0, seed)
    n10 = _hash01(i0 + 1, j0, seed)
    n01 = _hash01(i0, j0 + 1, seed)
    n11 = _hash01(i0 + 1, j0 + 1, seed)
    top = n00 + (n10 - n00) * su
    bot = n01 + (n11 - n01) * su
    return top + (bot - top) * sv


@dataclass
class Texture:
    """Checker + value-noise albedo, with an optional texture-less patch."""

    color_a: tuple = (0.9, 0.55, 0.25)
    color_b: tuple = (0.2, 0.45, 0.85)
    checker_scale: float = 6.0
    noise_scale: float = 13.0
    noise_amount: float = 0.45
    octaves: int = 2
    seed: int = 1
    flat_patch: tuple | None = None  # (u0, v0, u1, v1) of a constant region

    def sample(self, u, v):
        """Albedo (3, N) at texture coordinates (checker plus noise octaves)."""
        ca = np.asarray(self.color_a)[:, None]
        cb = np.asarray(self.color_b)[:, None]
        checker = ((np.floor(u * self.checker_scale) + np.floor(v * self.checker_scale)) % 2.0)
        base = ca + (cb - ca) * checker[None]
        if self.noise_amount > 0:
            total = 0.0
            weight_sum = 0.0
            for oct_i in range(max(self.octaves, 1)):
                noise = np.stack([
                    _value_noise(u, v, self.noise_scale * 3.7 ** oct_i,
                                 self.seed + 100 * oct_i + k)
                    for k in range(3)
                ])
                w = 0.5 ** oct_i
                total = total + w * noise
                weight_sum += w
            base = base * (1.0 - self.noise_amount) + (total / weight_sum) * self.noise_amount
        if self.flat_patch is not None:
            u0, v0, u1, v1 = self.flat_patch
            inside = (u >= u0) & (u <= u1) & (v >= v0) & (v <= v1)
            flat = (ca + cb) / 2.0
            base = np.where(inside[None], flat, base)
        return np.clip(base, 0.0, 1.0)


@dataclass
class Rectangle:
    """Finite textured quad: origin corner plus two edge vectors."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture: Texture = field(default_factory=Texture)

    def intersect(self, origin, dirs):
        p0 = np.asarray(self.origin, dtype=np.float64)
        eu = np.asarray(self.edge_u, dtype=np.float64)
        ev = np.asarray(self.edge_v, dtype=np.float64)
        n = np.cross(eu, ev)
        denom = n @ dirs
        ok = np.abs(denom) > _EPS
        s = np.where(ok, (n @ (p0 - origin)) / np.where(ok, denom, 1.0), np.inf)
        hitp = origin[:, None] + s[None] * dirs
        local = hitp - p0[:, None]
        uu = (local.T @ eu) / (eu @ eu)
        vv = (local.T @ ev) / (ev @ ev)
        hit = ok & (s > _EPS) & (uu >= 0) & (uu <= 1) & (vv >= 0) & (vv <= 1)
        normal = np.broadcast_to((n / np.linalg.norm(n))[:, None], dirs.shape)
        return s, hit, np.stack([uu, vv]), normal


@dataclass
class Sphere:
    center: np.ndarray
    radius: float
    texture: Texture = field(default_factory=Texture)

    def intersect(self, origin, dirs):
        c = np.asarray(self.center, dtype=np.float64)
        oc = origin - c
        a = np.einsum("ij,ij->j", dirs, dirs)
        b = 2.0 * (oc @ dirs)
        cc = oc @ oc - self.radius ** 2
        disc = b * b - 4.0 * a * cc
        ok = disc >= 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        s0 = (-b - sq) / (2.0 * a)
        s1 = (-b + sq) / (2.0 * a)
        s = np.where(s0 > _EPS, s0, s1)
        hit = ok & (s > _EPS)
        hitp = origin[:, None] + s[None] * dirs
        normal = (hitp - c[:, None]) / self.radius
        u = 0.5 + np.arctan2(normal[1], normal[0]) / (2.0 * np.pi)
        v = 0.5 + np.arcsin(np.clip(normal[2], -1.0, 1.0)) / np.pi
        return s, hit, np.stack([u, v]), normal


@dataclass
class Box:
    """Axis-aligned box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray
    texture: Texture = field(default_factory=Texture)

    def intersect(self, origin, dirs):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        safe = np.where(np.abs(dirs) > _EPS, dirs, _EPS)
        t_lo = (lo[:, None] - origin[:, None]) / safe
        t_hi = (hi[:, None] - origin[:, None]) / safe
        t1 = np.minimum(t_lo, t_hi)
        t2 = np.maximum(t_lo, t_hi)
        enter_axis = np.argmax(t1, axis=0)
        t_enter = np.max(t1, axis=0)
        t_exit = np.min(t2, axis=0)
        hit = (t_exit >= t_enter) & (t_enter > _EPS)
        s = np.where(hit, t_enter, np.inf)
        hitp = origin[:, None] + s[None] * dirs
        normal = np.zeros_like(dirs)
        cols = np.arange(dirs.shape[1])
        normal[enter_axis, cols] = -np.sign(dirs[enter_axis, cols])
        extent = np.maximum(hi - lo, _EPS)
        local = (hitp - lo[:, None]) / extent[:, None]
        rolled_u = np.take_along_axis(local, ((enter_axis + 1) % 3)[None], axis=0)[0]
        rolled_v = np.take_along_axis(local, ((enter_axis + 2) % 3)[None], axis=0)[0]
        return s, hit, np.stack([rolled_u, rolled_v]), normal


@dataclass
class Scene:
    primitives: list
    light_dir: np.ndarray = (0.35, 0.25, -0.9)
    ambient: float = 0.4
    background: tuple = (0.05, 0.05, 0.08)

    def __post_init__(self):
        ld = np.asarray(self.light_dir, dtype=np.float64)
        self.light_dir = ld / np.linalg.norm(ld)


def trace(scene, cam, pixels):
    """Colors (3, N), depth (N,), and validity for continuous pixel coords (2, N).

    The ray through pixel (u, v) is parametrized so the parameter equals the
    camera-frame z; ground-truth depth is therefore analytic.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    n = pixels.shape[1]
    homog = np.vstack([pixels, np.ones((1, n))])
    dirs_cam = np.linalg.inv(cam.K) @ homog
    dirs = cam.R.T @ dirs_cam  # unit-depth rays: camera-frame z == ray parameter
    origin = cam.center()

    best_s = np.full(n, np.inf)
    colors = np.tile(np.asarray(scene.background, dtype=np.float64)[:, None], (1, n))
    for prim in scene.primitives:
        s, hit, uv, normal = prim.intersect(origin, dirs)
        closer = hit & (s < best_s)
        if not np.any(closer):
            continue
        albedo = prim.texture.sample(uv[0, closer], uv[1, closer])
        nrm = normal[:, closer]
        view = dirs[:, closer]
        facing = np.where((np.einsum("ij,ij->j", nrm, view) > 0)[None], -nrm, nrm)
        lam = np.maximum(0.0, -(scene.light_dir @ facing))
        shade = scene.ambient + (1.0 - scene.ambient) * lam
        colors[:, closer] = albedo * shade[None]
        best_s[closer] = s[closer]

    valid = np.isfinite(best_s)
    depth = np.where(valid, best_s, 0.0)
    return np.clip(colors, 0.0, 1.0), depth, valid


def render(scene, cam, height, width):
    """Render pixel centers: image (3, H, W), depth (H, W), valid (H, W)."""
    if height % 8 or width % 8:
        raise ParameterError(f"render resolution must be divisible by 8, got {height}x{width}")
    colors, depth, valid = trace(scene, cam, pixel_grid(height, width).reshape(2, -1))
    return (colors.reshape(3, height, width),
            depth.reshape(height, width),
            valid.reshape(height, width))


# ---------------------------------------------------------------------------
# cameras and scene construction
# ---------------------------------------------------------------------------

def look_at(position, target, world_up=(0.0, 1.0, 0.0)):
    """World-to-camera rotation/translation, x right, y down, z forward."""
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(world_up, dtype=np.float64)
    z = target - position
    z = z / np.linalg.norm(z)
    y = -(up - (up @ z) * z)
    ny = np.linalg.norm(y)
    if ny < 1e-12:
        raise ParameterError("look_at: view direction parallel to world up")
    y = y / ny
    x = np.cross(y, z)
    r = np.stack([x, y, z])
    return r, -(r @ position)


def default_intrinsics(height, width, focal_factor=1.1):
    f = focal_factor * max(height, width)
    return np.array([[f, 0.0, (width - 1) / 2.0],
                     [0.0, f, (height - 1) / 2.0],
                     [0.0, 0.0, 1.0]])


def arc_cameras(n_views, height, width, radius=4.0, span_deg=24.0, rise=0.35,
                target=(0.0, 0.0, 0.0), depth_range=(1.0, 10.0), focal_factor=1.1):
    """Cameras on an arc facing the target, mimicking a turntable rig."""
    k = default_intrinsics(height, width, focal_factor)
    cams = []
    angles = (
        np.linspace(-span_deg / 2.0, span_deg / 2.0, n_views) if n_views > 1 else [0.0]
    )
    for i, deg in enumerate(angles):
        a = np.deg2rad(deg)
        pos = np.array([radius * np.sin(a), rise * np.sin(2.3 * a + 0.4) - 0.1,
                        -radius * np.cos(a)])
        r, t = look_at(pos, target)
        cams.append(Camera(k.copy(), r, t, depth_range[0], depth_range[1]))
    return cams


def random_scene(rng, with_flat_patch=False, style="objects"):
    """Backdrop quad, optionally with foreground primitives (style="objects").

    Palettes keep per-channel contrast and tilts stay moderate so every scene
    from the distribution is matchable; desk-scale training sets are tiny and
    cannot absorb pathological outliers.
    """

    def tex(flat):
        return Texture(
            color_a=tuple(rng.uniform(0.55, 0.95, 3)),
            color_b=tuple(rng.uniform(0.05, 0.45, 3)),
            checker_scale=float(rng.uniform(2.0, 3.0)),
            noise_scale=float(rng.uniform(9.0, 13.0)),
            noise_amount=float(rng.uniform(0.55, 0.7)),
            seed=int(rng.integers(1, 2 ** 31)),
            flat_patch=(0.42, 0.42, 0.58, 0.58) if flat else None,
        )

    prims = []
    tilt_x = float(rng.uniform(0.04, 0.1) * rng.choice([-1.0, 1.0]))
    tilt_y = float(rng.uniform(0.04, 0.1) * rng.choice([-1.0, 1.0]))
    back_z = rng.uniform(0.5, 0.9)
    extent = 10.0
    prims.append(
        Rectangle(
            np.array([-extent / 2, -extent / 2, back_z]),
            np.array([extent, 0.0, extent * tilt_x]),
            np.array([0.0, extent, extent * tilt_y]),
            tex(with_flat_patch),
        )
    )
    if style == "objects":
        for _ in range(int(rng.integers(1, 3))):
            if rng.uniform() < 0.5:
                center = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-0.7, 0.7),
                                   rng.uniform(-0.8, -0.2)])
                prims.append(Sphere(center, float(rng.uniform(0.35, 0.65)), tex(False)))
            else:
                c = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-0.7, 0.7),
                              rng.uniform(-0.7, -0.1)])
                half = rng.uniform(0.25, 0.55, 3)
                prims.append(Box(c - half, c + half, tex(False)))
    light = rng.uniform(-1.0, 1.0, 3)
    light[2] = -abs(light[2]) - 0.5
    return Scene(prims, light_dir=light)


def rank_source_views(cams, depths, valids, step=4):
    """Ranked source ids per reference view by view-frustum overlap.

    Overlap is the fraction of the reference view's valid ground-truth points
    that project inside the source image with positive depth.
    """
    n = len(cams)
    h, w = depths[0].shape
    grid = pixel_grid(h, w, step)
    pairs = []
    for r in range(n):
        m = valids[r][::step, ::step]
        pts = backproject(cams[r], grid[:, m], depths[r][::step, ::step][m])
        scores = []
        for s in range(n):
            if s == r:
                continue
            uv, z = project(cams[s], pts)
            inside = (z > 0) & (uv[0] >= 0) & (uv[0] <= w - 1) & (uv[1] >= 0) & (uv[1] <= h - 1)
            scores.append((float(inside.mean()) if inside.size else 0.0, s))
        scores.sort(key=lambda t: (-t[0], t[1]))
        pairs.append([(s, sc) for sc, s in scores])
    return pairs


def write_pair_file(path, pairs):
    lines = [str(len(pairs))]
    for ref, ranked in enumerate(pairs):
        lines.append(str(ref))
        entries = " ".join(f"{s} {score:.6f}" for s, score in ranked)
        lines.append(f"{len(ranked)} {entries}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def make_dataset(out_dir, n_scenes, views_per_scene, height, width, seed=0,
                 radius=4.0, span_deg=32.0, style="objects", focal_factor=1.5,
                 range_margin=1.6):
    """Render scenes to disk: images, camera files, GT depth PFMs, pair lists.

    Layout: <out>/scene_0000/{images/0000.ppm, cams/0000_cam.txt,
    depths/0000.pfm, pair.txt}. Invalid GT pixels carry depth 0. The depth
    range written to the cameras spans the rendered depths widened by
    `range_margin` about their midpoint, so hypothesis sweeps have headroom.
    """
    master = np.random.default_rng(seed)
    scene_dirs = []
    for si in range(n_scenes):
        rng = np.random.default_rng(master.integers(0, 2 ** 63))
        scene = random_scene(rng, with_flat_patch=(si % 4 == 3), style=style)
        scene_dir = os.path.join(out_dir, f"scene_{si:04d}")
        for sub in ("images", "cams", "depths"):
            os.makedirs(os.path.join(scene_dir, sub), exist_ok=True)

        cams = arc_cameras(views_per_scene, height, width, radius=radius,
                           span_deg=span_deg, focal_factor=focal_factor)
        images, depths, valids = [], [], []
        for cam in cams:
            img, dep, val = render(scene, cam, height, width)
            images.append(img)
            depths.append(dep)
            valids.append(val)
        all_d = np.concatenate([d[v] for d, v in zip(depths, valids)])
        mid = (float(all_d.min()) + float(all_d.max())) / 2.0
        half = max((float(all_d.max()) - float(all_d.min())) / 2.0, 1e-3 * mid)
        dmin = max(mid - half * range_margin, 0.05 * mid)
        dmax = mid + half * range_margin
        for vi, cam in enumerate(cams):
            cam = Camera(cam.K, cam.R, cam.t, dmin, dmax)
            formats.write_ppm(os.path.join(scene_dir, "images", f"{vi:04d}.ppm"), images[vi])
            formats.write_pfm(os.path.join(scene_dir, "depths", f"{vi:04d}.pfm"), depths[vi])
            write_camera(os.path.join(scene_dir, "cams", f"{vi:04d}_cam.txt"), cam)
        pairs = rank_source_views(cams, depths, valids)
        write_pair_file(os.path.join(scene_dir, "pair.txt"), pairs)
        scene_dirs.append(scene_dir)
    return scene_dirs
