"""Pinhole cameras, plane-sweep homographies, and depth hypothesis schedules.

Conventions used throughout the package:

* extrinsics are world-to-camera: ``x_cam = R @ X_world + t``;
* pixel coordinate (u, v) lies at the pixel center, so integer coordinates
  sample the image lattice exactly and ``K @ x_cam / z`` yields (u, v, 1);
* the sweep is fronto-parallel in the reference frame: the plane at depth d
  is ``z_cam_ref = d``.

Stage resolutions follow the fixed ladder 1/8, 1/4, 1/2, 1/1 of the input;
intrinsics scale with the ladder (first two rows of K multiplied by the
stage factor), which makes stage pixel (i, j) correspond exactly to full
resolution pixel (i * f, j * f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .tensor import resize_bilinear

STAGE_SCALES = (8, 4, 2, 1)  # full-resolution divisor per stage
STAGE_COUNT = len(STAGE_SCALES)


def pixel_grid(height, width, step=1):
    """Pixel-center coordinates (2, H', W'): rows u then v, every `step`-th pixel."""
    vs, us = np.meshgrid(np.arange(0, height, step, dtype=np.float64),
                         np.arange(0, width, step, dtype=np.float64), indexing="ij")
    return np.stack([us, vs])


@dataclass
class Camera:
    """Intrinsics K, world-to-camera rotation R and translation t, depth range."""

    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    depth_min: float
    depth_max: float

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if self.K.shape != (3, 3) or self.R.shape != (3, 3):
            raise ParameterError("camera matrices must be 3x3")
        if abs(np.linalg.det(self.R) - 1.0) > 1e-9 or not np.allclose(
            self.R @ self.R.T, np.eye(3), atol=1e-9
        ):
            raise ParameterError("R must be a rotation (orthonormal, det 1)")
        lower = np.tril(self.K, -1)
        if np.any(np.abs(lower) > 1e-12) or self.K[0, 0] <= 0 or self.K[1, 1] <= 0:
            raise ParameterError("K must be upper-triangular with positive focals")
        if abs(self.K[2, 2] - 1.0) > 1e-12:
            raise ParameterError("K[2,2] must be 1")
        if not (0.0 < self.depth_min < self.depth_max):
            raise ParameterError(
                f"need 0 < depth_min < depth_max, got [{self.depth_min}, {self.depth_max}]"
            )

    def scaled(self, factor):
        """Camera for an image downscaled by `factor` (first two rows of K)."""
        k = self.K.copy()
        k[:2, :] *= factor
        return Camera(k, self.R.copy(), self.t.copy(), self.depth_min, self.depth_max)

    def center(self):
        """Camera center in world coordinates."""
        return -self.R.T @ self.t


def relative_pose(ref, src):
    """(R_rel, t_rel) with ``x_src = R_rel @ x_ref + t_rel`` in camera frames."""
    r_rel = src.R @ ref.R.T
    t_rel = src.t - r_rel @ ref.t
    return r_rel, t_rel


def backproject(cam, pixels, depth):
    """World points for pixels (2, N) at per-pixel depth (N,)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    ones = np.ones_like(pixels[0])
    homog = np.vstack([pixels, ones[None]])
    rays = np.linalg.inv(cam.K) @ homog
    return cam.R.T @ (rays * depth - cam.t[:, None])


def project(cam, points):
    """Pixels (2, N) and camera-frame depths (N,) for world points (3, N)."""
    x = cam.R @ points + cam.t[:, None]
    z = x[2]
    uv = (cam.K @ x)[:2] / z
    return uv, z


@dataclass
class HypothesisSet:
    """Ordered depth candidates for one cascade stage.

    `values` is (D,) for the uniform stage-0 sweep or (D, H, W) per pixel for
    refined stages; strictly increasing along D, spacing in scene units.
    """

    values: np.ndarray
    spacing: float
    depth_range: tuple = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 3):
            raise ParameterError(f"hypothesis values must be (D,) or (D,H,W), got {self.values.shape}")
        if np.any(np.diff(self.values, axis=0) <= 0):
            raise ParameterError("hypothesis values must be strictly increasing along D")
        if self.depth_range is not None:
            lo, hi = self.depth_range
            if self.values.min() < lo - 1e-9 or self.values.max() > hi + 1e-9:
                raise ParameterError("hypothesis values outside the depth range")

    @property
    def num_depths(self):
        return self.values.shape[0]

    def per_pixel(self, height, width):
        """(D, H, W) view of the candidates."""
        if self.values.ndim == 3:
            if self.values.shape[1:] != (height, width):
                raise ParameterError(
                    f"hypothesis resolution {self.values.shape[1:]} != ({height}, {width})"
                )
            return self.values
        return np.broadcast_to(self.values[:, None, None], (self.num_depths, height, width))


def initial_hypotheses(depth_range, num_depths):
    """Uniform inclusive sweep of `num_depths` values across the range."""
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not (0.0 < lo < hi):
        raise ParameterError(f"invalid depth range [{lo}, {hi}]")
    if num_depths < 2:
        raise ParameterError(f"need at least 2 depth hypotheses, got {num_depths}")
    values = np.linspace(lo, hi, num_depths)
    spacing = (hi - lo) / (num_depths - 1)
    return HypothesisSet(values, spacing, (lo, hi))


def refine_hypotheses(prev, center_depth, num_depths, out_hw):
    """Per-pixel window at resolution `out_hw` around the upsampled center.

    The spacing halves; the window is centered on the bilinearly upsampled
    center and shifted (never shrunk) to stay inside the depth range, so D is
    constant for every pixel and the values remain strictly increasing.
    """
    lo, hi = prev.depth_range
    center = np.asarray(center_depth, dtype=np.float64)
    if center.shape != tuple(out_hw):
        center = resize_bilinear(center, out_hw)
    spacing = prev.spacing / 2.0
    offsets = (np.arange(num_depths) - (num_depths - 1) / 2.0) * spacing
    values = center[None] + offsets[:, None, None]
    width = offsets[-1] - offsets[0]
    if width > (hi - lo):
        raise ParameterError("hypothesis window wider than the depth range")
    shift_up = np.maximum(lo - values[0], 0.0)
    values = values + shift_up[None]
    shift_down = np.maximum(values[-1] - hi, 0.0)
    values = values - shift_down[None]
    return HypothesisSet(values, spacing, (lo, hi))


def warp_coords(ref, src, hyp, height, width):
    """Source-pixel sampling coordinates (2, D, H, W) for each hypothesis.

    Decomposes the sweep homography as ``q(d) = A p + b / d`` so per-pixel
    depth maps cost no more than a uniform sweep. Points that land behind the
    source camera are pushed far outside the image, so sampling returns zero
    for them.
    """
    r_rel, t_rel = relative_pose(ref, src)
    k_inv = np.linalg.inv(ref.K)
    a = src.K @ r_rel @ k_inv
    b = src.K @ t_rel
    depths = hyp.per_pixel(height, width).reshape(hyp.num_depths, -1)
    homog = np.vstack([pixel_grid(height, width).reshape(2, -1), np.ones((1, height * width))])
    base = a @ homog                                      # (3, HW)
    pts = base[:, None, :] + b[:, None, None] / depths[None]  # (3, D, HW)
    z = pts[2]
    bad = z <= 1e-9
    z_safe = np.where(bad, 1.0, z)
    uv = pts[:2] / z_safe[None]
    uv = np.where(bad[None], -1e9, uv)
    return uv.reshape(2, hyp.num_depths, height, width)
