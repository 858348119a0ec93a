"""Depth-map filtering by photometric confidence and cross-view geometric
consistency, and fusion of the survivors into a colored point cloud."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FusionSettings
from .geometry import backproject, pixel_grid, project
from .tensor import bilinear_taps


@dataclass
class PointCloud:
    points: np.ndarray    # (N, 3)
    colors: np.ndarray    # (N, 3) in [0, 1]
    view_ids: np.ndarray  # (N,) reference view of origin


@dataclass
class GeometricErrors:
    """Per-pixel forward-backward reprojection errors against one source view."""

    err_c: np.ndarray   # pixels
    err_d: np.ndarray   # relative depth error
    valid: np.ndarray   # check applicable (in-bounds, positive depths)
    points: np.ndarray  # (3, H, W) world points seen by the source at the hit


def photometric_filter(confidence, conf_thresh):
    """Pixels whose winner probability reaches the threshold."""
    return np.asarray(confidence) >= conf_thresh


def _sample_depth(depth, x, y):
    """Bilinear depth lookup through `bilinear_taps`; a sample is valid inside the
    map with four positive corner depths, a corner of weight 0 included."""
    h, w = depth.shape
    idx, wts, ok = bilinear_taps(x, y, h, w)
    value = np.zeros(ok.shape)
    for i, wt in zip(idx, wts):
        corner = depth.ravel()[i]
        ok &= corner > 0
        corner *= wt
        value += corner
    return value, ok


def geometric_check(ref_cam, src_cam, ref_depth, src_depth):
    """Forward-backward consistency of a reference depth map against one source.

    Each reference pixel is lifted to 3D, projected into the source, the
    source depth is sampled there, lifted back to 3D and reprojected into the
    reference; err_c is the pixel round-trip distance and err_d the relative
    depth disagreement. Pixels that leave the source image are marked invalid.
    """
    h, w = ref_depth.shape
    pix = pixel_grid(h, w).reshape(2, -1)
    d_ref = np.asarray(ref_depth, dtype=np.float64).ravel()
    has_depth = d_ref > 0

    pts = backproject(ref_cam, pix, np.where(has_depth, d_ref, 1.0))
    q, z_src = project(src_cam, pts)
    # sample_ok covers the source bounds and a positive sample: it mixes four positive depths
    d_sample, sample_ok = _sample_depth(np.asarray(src_depth, dtype=np.float64),
                                        q[0], q[1])
    valid = has_depth & (z_src > 0) & sample_ok

    pts_back = backproject(src_cam, q, np.where(valid, d_sample, 1.0))
    p2, d2 = project(ref_cam, pts_back)
    err_c = np.hypot(p2[0] - pix[0], p2[1] - pix[1])
    err_d = np.abs(d2 - d_ref) / np.where(has_depth, d_ref, 1.0)
    err_c = np.where(valid, err_c, np.inf)
    err_d = np.where(valid, err_d, np.inf)
    return GeometricErrors(
        err_c.reshape(h, w), err_d.reshape(h, w), valid.reshape(h, w),
        pts_back.reshape(3, h, w),
    )


def _consistency(checks, cfg):
    """Survivor mask and per-source consistency masks under the configured rule.

    `passing(n)` holds, per source, the pixels within n times the base
    thresholds. Static rule: at least `min_consistent_views` sources pass at
    n = 1. Dynamic rule: some n >= min_consistent_views has at least n sources
    passing at n.
    """
    def passing(scale):
        return [(c.err_c < scale * cfg.pixel_threshold)
                & (c.err_d < scale * cfg.depth_threshold) & c.valid for c in checks]

    base = passing(1)
    if not cfg.dynamic:
        return np.sum(base, axis=0) >= cfg.min_consistent_views, base
    survives = np.zeros_like(base[0])
    for n in range(cfg.min_consistent_views, len(checks) + 1):
        survives |= np.sum(passing(n), axis=0) >= n
    return survives, base


def fuse(depths, confidences, images, cameras, cfg: FusionSettings):
    """Filter every reference view and fuse survivors into one point cloud.

    A pixel survives when its photometric confidence passes and enough source
    views agree geometrically (see `_consistency`). Surviving points are
    optionally averaged with the 3D points their base-consistent sources saw;
    colors come from the reference image. Views are processed in id order so
    the result is deterministic.
    """
    n_views = len(depths)
    all_points, all_colors, all_ids = [], [], []
    for ref in range(n_views):
        depth = np.asarray(depths[ref], dtype=np.float64)
        photo = photometric_filter(confidences[ref], cfg.confidence_threshold)
        checks = [
            geometric_check(cameras[ref], cameras[s], depth, depths[s])
            for s in range(n_views) if s != ref
        ]
        if not checks:
            continue
        geo, base = _consistency(checks, cfg)
        keep = photo & geo & (depth > 0)
        if not np.any(keep):
            continue
        pix = pixel_grid(*depth.shape)[:, keep]
        pts = backproject(cameras[ref], pix, depth[keep]).T  # (N, 3)
        if cfg.average_points:
            acc = pts.copy()
            cnt = np.ones(len(pts))
            for c, b in zip(checks, base):
                sel = b[keep]
                acc[sel] += c.points[:, keep].T[sel]
                cnt[sel] += 1.0
            pts = acc / cnt[:, None]
        colors = np.asarray(images[ref])[:, keep].T
        all_points.append(pts)
        all_colors.append(colors)
        all_ids.append(np.full(len(pts), ref, dtype=np.int64))
    if not all_points:
        empty = np.zeros((0, 3))
        return PointCloud(empty, empty.copy(), np.zeros(0, dtype=np.int64))
    return PointCloud(
        np.concatenate(all_points), np.concatenate(all_colors), np.concatenate(all_ids)
    )
