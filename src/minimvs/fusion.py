"""Depth-map filtering by photometric confidence and cross-view geometric
consistency, and fusion of the survivors into a colored point cloud."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FusionSettings
from .geometry import backproject, pixel_grid, project


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
    """Bilinear depth lookup; samples touching the border or holes are invalid."""
    h, w = depth.shape
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xs = np.clip(np.where(inside, x, 0.0), 0, w - 1)
    ys = np.clip(np.where(inside, y, 0.0), 0, h - 1)
    x0 = np.minimum(np.floor(xs).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(ys).astype(np.int64), h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = xs - x0
    ty = ys - y0
    d00 = depth[y0, x0]
    d01 = depth[y0, x1]
    d10 = depth[y1, x0]
    d11 = depth[y1, x1]
    value = (d00 * (1 - tx) * (1 - ty) + d01 * tx * (1 - ty)
             + d10 * (1 - tx) * ty + d11 * tx * ty)
    ok = inside & (d00 > 0) & (d01 > 0) & (d10 > 0) & (d11 > 0)
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
    in_src = (z_src > 0) & (q[0] >= 0) & (q[0] <= w - 1) & (q[1] >= 0) & (q[1] <= h - 1)
    d_sample, sample_ok = _sample_depth(np.asarray(src_depth, dtype=np.float64),
                                        q[0], q[1])
    valid = has_depth & in_src & sample_ok & (d_sample > 0)

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

    Static rule: at least `min_consistent_views` sources pass the base
    thresholds. Dynamic rule: some n >= min_consistent_views has at least n
    sources passing thresholds relaxed linearly to n * thresh.
    """
    n_src = len(checks)
    base = [
        (c.err_c < cfg.pixel_threshold) & (c.err_d < cfg.depth_threshold) & c.valid
        for c in checks
    ]
    if not cfg.dynamic:
        count = np.sum(base, axis=0)
        return count >= cfg.min_consistent_views, base
    shape = checks[0].err_c.shape if checks else (0, 0)
    survives = np.zeros(shape, dtype=bool)
    for n in range(cfg.min_consistent_views, n_src + 1):
        passing = [
            (c.err_c < n * cfg.pixel_threshold) & (c.err_d < n * cfg.depth_threshold) & c.valid
            for c in checks
        ]
        count = np.sum(passing, axis=0)
        survives |= count >= n
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
