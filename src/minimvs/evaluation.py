"""Depth-error and point-cloud metrics: absolute depth error, thresholded error
percentages, accuracy/completeness/overall, and precision/recall/F-score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEFAULT_TDE_THRESHOLDS = (1, 2, 4, 8, 16)


@dataclass
class DepthErrorReport:
    ade: float
    tde: dict            # threshold -> percentage of pixels with |err| > threshold
    valid_count: int
    empty: bool = False


def depth_errors(pred, gt, mask=None):
    """Mean absolute depth error and the percentage of pixels above each threshold
    of `DEFAULT_TDE_THRESHOLDS`.

    `tde(X)` uses a strict inequality (errors exactly equal to X do not count).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ParameterError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    mask = np.ones(pred.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    err = np.abs(pred - gt)[mask]
    if err.size == 0:
        return DepthErrorReport(0.0, {x: 0.0 for x in DEFAULT_TDE_THRESHOLDS}, 0, empty=True)
    tde = {x: 100.0 * float(np.count_nonzero(err > x)) / err.size
           for x in DEFAULT_TDE_THRESHOLDS}
    return DepthErrorReport(float(err.mean()), tde, int(err.size))


# ---------------------------------------------------------------------------
# nearest neighbors on a ladder of uniform grids (radius-capped queries)
# ---------------------------------------------------------------------------

_BLOCK_PAIRS = 1 << 17  # (query, point) pairs expanded at once; bounds the memory
_MAX_CELLS = 1 << 20    # cells per axis at most, so cell keys fit in int64
# Relative margin on every cell side. Keys floor((x - origin) / side) stay
# below _MAX_CELLS, so their rounding error is under 5e-10 of a cell.
_EDGE = 1e-9


def _finite_xyz(xyz, what):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(xyz)):
        raise ParameterError(f"{what} must be finite")
    return xyz


class GridIndex:
    """Exact nearest-neighbor index with a fixed search radius.

    The cells come from the point density, not from the radius: level k of a
    ladder of uniform grids has cells of side ``base * 2**k``, where ``base``
    puts about eight points of a surface cloud in each cell that it crosses.
    Every point within one side of a query lies in the 27 cells around the
    query's cell, so a query is final at the first level whose side its best
    candidate is strictly inside; the others move up a level. The last
    level's side is just above the radius, and anything farther than the
    radius is reported as not found, which is exactly the capped-metric
    semantics.
    """

    def __init__(self, points, radius):
        radius = float(radius)
        if not (np.isfinite(radius) and radius > 0):
            raise ParameterError(f"search radius must be finite and > 0, got {radius}")
        self.points = _finite_xyz(points, "points")
        self.radius = radius
        self.sides = []
        n = len(self.points)
        if n == 0:
            return
        self.origin = self.points.min(axis=0)
        extent = float(np.ptp(self.points, axis=0).max())
        finest = extent / _MAX_CELLS
        # the density is judged from the widest axis of the central 90% of
        # the points, so that outliers do not inflate the cells
        lo, hi = np.percentile(self.points, [5.0, 95.0], axis=0)
        base = max(min(float(np.max(hi - lo)) / np.sqrt(0.9 * n / 8.0), radius), finest)
        # A level of side 2*extent already holds every query inside the box.
        ceiling = min(radius, 2.0 * extent)
        levels = int(np.ceil(np.log2(ceiling / base))) if base < ceiling else 0
        self.sides = [base * 2.0 ** k for k in range(levels)]
        self.sides.append(max(radius, finest) * (1.0 + _EDGE))

    def nearest(self, queries):
        """(distances, found) per query; distance is exact when within radius."""
        queries = _finite_xyz(queries, "queries")
        dist = np.full(len(queries), np.inf)
        active = np.arange(len(queries))
        for level, side in enumerate(self.sides):
            if len(active) == 0:
                break
            best = self._level_nearest(side, queries[active])
            if level == len(self.sides) - 1:
                done = best <= self.radius
            else:
                done = best < side * (1.0 - _EDGE)
            dist[active[done]] = best[done]
            active = active[~done]
        return dist, np.isfinite(dist)

    def _level_nearest(self, side, queries):
        """Distance to the nearest point in the 27 cells around each query
        (inf when they are empty) on the grid of the given side."""
        keys = np.floor((self.points - self.origin) / side).astype(np.int64)
        shape = keys.max(axis=0) + 1
        cell = (keys[:, 0] * shape[1] + keys[:, 1]) * shape[2] + keys[:, 2]
        order = np.argsort(cell)
        cell, points = cell[order], self.points[order]
        # Clipping keeps far-away queries in int64; their cells stay empty.
        qk = np.clip(np.floor((queries - self.origin) / side), -2, shape + 1).astype(np.int64)
        # Sorted by cell, the queries of one cell share their key ranges and
        # read nearby points.
        qcell = ((qk[:, 0] + 2) * (shape[1] + 4) + qk[:, 1] + 2) * (shape[2] + 4) + qk[:, 2] + 2
        qorder = np.argsort(qcell)
        qcell = qcell[qorder]
        first = np.concatenate([[True], qcell[1:] != qcell[:-1]])
        cell_of = np.cumsum(first) - 1
        uk = qk[qorder[first]]
        z0 = np.maximum(uk[:, 2] - 1, 0)
        z1 = np.minimum(uk[:, 2] + 1, shape[2] - 1)
        starts = np.empty((len(uk), 9), dtype=np.int64)
        ends = np.empty_like(starts)
        # the 3 z-neighbours of each (x, y) row are one contiguous key range
        for j, (dx, dy) in enumerate((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            x, y = uk[:, 0] + dx, uk[:, 1] + dy
            row = (x * shape[1] + y) * shape[2]
            inside = (x >= 0) & (x < shape[0]) & (y >= 0) & (y < shape[1]) & (z0 <= z1)
            starts[:, j] = np.searchsorted(cell, row + z0)
            ends[:, j] = np.where(inside, np.searchsorted(cell, row + z1, side="right"),
                                  starts[:, j])
        counts = ends - starts
        per_query = counts.sum(axis=1)[cell_of]
        total = np.cumsum(per_query)
        queries = queries[qorder]
        best = np.full(len(queries), np.inf)
        a = 0
        while a < len(queries):
            before = total[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(total, before + _BLOCK_PAIRS, side="right")))
            c = counts[cell_of[a:b]].ravel()
            pos = np.repeat(starts[cell_of[a:b]].ravel() - (np.cumsum(c) - c), c)
            pos += np.arange(len(pos))
            if len(pos):
                q = np.repeat(queries[a:b], per_query[a:b], axis=0)
                p = points[pos]
                d2 = (q[:, 0] - p[:, 0]) ** 2
                d2 += (q[:, 1] - p[:, 1]) ** 2
                d2 += (q[:, 2] - p[:, 2]) ** 2
                hit = per_query[a:b] > 0
                head = (np.cumsum(per_query[a:b]) - per_query[a:b])[hit]
                best[a:b][hit] = np.sqrt(np.minimum.reduceat(d2, head))
            a = b
        out = np.empty_like(best)
        out[qorder] = best
        return out


def nearest_distances(queries, points, radius):
    return GridIndex(points, radius).nearest(queries)


@dataclass
class CloudDistanceReport:
    acc: float       # mean recon -> GT distance, capped
    comp: float      # mean GT -> recon distance, capped
    overall: float
    outlier_cap: float
    acc_used: int    # points within the cap
    comp_used: int


def cloud_distance_metrics(recon, gt, outlier_cap=20.0):
    """Mean nearest-neighbor distances both ways; distances above the cap are
    excluded (the cap also bounds the search)."""
    recon = np.asarray(recon, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if len(recon) == 0 or len(gt) == 0:
        raise ParameterError("cloud metrics need non-empty clouds")
    d_rg, f_rg = nearest_distances(recon, gt, outlier_cap)
    d_gr, f_gr = nearest_distances(gt, recon, outlier_cap)
    acc = float(d_rg[f_rg].mean()) if np.any(f_rg) else 0.0
    comp = float(d_gr[f_gr].mean()) if np.any(f_gr) else 0.0
    return CloudDistanceReport(acc, comp, (acc + comp) / 2.0, outlier_cap,
                               int(f_rg.sum()), int(f_gr.sum()))


@dataclass
class ThresholdReport:
    precision: float
    recall: float
    fscore: float
    tau: float


def threshold_metrics(recon, gt, tau):
    """Percentage-based metrics at distance threshold tau (strict inequality)."""
    if tau <= 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    recon = np.asarray(recon, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if len(recon) == 0 or len(gt) == 0:
        raise ParameterError("threshold metrics need non-empty clouds")
    d_rg, _ = nearest_distances(recon, gt, tau)
    d_gr, _ = nearest_distances(gt, recon, tau)
    precision = 100.0 * float(np.count_nonzero(d_rg < tau)) / len(recon)
    recall = 100.0 * float(np.count_nonzero(d_gr < tau)) / len(gt)
    fscore = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ThresholdReport(precision, recall, fscore, float(tau))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def depth_report_csv(report):
    header = ["ade"] + [f"tde({x})" for x in sorted(report.tde)] + ["valid_pixels"]
    row = [f"{report.ade:.6f}"] + [f"{report.tde[x]:.4f}" for x in sorted(report.tde)]
    row.append(str(report.valid_count))
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def depth_report_text(report):
    cols = ["ade"] + [f"tde({x})" for x in sorted(report.tde)]
    vals = [f"{report.ade:.4f}"] + [f"{report.tde[x]:.2f}" for x in sorted(report.tde)]
    widths = [max(len(c), len(v)) for c, v in zip(cols, vals)]
    line1 = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    line2 = "  ".join(v.rjust(w) for v, w in zip(vals, widths))
    note = "  (no valid pixels)" if report.empty else ""
    return line1 + "\n" + line2 + note + "\n"


def cloud_report_csv(dist_report, thr_report=None):
    header = ["acc", "comp", "overall", "outlier_cap"]
    row = [f"{dist_report.acc:.6f}", f"{dist_report.comp:.6f}",
           f"{dist_report.overall:.6f}", f"{dist_report.outlier_cap:g}"]
    if thr_report is not None:
        header += ["precision", "recall", "fscore", "tau"]
        row += [f"{thr_report.precision:.4f}", f"{thr_report.recall:.4f}",
                f"{thr_report.fscore:.4f}", f"{thr_report.tau:g}"]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def cloud_report_text(dist_report, thr_report=None):
    lines = [
        f"acc     {dist_report.acc:10.6f}",
        f"comp    {dist_report.comp:10.6f}",
        f"overall {dist_report.overall:10.6f}",
    ]
    if thr_report is not None:
        lines += [
            f"precision {thr_report.precision:8.4f}  (tau {thr_report.tau:g})",
            f"recall    {thr_report.recall:8.4f}",
            f"f-score   {thr_report.fscore:8.4f}",
        ]
    return "\n".join(lines) + "\n"
