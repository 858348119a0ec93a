"""End-to-end smoke run behind `minimvs selftest`.

One tiny synthetic scene goes through the whole pipeline: untrained
inference, fusion, a PLY round trip and cloud scoring. Each step logs one
line and checks the contracts the later steps rely on. The first failing
step logs a FAIL line and ends the run; the pytest suite holds the unit
checks.

Untrained depth maps fuse to no points under the default thresholds, so the
fusion step fuses the scene's ground-truth depth maps at confidence 1.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import evaluation, formats, fusion, pipeline, synth
from .config import FusionSettings, PipelineConfig
from .geometry import backproject, pixel_grid

VIEWS = 3
HEIGHT, WIDTH = 32, 40
SEED = 6


def _expect(ok, what):
    # explicit raise, not `assert`: the checks must also run under `python -O`
    if not ok:
        raise AssertionError(what)


def _check_inference(records, scene):
    _expect(len(records) == VIEWS, f"{len(records)} depth maps for {VIEWS} views")
    for rec in records:
        cam = scene.cameras[rec["view"]]
        for out in rec["outputs"]:
            dev = np.abs(out.prob.data.sum(axis=0) - 1.0).max()
            _expect(dev <= 1e-5, f"stage {out.stage} probability sum off by {dev:.1e}")
            for weights in out.view_weights:
                dev = np.abs(weights.data.sum(axis=0) - 1.0).max()
                _expect(dev <= 1e-6, f"stage {out.stage} view weights off by {dev:.1e}")
        depth = formats.read_pfm(rec["depth_path"])
        lo, hi = np.float32(cam.depth_min), np.float32(cam.depth_max)
        _expect(np.all((depth >= lo) & (depth <= hi)),
                f"view {rec['view']} depth outside [{lo}, {hi}]")


def _gt_cloud(scene):
    grid = pixel_grid(*scene.gt_depths[0].shape)
    clouds = []
    for cam, depth in zip(scene.cameras, scene.gt_depths):
        valid = depth > 0
        clouds.append(backproject(cam, grid[:, valid], depth[valid]).T)
    return np.concatenate(clouds)


def run_selftest(log=print):
    """Run the smoke test, logging one line per step; returns the failure count."""
    step = "synth"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data")
            synth.make_dataset(data, 1, VIEWS, HEIGHT, WIDTH, seed=SEED, style="plane")
            scene = pipeline.load_dataset(data)[0]
            log(f"ok   synth: {VIEWS} views at {HEIGHT}x{WIDTH}")

            step = "infer"
            cfg = PipelineConfig()
            cfg.train.views = VIEWS
            cfg.validate()
            records = pipeline.run_inference(cfg, data, "", os.path.join(tmp, "depths"),
                                             collect=True)
            _check_inference(records, scene)
            log(f"ok   infer: {len(records)} untrained depth maps, normalized volumes")

            step = "fuse"
            settings = FusionSettings(min_consistent_views=VIEWS - 1)
            cloud = fusion.fuse(scene.gt_depths, [np.ones_like(d) for d in scene.gt_depths],
                                scene.images, scene.cameras, settings)
            _expect(len(cloud.points) > 0, "fusion kept no points")
            log(f"ok   fuse: {len(cloud.points)} points from ground-truth depth")

            step = "ply"
            ply = os.path.join(tmp, "cloud.ply")
            formats.write_ply(ply, cloud.points, cloud.colors)
            points, colors = formats.read_ply(ply)
            _expect(np.array_equal(points, cloud.points.astype(np.float32)),
                    "PLY positions differ from their float32 values")
            _expect(np.array_equal(colors, np.rint(cloud.colors * 255.0) / 255.0),
                    "PLY colors differ from their 8-bit values")
            log(f"ok   ply: {len(points)} points round-trip")

            step = "eval"
            footprint = float(np.mean([d[d > 0].mean() for d in scene.gt_depths])
                              / scene.cameras[0].K[0, 0])
            gt = _gt_cloud(scene)
            dist = evaluation.cloud_distance_metrics(points, gt, outlier_cap=4 * footprint)
            thr = evaluation.threshold_metrics(points, gt, footprint)
            _expect(dist.acc <= footprint,
                    f"accuracy {dist.acc:.2e} above footprint {footprint:.2e}")
            _expect(thr.precision == 100.0, f"precision {thr.precision:.2f}% at one footprint")
            log(f"ok   eval: accuracy {dist.acc:.2e}, F-score {thr.fscore:.2f} "
                f"at tau {footprint:.2e}")
    except Exception as exc:  # name the step that broke; the run is diagnostic
        log(f"FAIL {step}: {exc!r}")
        return 1
    return 0
