"""The three benchmark workloads: train, infer and cloud.

Each workload builds its inputs from the seed in `setup`, then `op` runs one
unit of user-visible work (a training call, a scene inferred, a scene fused
and scored) and returns the checks that failed. Quality figures come from a
fixed set of inputs, never from how many ops fit into the measured time, so
they do not change when the program gets faster.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

# acceptance-4 recipe: plane scenes on a 40-degree arc, 3 views, 64x80, batch 2
TRAIN_DATASET = dict(style="plane", range_margin=3.5, span_deg=40.0, radius=3.4,
                     focal_factor=1.7)
TRAIN_SCENES = 4
TRAIN_VIEWS = 3
TRAIN_HW = (64, 80)
TRAIN_BATCH = 2
TRAIN_LR = 4e-3
TRAIN_ITERATIONS = 6
HELD_OUT_VIEW = 1  # the centre view of a 3-view arc

INFER_SCENES = 3   # a pool cycled in order, so every run repeats a scene
INFER_VIEWS = 7
INFER_HW = (128, 160)
INFER_VIEWS_PER_REF = 3

CLOUD_VIEWS = 5
CLOUD_HW = (64, 80)
# The scene is fixed and the seed draws the noise, outliers and confidences:
# the search cost grows with the fused point count, which varies by +-10 %
# between scenes and would swamp the run-to-run spread.
CLOUD_SCENE_SEED = 0
CLOUD_CAP = 20.0          # the eval-cloud default outlier cap
CLOUD_NOISE = 0.002       # relative depth noise of the "predicted" maps
CLOUD_OUTLIERS = 0.03     # share of pixels replaced by a random depth
CLOUD_CHECK_QUERIES = 64

PROB_SUM_TOL = 1e-5       # acceptance-8 bounds
VIEW_WEIGHT_SUM_TOL = 1e-6
DEPTH_RANGE_TOL = 1e-9    # the slack HypothesisSet allows at the range ends
BRUTE_FORCE_TOL = 1e-9


class Workload:
    """A workload: `setup(root, seed)` builds the inputs; `op(index)` runs one
    op and returns (items done, seconds timed, failed checks); `report()`
    gives figures computed after the loop, as name -> (value, unit) or a list
    of per-op seconds reported as its median and tail; `sizes()` gives the
    input sizes for the run manifest."""

    name = ""
    min_ops = 1
    # checks run inside this context; a traced run passes its tracer's pause
    untraced = staticmethod(contextlib.nullcontext)

    def __init__(self, mods):
        self.m = mods


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train(Workload):
    """Training calls on the acceptance-4 recipe, then the held-out centre view.

    Exercises the tape's backward pass, Adam, the loss and checkpoint saves
    with grad recording on. Fusion and cloud scoring are bypassed.
    """

    name = "train"
    min_ops = 2  # the second call checks that training is bit-reproducible

    def sizes(self):
        h, w = TRAIN_HW
        return {"scenes": TRAIN_SCENES, "views_per_scene": TRAIN_VIEWS, "height": h,
                "width": w, "batch": TRAIN_BATCH, "iterations_per_op": TRAIN_ITERATIONS,
                "samples_per_op": TRAIN_BATCH * TRAIN_ITERATIONS,
                "held_out_view": HELD_OUT_VIEW}

    def setup(self, root, seed):
        m = self.m
        self.root = root
        h, w = TRAIN_HW
        m.synth.make_dataset(os.path.join(root, "train"), TRAIN_SCENES, TRAIN_VIEWS, h, w,
                             seed=seed, **TRAIN_DATASET)
        m.synth.make_dataset(os.path.join(root, "held"), 1, TRAIN_VIEWS, h, w,
                             seed=seed + 66, **TRAIN_DATASET)
        self.scenes = m.pipeline.load_dataset(os.path.join(root, "train"))
        self.held = m.pipeline.load_dataset(os.path.join(root, "held"))[0]
        cfg = m.config.PipelineConfig()
        cfg.seed = seed
        cfg.train.views = TRAIN_VIEWS
        cfg.train.max_iterations = TRAIN_ITERATIONS
        cfg.train.epochs = 999
        cfg.train.learning_rate = TRAIN_LR
        cfg.train.batch_size = TRAIN_BATCH
        cfg.train.seed = seed
        self.cfg = cfg.validate()
        self.network = m.pipeline.build_network(cfg)
        self.first = None

    def op(self, index):
        m = self.m
        out_dir = os.path.join(self.root, f"run_{index}")
        start = time.perf_counter()
        trace, ckpt = m.training.train(self.scenes, self.cfg, out_dir)
        seconds = time.perf_counter() - start

        self.network.load_state_dict(m.checkpoint.load_checkpoint(ckpt))
        self.network.eval()
        with m.tensor.no_grad():
            outs = m.pipeline.infer_view(self.network, self.held, HELD_OUT_VIEW,
                                         self.cfg.train.views)
        gt = self.held.gt_depths[HELD_OUT_VIEW]
        ade = m.evaluation.depth_errors(outs[-1].depth, gt, gt > 0).ade
        with open(ckpt, "rb") as fh:
            blob = fh.read()

        totals = np.array([row["total"] for row in trace])
        stages = np.array([[row[f"stage{s}"] for s in range(4)] for row in trace])
        window = TRAIN_ITERATIONS // 2
        failures = []
        if len(trace) != TRAIN_ITERATIONS:
            failures.append(f"train: {len(trace)} iterations, expected {TRAIN_ITERATIONS}")
        if not (np.isfinite(totals).all() and np.isfinite(stages).all()):
            failures.append("train: non-finite loss")
        elif not totals[-window:].mean() < totals[:window].mean():
            failures.append(f"train: final-window loss {totals[-window:].mean():.4f} "
                            f"not below first-window loss {totals[:window].mean():.4f}")
        if not np.isfinite(ade):
            failures.append("train: held-out ade is not finite")
        if self.first is None:
            self.first = {"checkpoint": blob, "loss": float(totals[-window:].mean()),
                          "ade": float(ade)}
        elif blob != self.first["checkpoint"]:
            failures.append("train: repeated training call gave a different checkpoint")
        return TRAIN_BATCH * TRAIN_ITERATIONS, seconds, failures

    def report(self):
        return {"train_loss": (self.first["loss"], "value"),
                "train_heldout_ade": (self.first["ade"], "value")}


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

class Infer(Workload):
    """`pipeline.run_inference` on 7-view 128x160 scenes with seeded untrained weights.

    The forward cost does not depend on weight values. Every reference view
    runs the feature pyramid on itself and its two sources, so 2/3 of the
    pyramid calls repeat an image of the scene: work that can be shared.
    """

    name = "infer"
    min_ops = INFER_SCENES + 1  # one repeat checks byte-identical depth maps

    def sizes(self):
        h, w = INFER_HW
        return {"scenes_in_pool": INFER_SCENES, "views_per_scene": INFER_VIEWS,
                "height": h, "width": w, "views_per_reference": INFER_VIEWS_PER_REF}

    def setup(self, root, seed):
        m = self.m
        self.root = root
        h, w = INFER_HW
        self.datasets = []
        for k in range(INFER_SCENES):
            data = os.path.join(root, f"data_{k}")
            m.synth.make_dataset(data, 1, INFER_VIEWS, h, w, seed=seed * 1000 + k)
            self.datasets.append(data)
        self.scenes = [m.pipeline.load_dataset(d)[0] for d in self.datasets]
        cfg = m.config.PipelineConfig()
        cfg.seed = seed
        cfg.train.views = INFER_VIEWS_PER_REF
        self.cfg = cfg.validate()
        self.network = m.pipeline.build_network(cfg)
        self.first_pass = {}

    def op(self, index):
        m = self.m
        k = index % INFER_SCENES
        out_dir = os.path.join(self.root, f"out_{index}")
        start = time.perf_counter()
        records = m.pipeline.run_inference(self.cfg, self.datasets[k], "", out_dir,
                                           network=self.network, collect=True)
        seconds = time.perf_counter() - start

        failures = []
        scene = self.scenes[k]
        files = []
        for rec in records:
            cam = scene.cameras[rec["view"]]
            for out in rec["outputs"]:
                dev = np.abs(out.prob.data.sum(axis=0) - 1.0).max()
                if not dev <= PROB_SUM_TOL:
                    failures.append(f"infer: view {rec['view']} stage {out.stage} "
                                    f"probability sum off by {dev:.2e}")
                for field in out.view_weights:
                    dev = np.abs(field.data.sum(axis=0) - 1.0).max()
                    if not dev <= VIEW_WEIGHT_SUM_TOL:
                        failures.append(f"infer: view {rec['view']} stage {out.stage} "
                                        f"view-weight sum off by {dev:.2e}")
                inside = ((out.depth >= cam.depth_min - DEPTH_RANGE_TOL)
                          & (out.depth <= cam.depth_max + DEPTH_RANGE_TOL))
                if not inside.all():
                    failures.append(f"infer: view {rec['view']} stage {out.stage} "
                                    "depth outside the depth range")
            for key in ("depth_path", "conf_path"):
                with open(rec[key], "rb") as fh:
                    files.append(fh.read())
        if len(records) != INFER_VIEWS:
            failures.append(f"infer: {len(records)} views written, expected {INFER_VIEWS}")
        if k not in self.first_pass:
            with self.untraced():
                depths = [m.formats.read_pfm(rec["depth_path"]) for rec in records]
            self.first_pass[k] = (files, depths)
        elif files != self.first_pass[k][0]:
            failures.append(f"infer: repeating scene {k} changed the depth or confidence PFMs")
        return len(records), seconds, failures

    def report(self):
        # untrained weights: the error guards the numerics, not the accuracy
        errs = []
        for k, (_, depths) in sorted(self.first_pass.items()):
            for depth, gt in zip(depths, self.scenes[k].gt_depths):
                errs.append(self.m.evaluation.depth_errors(depth, gt, gt > 0).ade)
        return {"infer_ade": (float(np.mean(errs)), "value")}


# ---------------------------------------------------------------------------
# cloud
# ---------------------------------------------------------------------------

class Cloud(Workload):
    """Fuse seeded noisy depth maps and score the cloud, like `fuse` + `eval-cloud`.

    The cap-20 search puts the desk-scale cloud in one grid cell (brute
    force); the tau search near one pixel footprint makes many tiny cells.
    The two load the nearest-neighbour layer in opposite ways.
    """

    name = "cloud"

    def sizes(self):
        h, w = CLOUD_HW
        return {"scenes_in_pool": 1, "views_per_scene": CLOUD_VIEWS, "height": h,
                "width": w, "cap": CLOUD_CAP, "noise": CLOUD_NOISE,
                "outliers": CLOUD_OUTLIERS, "gt_points": int(len(self.gt)),
                "tau": self.tau}

    def setup(self, root, seed):
        m = self.m
        self.root = root
        h, w = CLOUD_HW
        data = os.path.join(root, "data")
        m.synth.make_dataset(data, 1, CLOUD_VIEWS, h, w, seed=CLOUD_SCENE_SEED)
        self.scene = m.pipeline.load_dataset(data)[0]
        rng = np.random.default_rng(seed)
        self.pred_dir = os.path.join(root, "pred")
        os.makedirs(self.pred_dir, exist_ok=True)
        vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        gt_points = []
        for v, (gt, cam) in enumerate(zip(self.scene.gt_depths, self.scene.cameras)):
            valid = gt > 0
            depth = gt * (1.0 + rng.normal(0.0, CLOUD_NOISE, gt.shape))
            wild = rng.random(gt.shape) < CLOUD_OUTLIERS
            depth[wild] = rng.uniform(cam.depth_min, cam.depth_max, int(wild.sum()))
            depth[~valid] = 0.0
            conf = rng.uniform(0.3, 1.0, gt.shape)
            m.formats.write_pfm(os.path.join(self.pred_dir, f"{v:04d}_depth.pfm"), depth)
            m.formats.write_pfm(os.path.join(self.pred_dir, f"{v:04d}_conf.pfm"), conf)
            gt_points.append(m.geometry.backproject(cam, np.stack([us[valid], vs[valid]]),
                                                    gt[valid]).T)
        gt_ply = os.path.join(root, "gt.ply")
        m.formats.write_ply(gt_ply, np.concatenate(gt_points))
        self.gt, _ = m.formats.read_ply(gt_ply)
        gt0 = self.scene.gt_depths[0]
        self.tau = float(gt0[gt0 > 0].mean() / self.scene.cameras[0].K[0, 0])
        self.check_rng_seed = seed
        self.cfg = m.config.FusionSettings()
        self.first = None
        self.fuse_times = []
        self.eval_times = []

    def op(self, index):
        m = self.m
        n = len(self.scene.images)
        start = time.perf_counter()
        depths, confs = [], []
        for v in range(n):
            depths.append(m.formats.read_pfm(
                os.path.join(self.pred_dir, f"{v:04d}_depth.pfm")).astype(np.float64))
            confs.append(m.formats.read_pfm(
                os.path.join(self.pred_dir, f"{v:04d}_conf.pfm")).astype(np.float64))
        cloud = m.fusion.fuse(depths, confs, self.scene.images, self.scene.cameras, self.cfg)
        ply = os.path.join(self.root, f"cloud_{index}.ply")
        m.formats.write_ply(ply, cloud.points, cloud.colors)
        recon, _ = m.formats.read_ply(ply)
        fused = time.perf_counter()
        failures = []
        if len(recon) == 0:
            return 0, fused - start, ["cloud: fused cloud is empty"]
        dist = m.evaluation.cloud_distance_metrics(recon, self.gt, outlier_cap=CLOUD_CAP)
        thr = m.evaluation.threshold_metrics(recon, self.gt, self.tau)
        done = time.perf_counter()
        self.fuse_times.append(fused - start)
        self.eval_times.append(done - fused)

        with open(ply, "rb") as fh:
            blob = fh.read()
        if self.first is None:
            self.first = {"ply": blob, "overall": dist.overall, "fscore": thr.fscore,
                          "points": len(recon)}
            with self.untraced():
                failures += self._brute_force_check(recon)
        elif blob != self.first["ply"]:
            failures.append("cloud: repeating the scene changed the fused PLY")
        return 1, done - start, failures

    def _brute_force_check(self, recon):
        """Grid search against brute force on a seeded subsample, both regimes."""
        rng = np.random.default_rng(self.check_rng_seed)
        failures = []
        for queries, points in ((recon, self.gt), (self.gt, recon)):
            pick = queries[rng.choice(len(queries), min(CLOUD_CHECK_QUERIES, len(queries)),
                                      replace=False)]
            d2 = ((pick[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
            brute = np.sqrt(d2.min(axis=1))
            for radius in (CLOUD_CAP, self.tau):
                dist, found = self.m.evaluation.nearest_distances(pick, points, radius)
                expect = brute <= radius
                if not np.array_equal(found, expect):
                    failures.append(f"cloud: radius {radius:g} search found set differs "
                                    "from brute force")
                elif np.any(np.abs(dist[found] - brute[found]) > BRUTE_FORCE_TOL):
                    failures.append(f"cloud: radius {radius:g} distances differ from "
                                    "brute force by more than 1e-9")
        return failures

    def report(self):
        if self.first is None:  # every op failed before scoring
            return {}
        return {"cloud_overall": (self.first["overall"], "value"),
                "cloud_fscore": (self.first["fscore"], "%"),
                "cloud_points": (self.first["points"], "count"),
                "fuse_scene_s": self.fuse_times,
                "eval_cloud_s": self.eval_times}


WORKLOADS = {w.name: w for w in (Train, Infer, Cloud)}
