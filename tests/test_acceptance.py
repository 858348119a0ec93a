"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Budgets are asserted alongside the functional checks."""

import os
import time

import numpy as np
from conftest import (fronto_plane_setup, homography, photometric_features, plane_scene,
                      random_calibrated_pair, scene_mean, warp_valid)
from minimvs import cost as C
from minimvs import evaluation, fusion, pipeline, synth, training
from minimvs import gradcheck
from minimvs import tensor as T
from minimvs.checkpoint import load_checkpoint
from minimvs.config import FusionSettings, PipelineConfig
from minimvs.geometry import backproject, initial_hypotheses, project

# criterion-4 training setup: 4 scenes, 64x80, N=3, 200 iterations, fixed seed.
# The held-out depth map is the held-out scene's center reference view: edge
# views of a 3-view arc lack any co-visible source for 12-21% of their pixels,
# a geometric ceiling no matcher can cross.
TRAIN_SEED = 23
TRAIN_DATASET = dict(style="plane", range_margin=3.5, span_deg=40.0, radius=3.4,
                     focal_factor=1.7)
TRAIN_LR = 4e-3
TRAIN_BATCH = 2
HELD_OUT_VIEW = 1


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_01_geometry_oracle(self, rng):
        start = time.perf_counter()
        cam, _ = random_calibrated_pair(rng)
        worst_identity = 0.0
        for d in (0.5, 1.0, 4.2, 50.0):
            worst_identity = max(worst_identity,
                                 np.abs(homography(cam, cam, d) - np.eye(3)).max())
        worst_px = 0.0
        for _ in range(100):
            ref, src = random_calibrated_pair(rng)
            d = rng.uniform(3.0, 20.0)
            h = homography(ref, src, d)
            k0_inv = np.linalg.inv(ref.K)
            pts = np.vstack([rng.uniform(0, 100, 100), rng.uniform(0, 80, 100),
                             np.ones(100)])
            x_ref = d * (k0_inv @ pts)
            world = ref.R.T @ (x_ref - ref.t[:, None])
            x_src = src.R @ world + src.t[:, None]
            oracle = (src.K @ x_src)[:2] / x_src[2]
            hp = h @ pts
            worst_px = max(worst_px, np.abs(hp[:2] / hp[2] - oracle).max())
        elapsed = time.perf_counter() - start
        ok = worst_identity < 1e-12 and worst_px < 1e-9 and elapsed < 1.0
        _report(1, ok, f"identity {worst_identity:.2e}, reprojection {worst_px:.2e} px, "
                       f"{elapsed:.2f}s")

    def test_02_gradient_suite(self):
        start = time.perf_counter()
        results = gradcheck.run_op_checks()
        op_worst = max(err for _, err, _ in results)
        ops_ok = all(ok for _, _, ok in results)

        # full 4-stage pipeline at 16x16: finite differences on 10 random parameters
        cams = synth.arc_cameras(2, 16, 16, radius=3.4, span_deg=18.0,
                                 depth_range=(1.0, 99.0), focal_factor=1.7)
        scene = plane_scene(0.7, extent=10.0, tilt=(0.05, -0.04),
                            texture=synth.Texture(noise_amount=0.6,
                                                  noise_scale=10.0, seed=3))
        renders = [synth.render(scene, cam, 16, 16) for cam in cams]
        depths = np.concatenate([r[1][r[2]] for r in renders])
        from minimvs.geometry import Camera
        cams = [Camera(c.K, c.R, c.t, depths.min() * 0.8, depths.max() * 1.2)
                for c in cams]
        cfg = PipelineConfig()
        cfg.train.views = 2
        cfg.seed = 5
        cfg.validate()
        net = pipeline.build_network(cfg)
        images = [r[0] for r in renders]
        gt = renders[0][1]
        valid = renders[0][2]

        def loss():
            losses = training.stage_losses_for_sample(net, images, cams, gt, valid)
            return training.total_loss(losses, cfg.train.stage_weights)

        params = net.parameters()
        picker = np.random.default_rng(7)
        chosen = picker.choice(len(params), size=10, replace=False)
        worst_pipe = 0.0
        for idx in sorted(chosen):
            worst_pipe = max(
                worst_pipe,
                gradcheck.max_relative_error(loss, [params[idx]], max_entries=1,
                                             rng=picker),
            )
        elapsed = time.perf_counter() - start
        ok = ops_ok and worst_pipe <= 1e-3 and elapsed < 300.0
        _report(2, ok, f"ops worst {op_worst:.2e}, pipeline worst {worst_pipe:.2e}, "
                       f"{elapsed:.0f}s")

    def test_03_correlation_peak(self):
        start = time.perf_counter()
        cams, scene, renders, depth_range = fronto_plane_setup(
            height=64, width=80, n_views=3, span_deg=40.0, depth=4.5,
            spacing=0.95, noise_scale=14.0, seed=1)
        stage_cams = [c.scaled(1.0 / 8.0) for c in cams]
        hyp = initial_hypotheses(depth_range, 8)
        gt0 = renders[0][1][::8, ::8]
        nearest = np.argmin(np.abs(hyp.values[:, None, None] - gt0[None]), axis=0)
        f_ref = photometric_features(renders[0][0], 8, "ref")
        f_src = [photometric_features(renders[i][0], 8, "src") for i in (1, 2)]
        with T.no_grad():
            corr = C.warp_and_correlate(f_ref, f_src, stage_cams[0], stage_cams[1:],
                                        hyp, groups=1)
            volume = C.aggregate(corr, C.view_weights(corr, 2.0))
        best = np.argmax(volume.data[0], axis=0)
        ok_mask = np.ones_like(best, dtype=bool)
        for cam in stage_cams[1:]:
            valid = warp_valid(stage_cams[0], cam, hyp, *f_ref.shape[1:])
            ok_mask &= np.take_along_axis(valid, nearest[None], axis=0)[0]
        frac = float((best[ok_mask] == nearest[ok_mask]).mean())
        elapsed = time.perf_counter() - start
        ok = frac >= 0.95 and elapsed < 30.0
        _report(3, ok, f"peak accuracy {frac:.3f} on {int(ok_mask.sum())} valid px, "
                       f"{elapsed:.1f}s")

    def test_04_end_to_end_learning(self, tmp_path):
        start = time.perf_counter()
        train_dir = str(tmp_path / "train")
        held_dir = str(tmp_path / "held")
        synth.make_dataset(train_dir, 4, 3, 64, 80, seed=TRAIN_SEED, **TRAIN_DATASET)
        synth.make_dataset(held_dir, 1, 3, 64, 80, seed=TRAIN_SEED + 66,
                           **TRAIN_DATASET)
        scenes = pipeline.load_dataset(train_dir)
        cfg = PipelineConfig()
        cfg.train.views = 3
        cfg.train.max_iterations = 200
        cfg.train.epochs = 999
        cfg.train.learning_rate = TRAIN_LR
        cfg.train.batch_size = TRAIN_BATCH
        cfg.train.seed = TRAIN_SEED
        cfg.validate()
        trace, ckpt = training.train(scenes, cfg, str(tmp_path / "out"))
        assert len(trace) == 200
        total = np.array([row["total"] for row in trace])
        # window-20 smoothing: means of consecutive disjoint windows must fall
        blocks = total.reshape(-1, 20).mean(axis=1)
        monotone = bool(np.all(np.diff(blocks) < 0.0))

        held = pipeline.load_dataset(held_dir)[0]
        net = pipeline.build_network(cfg)
        net.load_state_dict(load_checkpoint(ckpt))
        with T.no_grad():
            outs = pipeline.infer_view(net, held, HELD_OUT_VIEW, cfg.train.views)
        gt = held.gt_depths[HELD_OUT_VIEW]
        valid = gt > 0
        spacing = outs[-1].hypotheses.spacing
        err = np.abs(outs[-1].depth - gt)[valid]
        frac = float((err <= 2.0 * spacing).mean())
        elapsed = time.perf_counter() - start
        ok = monotone and frac >= 0.90 and elapsed < 600.0
        _report(4, ok, f"smoothed-monotone {monotone}, held-out |err| <= 2*spacing "
                       f"({2 * spacing:.4f}) for {frac:.3f} of valid pixels, "
                       f"{elapsed / 60:.1f} min")

    def test_05_ablation_plumbing(self, tmp_path):
        start = time.perf_counter()
        root = str(tmp_path / "data")
        synth.make_dataset(root, 1, 3, 32, 40, seed=5, style="plane")
        scene = pipeline.load_dataset(root)[0]
        images, cams = pipeline.view_set(scene, 0, 3)

        for num in (0, 1, 2, 3, 4):
            cfg = PipelineConfig()
            cfg.train.views = 3
            cfg.guidance_coarse = num
            cfg.guidance_fine = num
            cfg.validate()
            net = pipeline.build_network(cfg)
            with T.no_grad():
                outs = net.forward_views(images, cams)
            assert np.isfinite(outs[-1].depth).all(), f"channels {num}"

        cfg0 = PipelineConfig()
        cfg0.train.views = 3
        cfg0.guidance_coarse = 0
        cfg0.guidance_fine = 0
        cfg0.validate()
        net0 = pipeline.build_network(cfg0)
        # zero channels: each stage's regularizer takes the aggregated volume
        # object itself, so the cascade is bit-identical to one without guidance
        volume = T.Tensor(np.ones((4, 4, 2, 2)))
        bit_identical = (
            all(guide.forward(None, volume) is volume for guide in net0.guidance)
            and [reg.in_channels for reg in net0.regularizers] == list(cfg0.groups)
        )
        default_cfg = PipelineConfig()
        default_ok = default_cfg.guidance_coarse == 1 and default_cfg.guidance_fine == 1
        elapsed = time.perf_counter() - start
        ok = bit_identical and default_ok
        _report(5, ok, f"channels 0-4 run, (0,0) bypass bit-identical {bit_identical}, "
                       f"default (1,1), {elapsed:.0f}s")

    def test_06_fusion_oracle(self):
        start = time.perf_counter()
        n_views = 5
        cams0 = synth.arc_cameras(n_views, 64, 80, radius=3.4, span_deg=32.0,
                                  depth_range=(1.0, 99.0), focal_factor=1.5)
        tex = synth.Texture(noise_amount=0.6, noise_scale=10.0, checker_scale=3.0,
                            seed=9)
        scene = synth.Scene([synth.Rectangle(np.array([-6.0, -6.0, 0.5]),
                                             np.array([12.0, 0.0, 0.4]),
                                             np.array([0.0, 12.0, -0.35]), tex)])
        renders = [synth.render(scene, cam, 64, 80) for cam in cams0]
        depths = [r[1] for r in renders]
        images = [r[0] for r in renders]
        all_d = np.concatenate([d[r[2]] for d, r in zip(depths, renders)])
        mid, half = (all_d.min() + all_d.max()) / 2, (all_d.max() - all_d.min()) / 2
        from minimvs.geometry import Camera
        cams = [Camera(c.K, c.R, c.t, mid - 4 * half, mid + 4 * half) for c in cams0]
        confs = [np.ones_like(d) for d in depths]
        cfg = FusionSettings(confidence_threshold=0.5, pixel_threshold=1.0,
                             depth_threshold=0.01, min_consistent_views=3,
                             dynamic=False)
        cloud = fusion.fuse(depths, confs, images, cams, cfg)

        # ground-truth surface samples and their co-visibility
        h, w = depths[0].shape
        vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        pix = np.stack([us.ravel(), vs.ravel()])
        gt_points = []
        covis = []
        for r in range(n_views):
            pts = backproject(cams[r], pix, depths[r].ravel())
            seen = np.zeros(pts.shape[1])
            for s in range(n_views):
                if s == r:
                    continue
                uv, z = project(cams[s], pts)
                inside = (z > 0) & (uv[0] >= 0) & (uv[0] <= w - 1) & \
                         (uv[1] >= 0) & (uv[1] <= h - 1)
                seen += inside
            gt_points.append(pts.T)
            covis.append(seen >= cfg.min_consistent_views)
        gt_all = np.concatenate(gt_points)[np.concatenate(covis)]

        footprint = float(np.mean(all_d)) / cams[0].K[0, 0]
        dist_rg, found_rg = evaluation.nearest_distances(cloud.points, gt_all,
                                                         radius=4 * footprint)
        acc = float(dist_rg[found_rg].mean())
        d_gr, found_gr = evaluation.nearest_distances(gt_all, cloud.points,
                                                      radius=footprint)
        coverage = float(found_gr.mean())

        noisy = list(depths)
        noisy.append(np.random.default_rng(1).uniform(cams[0].depth_min,
                                                      cams[0].depth_max, (h, w)))
        cams_n = cams + [cams[0]]
        imgs_n = images + [images[0]]
        confs_n = confs + [np.ones_like(depths[0])]
        cloud_n = fusion.fuse(noisy, confs_n, imgs_n, cams_n, cfg)
        change = abs(len(cloud_n.points) - len(cloud.points)) / len(cloud.points)

        elapsed = time.perf_counter() - start
        ok = acc <= footprint and coverage >= 0.95 and change < 0.01
        _report(6, ok, f"accuracy {acc:.2e} <= footprint {footprint:.2e}, "
                       f"coverage {coverage:.3f}, noise-view change {change:.4f}, "
                       f"{elapsed:.0f}s")

    def test_07_metric_oracle(self, rng):
        start = time.perf_counter()
        recon = rng.uniform(-1, 1, (100, 3))
        gt = rng.uniform(-1, 1, (100, 3))
        r = evaluation.cloud_distance_metrics(recon, gt, outlier_cap=20.0)
        brute_rg = np.array([np.sqrt(((gt - q) ** 2).sum(axis=1)).min() for q in recon])
        brute_gr = np.array([np.sqrt(((recon - q) ** 2).sum(axis=1)).min() for q in gt])
        brute_ok = (abs(r.acc - brute_rg.mean()) < 1e-9
                    and abs(r.comp - brute_gr.mean()) < 1e-9)

        table1 = evaluation.cloud_distance_metrics(
            np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]),
            np.array([[0.6, 0.0, 0.0], [100.054, 0.0, 0.0],
                      [100.2, 0.0, 0.0], [99.85, 0.0, 0.0]]),
            outlier_cap=20.0)
        arithmetic_ok = (abs(table1.acc - 0.327) < 1e-12
                         and abs(table1.comp - 0.251) < 1e-12
                         and abs(table1.overall - 0.289) < 1e-12)

        mean = scene_mean([81.73, 68.92, 56.59, 66.10, 64.86, 64.41, 62.33, 59.26])
        mean_ok = abs(mean - 65.525) < 1e-9 and abs(mean - 65.53) < 0.0051
        elapsed = time.perf_counter() - start
        ok = brute_ok and arithmetic_ok and mean_ok
        _report(7, ok, f"brute-force equal {brute_ok}, overall 0.289 {arithmetic_ok}, "
                       f"scene mean 65.53 {mean_ok}, {elapsed:.1f}s")

    def test_08_normalization_suite(self, tmp_path):
        start = time.perf_counter()
        root = str(tmp_path / "data")
        synth.make_dataset(root, 1, 3, 32, 40, seed=6, style="plane")
        cfg = PipelineConfig()
        cfg.train.views = 3
        cfg.validate()
        records = pipeline.run_inference(cfg, root, "", str(tmp_path / "out"),
                                         collect=True)
        worst_p = 0.0
        worst_w = 0.0
        for rec in records:
            for out in rec["outputs"]:
                worst_p = max(worst_p, np.abs(out.prob.data.sum(axis=0) - 1.0).max())
                for wfield in out.view_weights:
                    worst_w = max(worst_w,
                                  np.abs(wfield.data.sum(axis=0) - 1.0).max())
        elapsed = time.perf_counter() - start
        ok = worst_p <= 1e-5 and worst_w <= 1e-6
        _report(8, ok, f"probability sum dev {worst_p:.2e} (<=1e-5), "
                       f"view-weight dev {worst_w:.2e} (<=1e-6), {elapsed:.0f}s")

    def test_09_determinism(self, tmp_path):
        start = time.perf_counter()
        root = str(tmp_path / "data")
        synth.make_dataset(root, 1, 3, 16, 24, seed=8, style="plane")
        scenes = pipeline.load_dataset(root)
        cfg = PipelineConfig()
        cfg.train.views = 3
        cfg.train.max_iterations = 6
        cfg.train.epochs = 99
        cfg.validate()
        t1, c1 = training.train(scenes, cfg, str(tmp_path / "t1"))
        t2, c2 = training.train(scenes, cfg, str(tmp_path / "t2"))
        train_ok = (t1 == t2 and open(c1, "rb").read() == open(c2, "rb").read())
        trace_ok = (open(tmp_path / "t1" / "loss_trace.csv", "rb").read()
                    == open(tmp_path / "t2" / "loss_trace.csv", "rb").read())

        pipeline.run_inference(cfg, root, c1, str(tmp_path / "i1"))
        pipeline.run_inference(cfg, root, c1, str(tmp_path / "i2"))
        infer_ok = True
        for scene in sorted(os.listdir(tmp_path / "i1")):
            for name in sorted(os.listdir(tmp_path / "i1" / scene)):
                a = open(tmp_path / "i1" / scene / name, "rb").read()
                b = open(tmp_path / "i2" / scene / name, "rb").read()
                infer_ok &= a == b
        elapsed = time.perf_counter() - start
        ok = train_ok and trace_ok and infer_ok
        _report(9, ok, f"train bit-identical {train_ok}, trace {trace_ok}, "
                       f"infer bit-identical {infer_ok}, {elapsed:.0f}s")
