"""Photometric/geometric depth filtering and point-cloud fusion."""

import numpy as np
import pytest
from conftest import make_camera
from minimvs import synth
from minimvs.config import FusionSettings
from minimvs.fusion import _sample_depth, fuse, geometric_check, photometric_filter
from minimvs.geometry import Camera


def _plane_rig(n_views=4, height=32, width=40, seed=3, span_deg=30.0, margin=1.1):
    """Arc cameras viewing a textured tilted plane; returns views with GT."""
    cams0 = synth.arc_cameras(n_views, height, width, radius=3.5, span_deg=span_deg,
                              depth_range=(1.0, 99.0), focal_factor=1.5)
    tex = synth.Texture(noise_amount=0.6, noise_scale=10.0, checker_scale=3.0, seed=seed)
    scene = synth.Scene([synth.Rectangle(np.array([-6.0, -6.0, 0.4]),
                                         np.array([12.0, 0.0, 0.5]),
                                         np.array([0.0, 12.0, -0.4]), tex)])
    renders = [synth.render(scene, cam, height, width) for cam in cams0]
    depths = [r[1] for r in renders]
    all_d = np.concatenate([d[r[2]] for d, r in zip(depths, renders)])
    mid = (all_d.min() + all_d.max()) / 2.0
    half = (all_d.max() - all_d.min()) / 2.0
    cams = [Camera(c.K, c.R, c.t, mid - half * margin, mid + half * margin)
            for c in cams0]
    images = [r[0] for r in renders]
    return cams, images, depths, scene


class TestPhotometricFilter:
    def test_zero_threshold_accepts_all(self):
        conf = np.array([[0.0, 0.3], [0.9, 1.0]])
        assert photometric_filter(conf, 0.0).all()

    def test_above_one_rejects_all(self):
        conf = np.array([[0.0, 0.3], [0.9, 1.0]])
        assert not photometric_filter(conf, 1.0 + 1e-9).any()

    def test_half_threshold(self):
        assert np.array_equal(photometric_filter(np.array([[0.3, 0.7]]), 0.5),
                              [[False, True]])


class TestSampleDepth:
    def test_zero_weight_corner_in_a_hole_is_invalid(self):
        """At an integer coordinate the right and lower corners weigh 0; a hole
        there still invalidates the sample."""
        depth = np.full((3, 4), 2.0)
        depth[1, 2] = 0.0
        value, ok = _sample_depth(depth, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert ok.tolist() == [False, True]
        assert value[1] == 2.0


class TestGeometricCheck:
    def test_identical_view_zero_errors(self):
        cam = make_camera(fx=80.0, fy=80.0, cx=19.5, cy=15.5, depth_range=(1.0, 9.0))
        depth = np.full((32, 40), 4.0)
        chk = geometric_check(cam, cam, depth, depth)
        assert chk.valid.all()
        assert chk.err_c.max() < 1e-9
        assert chk.err_d.max() < 1e-9

    def test_gt_depths_consistent(self):
        cams, images, depths, _ = _plane_rig()
        chk = geometric_check(cams[0], cams[1], depths[0], depths[1])
        ok = chk.valid
        assert ok.mean() > 0.5
        frac_good = ((chk.err_c[ok] < 0.5) & (chk.err_d[ok] < 1e-3)).mean()
        assert frac_good >= 0.99

    def test_perturbed_source_depth_detected(self):
        cam_a = make_camera(fx=80.0, fy=80.0, cx=19.5, cy=15.5)
        cam_b = Camera(cam_a.K, cam_a.R, np.array([0.6, 0.0, 0.0]), 1.0, 9.0)
        depth = np.full((32, 40), 4.0)
        chk = geometric_check(cam_a, cam_b, depth, depth * 1.1)
        assert np.all(chk.err_d[chk.valid] > 0.05)

    def test_source_of_another_size(self):
        """The source bounds are the source map's, not the reference map's."""
        ref = make_camera(fx=40.0, fy=40.0, cx=9.5, cy=7.5)
        chk = geometric_check(ref, ref.scaled(2.0), np.full((16, 20), 4.0),
                              np.full((32, 40), 4.0))
        assert chk.valid.all()
        assert chk.err_c.max() < 1e-12

    def test_holes_marked_invalid(self):
        cam = make_camera(fx=80.0, fy=80.0, cx=19.5, cy=15.5)
        depth = np.full((32, 40), 4.0)
        holey = depth.copy()
        holey[10:20, 10:20] = 0.0
        chk = geometric_check(cam, cam, depth, holey)
        assert not chk.valid[12, 12]


class TestFuse:
    def test_gt_depth_fusion_covers_surface(self):
        cams, images, depths, _ = _plane_rig(n_views=4)
        confs = [np.ones_like(d) for d in depths]
        cfg = FusionSettings(confidence_threshold=0.5, pixel_threshold=1.0,
                             depth_threshold=0.01, min_consistent_views=2,
                             dynamic=False)
        cloud = fuse(depths, confs, images, cams, cfg)
        total_valid = sum(int((d > 0).sum()) for d in depths)
        assert 0.5 * total_valid < len(cloud.points) <= total_valid
        assert np.isfinite(cloud.points).all()
        assert cloud.colors.min() >= 0.0 and cloud.colors.max() <= 1.0

    @pytest.mark.parametrize("dynamic", [True, False])
    def test_min_views_above_available_gives_empty(self, dynamic):
        cams, images, depths, _ = _plane_rig(n_views=2)
        confs = [np.ones_like(d) for d in depths]
        cfg = FusionSettings(min_consistent_views=2, dynamic=dynamic)
        cloud = fuse(depths, confs, images, cams, cfg)
        assert len(cloud.points) == 0

    def test_stricter_thresholds_give_subset(self):
        cams, images, depths, _ = _plane_rig(n_views=4)
        rng = np.random.default_rng(0)
        noisy = [d * (1.0 + 0.01 * rng.standard_normal(d.shape)) for d in depths]
        confs = [np.ones_like(d) for d in depths]
        loose = FusionSettings(pixel_threshold=2.0, depth_threshold=0.05,
                               min_consistent_views=2, dynamic=False,
                               average_points=False)
        strict = FusionSettings(pixel_threshold=0.7, depth_threshold=0.01,
                                min_consistent_views=2, dynamic=False,
                                average_points=False)
        cl = fuse(noisy, confs, images, cams, loose)
        cs = fuse(noisy, confs, images, cams, strict)
        loose_keys = {tuple(p) for p in np.round(cl.points, 12)}
        strict_keys = {tuple(p) for p in np.round(cs.points, 12)}
        assert strict_keys <= loose_keys
        assert len(strict_keys) < len(loose_keys)

    def test_noise_view_changes_count_below_one_percent(self):
        cams, images, depths, _ = _plane_rig(n_views=5, margin=4.0)
        rng = np.random.default_rng(1)
        noisy = list(depths)
        noisy[4] = rng.uniform(cams[4].depth_min, cams[4].depth_max,
                               noisy[4].shape)
        confs = [np.ones_like(d) for d in depths]
        cfg = FusionSettings(pixel_threshold=1.0, depth_threshold=0.01,
                             min_consistent_views=3, dynamic=False)
        clean = fuse(depths[:4], confs[:4], images[:4], cams[:4], cfg)
        with_noise = fuse(noisy, confs, images, cams, cfg)
        kept = int((with_noise.view_ids < 4).sum())
        noise_points = int((with_noise.view_ids == 4).sum())
        assert noise_points < 0.01 * len(with_noise.points)
        assert abs(kept - len(clean.points)) < 0.01 * len(clean.points)

    def test_dynamic_mode_relaxes_with_more_views(self):
        cams, images, depths, _ = _plane_rig(n_views=4)
        rng = np.random.default_rng(2)
        noisy = [d * (1.0 + 0.004 * rng.standard_normal(d.shape)) for d in depths]
        confs = [np.ones_like(d) for d in depths]
        static = FusionSettings(pixel_threshold=0.4, depth_threshold=0.004,
                                min_consistent_views=2, dynamic=False)
        dynamic = FusionSettings(pixel_threshold=0.4, depth_threshold=0.004,
                                 min_consistent_views=2, dynamic=True)
        n_static = len(fuse(noisy, confs, images, cams, static).points)
        n_dynamic = len(fuse(noisy, confs, images, cams, dynamic).points)
        assert n_dynamic >= n_static

    def test_confidence_threshold_filters(self):
        cams, images, depths, _ = _plane_rig(n_views=3)
        confs = [np.full_like(d, 0.4) for d in depths]
        cfg = FusionSettings(confidence_threshold=0.5, min_consistent_views=1,
                             dynamic=False)
        cloud = fuse(depths, confs, images, cams, cfg)
        assert len(cloud.points) == 0
