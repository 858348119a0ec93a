"""Camera model, sweep homographies, hypothesis schedules, and warp coordinates."""

import numpy as np
import pytest

from conftest import (fronto_plane_setup, homography, make_camera, plane_homography,
                      plane_scene, random_calibrated_pair, rotation_from_axis_angle)
from minimvs import synth
from minimvs.errors import ParameterError, ParseError
from minimvs.formats import read_camera, write_camera
from minimvs.geometry import (Camera, HypothesisSet, backproject, initial_hypotheses,
                              project, refine_hypotheses, relative_pose, warp_coords)


class TestCameraType:
    def test_rejects_non_rotation(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ParameterError):
            make_camera(R=bad)

    def test_rejects_bad_intrinsics(self):
        with pytest.raises(ParameterError):
            Camera(np.array([[0.0, 0, 10], [0, 5.0, 10], [0, 0, 1]]),
                   np.eye(3), np.zeros(3), 1.0, 2.0)
        with pytest.raises(ParameterError):
            Camera(np.array([[5.0, 0, 10], [1.0, 5.0, 10], [0, 0, 1]]),
                   np.eye(3), np.zeros(3), 1.0, 2.0)

    def test_rejects_bad_depth_range(self):
        with pytest.raises(ParameterError):
            make_camera(depth_range=(2.0, 2.0))
        with pytest.raises(ParameterError):
            make_camera(depth_range=(-1.0, 2.0))

    def test_center_round_trip(self, rng):
        cam, _ = random_calibrated_pair(rng)
        c = cam.center()
        assert np.abs(cam.R @ c + cam.t).max() < 1e-12


class TestHomography:
    def test_identity_for_same_camera(self):
        cam = make_camera()
        for d in (0.3, 1.0, 7.5, 100.0):
            assert np.abs(homography(cam, cam, d) - np.eye(3)).max() < 1e-12

    def test_pure_rotation_depth_independent(self):
        # both translations zero: shared camera center at the origin
        ra = rotation_from_axis_angle((0.1, 0.9, 0.2), 0.3)
        rb = rotation_from_axis_angle((0.7, -0.1, 0.4), -0.25)
        cam_a = make_camera(R=ra, t=(0, 0, 0))
        cam_b = make_camera(R=rb, t=(0, 0, 0))
        h1 = homography(cam_a, cam_b, 1.0)
        h100 = homography(cam_a, cam_b, 100.0)
        assert np.abs(h1 - h100).max() < 1e-12

    def test_pure_rotation_shared_center(self):
        center = np.array([0.4, -0.3, 0.2])
        ra = rotation_from_axis_angle((0.2, 0.8, 0.1), 0.35)
        rb = rotation_from_axis_angle((0.9, 0.1, -0.3), -0.2)
        cam_a = make_camera(R=ra, t=-(ra @ center))
        cam_b = make_camera(R=rb, t=-(rb @ center))
        assert np.abs(homography(cam_a, cam_b, 1.0)
                      - homography(cam_a, cam_b, 100.0)).max() < 1e-12

    def test_project_unproject_oracle(self, rng):
        """Back-project to the sweep plane, transform, project: must match H @ p."""
        worst = 0.0
        for _ in range(100):
            ref, src = random_calibrated_pair(rng)
            d = rng.uniform(3.0, 20.0)
            h = homography(ref, src, d)
            k0_inv = np.linalg.inv(ref.K)
            for _ in range(100):
                p = np.array([rng.uniform(0, 100), rng.uniform(0, 80), 1.0])
                x_ref = d * (k0_inv @ p)
                world = ref.R.T @ (x_ref - ref.t)
                x_src = src.R @ world + src.t
                oracle = (src.K @ x_src)[:2] / x_src[2]
                hp = h @ p
                worst = max(worst, np.abs(hp[:2] / hp[2] - oracle).max())
        assert worst < 1e-9

    def test_nonpositive_depth_rejected(self):
        cam = make_camera()
        with pytest.raises(ParameterError):
            homography(cam, cam, 0.0)

    def test_composition_round_trip(self, rng):
        """ref->src on the sweep plane, then src->ref on the same plane."""
        for _ in range(20):
            ref, src = random_calibrated_pair(rng)
            d = rng.uniform(3.0, 15.0)
            h_fwd = homography(ref, src, d)
            r_rel, t_rel = relative_pose(ref, src)
            n_src = r_rel @ np.array([0.0, 0.0, 1.0])
            d_src = d + n_src @ t_rel
            h_back = plane_homography(src, ref, n_src, d_src)
            comp = h_back @ h_fwd
            comp = comp / comp[2, 2]
            p = np.array([rng.uniform(0, 100), rng.uniform(0, 80), 1.0])
            q = comp @ p
            assert np.abs(q[:2] / q[2] - p[:2]).max() < 1e-9


class TestHypotheses:
    def test_linspace_contract(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        assert abs(hyp.spacing - 8.0 / 7.0) < 1e-15
        assert hyp.values[0] == 1.0 and hyp.values[-1] == 9.0
        assert np.allclose(np.diff(hyp.values), hyp.spacing)

    def test_two_hypotheses_are_endpoints(self):
        hyp = initial_hypotheses((1.0, 9.0), 2)
        assert np.array_equal(hyp.values, [1.0, 9.0])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ParameterError):
            initial_hypotheses((2.0, 2.0 + 0.0), 8)
        with pytest.raises(ParameterError):
            initial_hypotheses((3.0, 2.0), 8)
        with pytest.raises(ParameterError):
            initial_hypotheses((1.0, 9.0), 1)

    def test_refine_symmetric_window(self):
        prev = initial_hypotheses((1.0, 9.0), 8)
        center = np.full((4, 5), 5.0)
        ref = refine_hypotheses(prev, center, 8, (8, 10))
        assert abs(ref.spacing - prev.spacing / 2.0) < 1e-15
        assert np.abs(ref.values.mean(axis=0) - 5.0).max() < 1e-12

    def test_refine_shifts_at_bounds(self):
        prev = initial_hypotheses((1.0, 9.0), 8)
        low = refine_hypotheses(prev, np.full((2, 2), 1.0), 8, (4, 4))
        assert np.abs(low.values[0] - 1.0).max() < 1e-12
        high = refine_hypotheses(prev, np.full((2, 2), 9.0), 8, (4, 4))
        assert np.abs(high.values[-1] - 9.0).max() < 1e-12
        assert np.all(np.diff(low.values, axis=0) > 0)

    def test_spacing_halves_and_stays_in_range(self, rng):
        prev = initial_hypotheses((2.0, 10.0), 8)
        spacing = prev.spacing
        h, w = 4, 5
        center = rng.uniform(2.0, 10.0, (h, w))
        for num in (8, 4, 4):
            nxt = refine_hypotheses(prev, center, num, (2 * h, 2 * w))
            assert nxt.spacing == spacing / 2.0
            assert np.all(np.diff(nxt.values, axis=0) > 0)
            assert nxt.values.min() >= 2.0 - 1e-12
            assert nxt.values.max() <= 10.0 + 1e-12
            spacing = nxt.spacing
            prev = nxt
            h, w = 2 * h, 2 * w
            center = nxt.values.mean(axis=0)

    def test_four_stage_gt_tracking(self):
        """With exact GT centers the stage-3 window contains GT everywhere."""
        cam = make_camera(fx=60.0, fy=60.0, cx=19.5, cy=15.5, depth_range=(3.0, 6.0))
        scene = plane_scene(4.3, extent=12.0, tilt=(0.06, -0.05))
        _, gt, valid = synth.render(scene, cam, 32, 40)
        assert valid.all()
        hyp = initial_hypotheses((3.0, 6.0), 8)
        for stage, num in ((1, 8), (2, 4), (3, 4)):
            f = 2 ** (3 - stage)
            center = gt[::2 * f, ::2 * f]
            hyp = refine_hypotheses(hyp, center, num, gt[::f, ::f].shape)
        vals = hyp.values
        assert np.all(gt >= vals[0] - 1e-9)
        assert np.all(gt <= vals[-1] + 1e-9)

    def test_nonmonotone_values_rejected(self):
        with pytest.raises(ParameterError):
            HypothesisSet(np.array([1.0, 1.0, 2.0]), 0.5)


class TestWarpCoords:
    def test_identity_camera_gives_pixel_grid(self):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        coords = warp_coords(cam, cam, hyp, 6, 7)
        vs, us = np.meshgrid(np.arange(6.0), np.arange(7.0), indexing="ij")
        assert np.abs(coords[0] - us[None]).max() < 1e-9
        assert np.abs(coords[1] - vs[None]).max() < 1e-9

    def test_intrinsic_scaling_invariant(self, rng):
        ref, src = random_calibrated_pair(rng)
        hyp = initial_hypotheses((3.0, 9.0), 8)
        full = warp_coords(ref, src, hyp, 32, 40)
        for stage, f in enumerate((8, 4, 2)):
            ref_s, src_s = ref.scaled(1.0 / f), src.scaled(1.0 / f)
            coarse = warp_coords(ref_s, src_s, hyp, 32 // f, 40 // f)
            assert np.abs(f * coarse - full[:, :, ::f, ::f]).max() < 1e-9

    def test_renderer_color_oracle(self):
        """Warping at the GT-nearest hypothesis lands on the same surface point."""
        cams, scene, renders, depth_range = fronto_plane_setup(depth=4.5, spacing=0.95)
        h, w = renders[0][1].shape
        gt = renders[0][1]
        hyp = HypothesisSet(np.stack([gt, gt + 1e-7]), 1.0, None)
        coords = warp_coords(cams[0], cams[1], hyp, h, w)[:, 0]
        colors, _, valid = synth.trace(scene, cams[1], coords.reshape(2, -1))
        ref_img = renders[0][0].reshape(3, -1)
        diff = np.abs(colors - ref_img)[:, valid]
        assert diff.max() < 1e-6

    def test_wrong_depth_increases_photometric_error(self):
        cams, scene, renders, depth_range = fronto_plane_setup(depth=4.5, spacing=0.95)
        h, w = renders[0][1].shape
        ref_img = renders[0][0].reshape(3, -1)

        def mean_err(d):
            hyp = HypothesisSet(np.array([d, d + 1e-7]), 1.0, None)
            coords = warp_coords(cams[0], cams[1], hyp, h, w)[:, 0]
            colors, _, valid = synth.trace(scene, cams[1], coords.reshape(2, -1))
            return np.abs(colors - ref_img)[:, valid].mean()

        at_depth = mean_err(4.5)
        assert mean_err(3.4) > at_depth * 5
        assert mean_err(5.8) > at_depth * 5


class TestCameraFiles:
    def test_round_trip(self, tmp_path, rng):
        cam, _ = random_calibrated_pair(rng)
        path = tmp_path / "0000_cam.txt"
        write_camera(path, cam)
        back = read_camera(path)
        assert np.array_equal(back.K, cam.K)
        assert np.array_equal(back.R, cam.R)
        assert np.array_equal(back.t, cam.t)
        assert back.depth_min == cam.depth_min and back.depth_max == cam.depth_max

    def test_layout(self, tmp_path):
        cam = make_camera()
        path = tmp_path / "cam.txt"
        write_camera(path, cam)
        lines = [l.strip() for l in open(path, encoding="utf-8")]
        assert lines[0] == "extrinsic"
        assert lines[5] == ""
        assert lines[6] == "intrinsic"
        assert lines[10] == ""
        assert lines[11].split() == ["1", "9"]

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("extrinsic\n1 2 3\n")
        with pytest.raises(ParseError):
            read_camera(path)


class TestProjectBackproject:
    def test_round_trip(self, rng):
        cam, _ = random_calibrated_pair(rng)
        pix = np.stack([rng.uniform(0, 80, 50), rng.uniform(0, 60, 50)])
        depth = rng.uniform(2.0, 20.0, 50)
        world = backproject(cam, pix, depth)
        uv, z = project(cam, world)
        assert np.abs(uv - pix).max() < 1e-9
        assert np.abs(z - depth).max() < 1e-9
