"""Renderer correctness: analytic depths, occlusion, cross-view consistency,
dataset generation determinism."""

import hashlib
import os

import numpy as np
import pytest

from conftest import make_camera, plane_scene
from minimvs import synth
from minimvs.errors import ParameterError
from minimvs.geometry import read_camera
from minimvs.pipeline import read_pair_file


def _dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(name.encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


class TestRender:
    def test_fronto_plane_exact_depth(self):
        cam = make_camera(fx=60.0, fy=60.0, cx=15.5, cy=11.5, depth_range=(1.0, 9.0))
        scene = plane_scene(4.0, extent=10.0)
        _, depth, valid = synth.render(scene, cam, 24, 32)
        assert valid.all()
        assert np.abs(depth - 4.0).max() < 1e-9

    def test_sphere_depth_closed_form(self):
        cam = make_camera(fx=80.0, fy=80.0, cx=19.5, cy=15.5, depth_range=(1.0, 9.0))
        center = np.array([0.0, 0.0, 5.0])
        radius = 1.2
        scene = synth.Scene([synth.Sphere(center, radius)])
        _, depth, valid = synth.render(scene, cam, 32, 40)
        k_inv = np.linalg.inv(cam.K)
        principal = (19.5, 15.5)
        checked = 0
        for (u, v) in [(19.5, 15.5), (15.0, 12.0), (25.0, 18.0), (19.5, 10.0), (13.0, 15.5)]:
            d = k_inv @ np.array([u, v, 1.0])
            a = d @ d
            b = -2.0 * (d @ center)
            c = center @ center - radius ** 2
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            s = (-b - np.sqrt(disc)) / (2 * a)
            iu, iv = int(round(u)), int(round(v))
            if u == iu and v == iv and valid[iv, iu]:
                assert abs(depth[iv, iu] - s) < 1e-9
                checked += 1
        assert checked >= 2
        # depth minimal at the principal point
        py, px = int(np.floor(principal[1])), int(np.floor(principal[0]))
        region = depth[valid]
        assert depth[py, px] <= region.min() + 1e-6

    def test_occlusion_nearest_hit(self):
        cam = make_camera(fx=60.0, fy=60.0, cx=15.5, cy=11.5, depth_range=(1.0, 9.0))
        near = plane_scene(3.0, extent=10.0).primitives[0]
        far = plane_scene(6.0, extent=10.0).primitives[0]
        scene = synth.Scene([far, near])
        _, depth, valid = synth.render(scene, cam, 24, 32)
        assert valid.all()
        assert np.abs(depth - 3.0).max() < 1e-9

    def test_background_invalid(self):
        cam = make_camera(fx=200.0, fy=200.0, cx=15.5, cy=11.5, depth_range=(1.0, 9.0))
        scene = synth.Scene([synth.Sphere(np.array([0.0, 0.0, 5.0]), 0.3)])
        _, depth, valid = synth.render(scene, cam, 24, 32)
        assert not valid.all()
        assert np.all(depth[~valid] == 0.0)

    def test_resolution_must_divide_by_eight(self):
        cam = make_camera()
        with pytest.raises(ParameterError):
            synth.render(plane_scene(4.0), cam, 30, 40)

    def test_cross_view_consistency_at_gt(self):
        cams = synth.arc_cameras(2, 32, 40, radius=3.5, span_deg=20.0,
                                 depth_range=(1.0, 99.0))
        scene = plane_scene(0.5, extent=12.0, tilt=(0.05, -0.03))
        img0, gt0, valid0 = synth.render(scene, cams[0], 32, 40)
        from minimvs.geometry import backproject, project
        vs, us = np.meshgrid(np.arange(32.0), np.arange(40.0), indexing="ij")
        pix = np.stack([us.ravel(), vs.ravel()])
        world = backproject(cams[0], pix, gt0.ravel())
        uv, z = project(cams[1], world)
        colors, _, valid1 = synth.trace(scene, cams[1], uv)
        both = valid0.ravel() & valid1 & (z > 0)
        diff = np.abs(colors - img0.reshape(3, -1))[:, both]
        assert diff.max() < 1e-6


class TestDataset:
    def test_file_count_contract(self, tmp_path):
        synth.make_dataset(str(tmp_path), 1, 3, 64, 80, seed=4)
        scene = tmp_path / "scene_0000"
        assert len(list((scene / "images").iterdir())) == 3
        assert len(list((scene / "cams").iterdir())) == 3
        assert len(list((scene / "depths").iterdir())) == 3
        assert (scene / "pair.txt").exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth.make_dataset(str(a), 2, 3, 16, 24, seed=9)
        synth.make_dataset(str(b), 2, 3, 16, 24, seed=9)
        assert _dir_digest(a) == _dir_digest(b)
        c = tmp_path / "c"
        synth.make_dataset(str(c), 2, 3, 16, 24, seed=10)
        assert _dir_digest(a) != _dir_digest(c)

    def test_pair_ranking_by_overlap(self, tmp_path):
        synth.make_dataset(str(tmp_path), 1, 5, 16, 24, seed=3)
        pairs = read_pair_file(str(tmp_path / "scene_0000" / "pair.txt"))
        assert len(pairs) == 5
        for ranked in pairs:
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)
            assert len(ranked) == 4

    def test_depth_range_covers_gt(self, tmp_path):
        from minimvs import formats
        synth.make_dataset(str(tmp_path), 1, 3, 16, 24, seed=6)
        scene = tmp_path / "scene_0000"
        cam = read_camera(scene / "cams" / "0000_cam.txt")
        depth = formats.read_pfm(scene / "depths" / "0000.pfm")
        d = depth[depth > 0]
        assert d.min() >= cam.depth_min
        assert d.max() <= cam.depth_max

    def test_gt_matches_renderer_exactly(self, tmp_path):
        """PFM stores float32; the stored depth equals the analytic value at f32."""
        from minimvs import formats
        synth.make_dataset(str(tmp_path), 1, 2, 16, 24, seed=8, style="plane")
        scene_dir = tmp_path / "scene_0000"
        stored = formats.read_pfm(scene_dir / "depths" / "0000.pfm")
        master = np.random.default_rng(8)
        rng = np.random.default_rng(master.integers(0, 2 ** 63))
        scene = synth.random_scene(rng, with_flat_patch=False, style="plane")
        cams = synth.arc_cameras(2, 16, 24, radius=4.0, span_deg=32.0,
                                 focal_factor=1.5)
        _, depth, _ = synth.render(scene, cams[0], 16, 24)
        assert np.array_equal(stored, depth.astype(np.float32))
