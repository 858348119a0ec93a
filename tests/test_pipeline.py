"""Cascade orchestration: inference contracts, guidance ablations, datasets."""

import os

import numpy as np
import pytest

from minimvs import formats, pipeline, synth
from minimvs import tensor as T
from minimvs.config import PipelineConfig
from minimvs.errors import DatasetError


def _dataset(tmp_path, scenes=1, views=3, h=16, w=24, seed=5):
    root = os.path.join(str(tmp_path), f"ds_{scenes}_{views}_{seed}")
    synth.make_dataset(root, scenes, views, h, w, seed=seed, style="plane")
    return root


def _config(views=3):
    cfg = PipelineConfig()
    cfg.train.views = views
    cfg.validate()
    return cfg


class TestDatasetLoading:
    def test_load_scene_shapes(self, tmp_path):
        root = _dataset(tmp_path)
        scenes = pipeline.load_dataset(root)
        assert len(scenes) == 1
        scene = scenes[0]
        assert len(scene.images) == 3
        assert scene.images[0].shape == (3, 16, 24)
        assert scene.gt_depths[0].shape == (16, 24)
        assert len(scene.pairs) == 3

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            pipeline.load_dataset(str(tmp_path))

    def test_select_sources_ranked(self, tmp_path):
        root = _dataset(tmp_path, views=4)
        scene = pipeline.load_dataset(root)[0]
        srcs = pipeline.select_sources(scene.pairs, 0, 3)
        assert len(srcs) == 2
        assert srcs == [s for s, _ in scene.pairs[0][:2]]


class TestForward:
    def test_untrained_outputs_normalized_and_in_range(self, tmp_path):
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        net = pipeline.build_network(_config())
        net.eval()
        with T.no_grad():
            outs = pipeline.infer_view(net, scene, 0, 3)
        assert len(outs) == 4
        cam = scene.cameras[0]
        for out in outs:
            assert np.abs(out.prob.data.sum(axis=0) - 1.0).max() < 1e-5
            assert out.depth.min() >= cam.depth_min - 1e-9
            assert out.depth.max() <= cam.depth_max + 1e-9
            for w in out.view_weights:
                assert np.abs(w.data.sum(axis=0) - 1.0).max() < 1e-6

    def test_single_source_view_runs(self, tmp_path):
        root = _dataset(tmp_path, views=2)
        scene = pipeline.load_dataset(root)[0]
        net = pipeline.build_network(_config(views=2))
        net.eval()
        with T.no_grad():
            outs = pipeline.infer_view(net, scene, 0, 2)
        assert outs[-1].depth.shape == (16, 24)
        cam = scene.cameras[0]
        for out in outs:
            assert np.abs(out.prob.data.sum(axis=0) - 1.0).max() < 1e-5
            assert cam.depth_min - 1e-9 <= out.depth.min()
            assert out.depth.max() <= cam.depth_max + 1e-9
            assert np.abs(out.view_weights[0].data.sum(axis=0) - 1.0).max() < 1e-6

    def test_stage_resolution_ladder(self, tmp_path):
        root = _dataset(tmp_path, h=32, w=40)
        scene = pipeline.load_dataset(root)[0]
        net = pipeline.build_network(_config())
        net.eval()
        with T.no_grad():
            outs = pipeline.infer_view(net, scene, 0, 3)
        assert [o.depth.shape for o in outs] == [(4, 5), (8, 10), (16, 20), (32, 40)]
        assert [o.hypotheses.num_depths for o in outs] == [8, 8, 4, 4]


class TestGuidanceAblation:
    def test_zero_guidance_bit_identical_to_bypass(self, tmp_path):
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        cfg = _config()
        cfg.guidance_coarse = 0
        cfg.guidance_fine = 0
        cfg.validate()
        net = pipeline.build_network(cfg)
        net.eval()
        images, cams = pipeline.view_set(scene, 0, 3)
        with T.no_grad():
            with_guidance = net.forward_views(images, cams, use_guidance=True)
            bypass = net.forward_views(images, cams, use_guidance=False)
        for a, b in zip(with_guidance, bypass):
            assert np.array_equal(a.prob.data, b.prob.data)
            assert np.array_equal(a.depth, b.depth)

    def test_all_channel_counts_run(self, tmp_path):
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        for num in range(5):
            cfg = _config()
            cfg.guidance_coarse = num
            cfg.guidance_fine = num
            cfg.validate()
            net = pipeline.build_network(cfg)
            net.eval()
            with T.no_grad():
                outs = pipeline.infer_view(net, scene, 0, 3)
            assert np.isfinite(outs[-1].depth).all()

    def test_default_guidance_channel_contract(self):
        cfg = _config()
        assert cfg.guidance_coarse == 1 and cfg.guidance_fine == 1
        net = pipeline.build_network(cfg)
        for stage in range(1, 4):
            reg = net.regularizers[stage]
            assert reg.in_channels == cfg.groups[stage] + 2

    def test_zeroed_guidance_matches_bypass_depths(self, tmp_path):
        """Zero guidance convs: extra channels are zero, so a bypass regularizer
        with the matching weight slice produces identical probabilities."""
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        cfg = _config()
        net = pipeline.build_network(cfg)
        net.eval()
        for guide in net.guidance:
            for p in guide.parameters():
                p.data[...] = 0.0
            guide.conv_coarse.bn.gamma.data[...] = 1.0
            guide.conv_fine.bn.gamma.data[...] = 1.0

        cfg0 = _config()
        cfg0.guidance_coarse = 0
        cfg0.guidance_fine = 0
        cfg0.validate()
        bypass = pipeline.build_network(cfg0)
        bypass.eval()
        state = bypass.state_dict()
        donor = net.state_dict()
        for name in state:
            if name.startswith("regularizers") and name.endswith("conv0.conv.weight"):
                g = state[name].shape[1]
                state[name] = donor[name][:, :g]
            elif name in donor and donor[name].shape == state[name].shape:
                state[name] = donor[name]
        bypass.load_state_dict(state)

        images, cams = pipeline.view_set(scene, 0, 3)
        with T.no_grad():
            a = net.forward_views(images, cams)
            b = bypass.forward_views(images, cams)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.depth, ob.depth)
            assert np.abs(oa.prob.data - ob.prob.data).max() < 1e-12


class TestRunInference:
    def test_writes_depth_and_confidence(self, tmp_path):
        root = _dataset(tmp_path)
        out = os.path.join(str(tmp_path), "out")
        records = pipeline.run_inference(_config(), root, "", out)
        assert len(records) == 3
        for rec in records:
            depth = formats.read_pfm(rec["depth_path"])
            conf = formats.read_pfm(rec["conf_path"])
            assert depth.shape == (16, 24)
            assert conf.min() >= 0.0 and conf.max() <= 1.0

    def test_bit_reproducible(self, tmp_path):
        root = _dataset(tmp_path)
        out1 = os.path.join(str(tmp_path), "o1")
        out2 = os.path.join(str(tmp_path), "o2")
        pipeline.run_inference(_config(), root, "", out1)
        pipeline.run_inference(_config(), root, "", out2)
        for scene in sorted(os.listdir(out1)):
            for name in sorted(os.listdir(os.path.join(out1, scene))):
                a = open(os.path.join(out1, scene, name), "rb").read()
                b = open(os.path.join(out2, scene, name), "rb").read()
                assert a == b, name
