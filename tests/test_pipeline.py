"""Cascade orchestration: inference contracts, guidance ablations, datasets."""

import hashlib
import os

import numpy as np
import pytest

from minimvs import cost, formats, pipeline, synth
from minimvs import tensor as T
from minimvs.checkpoint import save_checkpoint
from minimvs.config import PipelineConfig
from minimvs.errors import DatasetError
from minimvs.nn import Conv, Module


def _dataset(tmp_path, scenes=1, views=3, h=16, w=24, seed=5):
    root = os.path.join(str(tmp_path), f"ds_{scenes}_{views}_{seed}")
    synth.make_dataset(root, scenes, views, h, w, seed=seed, style="plane")
    return root


def _config(views=3):
    cfg = PipelineConfig()
    cfg.train.views = views
    cfg.validate()
    return cfg


def _modules(module):
    """`module` and every module below it."""
    yield module
    for child in vars(module).values():
        if isinstance(child, Module):
            yield from _modules(child)


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.prob.data, b.prob.data)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.confidence, b.confidence)
        for wa, wb in zip(a.view_weights, b.view_weights, strict=True):
            assert np.array_equal(wa.data, wb.data)


def _block(prefix):
    return [f"{prefix}.conv.weight", f"{prefix}.bn.gamma", f"{prefix}.bn.beta"]


def _regularizer(prefix):
    names = []
    for block in ("conv0", "conv1", "conv2", "conv3", "conv4", "up5", "up6"):
        names += _block(f"{prefix}.{block}")
    return names + [f"{prefix}.prob.weight", f"{prefix}.prob.bias"]


PARAMETER_NAMES = (
    [name for i in range(4) for name in _block(f"features.enc{i}")]
    + [f"features.lateral.{i}.{p}" for i in range(3) for p in ("weight", "bias")]
    + [f"features.gates.{i}.{conv}.{p}" for i in range(3)
       for conv in ("reduce", "restore") for p in ("weight", "bias")]
    + [f"features.heads.{i}.{p}" for i in range(4) for p in ("weight", "bias")]
    + [name for i in range(3) for conv in ("conv_coarse", "conv_fine")
       for name in _block(f"guidance.{i}.{conv}")]
    + [name for i in range(4) for name in _regularizer(f"regularizers.{i}")]
)
# sha256 of the seed-0 default network's checkpoint: numpy's RNG fills every
# tensor, so the bytes are the same on every machine
UNTRAINED_SHA256 = "a1d8d5c9871442a52121b594828f9cd26ea00c1dc8a56513e9e760e58008295f"


class TestCheckpointLayout:
    def test_parameter_and_buffer_names_in_order(self):
        """A checkpoint holds the parameters alone: there are no buffers."""
        net = pipeline.build_network(PipelineConfig())
        assert [name for name, _ in net.named_parameters()] == PARAMETER_NAMES
        assert list(net.state_dict()) == PARAMETER_NAMES

    def test_untrained_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "untrained.bin"
        save_checkpoint(path, pipeline.build_network(PipelineConfig()).state_dict())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == UNTRAINED_SHA256


class TestConvGeometry:
    """`nn.Conv` padding on every kernel, stride and direction the network builds."""

    GEOMETRIES = sorted({
        (conv.weight.shape[2:], conv.params.stride, conv.op == "conv_transpose3d")
        for conv in _modules(pipeline.build_network(PipelineConfig())) if isinstance(conv, Conv)
    })

    def test_the_network_builds_six_geometries(self):
        assert self.GEOMETRIES == [
            ((1, 1), (1, 1), False),             # lateral and gate convs
            ((1, 3, 3), (1, 2, 2), True),        # regularizer decoder
            ((3, 3), (1, 1), False),             # encoder, heads, guidance
            ((3, 3), (2, 2), False),             # strided encoder
            ((3, 3, 3), (1, 1, 1), False),       # regularizer blocks and prob
            ((3, 3, 3), (1, 2, 2), False),       # regularizer downsampling
        ]

    @pytest.mark.parametrize("kernel, stride, transposed", GEOMETRIES)
    def test_output_extent(self, kernel, stride, transposed, rng):
        conv = Conv(2, 3, kernel, stride, transposed, rng=rng)
        extent = (5, 6, 7)[-len(kernel):]
        y = conv.forward(T.Tensor(rng.standard_normal((2, *extent))))
        if transposed:
            assert y.shape[1:] == tuple(n * s for n, s in zip(extent, stride))
        else:
            assert y.shape[1:] == tuple(-(-n // s) for n, s in zip(extent, stride))

    @pytest.mark.parametrize("kernel, stride",
                             [g[:2] for g in GEOMETRIES if len(g[0]) == 3 and not g[2]])
    def test_depth_constant_volume_stays_constant(self, kernel, stride, rng):
        conv = Conv(2, 3, kernel, stride, rng=rng)
        volume = np.repeat(rng.standard_normal((2, 1, 6, 7)), 5, axis=1)
        y = conv.forward(T.Tensor(volume)).data
        assert np.abs(y - y[:, :1]).max() <= 1e-12 * np.abs(y).max()


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

    def test_missing_gt_depth_raises_only_with_gt(self, tmp_path):
        root = _dataset(tmp_path)
        depth = os.path.join(root, "scene_0000", "depths", "0001.pfm")
        os.remove(depth)
        with pytest.raises(DatasetError, match=depth):
            pipeline.load_dataset(root)
        scene = pipeline.load_dataset(root, with_gt=False)[0]
        assert scene.gt_depths == [None, None, None]

    def test_depth_map_of_another_size_raises_only_with_gt(self, tmp_path):
        root = _dataset(tmp_path)
        depth = os.path.join(root, "scene_0000", "depths", "0001.pfm")
        formats.write_pfm(depth, formats.read_pfm(depth)[:8, :16])
        image = os.path.join(root, "scene_0000", "images", "0001.ppm")
        with pytest.raises(DatasetError, match=f"{image}: image is 16x24, its depth map"):
            pipeline.load_dataset(root)
        assert pipeline.load_dataset(root, with_gt=False)[0].images[1].shape == (3, 16, 24)

    def test_view_ids_ranked(self, tmp_path):
        root = _dataset(tmp_path, views=4)
        scene = pipeline.load_dataset(root)[0]
        ids = pipeline.view_ids(scene, 0, 3)
        assert ids == [0] + [s for s, _ in scene.pairs[0][:2]]


class TestForward:
    def test_untrained_outputs_normalized_and_in_range(self, tmp_path):
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        net = pipeline.build_network(_config())
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
        with T.no_grad():
            outs = pipeline.infer_view(net, scene, 0, 3)
        assert [o.depth.shape for o in outs] == [(4, 5), (8, 10), (16, 20), (32, 40)]
        assert [o.hypotheses.num_depths for o in outs] == [8, 8, 4, 4]


class TestNoGradForward:
    def test_matches_the_recorded_forward_bit_for_bit(self, tmp_path):
        """Guards every inference-only shortcut: skipping the tape must not move a bit."""
        root = _dataset(tmp_path, scenes=2, h=32, w=40)
        net = pipeline.build_network(_config())
        for scene in pipeline.load_dataset(root):
            for ref in range(len(scene.images)):
                images, cams = pipeline.view_set(scene, ref, 3)
                recorded = net.forward_views(images, cams)
                assert recorded[-1].prob.requires_grad
                with T.no_grad():
                    fast = net.forward_views(images, cams)
                assert not fast[-1].prob.requires_grad
                _assert_same_bits(fast, recorded)


class TestGuidanceAblation:
    def test_zero_guidance_bit_identical_to_bypass(self, tmp_path, monkeypatch):
        """With zero guidance channels every regularizer receives the aggregated
        volume object itself, exactly as if guidance were not there."""
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        cfg = _config()
        cfg.guidance_coarse = 0
        cfg.guidance_fine = 0
        cfg.validate()
        net = pipeline.build_network(cfg)
        volumes, reg_inputs = [], []

        def aggregate(corr, weights):
            volumes.append(cost.aggregate(corr, weights))
            return volumes[-1]

        def regularize(reg):
            def forward(volume):
                reg_inputs.append(volume)
                return type(reg).forward(reg, volume)
            return forward

        monkeypatch.setattr(pipeline, "aggregate", aggregate)
        for reg in net.regularizers:
            monkeypatch.setattr(reg, "forward", regularize(reg))
        images, cams = pipeline.view_set(scene, 0, 3)
        with T.no_grad():
            outs = net.forward_views(images, cams)
        assert len(outs) == len(volumes) == len(reg_inputs) == 4
        assert all(a is b for a, b in zip(volumes, reg_inputs))

    def test_all_channel_counts_run(self, tmp_path):
        root = _dataset(tmp_path)
        scene = pipeline.load_dataset(root)[0]
        for num in range(5):
            cfg = _config()
            cfg.guidance_coarse = num
            cfg.guidance_fine = num
            cfg.validate()
            net = pipeline.build_network(cfg)
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
    def test_shared_pyramids_match_infer_view(self, tmp_path):
        root = _dataset(tmp_path, views=4)
        cfg = _config()
        net = pipeline.build_network(cfg)
        records = pipeline.run_inference(cfg, root, "", os.path.join(str(tmp_path), "out"),
                                         network=net, collect=True)
        scene = pipeline.load_dataset(root)[0]
        assert [rec["view"] for rec in records] == [0, 1, 2, 3]
        with T.no_grad():
            for rec in records:
                _assert_same_bits(rec["outputs"],
                                  pipeline.infer_view(net, scene, rec["view"], 3))

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
