"""Ground-truth encoding, cross-entropy objective, and the training loop."""

import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (assert_close, fronto_plane_setup, scatter_input_grad, traced_calls,
                      window_matrix)

from minimvs import synth, pipeline, training
from minimvs.errors import NumericError
from minimvs import tensor as T
from minimvs.checkpoint import load_checkpoint
from minimvs.config import PipelineConfig
from minimvs.geometry import initial_hypotheses
from minimvs.tensor import Parameter, Tensor


class TestEncodeGt:
    def test_exact_hit(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((2, 2), hyp.values[3]), None, hyp)
        assert np.all(enc.indices == 3)
        assert enc.mask.all()

    def test_midway_tie_to_smaller_index(self):
        hyp = initial_hypotheses((1.0, 9.0), 5)  # spacing 2.0: exact ties
        midway = np.full((2, 2), 4.0)
        enc = training.encode_gt(midway, None, hyp)
        assert np.all(enc.indices == 1)

    def test_outside_window_excluded(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((2, 2), 12.0), None, hyp)
        assert enc.count == 0

    def test_invalid_pixels_excluded(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        gt = np.full((2, 2), 5.0)
        valid = np.array([[True, False], [True, True]])
        enc = training.encode_gt(gt, valid, hyp)
        assert enc.count == 3

    def test_index_minimizes_distance_brute_force(self, rng):
        hyp = initial_hypotheses((2.0, 8.0), 8)
        for _ in range(20):
            gt = rng.uniform(2.0, 8.0, (4, 5))
            enc = training.encode_gt(gt, None, hyp)
            for i in range(4):
                for j in range(5):
                    dists = [abs(v - gt[i, j]) for v in hyp.values]
                    assert dists[enc.indices[i, j]] == min(dists)


class TestPixelwiseCe:
    def test_perfect_onehot_is_zero(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        gt = np.full((3, 3), hyp.values[5])
        enc = training.encode_gt(gt, None, hyp)
        p = np.zeros((8, 3, 3))
        p[5] = 1.0
        assert abs(float(training.pixelwise_ce(Tensor(p), enc).data)) < 1e-12

    def test_uniform_is_log_d(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((4, 4), 5.0), None, hyp)
        loss = training.pixelwise_ce(Tensor(np.full((8, 4, 4), 1.0 / 8)), enc)
        assert abs(float(loss.data) - math.log(8.0)) < 1e-12

    def test_single_pixel_half(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((1, 1), hyp.values[2]), None, hyp)
        p = np.full((8, 1, 1), 0.5 / 7.0)
        p[2] = 0.5
        loss = training.pixelwise_ce(Tensor(p), enc)
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_empty_mask_counts_warning(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((2, 2), 50.0), None, hyp)
        loss = training.pixelwise_ce(Tensor(np.full((8, 2, 2), 1.0 / 8)), enc)
        assert float(loss.data) == 0.0

    def test_loss_nonnegative_and_zero_iff_certain(self, rng):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        for _ in range(10):
            gt = rng.uniform(1.0, 9.0, (3, 3))
            enc = training.encode_gt(gt, None, hyp)
            p = rng.uniform(0.01, 1.0, (8, 3, 3))
            p /= p.sum(axis=0, keepdims=True)
            loss = float(training.pixelwise_ce(Tensor(p), enc).data)
            assert loss > 0.0

    def test_gradient_matches_softmax_minus_onehot(self):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        enc = training.encode_gt(np.full((1, 1), hyp.values[4]), None, hyp)
        logits = Parameter(np.random.default_rng(0).standard_normal((8, 1, 1)))
        prob = T.softmax_axis(logits, 0)
        loss = training.pixelwise_ce(prob, enc)
        T.backward(loss)
        soft = T.softmax_axis(Tensor(logits.data), 0).data
        onehot = np.zeros((8, 1, 1))
        onehot[4] = 1.0
        assert np.abs(logits.grad - (soft - onehot)).max() < 1e-9


class TestTotalLoss:
    def test_weighted_sum(self):
        losses = [Tensor(float(v)) for v in (1.0, 2.0, 3.0, 4.0)]
        assert float(training.total_loss(losses, (1, 1, 1, 1)).data) == 10.0
        assert float(training.total_loss(losses, (0, 0, 0, 1)).data) == 4.0
        assert float(training.total_loss(losses, (0, 0, 0, 0)).data) == 0.0


def _tiny_dataset(tmp_path, seed=5, scenes=1):
    data_dir = os.path.join(tmp_path, f"data{seed}")
    synth.make_dataset(data_dir, scenes, 3, 16, 24, seed=seed, style="plane")
    return pipeline.load_dataset(data_dir)


def _tiny_config(iters=3, lr=1e-3):
    cfg = PipelineConfig()
    cfg.train.views = 3
    cfg.train.max_iterations = iters
    cfg.train.epochs = 99
    cfg.train.learning_rate = lr
    cfg.train.batch_size = 1
    cfg.validate()
    return cfg


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self, tmp_path):
        scenes = _tiny_dataset(str(tmp_path))
        cfg = _tiny_config(iters=2, lr=0.0)
        _, ckpt = training.train(scenes, cfg, str(tmp_path / "out"))
        trained = load_checkpoint(ckpt)
        fresh = pipeline.build_network(cfg).state_dict()
        for name, value in fresh.items():
            if "running" in name:
                continue  # batch-norm statistics update regardless of lr
            assert np.array_equal(trained[name], value), name

    def test_same_seed_identical_traces(self, tmp_path):
        scenes = _tiny_dataset(str(tmp_path))
        cfg = _tiny_config(iters=3)
        t1, c1 = training.train(scenes, cfg, str(tmp_path / "o1"))
        t2, c2 = training.train(scenes, cfg, str(tmp_path / "o2"))
        assert t1 == t2
        assert open(c1, "rb").read() == open(c2, "rb").read()

    def test_loss_trace_csv_layout(self, tmp_path):
        scenes = _tiny_dataset(str(tmp_path))
        cfg = _tiny_config(iters=2)
        training.train(scenes, cfg, str(tmp_path / "out"))
        lines = open(tmp_path / "out" / "loss_trace.csv", encoding="utf-8").read().splitlines()
        assert lines[0] == "iteration,stage0,stage1,stage2,stage3,total"
        assert len(lines) == 3

    def test_checkpoint_per_epoch(self, tmp_path):
        scenes = _tiny_dataset(str(tmp_path))
        cfg = _tiny_config(iters=0)
        cfg.train.epochs = 2
        cfg.train.max_iterations = 0
        training.train(scenes, cfg, str(tmp_path / "out"))
        names = sorted(os.listdir(tmp_path / "out"))
        assert "checkpoint_ep000.bin" in names
        assert "checkpoint_ep001.bin" in names
        assert "checkpoint.bin" in names

    def test_nan_loss_aborts_with_diagnostics(self, tmp_path, monkeypatch):
        scenes = _tiny_dataset(str(tmp_path))
        cfg = _tiny_config(iters=3)

        def broken(*args, **kwargs):
            raise NumericError("operator 'conv2d' produced non-finite values")

        monkeypatch.setattr(training, "stage_losses_for_sample", broken)
        with pytest.raises(NumericError, match="iteration 0"):
            training.train(scenes, cfg, str(tmp_path / "out"))


def test_input_gradients_match_scatter_reference(tmp_path, monkeypatch):
    """Every conv input gradient of a training sample, the transposed-conv
    forwards included, agrees with the scatter reference within 1e-12, and
    every direct conv's weight gradient with the window-matrix reference
    `gmat @ cols.T` within 1e-12. A conv with replicated depth padding is
    checked on its edge-padded input, its edge slices' input gradients folded
    onto the end slices."""
    scenes = _tiny_dataset(str(tmp_path))
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.train()
    conv = T._conv
    seen, dw_seen = set(), set()

    def checked(x, params, nsp, op, transposed=False):
        x = T._as_tensor(x)
        y = conv(x, params, nsp, op, transposed)
        w = params.weight.data
        stride = T._per_axis(params.stride, nsp, "stride", 1)
        pad = T._per_axis(params.padding, nsp, "padding", 0)
        edge = params.replicate_depth
        key = (stride, pad, w.shape[2:], edge)
        if transposed:
            bias = 0.0 if params.bias is None else params.bias.data.reshape(-1, *(1,) * nsp)
            assert_close(y.data, scatter_input_grad(x.data, w, y.shape[1:], pad, stride) + bias)
            seen.add(key)
            return y
        fn = y._node.backward_fn
        xe = np.pad(x.data, [(0, 0), (edge, edge)] + [(0, 0)] * (nsp - 1), mode="edge")

        def bwd(g):
            grads = fn(g)
            dx, dw = grads[:2]
            if dx is not None:
                want = scatter_input_grad(g, w, xe.shape[1:], pad, stride)
                if edge:
                    want, ends = want[:, edge:-edge].copy(), want
                    want[:, 0] += ends[:, :edge].sum(axis=1)
                    want[:, -1] += ends[:, -edge:].sum(axis=1)
                assert_close(dx, want)
                seen.add(key)
            if dw is not None:
                cols = window_matrix(xe, w.shape[2:], pad, stride, g.shape[1:])
                assert_close(dw, (g.reshape(len(g), -1) @ cols.T).reshape(w.shape))
                dw_seen.add(key)
            return grads

        y._node.backward_fn = bwd
        return y

    monkeypatch.setattr(T, "_conv", checked)
    scene = scenes[0]
    images, cams = pipeline.view_set(scene, 0, cfg.train.views)
    gt = scene.gt_depths[0]
    losses = training.stage_losses_for_sample(network, images, cams, gt, gt > 0)
    T.backward(training.total_loss(losses, cfg.train.stage_weights))
    decoder = ((1, 2, 2), (0, 1, 1), (1, 3, 3), 0)    # the transposed forward
    assert seen == {
        ((1, 1), (1, 1), (3, 3), 0),                  # 2D stride-1 blocks and heads
        ((1, 1), (0, 0), (1, 1), 0),                  # lateral and gate 1x1 convs
        ((2, 2), (1, 1), (3, 3), 0),                  # strided encoder
        ((1, 1, 1), (0, 1, 1), (3, 3, 3), 1),         # regularizer blocks, depth replicated
        ((1, 2, 2), (0, 1, 1), (3, 3, 3), 1),         # regularizer downsampling
        decoder,
    }
    assert dw_seen == seen - {decoder}


def test_recorded_sample_keeps_no_window_matrices(tmp_path):
    """The tracemalloc peak of one recorded training sample, forward and
    backward, on the 16x24 3-view config: 5.8 MB when the tape holds conv
    inputs (or a rebuild of them) only, 22 MB when every conv kept its
    im2col windows."""
    scenes = _tiny_dataset(str(tmp_path))
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.train()
    images, cams = pipeline.view_set(scenes[0], 0, cfg.train.views)
    gt = scenes[0].gt_depths[0]
    tracemalloc.start()
    try:
        losses = training.stage_losses_for_sample(network, images, cams, gt, gt > 0)
        T.backward(training.total_loss(losses, cfg.train.stage_weights))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6, f"peak {peak / 1e6:.1f} MB"


def test_recorded_sample_keeps_one_array_per_block():
    """The tracemalloc peak of one recorded 64x80 3-view training sample,
    forward and backward: 27.7 MB when the tape keeps one array per
    `ConvBnReLU` block, batch norm's `xhat`, and rebuilds the ReLU's mask and
    output from it, and each conv pads its input and output gradient band by
    band (29.7 MB when it padded them whole, at the stage-3 `prob` conv);
    35.6 MB when the tape also kept the mask and, for the next conv's weight
    gradient or the features' gated `mul`, the output."""
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.train()
    cams, _, renders, _ = fronto_plane_setup(64, 80, 3)
    gt = renders[0][1]
    tracemalloc.start()
    try:
        losses = training.stage_losses_for_sample(network, [r[0] for r in renders], cams,
                                                  gt, renders[0][2])
        T.backward(training.total_loss(losses, cfg.train.stage_weights))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 29e6, f"peak {peak / 1e6:.1f} MB"


def test_inferred_view_working_set():
    """The tracemalloc peak of one `no_grad` 3-view 128x160 `forward_views`
    whose feature pyramids are computed beforehand: 21.7 MB when grid
    sampling runs in tile-sized chunks, each conv pads its input band by
    band, each stage frees its correlation once aggregated, the last stage
    its volumes before its regularizer runs, and the regularizer each
    activation after its last read, its input included; the peak then lies
    in the stage-3 regularizer's last batch norm. 28.9 MB when each 3D conv
    built its padded input in one copy and the last stage's volumes lived
    through its regularizer; about 48 MB when sampling holds every point's
    temporaries at once, depth replication makes a second padded copy and
    the correlation lives through guidance and the regularizer. The stage-3
    correlation peaks at 14.0 MB, or 27.6 MB when each source's warped
    volume and its product with the reference are built whole."""
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.eval()
    cams, _, renders, _ = fronto_plane_setup(128, 160, 3)
    images = [r[0] for r in renders]
    with T.no_grad():
        pyramids = [network.features.forward(image) for image in images]
        tracemalloc.start()
        try:
            network.forward_views(images, cams, pyramids=pyramids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 23e6, f"peak {peak / 1e6:.1f} MB"


def test_no_window_matrix_exceeds_the_tile_budget(monkeypatch):
    """No conv window matrix, nor the column matrix of a strided input
    gradient, is larger than `_TILE_BYTES` unless it holds one band row:
    in one recorded 64x80 3-view training sample, forward and backward, and
    in one `no_grad` 7-view 128x160 forward. 2D and 3D convs both unfold."""
    unfold, scatter = T._unfold, T._scatter
    seen = {"unfold 2D": 0, "unfold 3D": 0, "scatter": 0}
    over = []

    def check(name, cols, rows):
        seen[name] += 1
        if rows.stop - rows.start > 1 and cols.nbytes > T._TILE_BYTES:
            over.append((name, cols.shape))

    def spy_unfold(windows, rows):
        cols = unfold(windows, rows)
        check(f"unfold {windows.ndim - 3}D", cols, rows)  # (C, kh, kw, [span,] H, W)
        return cols

    def spy_scatter(cols, out, kshape, stride, tile):
        check("scatter", cols, tile[-2])
        return scatter(cols, out, kshape, stride, tile)

    monkeypatch.setattr(T, "_unfold", spy_unfold)
    monkeypatch.setattr(T, "_scatter", spy_scatter)
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.train()
    cams, _, renders, _ = fronto_plane_setup(64, 80, 3)
    gt = renders[0][1]
    losses = training.stage_losses_for_sample(network, [r[0] for r in renders], cams,
                                              gt, renders[0][2])
    T.backward(training.total_loss(losses, cfg.train.stage_weights))
    network.eval()
    cams, _, renders, _ = fronto_plane_setup(128, 160, 7)
    with T.no_grad():
        network.forward_views([r[0] for r in renders], cams)
    assert min(seen.values()) > 0, seen
    assert over == []


def _padded_bytes(shape):
    """The bytes of a copy of a conv input of `shape` zero-padded by one at
    either end of each spatial axis, the most any conv here pads (the depth
    edges of a 3D conv count as padding)."""
    return 8 * shape[0] * math.prod(n + 2 for n in shape[1:])


def test_no_conv_pads_a_whole_input(monkeypatch):
    """No conv call holds a zero-padded copy of its whole input: beyond
    what it returns, a forward allocates less than that copy's size, and a
    backward, which may also rebuild its input for the weight gradient, less
    than that copy and the input together. Checked in a `no_grad` 3-view
    128x160 view and a recorded 64x80 3-view sample, forward and backward,
    with the tile budget cut to 64 KiB so that a band's padded rows and
    window matrices are small beside such a copy. Inputs of fewer than 64
    rows or four budgets are left out: one band's are not small beside them.
    When each conv padded its whole input (or output gradient) in one copy,
    24 of the 32 calls checked went over, by up to 2.2 times; with padded
    rows per band the largest takes 0.58 of what it may."""
    monkeypatch.setattr(T, "_TILE_BYTES", 1 << 16)
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.eval()
    cams, _, renders, _ = fronto_plane_setup(128, 160, 3)
    images = [r[0] for r in renders]
    with T.no_grad():
        pyramids = [network.features.forward(image) for image in images]
        with traced_calls() as view:
            network.forward_views(images, cams, pyramids=pyramids)
    network.train()
    cams, _, renders, _ = fronto_plane_setup(64, 80, 3)
    gt = renders[0][1]
    with traced_calls() as sample:
        losses = training.stage_losses_for_sample(network, [r[0] for r in renders], cams,
                                                  gt, renders[0][2])
        T.backward(training.total_loss(losses, cfg.train.stage_weights))
    checked = [c for c in view + sample if c.op.startswith("conv") and c.shape[-2] >= 64
               and 8 * math.prod(c.shape) >= 4 * T._TILE_BYTES]
    assert {c.op for c in checked} == {"conv2d", "conv3d", "conv_transpose3d",
                                       "conv2d backward", "conv3d backward"}
    over = []
    for c in checked:
        allowed = _padded_bytes(c.shape)
        if c.op.endswith("backward"):
            allowed += 8 * math.prod(c.shape)
        if c.peak - c.left >= allowed:
            over.append((c.op, c.shape, round((c.peak - c.left) / allowed, 2)))
    assert over == []


def test_last_regularizer_runs_without_the_stage_volumes(monkeypatch):
    """At the entry of the stage-3 regularizer's `conv1`, in a `no_grad`
    3-view 128x160 view, no one holds the stage's aggregated volume, the
    stage-2 volume its guidance read, or the regularizer's input: a weak
    reference to each array is dead, and the traced live bytes exceed those
    at `conv0`'s entry by `conv0`'s output less the input (5.24 - 3.93 MB)."""
    cfg = _tiny_config()
    network = pipeline.build_network(cfg)
    network.eval()
    cams, _, renders, _ = fronto_plane_setup(128, 160, 3)
    images = [r[0] for r in renders]
    volumes, alive = [], {}
    aggregate = pipeline.aggregate

    def aggregated(corr, weights):
        volume = aggregate(corr, weights)
        volumes.append(weakref.ref(volume.data))
        return volume

    guidance = network.guidance[-1]
    guide = guidance.forward

    def guided(prev, curr):
        volume = guide(prev, curr)
        volumes.append(weakref.ref(volume.data))
        return volume

    conv1 = network.regularizers[-1].conv1
    enter = conv1.forward

    def entered(x):
        alive.update(stage2=volumes[2]() is not None, stage3=volumes[3]() is not None,
                     regularizer_input=volumes[4]() is not None)
        return enter(x)

    monkeypatch.setattr(pipeline, "aggregate", aggregated)
    monkeypatch.setattr(guidance, "forward", guided)
    monkeypatch.setattr(conv1, "forward", entered)
    with T.no_grad():
        pyramids = [network.features.forward(image) for image in images]
        with traced_calls() as calls:
            network.forward_views(images, cams, pyramids=pyramids)
    assert alive == dict(stage2=False, stage3=False, regularizer_input=False)
    conv0, conv1 = (next(c for c in calls if c.op == "conv3d" and c.shape == (n, 4, 128, 160))
                    for n in (6, 8))
    grown = (conv1.live - conv0.live) / 1e6
    assert 1.31 <= grown < 1.31 + 0.2, f"{grown:.2f} MB"
