"""Tensor engine: forward semantics against naive reference implementations,
reverse-mode gradients against central finite differences, and the checkpoint
container."""

import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from conftest import (add_at_grid_sample_grad, assert_close, scatter_input_grad,
                      unfused_bn_relu, window_matrix)

from minimvs import gradcheck, nn
from minimvs import tensor as T
from minimvs.checkpoint import load_checkpoint, save_checkpoint
from minimvs.errors import DimensionError, NumericError, ParameterError, ParseError, UsageError
from minimvs.tensor import ConvParams, Parameter, Tensor


# ---------------------------------------------------------------------------
# naive reference implementations (oracles)
# ---------------------------------------------------------------------------

def conv2d_naive(x, w, b, stride, pad):
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[1] + 2 * pad - kh) // stride + 1
    ow = (x.shape[2] + 2 * pad - kw) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[c, i * stride + u, j * stride + v] * w[o, c, u, v]
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def conv3d_naive(x, w, b, stride, pad):
    c_out, c_in, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    od = (x.shape[1] + 2 * pd - kd) // sd + 1
    oh = (x.shape[2] + 2 * ph - kh) // sh + 1
    ow = (x.shape[3] + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, od, oh, ow))
    for o in range(c_out):
        for z in range(od):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(c_in):
                        for q in range(kd):
                            for u in range(kh):
                                for v in range(kw):
                                    acc += (xp[c, z * sd + q, i * sh + u, j * sw + v]
                                            * w[o, c, q, u, v])
                    out[o, z, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def upsample2x_naive(x):
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            sy = i * (h - 1) / (2 * h - 1) if h > 1 else 0.0
            sx = j * (w - 1) / (2 * w - 1) if w > 1 else 0.0
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            ty, tx = sy - y0, sx - x0
            out[:, i, j] = ((1 - ty) * (1 - tx) * x[:, y0, x0]
                            + (1 - ty) * tx * x[:, y0, x1]
                            + ty * (1 - tx) * x[:, y1, x0]
                            + ty * tx * x[:, y1, x1])
    return out


# ---------------------------------------------------------------------------
# convolution semantics
# ---------------------------------------------------------------------------

class TestConv:
    def test_scalar_kernel_doubles(self):
        out = T.conv2d(Tensor(np.ones((1, 3, 3))),
                       ConvParams(Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor([0.0]), 1, 0))
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_hand_convolution_row(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        w = Tensor(np.ones((1, 1, 1, 3)))
        out = T.conv2d(x, ConvParams(w, None, 1, (0, 1)))
        assert np.array_equal(out.data, [[[3.0, 6.0, 5.0]]])

    def test_conv2d_matches_naive_loops(self, rng):
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        for stride, pad in ((1, 0), (1, 1), (2, 1)):
            got = T.conv2d(Tensor(x), ConvParams(Tensor(w), Tensor(b), stride, pad))
            want = conv2d_naive(x, w, b, stride, pad)
            assert np.abs(got.data - want).max() < 1e-12

    def test_conv3d_matches_naive_loops(self, rng):
        x = rng.standard_normal((2, 4, 5, 4))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        b = rng.standard_normal(2)
        for stride, pad in (((1, 1, 1), (1, 1, 1)), ((1, 2, 2), (0, 1, 1))):
            got = T.conv3d(Tensor(x), ConvParams(Tensor(w), Tensor(b), stride, pad))
            want = conv3d_naive(x, w, b, stride, pad)
            assert np.abs(got.data - want).max() < 1e-12

    @pytest.mark.parametrize("kd, stride, pad", [
        (3, 1, (1, 1, 1)),
        (3, 1, (0, 1, 1)),
        (1, 1, (1, 1, 1)),
        (1, 1, (0, 1, 1)),
        (3, (1, 2, 2), (1, 1, 1)),
        (3, (1, 2, 2), (0, 1, 1)),
        (1, (1, 2, 2), (1, 1, 1)),
        (1, (1, 2, 2), (0, 1, 1)),
    ])
    def test_conv3d_depth_slices_match_whole_matrix(self, rng, kd, stride, pad):
        # the forward unfolds one output depth slice at a time; one GEMM over
        # the whole window matrix must agree with it, recorded or not
        x = rng.standard_normal((3, 5, 7, 6))
        w = rng.standard_normal((4, 3, kd, 3, 3))
        b = rng.standard_normal(4)
        s = T._per_axis(stride, 3, "stride", 1)
        small = tuple((n + 2 * p - k) // st + 1
                      for n, p, k, st in zip(x.shape[1:], pad, w.shape[2:], s))
        cols = window_matrix(x, w.shape[2:], pad, s, small)
        want = (w.reshape(4, -1) @ cols).reshape(4, *small) + b.reshape(4, 1, 1, 1)
        params = ConvParams(Parameter(w), Parameter(b), stride, pad)
        recorded = T.conv3d(Tensor(x), params)
        with T.no_grad():
            fast = T.conv3d(Tensor(x), params)
        assert recorded.requires_grad and recorded.shape == want.shape
        for got in (recorded, fast):
            assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()

    def test_conv3d_identity_kernel(self, rng):
        x = rng.standard_normal((1, 3, 4, 5))
        out = T.conv3d(Tensor(x), ConvParams(Tensor(np.ones((1, 1, 1, 1, 1))), None, 1, 0))
        assert np.array_equal(out.data, x)

    def test_conv3d_all_ones_cube(self):
        out = T.conv3d(Tensor(np.ones((1, 2, 2, 2))),
                       ConvParams(Tensor(np.ones((1, 1, 2, 2, 2))), None, 2, 0))
        assert out.shape == (1, 1, 1, 1)
        assert out.data.reshape(()) == 8.0

    def test_transpose_doubles_extents(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))
        w = Tensor(rng.standard_normal((1, 2, 3, 3, 3)))
        out = T.conv_transpose3d(x, ConvParams(w, None, 2, 1, 1))
        assert out.shape == (2, 8, 8, 8)

    def test_transpose_adjoint_of_conv(self, rng):
        # <conv(y), x> == <y, conv_transpose(x)> for the shared weight
        w = rng.standard_normal((2, 3, 3, 3, 3))
        y = rng.standard_normal((3, 4, 6, 6))
        x = rng.standard_normal((2, 4, 3, 3))
        conv_y = T.conv3d(Tensor(y), ConvParams(Tensor(w), None, (1, 2, 2), (1, 1, 1)))
        tx = T.conv_transpose3d(Tensor(x), ConvParams(Tensor(w), None,
                                                      (1, 2, 2), (1, 1, 1), (0, 1, 1)))
        lhs = float((conv_y.data * x).sum())
        rhs = float((y * tx.data).sum())
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("kernel, stride, pad, outpad, y_shape", [
        ((1, 3, 3), (1, 2, 2), (0, 1, 1), (0, 1, 1), (3, 4, 8, 6)),
        ((3, 3, 3), (1, 2, 2), (1, 1, 1), (0, 1, 1), (3, 4, 6, 6)),
        ((3, 3, 3), 2, 1, 1, (3, 6, 4, 8)),
        ((2, 3, 1), (2, 1, 1), 0, 0, (3, 6, 5, 4)),
        ((3, 3, 3), 1, (0, 1, 1), 0, (3, 4, 5, 6)),
        ((2, 3, 1), 1, (2, 1, 1), 0, (3, 4, 5, 6)),
    ], ids=["decoder", "depth3", "stride2", "unpadded", "stride1", "pad_ge_kernel"])
    def test_transpose_is_the_input_gradient_of_conv(self, rng, kernel, stride, pad, outpad,
                                                     y_shape):
        # conv_transpose3d(x, W) is d<conv3d(y, W), x>/dy, bit for bit
        w = Tensor(rng.standard_normal((2, 3, *kernel)))
        y = Tensor(rng.standard_normal(y_shape), requires_grad=True)
        conv_y = T.conv3d(y, ConvParams(w, None, stride, pad))
        x = rng.standard_normal(conv_y.shape)
        T.backward(T.sum_all(T.mul(conv_y, x)))
        tx = T.conv_transpose3d(Tensor(x), ConvParams(w, None, stride, pad, outpad))
        assert tx.shape == y_shape
        assert tx.data.tobytes() == y.grad.tobytes()

    @pytest.mark.parametrize("kernel, stride, pad, x_shape", [
        ((3, 3, 3), (1, 1, 1), (0, 1, 1), (4, 4, 6, 5)),
        ((3, 3, 3), (1, 1, 1), (1, 1, 1), (3, 3, 4, 5)),
        ((1, 1, 1), (1, 1, 1), (0, 0, 0), (5, 2, 3, 4)),
        ((2, 3, 1), (1, 1, 1), (2, 3, 0), (3, 3, 4, 5)),
        ((3, 3, 3), (1, 2, 2), (0, 1, 1), (3, 4, 6, 5)),
    ], ids=["regularizer", "padded", "1x1", "pad_ge_kernel", "strided"])
    def test_input_gradient_matches_scatter_reference(self, rng, kernel, stride, pad, x_shape):
        w = Tensor(rng.standard_normal((2, x_shape[0], *kernel)))
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        y = T.conv3d(x, ConvParams(w, None, stride, pad))
        g = rng.standard_normal(y.shape)
        T.backward(T.sum_all(T.mul(y, g)))
        want = scatter_input_grad(g, w.data, x_shape[1:], pad, stride)
        assert np.abs(x.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("stride, x_shape", [
        (1, (3, 4, 6, 5)),
        ((1, 2, 2), (3, 4, 7, 6)),
        (1, (3, 1, 4, 5)),
    ], ids=["stride1", "strided", "one_slice"])
    def test_replicated_depth_is_edge_pad_then_conv(self, rng, stride, x_shape):
        """A conv with replicated depth padding equals np.pad(mode="edge") along
        depth followed by the zero-padded conv, bit for bit, forward and
        backward; the edge slices' input gradients fold onto the end slices."""
        xd = rng.standard_normal(x_shape)
        wd = rng.standard_normal((2, 3, 3, 3, 3))
        x, w = Parameter(xd), Parameter(wd)
        y = T.conv3d(x, ConvParams(w, None, stride, (0, 1, 1), replicate_depth=1))
        g = rng.standard_normal(y.shape)
        T.backward(T.sum_all(T.mul(y, g)))
        xe = Parameter(np.pad(xd, ((0, 0), (1, 1), (0, 0), (0, 0)), mode="edge"))
        we = Parameter(wd)
        ye = T.conv3d(xe, ConvParams(we, None, stride, (0, 1, 1)))
        T.backward(T.sum_all(T.mul(ye, g)))
        want = xe.grad[:, 1:-1].copy()
        want[:, 0] += xe.grad[:, 0]
        want[:, -1] += xe.grad[:, -1]
        assert y.data.tobytes() == ye.data.tobytes()
        assert w.grad.tobytes() == we.grad.tobytes()
        assert x.grad.tobytes() == want.tobytes()

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        with pytest.raises(DimensionError):
            T.conv2d(x, ConvParams(w, None, 1, 1))


def conv_sequence(seed):
    """Convs whose window matrices grow and then shrink: (op, input, params)."""
    rng = np.random.default_rng(seed)
    calls = []
    for op, c_in, sp, k, stride in ((T.conv2d, 2, (6, 7), (3, 3), 1),
                                    (T.conv3d, 3, (5, 9, 8), (3, 3, 3), 1),
                                    (T.conv3d, 4, (6, 12, 10), (3, 3, 3), (1, 2, 2)),
                                    (T.conv3d, 2, (3, 4, 5), (3, 1, 3), 1),
                                    (T.conv2d, 3, (5, 4), (1, 1), 1)):
        w = Parameter(rng.standard_normal((3, c_in, *k)))
        b = Parameter(rng.standard_normal(3))
        pad = tuple(n // 2 for n in k)
        calls.append((op, Tensor(rng.standard_normal((c_in, *sp))),
                      ConvParams(w, b, stride, pad)))
    return calls


def run_convs(calls):
    return [op(x, params) for op, x, params in calls]


def conv_graph_grads(seed):
    """Leaf gradients of one backward through `conv_sequence(seed)`, every
    input recording, with a transposed conv on the strided conv's output."""
    calls = conv_sequence(seed)
    for _, x, _ in calls:
        x.requires_grad = True
    ys = run_convs(calls)
    wt = Parameter(np.random.default_rng(seed + 100).standard_normal((3, 2, 1, 3, 3)))
    ys.append(T.conv_transpose3d(ys[2], ConvParams(wt, None, (1, 2, 2), (0, 1, 1), (0, 1, 1))))
    loss = T.sum_all(T.mul(ys[0], ys[0]))
    for y in ys[1:]:
        loss = T.add(loss, T.sum_all(T.mul(y, y)))
    T.backward(loss)
    leaves = [t for _, x, params in calls for t in (x, params.weight, params.bias)]
    return [t.grad for t in leaves + [wt]]


def run_threads(worker, seeds):
    """Run `worker(seed)` on one thread per seed under a 1 us switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestScratch:
    """Each conv tile's window matrix belongs to its call and dies with the tile."""

    def test_no_grad_convs_match_recorded_convs(self):
        calls = conv_sequence(1)

        def run_checked():
            # snapshot each result right after its own call
            results = []
            for op, x, params in calls:
                y = op(x, params)
                results.append((y, y.data.copy()))
            return results

        recorded = run_checked()
        with T.no_grad():
            fast = run_checked()
        for (y, snap), (want, want_snap) in zip(fast, recorded):
            assert want.requires_grad and not y.requires_grad
            # bit-identical, and no later call overwrote an earlier result
            assert np.array_equal(y.data, want.data)
            assert np.array_equal(y.data, snap)
            assert np.array_equal(want.data, want_snap)

    def test_concurrent_threads_match_serial(self):
        seeds = range(4)  # four threads, so they interleave even on few cores
        serial = {}
        for seed in seeds:
            with T.no_grad():
                serial[seed] = [y.data for y in run_convs(conv_sequence(seed))]
        results = {}
        start = threading.Barrier(len(seeds), timeout=30)

        def worker(seed):
            calls = conv_sequence(seed)
            start.wait()
            with T.no_grad():
                results[seed] = [y.data for _ in range(10) for y in run_convs(calls)]

        run_threads(worker, seeds)
        for seed in seeds:
            assert len(results[seed]) == 10 * len(serial[seed])
            for got, want in zip(results[seed], serial[seed] * 10):
                assert np.array_equal(got, want)

    def test_concurrent_backward_matches_serial(self):
        # every tile's window matrix belongs to its call: gradient windows, strided
        # column matrices and the transposed conv's windows never cross threads
        seeds = range(4)
        serial = {seed: conv_graph_grads(seed) for seed in seeds}
        results = {}
        start = threading.Barrier(len(seeds), timeout=30)

        def worker(seed):
            start.wait()
            results[seed] = [g for _ in range(5) for g in conv_graph_grads(seed)]

        run_threads(worker, seeds)
        for seed in seeds:
            assert len(results[seed]) == 5 * len(serial[seed])
            for got, want in zip(results[seed], serial[seed] * 5):
                assert got.tobytes() == want.tobytes()


class TestTiles:
    """Convolutions split into many tiles by a budget of a few hundred bytes:
    every tile seam, forward and backward, against the untiled references."""

    @pytest.fixture(params=[256, 4096])
    def tile_counts(self, request, monkeypatch):
        """The tile count of every `_tile_grid` call under a budget of `request.param` bytes."""
        monkeypatch.setattr(T, "_TILE_BYTES", request.param)
        counts = []
        tile_grid = T._tile_grid

        def counted(*args):
            tiles = list(tile_grid(*args))
            counts.append(len(tiles))
            return tiles

        monkeypatch.setattr(T, "_tile_grid", counted)
        return counts

    @pytest.mark.parametrize("op, x_shape, w_shape, stride, pad, edge", [
        (T.conv2d, (2, 7, 6), (3, 2, 3, 3), 1, 1, 0),
        (T.conv3d, (3, 4, 6, 5), (2, 3, 3, 3, 3), 1, (0, 1, 1), 0),
        (T.conv3d, (3, 4, 7, 6), (2, 3, 3, 3, 3), (1, 2, 2), (0, 1, 1), 0),
        (T.conv3d, (5, 3, 7, 6), (4, 5, 1, 1, 1), 1, 0, 0),
        (T.conv3d, (3, 3, 4, 5), (2, 3, 2, 3, 1), 1, (2, 3, 0), 0),
        (T.conv3d, (3, 5, 7, 6), (2, 3, 3, 3, 3), (1, 2, 2), (0, 1, 1), 1),
    ], ids=["2d", "regularizer", "strided", "1x1", "pad_ge_kernel", "replicate_strided"])
    def test_direct_conv_matches_untiled_references(self, rng, tile_counts, op, x_shape,
                                                    w_shape, stride, pad, edge):
        nsp = len(x_shape) - 1
        s = T._per_axis(stride, nsp, "stride", 1)
        p = T._per_axis(pad, nsp, "padding", 0)
        w = Parameter(rng.standard_normal(w_shape))
        b = Parameter(rng.standard_normal(w_shape[0]))
        x = Parameter(rng.standard_normal(x_shape))
        y = op(x, ConvParams(w, b, stride, pad, replicate_depth=edge))
        g = rng.standard_normal(y.shape)
        T.backward(T.sum_all(T.mul(y, g)))
        # the references see the depth-replicated input; its gradient folds onto the end slices
        xe = np.pad(x.data, [(0, 0), (edge, edge)] + [(0, 0)] * (nsp - 1), mode="edge")
        cols = window_matrix(xe, w_shape[2:], p, s, y.shape[1:])
        dxe = scatter_input_grad(g, w.data, xe.shape[1:], p, s)
        dx = dxe[:, edge:edge + x_shape[1]].copy()
        dx[:, 0] += dxe[:, :edge].sum(axis=1)
        dx[:, -1] += dxe[:, edge + x_shape[1]:].sum(axis=1)
        gmat = g.reshape(len(g), -1)
        assert_close(y.data, (w.data.reshape(len(g), -1) @ cols).reshape(y.shape)
                     + b.data.reshape(-1, *(1,) * nsp))
        assert_close(x.grad, dx)
        assert_close(w.grad, (gmat @ cols.T).reshape(w_shape))
        assert max(tile_counts) > 1

    @pytest.mark.parametrize("x_shape, w_shape, stride, pad, outpad", [
        ((3, 4, 4, 3), (3, 2, 1, 3, 3), (1, 2, 2), (0, 1, 1), (0, 1, 1)),
        ((3, 4, 5, 6), (3, 2, 3, 3, 3), 1, (0, 1, 1), 0),
    ], ids=["decoder", "stride1"])
    def test_transposed_conv_matches_untiled_references(self, rng, tile_counts, x_shape,
                                                        w_shape, stride, pad, outpad):
        s = T._per_axis(stride, 3, "stride", 1)
        p = T._per_axis(pad, 3, "padding", 0)
        w = Parameter(rng.standard_normal(w_shape))
        x = Parameter(rng.standard_normal(x_shape))
        y = T.conv_transpose3d(x, ConvParams(w, None, stride, pad, outpad))
        g = rng.standard_normal(y.shape)
        T.backward(T.sum_all(T.mul(y, g)))
        cols = window_matrix(g, w_shape[2:], p, s, x_shape[1:])
        xmat = x.data.reshape(len(x.data), -1)
        assert_close(y.data, scatter_input_grad(x.data, w.data, y.shape[1:], p, s))
        assert_close(x.grad, (w.data.reshape(len(xmat), -1) @ cols).reshape(x_shape))
        assert_close(w.grad, (xmat @ cols.T).reshape(w_shape))
        assert max(tile_counts) > 1

    @pytest.mark.parametrize("k_rows, small, halo, nbytes", [
        (10, (5, 6, 7), 0, 8 * 10 * 6 * 7 * 2),      # two rows of every slice, a third over
        (10, (5, 6, 7), 0, 8 * 10 * 7 * 4),          # one row, over budget
        (10, (5, 6, 7), 0, 8),                       # one row, far over budget
        (3, (9, 4), 0, 8 * 3 * 4 * 2),               # 2D, two rows
        (3, (9, 4), 0, 1 << 20),                     # 2D, the whole grid
        (10, (5, 6, 7), 2, 8 * 10 * 7 * 7 * 2),      # two rows of every slice and the halo
        (10, (5, 6, 7), 2, 8 * 10 * 7 * 7 * 3 - 8),  # two rows, the third just over
        (10, (5, 6, 7), 2, 8 * 10 * 7 * 7 * 6),      # the whole grid in one band
        (10, (5, 6, 7), 2, 8),                       # one row of slices and halo, over budget
    ], ids=["10-small0-6720", "10-small1-2240", "10-small2-8", "3-small3-192",
            "3-small4-1048576", "halo_two_rows", "halo_just_short_of_three", "halo_whole_grid",
            "halo_one_row"])
    def test_tiles_cover_the_grid_in_order(self, monkeypatch, k_rows, small, halo, nbytes):
        monkeypatch.setattr(T, "_TILE_BYTES", nbytes)
        *lead, h, w = small
        row = 8 * k_rows * (int(np.prod(lead)) + halo) * w  # one row of every slice, halo too
        seen = np.zeros(small, dtype=int)
        stop = 0
        for tile in T._tile_grid(k_rows, small, halo):
            # a band: whole output rows of every depth slice, after the band before it
            *depths, rows, cols = tile
            assert depths == [slice(0, n) for n in lead] and cols == slice(0, w)
            assert rows.start == stop < rows.stop
            stop = rows.stop
            seen[tile] += 1
            assert (rows.stop - rows.start) * row <= max(nbytes, row)
            # and takes every row that fits, unless it is the last
            assert rows.stop == h or (rows.stop - rows.start + 1) * row > nbytes
        assert stop == h and (seen == 1).all()

    def test_every_operator_passes_fd(self, tile_counts):
        for name, err, ok in gradcheck.run_op_checks():
            assert ok, f"{name}: max relative error {err}"
        assert max(tile_counts) > 1


# ---------------------------------------------------------------------------
# softmax / elementwise
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax_axis(Tensor([0.0, 0.0]), 0).data, [0.5, 0.5])

    def test_closed_form(self):
        out = T.softmax_axis(Tensor([math.log(1.0), math.log(3.0)]), 0)
        assert np.abs(out.data - [0.25, 0.75]).max() < 1e-12

    def test_overflow_stability(self):
        out = T.softmax_axis(Tensor([1000.0, 1000.0]), 0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_sums_to_one_and_shift_invariant(self, rng):
        for _ in range(20):
            x = rng.standard_normal((5, 4, 3))
            s = T.softmax_axis(Tensor(x), 0)
            assert np.abs(s.data.sum(axis=0) - 1.0).max() < 1e-6
            shifted = T.softmax_axis(Tensor(x + rng.uniform(-5, 5)), 0)
            assert np.abs(s.data - shifted.data).max() < 1e-9


class TestElementwise:
    def test_clamp_min_at_zero_is_relu(self):
        """The ReLU's outputs (+0.0 at and below zero) and gradient mask."""
        x = Parameter([-1.0, -0.0, 0.0, 2.0])
        y = T.clamp_min(x, 0.0)
        assert y.data.tobytes() == np.array([0.0, 0.0, 0.0, 2.0]).tobytes()
        T.backward(T.sum_all(y))
        assert x.grad.tobytes() == np.array([0.0, 0.0, 0.0, 1.0]).tobytes()

    def test_clamp_min_equals_maximum(self, rng):
        x = np.concatenate([rng.standard_normal(50), [0.3, -0.0, 0.0]])
        assert T.clamp_min(Tensor(x), 0.3).data.tobytes() == np.maximum(x, 0.3).tobytes()

    def test_broadcast_shape_contract(self, rng):
        a = Tensor(rng.standard_normal((3, 4, 1)))
        b = Tensor(rng.standard_normal((3, 1, 5)))
        c = Tensor(rng.standard_normal((3, 4, 5)))
        assert T.mul(T.mul(a, b), c).shape == (3, 4, 5)

    def test_broadcast_order_associative(self, rng):
        a = Tensor(rng.standard_normal((3, 4, 1)))
        b = Tensor(rng.standard_normal((3, 1, 5)))
        f = Tensor(rng.standard_normal((3, 4, 5)))
        left = T.mul(T.mul(a, b), f)
        right = T.mul(a, T.mul(b, f))
        assert np.abs(left.data - right.data).max() < 1e-12

    def test_non_broadcastable_raises(self, rng):
        with pytest.raises(DimensionError):
            T.add(Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 4))))

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_finite_values_whose_sum_overflows_pass(self):
        big = Tensor(np.array([1e308, 1e308]))
        assert np.array_equal(T.mul(big, 1.0).data, [1e308, 1e308])

    @pytest.mark.parametrize("bad, make", [
        (np.nan, lambda: T.log(Tensor([1.0, -1.0]))),
        (np.inf, lambda: T.div(Tensor([1.0, 1.0]), Tensor([1.0, 0.0]))),
        (-np.inf, lambda: T.log(Tensor([1.0, 0.0]))),
    ], ids=["nan", "inf", "-inf"])
    def test_every_non_finite_value_raises(self, bad, make):
        with pytest.raises(NumericError, match="tensor holds"):
            Tensor(np.array([1.0, bad, 2.0]))
        with pytest.raises(NumericError, match="produced non-finite"):
            make()

    def test_upsample_matches_naive(self, rng):
        x = np.array([[[0.0, 2.0], [4.0, 6.0]]])
        got = T.upsample_bilinear2x(Tensor(x))
        assert np.abs(got.data - upsample2x_naive(x)).max() < 1e-12
        y = rng.standard_normal((3, 5, 4))
        got = T.upsample_bilinear2x(Tensor(y))
        assert np.abs(got.data - upsample2x_naive(y)).max() < 1e-12


class TestBilinearTaps:
    def test_far_edge_is_inside_and_beyond_it_outside(self):
        for x, y in ((3.0, 0.0), (0.0, 2.0), (3.0, 2.0)):
            _, _, inside = T.bilinear_taps(np.array([x, x + 1e-9, x]),
                                           np.array([y, y, y + 1e-9]), 3, 4)
            assert inside.tolist() == [True, x != 3.0, y != 2.0]

    def test_outside_weights_are_zero_and_indices_in_range(self):
        x = np.array([-1.0, -1e-9, 3.0 + 1e-9, 1.5, 1e9, -1e9, np.nan])
        y = np.array([1.0, 1.0, 1.0, 2.0 + 1e-9, 0.5, 0.5, 0.5])
        idx, wts, inside = T.bilinear_taps(x, y, 3, 4)
        assert not inside.any()
        for i, wt in zip(idx, wts):
            assert np.array_equal(wt, np.zeros(x.size))
            assert ((i >= 0) & (i < 12)).all()

    def test_inside_weights_sum_to_one(self, rng):
        x = np.concatenate([rng.uniform(0.0, 6.0, 200), [0.0, 6.0, 6.0, 2.0]])
        y = np.concatenate([rng.uniform(0.0, 4.0, 200), [0.0, 4.0, 0.0, 3.0]])
        idx, wts, inside = T.bilinear_taps(x, y, 5, 7)
        assert inside.all()
        assert np.abs(sum(wts) - 1.0).max() <= 1e-15
        for i in idx:
            assert ((i >= 0) & (i < 35)).all()


class TestGridSample:
    """Bilinear sampling; under the default budget every call here is one chunk."""

    def test_integer_lattice_identity(self, rng):
        src = rng.standard_normal((2, 4, 5))
        ys, xs = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
        coords = np.stack([xs, ys])
        out = T.grid_sample_bilinear(Tensor(src), coords)
        assert np.array_equal(out.data, src)

    def test_linear_interpolation(self):
        src = Tensor(np.array([[[0.0, 10.0]]]))
        out = T.grid_sample_bilinear(src, np.array([[[0.25]], [[0.0]]]))
        assert abs(out.data.reshape(()) - 2.5) < 1e-12

    def test_out_of_bounds_zero_and_mask(self):
        """The in-image mask is 0 <= x <= W-1, 0 <= y <= H-1; outside it, exact zeros."""
        src = Tensor(np.ones((1, 3, 4)))
        x = np.array([-1.0, -1e-9, 0.0, 3.0, 3.0 + 1e-9, 1.5, 1.5, 1.5, 1.5])
        y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1e-9, 0.0, 2.0, 2.0 + 1e-9])
        out = T.grid_sample_bilinear(src, np.stack([x, y]))
        inside = (x >= 0.0) & (x <= 3.0) & (y >= 0.0) & (y <= 2.0)
        assert np.array_equal(out.data[0], inside.astype(np.float64))

    def test_backward_matches_add_at_reference(self, rng):
        """One bincount per channel equals four np.add.at scatters, byte for byte."""
        shape = (5, 6, 7)
        src = Tensor(rng.standard_normal(shape), requires_grad=True)
        coords = np.stack([rng.uniform(-1.5, 7.5, (4, 9, 11)),
                           rng.uniform(-1.5, 6.5, (4, 9, 11))])
        coords[:, 0, 0, 0] = (6.0, 5.0)  # the far corner, where x1 and y1 clamp
        coords[:, 0, 0, 1] = (3.0, 2.0)  # a pixel centre
        inside = ((coords[0] >= 0.0) & (coords[0] <= 6.0)
                  & (coords[1] >= 0.0) & (coords[1] <= 5.0))
        assert inside.any() and not inside.all()
        g = rng.standard_normal((5, 4, 9, 11))
        T.backward(T.sum_all(T.mul(T.grid_sample_bilinear(src, coords), g)))
        assert src.grad.tobytes() == add_at_grid_sample_grad(shape, coords, g).tobytes()

    def test_output_within_neighbor_bounds(self, rng):
        src = rng.standard_normal((1, 6, 7))
        coords = np.stack([rng.uniform(0, 6, (30,)), rng.uniform(0, 5, (30,))])
        out = T.grid_sample_bilinear(Tensor(src), coords).data[0]
        for k in range(30):
            x, y = coords[0, k], coords[1, k]
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            x1, y1 = min(x0 + 1, 6), min(y0 + 1, 5)
            nb = [src[0, y0, x0], src[0, y0, x1], src[0, y1, x0], src[0, y1, x1]]
            assert min(nb) - 1e-12 <= out[k] <= max(nb) + 1e-12


class TestGridSampleChunks(TestGridSample):
    """Every grid-sample test again with the sample points split into many
    chunks: one point per chunk, and 7 points per 5-channel chunk."""

    @pytest.fixture(autouse=True, params=[8, 8 * 5 * 7])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(T, "_TILE_BYTES", request.param)

    def test_chunks_match_one_chunk(self, rng, monkeypatch):
        """Output and source gradient equal the one-chunk result byte for byte,
        recorded or not, across out-of-range points, pixel centres and the far
        corner."""
        shape = (5, 6, 7)
        data = rng.standard_normal(shape)
        coords = np.stack([rng.uniform(-1.5, 7.5, (4, 9, 11)),
                           rng.uniform(-1.5, 6.5, (4, 9, 11))])
        coords[:, 0, 0, :3] = ((6.0, 3.0, -1.0), (5.0, 2.0, 1.0))
        g = rng.standard_normal((5, 4, 9, 11))

        def run():
            src = Tensor(data, requires_grad=True)
            out = T.grid_sample_bilinear(src, coords)
            T.backward(T.sum_all(T.mul(out, g)))
            with T.no_grad():
                assert T.grid_sample_bilinear(src, coords).data.tobytes() == out.data.tobytes()
            return out.data.tobytes(), src.grad.tobytes()

        assert T._TILE_BYTES // (8 * shape[0]) < coords[0].size // 10
        chunked = run()
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 20)
        assert chunked == run()

    def test_every_operator_passes_fd(self):
        for name, err, ok in gradcheck.run_op_checks():
            assert ok, f"{name}: max relative error {err}"

    @pytest.mark.parametrize("whole_slices", [False, True])
    def test_correlation_chunks_match_one_chunk(self, rng, monkeypatch, whole_slices):
        """The correlation and both gradients equal the one-chunk result byte
        for byte when every depth slice splits into chunks, and when the
        budget holds two whole slices, so that each chunk is one whole slice."""
        c, groups, d, h, w = 6, 3, 3, 5, 7
        if whole_slices:
            monkeypatch.setattr(T, "_TILE_BYTES", 8 * c * 2 * h * w)
        src, ref = rng.standard_normal((c, 6, 8)), rng.standard_normal((c, h, w))
        coords = np.stack([rng.uniform(-1.5, 8.5, (d, h, w)), rng.uniform(-1.5, 6.5, (d, h, w))])
        coords[:, 0, 0, :2] = ((7.0, -1e9), (5.0, -1e9))
        g = rng.standard_normal((groups, d, h, w))

        def run():
            leaves = [Tensor(src, requires_grad=True), Tensor(ref, requires_grad=True)]
            out = T.grid_sample_bilinear(leaves[0], coords, leaves[1], groups)
            T.backward(T.sum_all(T.mul(out, g)))
            with T.no_grad():
                again = T.grid_sample_bilinear(leaves[0], coords, leaves[1], groups)
            assert again.data.tobytes() == out.data.tobytes()
            return out.data.tobytes(), leaves[0].grad.tobytes(), leaves[1].grad.tobytes()

        assert T._TILE_BYTES // (8 * c) < d * h * w
        chunked = run()
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 20)
        assert chunked == run()


def test_correlation_chunk_stays_in_one_depth_slice(rng, monkeypatch):
    """On a map whose depth slices all fit one chunk's budget, each chunk of a
    correlating call, forward and backward, is still the columns of one
    slice, in depth order: `bilinear_taps` sees each slice's points whole."""
    c, groups, d, h, w = 6, 3, 3, 5, 7
    assert d * h * w < T._TILE_BYTES // (8 * c)
    coords = np.stack([rng.uniform(-1.5, 8.5, (d, h, w)), rng.uniform(-1.5, 6.5, (d, h, w))])
    calls = []
    taps = T.bilinear_taps

    def record(x, y, *size):
        calls.append((x.copy(), y.copy()))
        return taps(x, y, *size)

    monkeypatch.setattr(T, "bilinear_taps", record)
    leaves = [Tensor(rng.standard_normal((c, 6, 8)), requires_grad=True),
              Tensor(rng.standard_normal((c, h, w)), requires_grad=True)]
    T.backward(T.sum_all(T.grid_sample_bilinear(leaves[0], coords, leaves[1], groups)))
    per_slice = [(coords[0, j].ravel(), coords[1, j].ravel()) for j in range(d)]
    assert len(calls) == 2 * d  # the forward's chunks, then the backward's
    for (x, y), (xj, yj) in zip(calls, per_slice * 2):
        assert np.array_equal(x, xj) and np.array_equal(y, yj)


class TestGridSampleArguments:
    """Typed errors for shapes and group counts the sampler cannot use."""

    def test_zero_channel_source(self):
        with pytest.raises(DimensionError):
            T.grid_sample_bilinear(np.zeros((0, 3, 4)), np.zeros((2, 5)))

    def test_ref_channels_differ_from_src(self):
        with pytest.raises(DimensionError):
            T.grid_sample_bilinear(np.zeros((4, 3, 4)), np.zeros((2, 2, 3, 4)), np.zeros((2, 3, 4)))

    def test_ref_size_differs_from_coords(self):
        with pytest.raises(DimensionError):
            T.grid_sample_bilinear(np.zeros((4, 3, 4)), np.zeros((2, 2, 3, 4)), np.zeros((4, 3, 5)))

    @pytest.mark.parametrize("shape", [(2, 12), (2, 6, 4), (2, 1, 2, 3, 4), (3, 2, 3, 4)])
    def test_coords_not_per_depth_with_ref(self, shape):
        with pytest.raises(DimensionError):
            T.grid_sample_bilinear(np.zeros((4, 3, 4)), np.zeros(shape), np.zeros((4, 3, 4)))

    @pytest.mark.parametrize("groups", [0, -2, 3])
    def test_groups_must_divide_channels(self, groups):
        with pytest.raises(ParameterError):
            T.grid_sample_bilinear(np.zeros((4, 3, 4)), np.zeros((2, 2, 3, 4)), np.zeros((4, 3, 4)),
                                   groups)

    def test_groups_need_a_reference(self):
        with pytest.raises(ParameterError):
            T.grid_sample_bilinear(np.zeros((4, 3, 4)), np.zeros((2, 5)), groups=2)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def random_instance_check(op_builder, n_instances=20, seed=0, tol=1e-3):
    """Repeat an FD check over freshly seeded random instances."""
    worst = 0.0
    for i in range(n_instances):
        loss_fn, params = op_builder(np.random.default_rng(seed + i))
        worst = max(worst, gradcheck.max_relative_error(loss_fn, params))
    return worst <= tol, worst


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter([1.0, 2.0])
        T.backward(T.sum_all(T.mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_backward_on_detached_raises(self):
        with pytest.raises(UsageError):
            T.backward(Tensor(1.0))

    def test_backward_needs_scalar(self):
        x = Parameter([1.0, 2.0])
        with pytest.raises(UsageError):
            T.backward(T.mul(x, x))

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Parameter([1.0, 3.0])
        loss = T.sum_all(T.mul(x, x))
        T.backward(loss)
        x.grad = None
        with pytest.raises(UsageError, match="already consumed"):
            T.backward(loss)
        y = T.mul(x, x)
        T.backward(T.sum_all(y))
        with pytest.raises(UsageError, match="already consumed"):
            T.backward(T.sum_all(T.mul(y, 2.0)))

    def test_conv_clamp_sum_finite_differences(self, rng):
        x = Parameter(rng.standard_normal((1, 3, 3)))
        w = Parameter(rng.standard_normal((2, 1, 3, 3)))
        b = Parameter(rng.standard_normal(2))

        def loss():
            return T.sum_all(T.clamp_min(T.conv2d(x, ConvParams(w, b, 1, 1)), 0.0))

        err = gradcheck.max_relative_error(loss, [x, w, b])
        assert err <= 1e-3

    def test_no_grad_in_another_thread_keeps_recording_here(self):
        inside = threading.Event()
        release = threading.Event()

        def hold_no_grad():
            with T.no_grad():
                inside.set()
                release.wait(timeout=30)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert inside.wait(timeout=30)
            p = Parameter([1.0, 2.0])
            assert T.mul(p, p).requires_grad
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        with T.no_grad():
            assert not T.mul(p, p).requires_grad
        assert T.mul(p, p).requires_grad

    def test_capped_check_needs_an_rng(self):
        p = Parameter(np.ones(4))
        with pytest.raises(UsageError, match="rng"):
            gradcheck.max_relative_error(lambda: T.sum_all(p), [p], max_entries=2)

    def test_every_operator_passes_fd(self):
        for name, err, ok in gradcheck.run_op_checks():
            assert ok, f"{name}: max relative error {err}"

    def test_every_operator_on_twenty_random_instances(self):
        """Each operator is FD-checked on 20 freshly seeded instances."""
        worst = {}
        for i in range(20):
            for name, err, ok in gradcheck.run_op_checks(seed=100 + i, max_entries=10):
                worst[name] = max(worst.get(name, 0.0), err)
                assert ok, f"{name} (instance {i}): relative error {err}"
        assert max(worst.values()) <= 1e-3

    def test_each_case_reads_the_same_alone(self):
        """A case's error does not depend on which other cases run."""
        full = gradcheck.run_op_checks(max_entries=10)
        for name, err, _ in full:
            assert gradcheck.run_op_checks([name], max_entries=10)[0][1] == err, name
        assert {"reshape", "sum_all"} <= {name for name, _, _ in full}

    def test_cases_do_not_depend_on_the_hash_seed(self):
        code = ("from minimvs import gradcheck; "
                "print(gradcheck.run_op_checks(['add', 'conv3d'], max_entries=4))")
        src = os.path.dirname(os.path.dirname(gradcheck.__file__))
        listed = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, env=dict(os.environ, PYTHONPATH=src,
                                                      PYTHONHASHSEED=seed)).stdout
                  for seed in ("1", "2")}
        assert len(listed) == 1

    def test_composite_graph_on_twenty_random_instances(self):
        def build(seed_rng):
            x = Parameter(seed_rng.standard_normal((2, 4, 4)))
            w = Parameter(seed_rng.standard_normal((2, 2, 3, 3)))
            const = Tensor(seed_rng.standard_normal((2, 4, 4)))

            def loss():
                conv = T.conv2d(x, ConvParams(w, None, 1, 1))
                gated = T.mul(T.sigmoid(conv), const)
                return T.sum_all(T.mul(T.softmax_axis(gated, 0), const))

            return loss, [x, w]

        ok, worst = random_instance_check(build, n_instances=20)
        assert ok, f"worst relative error {worst}"

    def test_interior_grads_freed_after_backward(self):
        x = Parameter([1.0, 3.0])
        y = T.mul(x, x)
        loss = T.sum_all(y)
        T.backward(loss)
        assert y.grad is None and y._node.grad is None and y._node.parents == ()
        assert x.grad is not None

    def test_closure_released_before_parents_backward(self):
        x = Parameter(np.ones((2, 5, 5)))
        seen = {}

        def probe_bwd(g):
            seen["closure"] = closure_ref()
            return (g,)

        mid = T._result(x.data * 2.0, (x,), probe_bwd, "probe")
        y = T.conv2d(mid, ConvParams(Tensor(np.ones((3, 2, 3, 3))), None, 1, 1))
        closure_ref = weakref.ref(y._node.backward_fn)
        T.backward(T.sum_all(y))
        # the conv's closure died before mid's backward ran
        assert seen["closure"] is None
        assert y._node.backward_fn is None and y._node.parents == () and y._node.grad is None

    def test_outputs_no_backward_reads_are_freed_before_backward(self, rng, monkeypatch):
        # batch norm's backward reads its own xhat, not the conv output, and
        # a backward that reads a block's ReLU output (the next block's
        # weight gradient, the other factor of a mul) rebuilds it from xhat
        def root(array):
            while array.base is not None:
                array = array.base
            return array

        freed = []

        def watched(op):
            def call(*args):
                out = op(*args)
                freed.append(weakref.ref(root(out.data)))
                return out
            return call

        monkeypatch.setattr(T, "conv2d", watched(T.conv2d))
        x = Parameter(rng.standard_normal((2, 6, 7)))
        y = nn.ConvBnReLU(2, 3, (3, 3), rng=rng).forward(x)
        z = nn.ConvBnReLU(3, 3, (3, 3), rng=rng).forward(y)
        freed += [weakref.ref(root(y.data)), weakref.ref(root(z.data))]
        loss = T.sum_all(T.mul(z, y))
        del y, z
        assert [ref() for ref in freed] == [None] * 4
        T.backward(loss)
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    @pytest.mark.parametrize("op, x_shape, w_shape, stride, pad", [
        (T.conv2d, (2, 6, 7), (3, 2, 3, 3), 1, 1),
        (T.conv2d, (2, 9, 8), (3, 2, 3, 3), 2, 1),
        (T.conv3d, (3, 5, 9, 8), (4, 3, 3, 3, 3), 1, (0, 1, 1)),
        (T.conv3d, (4, 6, 12, 10), (3, 4, 3, 3, 3), (1, 2, 2), (0, 1, 1)),
    ], ids=["2d", "2d_strided", "3d", "3d_strided"])
    def test_closure_holds_no_window_matrix(self, rng, op, x_shape, w_shape, stride, pad):
        # the tape keeps a conv's input and weight, nothing the size of its windows
        x = Parameter(rng.standard_normal(x_shape))
        w = Parameter(rng.standard_normal(w_shape))
        y = op(x, ConvParams(w, Parameter(np.zeros(w_shape[0])), stride, pad))
        arrays = []
        for cell in y._node.backward_fn.__closure__:
            try:
                value = cell.cell_contents
            except ValueError:  # a name this kind of conv never binds
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        largest = max(a.size for a in arrays)
        assert largest <= max(x.size, w.size), f"a {largest}-element array"

    def test_determinism_bit_identical(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((4, 2, 3, 3))
        runs = []
        for _ in range(2):
            xp = Parameter(x.copy())
            out = T.conv2d(xp, ConvParams(Tensor(w.copy()), None, 1, 1))
            loss = T.sum_all(T.mul(out, out))
            T.backward(loss)
            runs.append((out.data.copy(), xp.grad.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


# ---------------------------------------------------------------------------
# batch norm semantics
# ---------------------------------------------------------------------------

class TestBatchNorm:
    def test_train_mode_normalizes(self, rng):
        # beta 10 keeps every normalized value above the ReLU's kink
        x = rng.standard_normal((2, 16, 16)) * 3.0 + 5.0
        out, _, _ = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.full(2, 10.0)))
        normalized = out.data - 10.0
        assert np.abs(normalized.mean(axis=(1, 2))).max() < 1e-12
        assert np.abs(normalized.var(axis=(1, 2)) - 1.0).max() < 1e-3

    def test_infer_mode_uses_running(self, rng):
        x = rng.standard_normal((2, 4, 4))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out, _, _ = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv)
        want = np.maximum((x - rm[:, None, None]) / np.sqrt(rv + T.BN_EPS)[:, None, None], 0.0)
        assert np.abs(out.data - want).max() < 1e-12

    @pytest.mark.parametrize("spatial", [(5, 6), (3, 4, 5)], ids=["2d", "3d"])
    @pytest.mark.parametrize("given", [False, True], ids=["batch_stats", "given_stats"])
    def test_matches_batch_norm_then_relu(self, rng, spatial, given):
        """Forward, dx, dgamma and dbeta equal batch norm followed by its own
        ReLU op byte for byte, recorded and under no_grad, with consumers
        that read the output in their backward: the next conv's weight
        gradient and both factors of a mul."""
        n = math.prod(spatial)
        ints = rng.integers(-3, 4, (2, n // 2)).astype(np.float64)
        ints[:, 0] = 0.0
        x = rng.standard_normal((3, n))
        # channels 0 and 2: integers symmetric about 0, so their mean is
        # exactly 0.0 and x == 0 gives xhat == 0.0; with beta -0.0, a positive
        # gamma makes that pre-activation 0.0 and a negative one -0.0
        x[0::2, :n // 2 * 2] = np.concatenate([ints, -ints], axis=1)
        x[0::2, n // 2 * 2:] = 0.0
        x = rng.permuted(x, axis=1).reshape(3, *spatial)
        gamma = np.array([1.3, 0.7, -0.9])
        beta = np.array([-0.0, rng.standard_normal(), -0.0])
        stats = (np.array([0.0, 0.2, 0.0]), rng.uniform(0.5, 2.0, 3)) if given else ()
        mean, var = stats or (x.mean(axis=tuple(range(1, x.ndim))),
                              x.var(axis=tuple(range(1, x.ndim))))
        bshape = (3,) + (1,) * len(spatial)
        xhat = (x - mean.reshape(bshape)) * (1.0 / np.sqrt(var + T.BN_EPS)).reshape(bshape)
        pre = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
        assert np.any((pre == 0.0) & np.signbit(pre)) and np.any((pre == 0.0) & ~np.signbit(pre))
        conv = T.conv2d if len(spatial) == 2 else T.conv3d
        w = rng.standard_normal((2, 3) + (3,) * len(spatial))
        weights = Tensor(rng.standard_normal((2, *spatial)))

        def run(op):
            leaves = [Parameter(a.copy()) for a in (x, gamma, beta, w)]
            y, _, _ = op(*leaves[:3], *stats)
            z = conv(y, ConvParams(leaves[3], None, 1, 1))
            T.backward(T.add(T.sum_all(T.mul(z, weights)), T.sum_all(T.mul(y, y))))
            with T.no_grad():
                y_infer, _, _ = op(*(Tensor(a) for a in (x, gamma, beta)), *stats)
            return [a.tobytes() for a in (y.data, y_infer.data, *(p.grad for p in leaves))]

        assert run(T.batch_norm) == run(unfused_bn_relu)

    def test_minus_infinity_before_the_relu_raises(self):
        # xhat is about (-1.73, 0.58, 0.58, 0.58): gamma overflows the first
        # to -inf, which the ReLU alone would map to 0
        x = Tensor([[0.0, 10.0, 10.0, 10.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'batch_norm'"):
            T.batch_norm(x, Tensor([1.5e308]), Tensor([0.0]))

    def test_returns_its_statistics_and_writes_no_argument(self, rng):
        x = rng.standard_normal((3, 6, 5)) * 2.0 + 1.0
        gamma = Parameter(rng.uniform(0.5, 1.5, 3))
        beta = Parameter(rng.standard_normal(3))
        given = (rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
        before = [a.tobytes() for a in (x, gamma.data, beta.data, *given)]
        _, mean, var = T.batch_norm(Tensor(x), gamma, beta)
        assert np.array_equal(mean, x.mean(axis=(1, 2)))
        assert np.array_equal(var, x.var(axis=(1, 2)))
        _, mean, var = T.batch_norm(Tensor(x), gamma, beta, *given)
        assert mean is given[0] and var is given[1]
        assert [a.tobytes() for a in (x, gamma.data, beta.data, *given)] == before

    def test_running_stats_update(self, rng):
        """nn.BatchNorm moves its buffers in training and leaves them in eval."""
        x = rng.standard_normal((3, 6, 5)) * 2.0 + 1.0
        bn = nn.BatchNorm(3)
        bn.forward(Tensor(x))
        assert nn.BN_MOMENTUM == 0.9
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=(1, 2)))
        assert np.allclose(bn.running_var, 0.9 + 0.1 * x.var(axis=(1, 2)))
        trained = (bn.running_mean.copy(), bn.running_var.copy())
        bn.eval()
        for mode in ("instance", "running"):
            bn.eval_stats = mode
            bn.forward(Tensor(x * 3.0 - 2.0))
            assert np.array_equal(bn.running_mean, trained[0])
            assert np.array_equal(bn.running_var, trained[1])


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        state = {
            "net.conv.weight": rng.standard_normal((4, 2, 3, 3)),
            "net.conv.bias": rng.standard_normal(4),
            "bn.running_mean": rng.standard_normal(4),
        }
        path = tmp_path / "params.bin"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(state)
        for name in state:
            assert np.array_equal(loaded[name], state[name])

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "params.bin"
        save_checkpoint(path, {"x": np.zeros(2)})
        with open(path, "rb") as fh:
            assert fh.read(4) == b"ICGW"

    def test_truncation_reports_offset(self, tmp_path, rng):
        path = tmp_path / "params.bin"
        save_checkpoint(path, {"x": rng.standard_normal(8)})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-4])
        with pytest.raises(ParseError, match="byte"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_checkpoint(path)
