"""Tensor engine: forward semantics against naive reference implementations,
reverse-mode gradients against central finite differences, and the checkpoint
container."""

import math
import os
import threading

import numpy as np
import pytest

from minimvs import gradcheck
from minimvs import tensor as T
from minimvs.checkpoint import load_checkpoint, save_checkpoint
from minimvs.errors import DimensionError, NumericError, ParseError, UsageError
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

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)))
        with pytest.raises(DimensionError):
            T.conv2d(x, ConvParams(w, None, 1, 1))


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
    def test_relu(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

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

    def test_upsample_matches_naive(self, rng):
        x = np.array([[[0.0, 2.0], [4.0, 6.0]]])
        got = T.upsample_bilinear2x(Tensor(x))
        assert np.abs(got.data - upsample2x_naive(x)).max() < 1e-12
        y = rng.standard_normal((3, 5, 4))
        got = T.upsample_bilinear2x(Tensor(y))
        assert np.abs(got.data - upsample2x_naive(y)).max() < 1e-12


class TestGridSample:
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
        src = Tensor(np.ones((1, 3, 3)))
        out, mask = T.grid_sample_bilinear(src, np.full((2, 1, 1), -1.0), return_mask=True)
        assert out.data.reshape(()) == 0.0
        assert not mask[0, 0]

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

    def test_conv_relu_sum_finite_differences(self, rng):
        x = Parameter(rng.standard_normal((1, 3, 3)))
        w = Parameter(rng.standard_normal((2, 1, 3, 3)))
        b = Parameter(rng.standard_normal(2))

        def loss():
            return T.sum_all(T.relu(T.conv2d(x, ConvParams(w, b, 1, 1))))

        err = gradcheck.max_relative_error(loss, [x, w, b])
        assert err <= 1e-3

    @pytest.mark.parametrize("axis", [0, 2])
    @pytest.mark.parametrize("before, after", [(0, 2), (2, 0)])
    def test_one_sided_replicate_pad_finite_differences(self, rng, axis, before, after):
        x = Parameter(rng.standard_normal((3, 4, 5)))
        shape = list(x.shape)
        shape[axis] += before + after
        w = Tensor(rng.standard_normal(shape))

        def loss():
            return T.sum_all(T.mul(T.replicate_pad_axis(x, axis, before, after), w))

        assert gradcheck.max_relative_error(loss, [x]) <= 1e-3

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
        assert y.grad is None and y._parents == ()
        assert x.grad is not None

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
    def test_running_stats_update(self, rng):
        x = rng.standard_normal((3, 6, 5)) * 2.0 + 1.0
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        rm = np.zeros(3)
        rv = np.ones(3)
        T.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True, momentum=0.9)
        assert np.allclose(rm, 0.1 * x.mean(axis=(1, 2)))
        assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=(1, 2)))

    def test_train_mode_normalizes(self, rng):
        x = rng.standard_normal((2, 16, 16)) * 3.0 + 5.0
        out = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           np.zeros(2), np.ones(2), training=True)
        assert np.abs(out.data.mean(axis=(1, 2))).max() < 1e-12
        assert np.abs(out.data.var(axis=(1, 2)) - 1.0).max() < 1e-3

    def test_infer_mode_uses_running(self, rng):
        x = rng.standard_normal((2, 4, 4))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           rm, rv, training=False, eps=0.0)
        want = (x - rm[:, None, None]) / np.sqrt(rv)[:, None, None]
        assert np.abs(out.data - want).max() < 1e-12


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
