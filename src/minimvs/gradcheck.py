"""Finite-difference verification of analytic gradients.

The checker only ever calls forward passes, so it is an oracle independent
of the reverse-mode tape: loss(theta +/- h) is evaluated with the tape
disabled and compared against the accumulated `.grad`.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ParameterError
from .tensor import ConvParams, Parameter, Tensor


def numeric_gradient(loss_fn, param, indices=None, step=1e-5):
    """Central finite differences of `loss_fn()` w.r.t. entries of `param`."""
    flat = param.data.reshape(-1)
    indices = list(range(flat.size)) if indices is None else list(indices)
    out = np.zeros(len(indices))
    with T.no_grad():
        for j, i in enumerate(indices):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_fn().data)
            flat[i] = orig - step
            lo = float(loss_fn().data)
            flat[i] = orig
            out[j] = (hi - lo) / (2.0 * step)
    return out


def max_relative_error(loss_fn, params, step=1e-5, floor=1e-5, max_entries=None, rng=None):
    """Worst relative disagreement between analytic and FD gradients.

    Relative error of a pair (a, n) is |a - n| / max(|a|, |n|, floor); the
    floor makes near-zero gradients an absolute comparison.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for p in params:
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        n = p.data.size
        if max_entries is not None and n > max_entries:
            picker = rng if rng is not None else np.random.default_rng(0)
            indices = sorted(picker.choice(n, size=max_entries, replace=False).tolist())
        else:
            indices = list(range(n))
        numeric = numeric_gradient(loss_fn, p, indices, step)
        for j, i in enumerate(indices):
            a, num = analytic[i], numeric[j]
            err = abs(a - num) / max(abs(a), abs(num), floor)
            worst = max(worst, err)
    return worst


def _op_cases(seed=0):
    """Named loss builders covering every differentiable operator."""
    rng = np.random.default_rng(seed)

    def rand_param(*shape):
        return Parameter(rng.standard_normal(shape))

    cases = {}

    x = rand_param(3, 4)
    y = rand_param(3, 4)
    cases["add"] = (lambda: T.sum_all(T.mul(T.add(x, y), T.add(x, y))), [x, y])

    a = rand_param(2, 3, 1)
    b = rand_param(2, 1, 4)
    cases["mul_broadcast"] = (lambda: T.sum_all(T.mul(T.mul(a, b), T.mul(a, b))), [a, b])

    d1 = rand_param(2, 5)
    d2 = Parameter(rng.uniform(0.5, 2.0, (2, 5)))
    cases["div"] = (lambda: T.sum_all(T.mul(T.div(d1, d2), d1)), [d1, d2])

    r = rand_param(4, 4)
    cases["relu"] = (lambda: T.sum_all(T.mul(T.relu(r), r)), [r])

    s = rand_param(4, 4)
    cases["sigmoid"] = (lambda: T.sum_all(T.mul(T.sigmoid(s), s)), [s])

    lg = Parameter(rng.uniform(0.5, 3.0, (3, 3)))
    cases["log"] = (lambda: T.sum_all(T.mul(T.log(lg), lg)), [lg])

    cm = rand_param(3, 3)
    cases["clamp_min"] = (lambda: T.sum_all(T.mul(T.clamp_min(cm, 0.3), cm)), [cm])

    sm = rand_param(5, 3)
    smw = Tensor(rng.standard_normal((5, 3)))
    cases["softmax_axis"] = (
        lambda: T.sum_all(T.mul(T.softmax_axis(sm, 0), smw)),
        [sm],
    )

    mx = rand_param(2, 6)
    cases["mean_axis"] = (lambda: T.sum_all(T.mul(T.mean_axis(mx, 1), Tensor([1.0, -2.0]))), [mx])
    cases["sum_axis"] = (lambda: T.sum_all(T.mul(T.sum_axis(mx, 0), Tensor(np.arange(6.0)))), [mx])

    c1 = rand_param(2, 3)
    c2 = rand_param(2, 2)
    cw = Tensor(rng.standard_normal((2, 5)))
    cases["concat_axis"] = (lambda: T.sum_all(T.mul(T.concat_axis([c1, c2], 1), cw)), [c1, c2])

    nr = rand_param(3, 6)
    cases["narrow"] = (lambda: T.sum_all(T.mul(T.narrow(nr, 1, 2, 3), Tensor(np.ones((3, 3))))), [nr])

    ex = rand_param(2, 3)
    exw = Tensor(rng.standard_normal((2, 4, 3)))
    cases["expand_axis"] = (lambda: T.sum_all(T.mul(T.expand_axis(ex, 1, 4), exw)), [ex])

    pz = rand_param(2, 3, 3)
    pzw = Tensor(rng.standard_normal((2, 5, 5)))
    cases["pad_zero"] = (
        lambda: T.sum_all(T.mul(T.pad_zero(pz, ((0, 0), (1, 1), (2, 0))), pzw)),
        [pz],
    )

    cx = rand_param(2, 6, 7)
    cwgt = rand_param(3, 2, 3, 3)
    cb = rand_param(3)
    cases["conv2d"] = (
        lambda: T.sum_all(T.relu(T.conv2d(cx, ConvParams(cwgt, cb, 1, 1)))),
        [cx, cwgt, cb],
    )

    cx2 = rand_param(2, 7, 8)
    cwgt2 = rand_param(3, 2, 3, 3)
    c2w = Tensor(rng.standard_normal((3, 4, 4)))
    cases["conv2d_stride2"] = (
        lambda: T.sum_all(T.mul(T.conv2d(cx2, ConvParams(cwgt2, None, 2, 1)), c2w)),
        [cx2, cwgt2],
    )

    vx = rand_param(2, 3, 5, 6)
    vw = rand_param(3, 2, 3, 3, 3)
    vb = rand_param(3)
    cases["conv3d"] = (
        lambda: T.sum_all(T.relu(T.conv3d(vx, ConvParams(vw, vb, (1, 1, 1), (1, 1, 1))))),
        [vx, vw, vb],
    )

    # depth padded by edge replication, as in the regularizer's blocks
    rx = rand_param(2, 3, 5, 6)
    rw = rand_param(3, 2, 3, 3, 3)
    for name, stride, out_hw in (("conv3d_replicate", 1, (5, 6)),
                                 ("conv3d_replicate_stride2", (1, 2, 2), (3, 3))):
        rparams = ConvParams(rw, None, stride, (0, 1, 1), replicate_depth=1)
        rww = Tensor(rng.standard_normal((3, 3, *out_hw)))
        cases[name] = (
            lambda p=rparams, g=rww: T.sum_all(T.mul(T.conv3d(rx, p), g)),
            [rx, rw],
        )

    tx = rand_param(3, 2, 3, 4)
    tw = rand_param(3, 2, 1, 3, 3)
    tb = rand_param(2)
    tww = Tensor(rng.standard_normal((2, 2, 6, 8)))
    tparams = ConvParams(tw, tb, (1, 2, 2), (0, 1, 1), (0, 1, 1))
    cases["conv_transpose3d"] = (
        lambda: T.sum_all(T.mul(T.conv_transpose3d(tx, tparams), tww)),
        [tx, tw, tb],
    )

    gs = rand_param(2, 5, 6)
    coords = np.stack(
        [rng.uniform(-0.5, 5.5, (3, 4)), rng.uniform(-0.5, 4.5, (3, 4))]
    )
    gw = Tensor(rng.standard_normal((2, 3, 4)))
    cases["grid_sample_bilinear"] = (
        lambda: T.sum_all(T.mul(T.grid_sample_bilinear(gs, coords), gw)),
        [gs],
    )

    up = rand_param(2, 3, 4)
    upw = Tensor(rng.standard_normal((2, 6, 8)))
    cases["upsample_bilinear2x"] = (
        lambda: T.sum_all(T.mul(T.upsample_bilinear2x(up), upw)),
        [up],
    )

    bx = rand_param(3, 4, 5)
    bg = Parameter(rng.uniform(0.5, 1.5, 3))
    bb = rand_param(3)
    bw = Tensor(rng.standard_normal((3, 4, 5)))
    rm = np.zeros(3)
    rv = np.ones(3)
    cases["batch_norm_train"] = (
        lambda: T.sum_all(T.mul(T.batch_norm(bx, bg, bb, rm.copy(), rv.copy(), True), bw)),
        [bx, bg, bb],
    )
    rm2 = rng.standard_normal(3)
    rv2 = rng.uniform(0.5, 2.0, 3)
    cases["batch_norm_infer"] = (
        lambda: T.sum_all(T.mul(T.batch_norm(bx, bg, bb, rm2, rv2, False), bw)),
        [bx, bg, bb],
    )

    # stride-1 input gradients: the padded gradient grows by k - 1 - p per
    # axis, so each geometry below takes a different pad/crop branch
    ux = rand_param(2, 4, 4, 5)
    uw = rand_param(3, 2, 3, 3, 3)
    uww = Tensor(rng.standard_normal((3, 2, 4, 5)))
    cases["conv3d_depth_unpadded"] = (
        lambda: T.sum_all(T.mul(T.conv3d(ux, ConvParams(uw, None, 1, (0, 1, 1))), uww)),
        [ux, uw],
    )

    px = rand_param(4, 3, 5)
    pw = rand_param(2, 4, 1, 1)
    pww = Tensor(rng.standard_normal((2, 3, 5)))
    cases["conv2d_1x1"] = (
        lambda: T.sum_all(T.mul(T.conv2d(px, ConvParams(pw, None, 1, 0)), pww)),
        [px, pw],
    )

    sx = rand_param(3, 2, 3, 4)
    sw = rand_param(3, 2, 3, 3, 3)
    sww = Tensor(rng.standard_normal((2, 2, 3, 6)))
    sparams = ConvParams(sw, None, 1, (1, 1, 0))
    cases["conv_transpose3d_stride1"] = (
        lambda: T.sum_all(T.mul(T.conv_transpose3d(sx, sparams), sww)),
        [sx, sw],
    )

    gx = rand_param(2, 3, 4)
    gwt = rand_param(3, 2, 3, 2)
    gww = Tensor(rng.standard_normal((3, 7, 3)))
    cases["conv2d_pad_ge_kernel"] = (
        lambda: T.sum_all(T.mul(T.conv2d(gx, ConvParams(gwt, None, 1, (3, 0))), gww)),
        [gx, gwt],
    )

    return cases


def run_op_checks(op_names=None, seed=0, tol=1e-3, max_entries=None):
    """Run FD checks for the named operators (all by default).

    Returns a list of (name, max_relative_error, passed) tuples.
    `max_entries` caps the checked entries per parameter (all by default).
    """
    cases = _op_cases(seed)
    if op_names:
        unknown = [n for n in op_names if n not in cases]
        if unknown:
            raise ParameterError(f"unknown ops {unknown}; valid: {sorted(cases)}")
        cases = {n: cases[n] for n in op_names}
    results = []
    picker = np.random.default_rng(seed)
    for name, (loss_fn, params) in cases.items():
        err = max_relative_error(loss_fn, params, max_entries=max_entries, rng=picker)
        results.append((name, err, err <= tol))
    return results


__all__ = [
    "numeric_gradient",
    "max_relative_error",
    "run_op_checks",
]
