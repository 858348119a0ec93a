"""Finite-difference verification of analytic gradients.

The checker only ever calls forward passes, so it is an oracle independent
of the reverse-mode tape: loss(theta +/- h) is evaluated with the tape
disabled and compared against the accumulated `.grad`.

`run_op_checks` covers every differentiable operator from one table of
cases. Each case draws its inputs, its loss weights and its checked entries
from a generator seeded by the run's seed and the case's own name, so a
case's error does not depend on which other cases exist or run.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .errors import ParameterError, UsageError
from .tensor import ConvParams, Parameter, Tensor

STEP = 1e-5   # central-difference step
FLOOR = 1e-5  # gradients below this magnitude are compared absolutely
TOL = 1e-3    # worst relative error a case may show and pass


def numeric_gradient(loss_fn, param, indices):
    """Central finite differences of `loss_fn()` w.r.t. the `indices` entries of `param`."""
    flat = param.data.reshape(-1)
    out = np.zeros(len(indices))
    with T.no_grad():
        for j, i in enumerate(indices):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = float(loss_fn().data)
            flat[i] = orig - STEP
            lo = float(loss_fn().data)
            flat[i] = orig
            out[j] = (hi - lo) / (2.0 * STEP)
    return out


def max_relative_error(loss_fn, params, max_entries=None, rng=None):
    """Worst relative disagreement between analytic and FD gradients.

    Relative error of a pair (a, n) is |a - n| / max(|a|, |n|, FLOOR); the
    floor makes near-zero gradients an absolute comparison. `max_entries`
    caps the checked entries per parameter, picked by `rng`, which a capped
    call must pass.
    """
    if max_entries is not None and rng is None:
        raise UsageError("max_relative_error: a capped check needs an rng to pick entries")
    for p in params:
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for p in params:
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        n = p.data.size
        if max_entries is not None and n > max_entries:
            indices = sorted(rng.choice(n, size=max_entries, replace=False).tolist())
        else:
            indices = list(range(n))
        numeric = numeric_gradient(loss_fn, p, indices)
        for j, i in enumerate(indices):
            a, num = analytic[i], numeric[j]
            err = abs(a - num) / max(abs(a), abs(num), FLOOR)
            worst = max(worst, err)
    return worst


def _param(*shape, span=None):
    """A differentiated input: standard normal, or uniform over `span`."""
    return shape, span, True


def _const(*shape, span=None):
    """A constant plain-array input, such as grid coordinates."""
    return shape, span, False


def _conv(op, *geometry, **extra):
    """A convolution case's operator over inputs (x, weight[, bias])."""
    return lambda x, w, b=None: op(x, ConvParams(w, b, *geometry, **extra))


_BN_SIGNS = np.array([1.0, -1.0, 1.0])  # per channel: the sign of beta in the batch-norm cases

# name -> (operator over the inputs, input specs); the loss is sum(op * w)
_CASES = {
    "add": (T.add, [_param(3, 4), _param(3, 4)]),
    "mul_broadcast": (T.mul, [_param(2, 3, 1), _param(2, 1, 4)]),
    "div": (T.div, [_param(2, 5), _param(2, 5, span=(0.5, 2.0))]),
    "sigmoid": (T.sigmoid, [_param(4, 4)]),
    "log": (T.log, [_param(3, 3, span=(0.5, 3.0))]),
    "clamp_min": (lambda a: T.clamp_min(a, 0.3), [_param(3, 3)]),
    "softmax_axis": (lambda a: T.softmax_axis(a, 0), [_param(5, 3)]),
    "mean_axis": (lambda a: T.mean_axis(a, 1), [_param(2, 6)]),
    "sum_axis": (lambda a: T.sum_axis(a, 0), [_param(2, 6)]),
    "sum_all": (T.sum_all, [_param(3, 4)]),
    "reshape": (lambda a: T.reshape(a, (4, 3)), [_param(2, 6)]),
    "concat_axis": (lambda a, b: T.concat_axis([a, b], 1), [_param(2, 3), _param(2, 2)]),
    "narrow": (lambda a: T.narrow(a, 1, 2, 3), [_param(3, 6)]),
    "expand_axis": (lambda a: T.expand_axis(a, 1, 4), [_param(2, 3)]),
    "pad_zero": (lambda a: T.pad_zero(a, ((0, 0), (1, 1), (2, 0))), [_param(2, 3, 3)]),
    "conv2d": (_conv(T.conv2d, 1, 1), [_param(2, 6, 7), _param(3, 2, 3, 3), _param(3)]),
    "conv2d_stride2": (_conv(T.conv2d, 2, 1), [_param(2, 7, 8), _param(3, 2, 3, 3)]),
    "conv3d": (_conv(T.conv3d, 1, 1), [_param(2, 3, 5, 6), _param(3, 2, 3, 3, 3), _param(3)]),
    # depth padded by edge replication, as in the regularizer's blocks
    "conv3d_replicate": (_conv(T.conv3d, 1, (0, 1, 1), replicate_depth=1),
                         [_param(2, 3, 5, 6), _param(3, 2, 3, 3, 3)]),
    "conv3d_replicate_stride2": (_conv(T.conv3d, (1, 2, 2), (0, 1, 1), replicate_depth=1),
                                 [_param(2, 3, 5, 6), _param(3, 2, 3, 3, 3)]),
    "conv_transpose3d": (_conv(T.conv_transpose3d, (1, 2, 2), (0, 1, 1), (0, 1, 1)),
                         [_param(3, 2, 3, 4), _param(3, 2, 1, 3, 3), _param(2)]),
    # both inputs take gradients, coordinates run past every border
    "grid_sample_correlate": (lambda s, xy, r: T.grid_sample_bilinear(s, xy, r, 2),
                              [_param(4, 5, 6), _const(2, 3, 4, 5, span=(-0.7, 6.5)),
                               _param(4, 4, 5)]),
    "upsample_bilinear2x": (T.upsample_bilinear2x, [_param(2, 3, 4)]),
    # batch norm ends in the ReLU. |xhat| is at most sqrt(19) with the
    # statistics of 20 values, so with these spans every value before the
    # ReLU lies at least 0.4 from its kink: above it in channels 0 and 2,
    # below it in channel 1, whose beta is negated
    "batch_norm_train": (lambda x, g, b: T.batch_norm(x, g, T.mul(b, _BN_SIGNS)),
                         [_param(3, 4, 5), _param(3, span=(0.5, 1.5)),
                          _param(3, span=(7.0, 8.0))]),
    # stride-1 input gradients: the padded gradient grows by k - 1 - p per
    # axis, so each geometry below takes a different pad/crop branch
    "conv3d_depth_unpadded": (_conv(T.conv3d, 1, (0, 1, 1)),
                              [_param(2, 4, 4, 5), _param(3, 2, 3, 3, 3)]),
    "conv2d_1x1": (_conv(T.conv2d, 1, 0), [_param(4, 3, 5), _param(2, 4, 1, 1)]),
    "conv_transpose3d_stride1": (_conv(T.conv_transpose3d, 1, (1, 1, 0)),
                                 [_param(3, 2, 3, 4), _param(3, 2, 3, 3, 3)]),
    "conv2d_pad_ge_kernel": (_conv(T.conv2d, 1, (3, 0)), [_param(2, 3, 4), _param(3, 2, 3, 2)]),
    # depth padding >= kd crops the gradient along the axis split into depth taps
    "conv3d_depth_pad_ge_kernel": (_conv(T.conv3d, 1, (2, 1, 1)),
                                   [_param(2, 3, 4, 5), _param(3, 2, 2, 3, 3)]),
}


def run_op_checks(op_names=None, seed=0):
    """Run FD checks of every entry for the named operators (all by default).

    Returns a list of (name, max_relative_error, passed) tuples.
    """
    names = op_names or list(_CASES)
    unknown = [n for n in names if n not in _CASES]
    if unknown:
        raise ParameterError(f"unknown ops {unknown}; valid: {sorted(_CASES)}")
    results = []
    for name in names:
        op, specs = _CASES[name]
        # crc32, not hash(): Python salts str hashes per process
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        inputs = []
        for shape, span, param in specs:
            data = rng.standard_normal(shape) if span is None else rng.uniform(*span, shape)
            inputs.append(Parameter(data) if param else data)
        with T.no_grad():
            w = Tensor(rng.standard_normal(op(*inputs).shape))

        def loss_fn():
            return T.sum_all(T.mul(op(*inputs), w))

        params = [x for x in inputs if isinstance(x, Parameter)]
        err = max_relative_error(loss_fn, params)
        results.append((name, err, err <= TOL))
    return results


__all__ = ["numeric_gradient", "max_relative_error", "run_op_checks"]
