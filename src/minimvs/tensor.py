"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything learned in this package runs on these tensors: convolutions,
bilinear warping, normalization, softmax and the elementwise family. The
engine is deliberately small: single-sample tensors laid out channel-first
((C, H, W) for images, (C, D, H, W) for cost volumes), float64 throughout,
and a flat tape that is freed after every backward pass.

Gradients are exact analytic adjoints; `gradcheck` verifies every operator
against central finite differences.

Grad mode is a context variable, so `no_grad` in one thread leaves graph
recording in every other thread on. Operators are pure with respect to their
inputs (batch norm's running-buffer update in training is the one documented
exception), so threads may run forward passes concurrently, and backward
passes on graphs that share no leaf tensors: `backward` accumulates into each
leaf's `.grad` without a lock. Results are bit-identical across repeated
single-threaded runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericError, ParameterError, UsageError

_GRAD_ENABLED = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    `grad` is populated by `backward` for every tensor with
    `requires_grad=True`; interior nodes release their gradient and graph
    references once the sweep completes, so only leaves keep state between
    iterations.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A leaf tensor updated by an optimizer; always requires a gradient."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _result(data, parents, backward_fn, op):
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NumericError(f"operator '{op}' produced non-finite values")
    requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires
    out.grad = None
    out._op = op
    if requires:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` under numpy trailing-axis broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss.

    Populates `.grad` on every reachable tensor with `requires_grad=True`,
    then frees interior gradients and graph references. Deterministic: the
    accumulation order is fixed by the recorded topological order.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.size != 1:
        raise UsageError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise UsageError("backward on a detached tensor (no recorded graph)")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is None:
            continue
        grads = node._backward_fn(node.grad)
        for parent, grad in zip(node._parents, grads):
            if grad is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += grad

    # free the tape: interior nodes drop gradients and parent references
    for node in topo:
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward_fn = None


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(data, (a, b), bwd, "add")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _result(data, (a, b), bwd, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            data = a.data / b.data
    except ValueError as exc:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * data / b.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _result(data, (a, b), bwd, "div")


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0.0

    def bwd(g):
        return (g * mask,)

    return _result(np.where(mask, a.data, 0.0), (a,), bwd, "relu")


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _result(s, (a,), bwd, "sigmoid")


def log(a):
    a = _as_tensor(a)

    def bwd(g):
        return (g / a.data,)

    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _result(data, (a,), bwd, "log")


def clamp_min(a, floor):
    a = _as_tensor(a)
    mask = a.data > floor

    def bwd(g):
        return (g * mask,)

    return _result(np.maximum(a.data, floor), (a,), bwd, "clamp_min")


def sum_all(a):
    a = _as_tensor(a)

    def bwd(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(a.data.sum(), (a,), bwd, "sum")


def sum_axis(a, axis, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(data, (a,), bwd, "sum_axis")


def mean_axis(a, axis, keepdims=False):
    a = _as_tensor(a)
    n = a.shape[axis]
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _result(data, (a,), bwd, "mean_axis")


def softmax_axis(a, axis):
    """Numerically stable softmax along `axis` (max-subtracted)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _result(s, (a,), bwd, "softmax")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = _as_tensor(a)
    original = a.shape

    def bwd(g):
        return (g.reshape(original),)

    return _result(a.data.reshape(shape), (a,), bwd, "reshape")


def concat_axis(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(data, tuple(tensors), bwd, "concat")


def narrow(a, axis, start, length):
    """Slice `length` entries from `start` along `axis`."""
    a = _as_tensor(a)
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) outside axis of extent {a.shape[axis]}"
        )
    sel = [slice(None)] * a.ndim
    sel[axis] = slice(start, start + length)
    sel = tuple(sel)

    def bwd(g):
        out = np.zeros(a.shape)
        out[sel] = g
        return (out,)

    return _result(a.data[sel], (a,), bwd, "narrow")


def expand_axis(a, axis, n):
    """Insert a new axis of extent `n` holding `n` copies of the input."""
    a = _as_tensor(a)
    data = np.broadcast_to(np.expand_dims(a.data, axis), a.shape[:axis] + (n,) + a.shape[axis:]).copy()

    def bwd(g):
        return (g.sum(axis=axis),)

    return _result(data, (a,), bwd, "expand")


def pad_zero(a, pads):
    """Zero-pad; `pads` is a (before, after) pair per axis."""
    a = _as_tensor(a)
    pads = tuple((int(b), int(e)) for b, e in pads)
    crop = tuple(slice(b, b + n) for (b, _), n in zip(pads, a.shape))

    def bwd(g):
        return (g[crop],)

    return _result(np.pad(a.data, pads), (a,), bwd, "pad")


def replicate_pad_axis(a, axis, before, after):
    """Edge-replication padding along one axis.

    Used by the volume regularizer along the depth axis so a volume that is
    constant along depth stays constant after convolution.
    """
    a = _as_tensor(a)
    pads = [(0, 0)] * a.ndim
    pads[axis] = (before, after)
    n = a.shape[axis]

    def bwd(g):
        g = np.moveaxis(g, axis, 0)
        out = g[before:before + n].copy()
        # guarded: adding an empty sum would turn -0.0 into 0.0
        if before:
            out[0] += g[:before].sum(axis=0)
        if after:
            out[-1] += g[before + n:].sum(axis=0)
        return (np.moveaxis(out, 0, axis),)

    return _result(np.pad(a.data, pads, mode="edge"), (a,), bwd, "replicate_pad")


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """Weights and geometry for one convolution.

    `weight` is (out_ch, in_ch, k...) for direct convolutions and
    (in_ch, out_ch, k...) for transposed ones. `stride` / `padding` /
    `output_padding` are per spatial axis (scalars broadcast).
    """

    weight: Tensor
    bias: Tensor | None = None
    stride: tuple = 1
    padding: tuple = 0
    output_padding: tuple = field(default=0)

    def spatial(self, n):
        return (
            _tuple_n(self.stride, n, "stride"),
            _tuple_n(self.padding, n, "padding"),
            _tuple_n(self.output_padding, n, "output_padding"),
        )


def _tuple_n(value, n, name):
    if isinstance(value, (int, np.integer)):
        value = (int(value),) * n
    value = tuple(int(v) for v in value)
    if len(value) != n:
        raise ParameterError(f"{name} must have {n} entries, got {value}")
    if name == "stride" and any(v < 1 for v in value):
        raise ParameterError(f"stride must be >= 1, got {value}")
    if name in ("padding", "output_padding") and any(v < 0 for v in value):
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def _im2col(xp, kshape, stride, out_sp):
    """(C, *padded) -> (C * prod(k), prod(out)) window matrix."""
    c = xp.shape[0]
    spatial_strides = xp.strides[1:]
    shape = (c, *kshape, *out_sp)
    strides = (xp.strides[0], *spatial_strides,
               *(s * st for s, st in zip(spatial_strides, stride)))
    windows = np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)
    k = int(np.prod(kshape))
    p = int(np.prod(out_sp))
    return windows.reshape(c * k, p)  # forces the single copy


def _col2im(dcols, channels, padded_sp, kshape, stride, out_sp):
    """Adjoint of `_im2col`: scatter-add columns back into the padded layout."""
    dxp = np.zeros((channels, *padded_sp), dtype=np.float64)
    dcols = dcols.reshape(channels, *kshape, *out_sp)
    for off in np.ndindex(*kshape):
        sel = tuple(
            slice(o, o + (n - 1) * st + 1, st) for o, n, st in zip(off, out_sp, stride)
        )
        dxp[(slice(None), *sel)] += dcols[(slice(None), *off)]
    return dxp


def _conv_nd(x, params, nsp, op):
    x = _as_tensor(x)
    w = params.weight
    b = params.bias
    stride, pad, _ = params.spatial(nsp)
    if x.ndim != nsp + 1:
        raise DimensionError(f"{op}: input must be {nsp + 1}-dimensional, got shape {x.shape}")
    if w.ndim != nsp + 2:
        raise DimensionError(f"{op}: weight must be {nsp + 2}-dimensional, got shape {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise DimensionError(
            f"{op}: input has {x.shape[0]} channels, weight expects {w.shape[1]}"
        )
    kshape = w.shape[2:]
    out_sp = tuple(
        (x.shape[1 + i] + 2 * pad[i] - kshape[i]) // stride[i] + 1 for i in range(nsp)
    )
    if any(n < 1 for n in out_sp):
        raise DimensionError(f"{op}: empty output for input {x.shape}, kernel {kshape}")
    xp = np.pad(x.data, ((0, 0), *[(p, p) for p in pad]))
    cols = _im2col(xp, kshape, stride, out_sp)
    wmat = w.data.reshape(w.shape[0], -1)
    y = wmat @ cols
    if b is not None:
        y = y + b.data[:, None]
    y = y.reshape((w.shape[0], *out_sp))
    in_sp = x.shape[1:]

    def bwd(g):
        gmat = g.reshape(w.shape[0], -1)
        dw = (gmat @ cols.T).reshape(w.shape) if w.requires_grad else None
        dx = None
        if x.requires_grad:
            dcols = wmat.T @ gmat
            dxp = _col2im(dcols, x.shape[0], xp.shape[1:], kshape, stride, out_sp)
            crop = tuple(slice(p, p + n) for p, n in zip(pad, in_sp))
            dx = dxp[(slice(None), *crop)]
        if b is not None:
            db = gmat.sum(axis=1) if b.requires_grad else None
            return dx, dw, db
        return dx, dw

    parents = (x, w) if b is None else (x, w, b)
    return _result(y, parents, bwd, op)


def conv2d(x, params):
    """Cross-correlation over (C, H, W); see ConvParams for the layout."""
    return _conv_nd(x, params, 2, "conv2d")


def conv3d(x, params):
    """Cross-correlation over (C, D, H, W)."""
    return _conv_nd(x, params, 3, "conv3d")


def conv_transpose3d(x, params):
    """Transposed 3D convolution; weight is (in_ch, out_ch, kd, kh, kw).

    With stride 2, kernel 3, padding 1 and output_padding 1 along an axis the
    output extent is exactly double the input extent.
    """
    x = _as_tensor(x)
    w = params.weight
    b = params.bias
    stride, pad, outpad = params.spatial(3)
    if x.ndim != 4 or w.ndim != 5:
        raise DimensionError(
            f"conv_transpose3d: need (C,D,H,W) input and 5-d weight, got {x.shape}, {w.shape}"
        )
    if x.shape[0] != w.shape[0]:
        raise DimensionError(
            f"conv_transpose3d: input has {x.shape[0]} channels, weight expects {w.shape[0]}"
        )
    if any(op >= st for op, st in zip(outpad, stride)):
        raise ParameterError("output_padding must be smaller than stride")
    c_in, c_out = w.shape[:2]
    kshape = w.shape[2:]
    in_sp = x.shape[1:]
    out_sp = tuple(
        (in_sp[i] - 1) * stride[i] - 2 * pad[i] + kshape[i] + outpad[i] for i in range(3)
    )
    if any(n < 1 for n in out_sp):
        raise DimensionError("conv_transpose3d: empty output")
    padded_sp = tuple(o + 2 * p for o, p in zip(out_sp, pad))

    k = int(np.prod(kshape))
    xmat = x.data.reshape(c_in, -1)
    dcols = w.data.reshape(c_in, c_out * k).T @ xmat
    ypad = _col2im(dcols, c_out, padded_sp, kshape, stride, in_sp)
    crop = tuple(slice(p, p + n) for p, n in zip(pad, out_sp))
    y = ypad[(slice(None), *crop)]
    if b is not None:
        y = y + b.data.reshape(c_out, 1, 1, 1)

    def bwd(g):
        gp = np.pad(g, ((0, 0), *[(p, p) for p in pad]))
        cols_g = _im2col(gp, kshape, stride, in_sp)
        dx = None
        if x.requires_grad:
            dx = (w.data.reshape(c_in, c_out * k) @ cols_g).reshape(x.shape)
        dw = (xmat @ cols_g.T).reshape(w.shape) if w.requires_grad else None
        if b is not None:
            db = g.sum(axis=(1, 2, 3)) if b.requires_grad else None
            return dx, dw, db
        return dx, dw

    parents = (x, w) if b is None else (x, w, b)
    return _result(y, parents, bwd, "conv_transpose3d")


# ---------------------------------------------------------------------------
# sampling and resizing
# ---------------------------------------------------------------------------

def grid_sample_bilinear(src, coords, return_mask=False):
    """Bilinear sampling of (C, H, W) at continuous pixel coordinates.

    `coords` is (2, *out) holding (x, y) in source pixel units where integer
    values hit pixel centers exactly. Samples whose center falls outside
    [0, W-1] x [0, H-1] return exactly 0 and are flagged invalid in the mask.
    Gradients flow to `src` only; coordinates are treated as constants.
    """
    src = _as_tensor(src)
    cd = coords.data if isinstance(coords, Tensor) else np.asarray(coords, dtype=np.float64)
    if cd.shape[0] != 2:
        raise DimensionError(f"coords must be (2, ...), got {cd.shape}")
    if src.ndim != 3:
        raise DimensionError(f"src must be (C, H, W), got {src.shape}")
    c, h, w = src.shape
    out_sp = cd.shape[1:]
    x = cd[0].ravel()
    y = cd[1].ravel()
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.where(valid, x, 0.0)
    ys = np.where(valid, y, 0.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.clip(x0, 0, w - 1)
    y0 = np.clip(y0, 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = xs - x0
    ty = ys - y0
    vf = valid.astype(np.float64)
    w00 = (1.0 - tx) * (1.0 - ty) * vf
    w01 = tx * (1.0 - ty) * vf
    w10 = (1.0 - tx) * ty * vf
    w11 = tx * ty * vf
    i00 = y0 * w + x0
    i01 = y0 * w + x1
    i10 = y1 * w + x0
    i11 = y1 * w + x1
    flat = src.data.reshape(c, h * w)
    out = flat[:, i00] * w00 + flat[:, i01] * w01 + flat[:, i10] * w10 + flat[:, i11] * w11
    out = out.reshape((c, *out_sp))

    def bwd(g):
        g2 = g.reshape(c, -1)
        acc = np.zeros((h * w, c), dtype=np.float64)
        for idx, wt in ((i00, w00), (i01, w01), (i10, w10), (i11, w11)):
            np.add.at(acc, idx, (g2 * wt).T)
        return (acc.T.reshape(src.shape),)

    result = _result(out, (src,), bwd, "grid_sample")
    if return_mask:
        return result, valid.reshape(out_sp)
    return result


@lru_cache(maxsize=None)
def _interp_matrix(n_out, n_in):
    """Dense (n_out, n_in) bilinear interpolation matrix, align-corners."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    if n_out == 1 or n_in == 1:
        m[:, 0] = 1.0
        return m
    pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    i0 = np.floor(pos).astype(np.int64)
    i0 = np.minimum(i0, n_in - 2)
    t = pos - i0
    m[np.arange(n_out), i0] += 1.0 - t
    m[np.arange(n_out), i0 + 1] += t
    return m


def upsample_bilinear2x(a):
    """Double both spatial extents of (C, H, W) with align-corners bilinear."""
    a = _as_tensor(a)
    if a.ndim != 3:
        raise DimensionError(f"upsample_bilinear2x expects (C, H, W), got {a.shape}")
    _, h, w = a.shape
    mh = _interp_matrix(2 * h, h)
    mw = _interp_matrix(2 * w, w)
    data = np.einsum("ih,chw,jw->cij", mh, a.data, mw, optimize=True)

    def bwd(g):
        return (np.einsum("ih,cij,jw->chw", mh, g, mw, optimize=True),)

    return _result(data, (a,), bwd, "upsample2x")


def resize_bilinear(array, out_hw):
    """Non-differentiable align-corners bilinear resize of the last two axes."""
    array = np.asarray(array, dtype=np.float64)
    h, w = array.shape[-2:]
    oh, ow = out_hw
    mh = _interp_matrix(int(oh), h)
    mw = _interp_matrix(int(ow), w)
    return np.einsum("ih,...hw,jw->...ij", mh, array, mw, optimize=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def batch_norm(x, gamma, beta, running_mean, running_var, training,
               momentum=0.9, eps=1e-5, update_running=None):
    """Per-channel normalization over all spatial axes of (C, *spatial).

    Train mode normalizes with batch statistics and (by default) updates the
    running buffers in place
    (`running = momentum * running + (1 - momentum) * batch`); eval mode
    normalizes with the running statistics. `update_running=False` keeps
    batch statistics without the side effect, for per-sample normalization
    at inference.
    """
    x = _as_tensor(x)
    axes = tuple(range(1, x.ndim))
    bshape = (x.shape[0],) + (1,) * (x.ndim - 1)
    if update_running is None:
        update_running = training
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if update_running and running_mean is not None:
            running_mean *= momentum
            running_mean += (1.0 - momentum) * mu
        if update_running and running_var is not None:
            running_var *= momentum
            running_var += (1.0 - momentum) * var
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(bshape)) * inv.reshape(bshape)
    y = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)
    n = int(np.prod(x.shape[1:]))

    def bwd(g):
        dgamma = (g * xhat).sum(axis=axes) if gamma.requires_grad else None
        dbeta = g.sum(axis=axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            gr = gamma.data.reshape(bshape) * inv.reshape(bshape)
            if training:
                gs = g.sum(axis=axes, keepdims=True)
                gx = (g * xhat).sum(axis=axes, keepdims=True)
                dx = gr * (g - gs / n - xhat * gx / n)
            else:
                dx = gr * g
        return dx, dgamma, dbeta

    return _result(y, (x, gamma, beta), bwd, "batch_norm")
