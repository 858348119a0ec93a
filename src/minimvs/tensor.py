"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything learned in this package runs on these tensors: convolutions,
bilinear warping, normalization, softmax and the elementwise family. The
engine is deliberately small: single-sample tensors laid out channel-first
((C, H, W) for images, (C, D, H, W) for cost volumes), float64 throughout,
and a flat tape that the backward pass frees as it sweeps.

Gradients are exact analytic adjoints; `gradcheck` verifies every operator
against central finite differences.

Grad mode is a context variable, so `no_grad` in one thread leaves graph
recording in every other thread on. Operators never write their arguments
(batch norm returns the statistics it used and leaves any running average
to its caller), so threads may run forward passes concurrently, and backward
passes on graphs that share no leaf tensors: `backward` accumulates into each
leaf's `.grad` without a lock. Results are bit-identical across repeated
single-threaded runs.

The tape is made of graph nodes (`_Node`), one per recorded result: its
backward closure, a grad sink per parent, its own grad slot and, for batch
norm, a `rebuild` function. A node holds no tensor, and a closure keeps only
the arrays its backward reads, plus the shapes and `requires_grad` flags it
needs as plain values. So an interior result's data lives only as long as
its `Tensor` or a closure that reads it: a conv output that only batch norm
consumes is freed once its `Tensor` goes, since batch norm's backward reads
its own `xhat`. Batch norm ends in the ReLU, and its node's `rebuild`
recomputes that output from `xhat`; a closure that reads an argument (a
conv's input for its weight gradient, a factor of `mul`) keeps that function
in place of the array (`_kept`). So a Conv-BN-ReLU block leaves one array on
the tape, `xhat`, and neither its ReLU's mask nor its output outlives the
forward.

A recorded convolution keeps its input (only when the weight takes a
gradient) and weight, never a window matrix.
Every convolution, forward and backward, direct and transposed, runs over
output tiles (`_tile_grid`) that are bands of whole output rows; on a 3D
grid a band spans every depth slice. A band takes as many rows as keep its
window matrix within `_TILE_BYTES` (one row where a row is larger), so no
whole window matrix is ever built, and each band's stays in cache for its
GEMMs. A 3D band unfolds the (kh, kw) windows of each padded depth slice it
reads once, halo slices included, and runs one GEMM per depth tap on them.
No padded input or output gradient is ever whole either: the bands
unfold blocks of padded input rows, as many bands as fit the same budget.
Bilinear grid sampling runs on chunks of sample points, each a run of
columns in one depth slice, within the same `_TILE_BYTES` budget. Given a
reference map, it correlates each
chunk with it group by group as it samples (the cost layer's group-wise
correlation), so no whole warped volume is built; a recorded call keeps
only its sample coordinates and recomputes each chunk's corners and
weights in its backward. A tile's window matrix belongs to its call and
dies with the tile, so the engine keeps no per-thread state: a new thread
needs no setup, and threads never share a buffer. The tile and chunk splits
depend on shapes only, never on the thread count.

Edge replication along depth is a convolution padding mode
(`ConvParams.replicate_depth`), not an operator: each block of padded rows
holds the replicated edge slices inside its zeros, the conv records only its
input, and its backward folds the edges' gradients back onto the end slices.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
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


class _Node:
    """The tape entry of one recorded result; it holds no tensor.

    `parents` holds one grad sink per operator argument: the argument's
    node, the argument itself when it is a leaf that requires a gradient,
    or None. `backward_fn` maps this node's `grad` to one gradient per
    parent. `rebuild`, a function or None, recomputes the result's data
    from what `backward_fn` keeps anyway (batch norm's `xhat`), so a
    consumer's closure keeps it instead of the array (`_kept`).
    `backward` clears all four once the node's backward has run.
    """

    __slots__ = ("parents", "backward_fn", "rebuild", "grad")

    def __init__(self, parents, backward_fn, rebuild=None):
        self.parents = parents
        self.backward_fn = backward_fn
        self.rebuild = rebuild
        self.grad = None


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    A recorded result's `_node` is its place on the tape; it is None on a
    leaf and on anything computed without recording. `grad` is populated
    by `backward` on every leaf with `requires_grad=True`. An interior
    result's gradient lives on its node and is released, with the node's
    closure and parents, as soon as the node's own backward has run, so
    only leaves keep state between iterations.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None
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


def _all_finite(arr):
    """True when no element is NaN or inf.

    A finite sum proves every element finite; only a sum that overflowed or
    met a non-finite element needs the elementwise scan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return bool(np.isfinite(total) or np.isfinite(arr).all())


def _records(parents):
    """Whether an operator result on `parents` records a backward."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _sink(p):
    """Where the gradient of operator argument `p` goes: its node, itself, or nowhere."""
    if p._node is not None:
        return p._node
    return p if p.requires_grad else None


def _result(data, parents, backward_fn, op, rebuild=None):
    data = np.asarray(data, dtype=np.float64)
    if not _all_finite(data):
        raise NumericError(f"operator '{op}' produced non-finite values")
    requires = _records(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires
    out.grad = None
    out._op = op
    out._node = (_Node(tuple(_sink(p) for p in parents), backward_fn, rebuild)
                 if requires else None)
    return out


def _kept(t):
    """What a backward closure keeps to read argument `t`'s data: its node's
    `rebuild` where it has one, else the array. `_restored` gives the array."""
    node = t._node
    return node.rebuild if node is not None and node.rebuild is not None else t.data


def _restored(kept):
    """The array a `_kept` value stands for (None stays None)."""
    return kept() if callable(kept) else kept


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

    Populates `.grad` on every reachable leaf with `requires_grad=True`.
    Each node drops its gradient, closure and parent sinks as soon as its
    backward has run, so the arrays its closure captured are freed during
    the sweep, and a second backward through it raises `UsageError`.
    Deterministic: the accumulation order is fixed by the recorded
    topological order.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.size != 1:
        raise UsageError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise UsageError("backward on a detached tensor (no recorded graph)")
    if loss._node is None:  # a leaf is its own gradient sink
        loss.grad = np.ones_like(loss.data)
        return

    # only nodes are walked: a leaf sink has no parents to visit
    topo = []
    visited = set()
    stack = [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:
            continue
        if node.backward_fn is None:
            raise UsageError("backward through a graph an earlier backward already consumed")
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if isinstance(parent, _Node) and parent not in visited:
                stack.append((parent, False))

    loss._node.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # reverse topological order; the list lets go of it
        grads = node.backward_fn(node.grad)
        for sink, grad in zip(node.parents, grads):
            if grad is None or sink is None:
                continue
            if sink.grad is None:
                # a fresh array holding 0.0 + grad, so -0.0 becomes 0.0
                sink.grad = grad + 0.0
            else:
                sink.grad += grad
        node.grad = None
        node.parents = ()
        node.backward_fn = node.rebuild = None
        node = grads = grad = None  # the next closure runs without these arrays


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc
    ashape, bshape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _result(data, (a, b), bwd, "add")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc
    ashape, bshape = a.shape, b.shape
    bd = _kept(b) if a.requires_grad else None  # each factor is read only for the other's gradient
    ad = _kept(a) if b.requires_grad else None

    def bwd(g):
        ga = None if bd is None else _unbroadcast(g * _restored(bd), ashape)
        gb = None if ad is None else _unbroadcast(g * _restored(ad), bshape)
        return ga, gb

    return _result(data, (a, b), bwd, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            data = a.data / b.data
    except ValueError as exc:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from exc
    ashape, bshape, bd = a.shape, b.shape, b.data
    want_a = a.requires_grad
    quotient = data if b.requires_grad else None

    def bwd(g):
        ga = _unbroadcast(g / bd, ashape) if want_a else None
        gb = None if quotient is None else _unbroadcast(-g * quotient / bd, bshape)
        return ga, gb

    return _result(data, (a, b), bwd, "div")


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
    ad = a.data

    def bwd(g):
        return (g / ad,)

    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(ad)
    return _result(data, (a,), bwd, "log")


def _floored(a, floor, out=None):
    """max(a, floor) + 0.0, into `out` when given: the one ReLU rule.

    The added 0.0 turns -0.0 into 0.0, so for floor >= 0 and finite `a` this
    equals `np.where(a > floor, a, floor)` bit for bit. Non-finite input
    must be caught before: `np.maximum` maps -inf to the floor.
    """
    out = np.maximum(a, floor, out=out)
    out += 0.0
    return out


def clamp_min(a, floor):
    """max(a, floor), passing no gradient at or below the floor.

    The coordinate gate's ReLU (floor 0.0) and the log floor; a
    `ConvBnReLU` block's ReLU is the end of `batch_norm`.
    """
    a = _as_tensor(a)
    mask = a.data > floor

    def bwd(g):
        return (g * mask,)

    return _result(_floored(a.data, floor), (a,), bwd, "clamp_min")


def sum_all(a):
    a = _as_tensor(a)
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _result(a.data.sum(), (a,), bwd, "sum")


def sum_axis(a, axis):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _result(data, (a,), bwd, "sum_axis")


def mean_axis(a, axis, keepdims=False):
    a = _as_tensor(a)
    shape = a.shape
    n = shape[axis]
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, shape).copy(),)

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
    shape = a.shape

    def bwd(g):
        out = np.zeros(shape)
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


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

# a tile's window matrix budget (half a 2 MiB per-core L2); a tile still holds one output row
_TILE_BYTES = 1 << 20


@dataclass
class ConvParams:
    """Weights and geometry for one convolution.

    `weight` is (out_ch, in_ch, k...) for direct convolutions and
    (in_ch, out_ch, k...) for transposed ones. `stride` / `padding` /
    `output_padding` are per spatial axis (scalars broadcast);
    `output_padding` only lengthens the output of a transposed convolution.
    `replicate_depth` pads the first spatial axis (depth) of a direct
    convolution's input by that many copies of its edge slices at each end,
    inside the zero `padding`.
    """

    weight: Tensor
    bias: Tensor | None = None
    stride: tuple = 1
    padding: tuple = 0
    output_padding: tuple = 0
    replicate_depth: int = 0


def _per_axis(value, n, name, low):
    """`value` as `n` ints, each >= `low`; a scalar applies to every axis."""
    # a tuple or int is told apart without np.ndim, which costs more than the rest
    scalar = not isinstance(value, tuple) and (isinstance(value, int) or np.ndim(value) == 0)
    value = (int(value),) * n if scalar else tuple(map(int, value))
    if len(value) != n or min(value) < low:
        raise ParameterError(f"{name} must be {n} integers >= {low}, got {value}")
    return value


def _padded_rows(a, pad, edge, top, stop):
    """Rows [top, stop) of (C, *spatial) `a` zero-padded by `pad` per axis.

    Rows count in padded coordinates, and every other axis is whole. Inside
    the zeros, the depth axis of a 3D grid grows by `edge` copies of its
    first and last slices at either end. A fresh array, or a view of a
    C-contiguous `a` where nothing pads (as a copy would be laid out): read
    it, never write it.
    """
    if not (edge or any(pad)) and a.flags.c_contiguous:
        return a[..., top:stop, :]
    *lead, ph, pw = pad
    *planes, h, w = a.shape[1:]
    shape = (a.shape[0], *(n + 2 * (p + edge) for n, p in zip(planes, lead)), stop - top,
             w + 2 * pw)
    block = np.zeros(shape) if any(pad) else np.empty(shape)  # unpadded, every entry is written
    first, last = max(top, ph), min(stop, ph + h)  # the padded rows that are rows of `a`
    if last > first:
        src = a[..., first - ph:last - ph, :]
        at = (slice(first - top, last - top), slice(pw, pw + w))
        depth = [slice(p + edge, p + edge + n) for n, p in zip(planes, lead)]
        block[(slice(None), *depth, *at)] = src
        if edge:
            d = depth[0]
            block[(slice(None), slice(d.start - edge, d.start), *at)] = src[:, :1]
            block[(slice(None), slice(d.stop, d.stop + edge), *at)] = src[:, -1:]
    return block


def _fold_edges(ext, edge):
    """Adjoint of the depth edge replication, in place on (C, n + 2 * edge, ...) `ext`.

    Adds the sum of the `edge` slices at either end onto the first and last
    of the middle n slices, and returns those n (a view).
    """
    ext[:, edge] += ext[:, :edge].sum(axis=1)
    ext[:, -edge - 1] += ext[:, -edge:].sum(axis=1)
    return ext[:, edge:-edge]


def _unfold(windows, rows):
    """The window matrix of the output `rows` of (C, kh, kw, [span,] H, W) `windows`.

    It is (C * kh * kw, [span *] n * W): a band of a 3D grid unfolds all
    `span` padded depth slices it reads. A copy of the band's windows, or a
    view of the block of padded rows they come from where they are already
    contiguous (a 1x1 kernel at stride 1): read it, never write it.
    """
    cols = windows[..., rows, :]
    return cols.reshape(math.prod(cols.shape[:3]), -1)


def _block_rows(rows, fit, h):
    """The output rows of a block that starts at band `rows`: as many whole
    bands as `fit` rows allow, one at least, and none past row `h`."""
    n = rows.stop - rows.start
    return range(rows.start, min(h, rows.start + n * max(1, fit // n)))


def _tile_grid(k_rows, small, halo=0):
    """The tiles of the output grid `small`, in order: bands of whole output rows.

    A band of a 3D grid spans every depth slice. It holds as many rows as
    keep its window block, `k_rows * (D + halo) * n * W` doubles for n rows
    of D slices (D = 1 on a 2D grid), within `_TILE_BYTES`, never fewer than
    one; `halo` is the count of padded depth slices a band reads beyond its
    D output slices. Yields per band its slices of the output grid.
    """
    *lead, h, w = small
    depth = math.prod(lead)
    rows = max(1, _TILE_BYTES // (8 * k_rows * (depth + halo) * w))
    for r in range(0, h, rows):
        yield (*(slice(0, n) for n in lead), slice(r, min(r + rows, h)), slice(0, w))


def _tile_gemms(x, pad, kshape, stride, small, wmat=None, a=None, edge=0, fold=0):
    """The two GEMMs on the window matrix of (C, *spatial) `x` padded by `pad`, band by band.

    Returns `wmat @ cols` as (rows, *small) and `a @ cols.T` for an
    (A, *small) `a`, as (A, C, *k); either is None when its operand is.
    `cols`, the whole (C * prod(k), prod(small)) window matrix, is never
    built, nor is the whole padded `x`: `_padded_rows` builds a block of
    the padded rows that whole bands of output rows (`_tile_grid`) read, as
    many bands as fit `_TILE_BYTES` and one at least, with `edge` replicated
    depth slices inside the zeros. Per band, `_unfold` copies the (kh, kw)
    windows of each padded depth slice of the block once; depth tap j reads
    its slices of that copy, so each GEMM splits into one per depth tap,
    summed in tap order. A 2D grid is one slice with one tap. The windows
    and GEMMs are those of the whole padded `x`, so the bits are too.

    `a` lies on the output grid, so each band reads only its own rows of
    `a` (`_padded_rows`). `fold` > 0 says `small`'s depth is `a`'s grown by
    `fold` replicated edge slices at either end: each band of `a` is grown
    so, and each band of the result is folded back (`_fold_edges`), which
    makes the result (rows, depth - 2 * fold, ...).
    """
    c = x.shape[0]
    lead = len(small) - 2  # 1 when there is a depth axis to split
    kd, sd, depth = (kshape[0], stride[0], small[0]) if lead else (1, 1, 1)
    kh, sh = kshape[-2], stride[-2]
    h, w = small[-2:]
    k_rows = c * math.prod(kshape[lead:])
    y = acc = None
    if wmat is not None:
        # (kd, rows, C * kh * kw): the weight's columns for each depth tap
        wtaps = wmat.reshape(len(wmat), c, kd, -1).transpose(2, 0, 1, 3)
        wtaps = wtaps.reshape(kd, len(wmat), -1)
        y = np.empty((len(wmat), (depth - 2 * fold) * h * w))
    if a is not None:
        acc = np.zeros((len(a), c, kd, k_rows // c))
        acols = a.reshape(len(a), -1)
    span = (depth - 1) * sd + kd  # the padded depth slices the output reads
    taps = [slice(j, j + (depth - 1) * sd + 1, sd) for j in range(kd)]
    # a block holds the padded input rows of whole bands: as many as fit the budget, one at least
    padded_row = 8 * c * (x.shape[-1] + 2 * pad[-1])
    if lead:
        padded_row *= x.shape[1] + 2 * (pad[0] + edge)
    fit = (_TILE_BYTES // padded_row - kh) // sh + 1  # output rows
    block_rows = range(0)
    for tile in _tile_grid(k_rows, small, span - depth):
        rows = tile[-2]
        if rows.stop > block_rows.stop:
            block_rows = _block_rows(rows, fit, h)
            block = _padded_rows(x, pad, edge, block_rows.start * sh,
                                 (block_rows.stop - 1) * sh + kh)
            plane = block.strides[1 + lead:]
            windows = np.lib.stride_tricks.as_strided(  # entry (c, kh, kw, [slice,] row, col)
                block, shape=(c, *kshape[lead:], *(span,) * lead, len(block_rows), w),
                strides=(block.strides[0], *plane, *block.strides[1:1 + lead],
                         *(s * st for s, st in zip(plane, stride[lead:]))))
        first = rows.start - block_rows.start
        cols = _unfold(windows, slice(first, first + rows.stop - rows.start))
        cols = cols.reshape(k_rows, span, -1)
        tap_cols = [cols[:, t].reshape(k_rows, -1) for t in taps]
        # on a 2D grid, or holding every row, a band is one run of the flattened columns
        run = not fold and (depth == 1 or rows.stop - rows.start == h)
        at = slice(rows.start * depth * w, rows.stop * depth * w)
        if y is not None:
            band = y[:, at] if run else np.empty((len(y), tap_cols[0].shape[1]))
            np.matmul(wtaps[0], tap_cols[0], out=band)
            part = np.empty_like(band) if kd > 1 else None
            for wj, cj in zip(wtaps[1:], tap_cols[1:]):
                np.matmul(wj, cj, out=part)
                band += part
            if not run:
                band = band.reshape(len(y), depth, -1, w)
                y.reshape(len(y), -1, h, w)[:, :, rows] = _fold_edges(band, fold) if fold else band
        if acc is not None:
            if run:
                band = acols[:, at]
            else:
                band = _padded_rows(a, (0,) * len(small), fold, rows.start, rows.stop)
                band = band.reshape(len(a), -1)
            for j, cj in enumerate(tap_cols):
                acc[:, :, j] += (band @ cj.T).reshape(len(a), c, -1)
    grid = (depth - 2 * fold, h, w) if fold else small
    return (None if y is None else y.reshape(len(y), *grid),
            None if acc is None else acc.reshape(-1, c, *kshape))


def _scatter(cols, out, kshape, stride, tile):
    """Adjoint of `_unfold`: add one tile's window columns onto the padded (C, *spatial) `out`."""
    cols = cols.reshape(out.shape[0], *kshape, *(t.stop - t.start for t in tile))
    for off in np.ndindex(*kshape):
        sel = tuple(slice(o + t.start * st, o + (t.stop - 1) * st + 1, st)
                    for o, t, st in zip(off, tile, stride))
        out[(slice(None), *sel)] += cols[(slice(None), *off)]


def _flip_swap(a):
    """(A, B, *k) -> (B, A, *k) with every kernel axis reversed."""
    return np.flip(a, axis=tuple(range(2, a.ndim))).swapaxes(0, 1)


def _stride1_grads(g, w, big, pad, want_dx=True, x=None, fold=0):
    """Stride-1 gradients of a direct convolution with weight (C_out, C_in, *k): (dx, dw).

    The windows of `g` zero-padded by k - 1 - p per axis (cropped by
    p - k + 1 where p >= k: those outputs see only padding) line up with the
    input grid `big`; `_tile_gemms` pads each band's rows. With the kernel
    flipped and its channel axes swapped (`_flip_swap`), the input gradient
    is `w' @ gcols` and, given the input `x`, the weight gradient is
    `x @ gcols.T`, from the same bands. Either is None when not asked for.
    With `fold` > 0, `big` is `x`'s grid with depth grown by `fold`
    replicated slices at either end, and dx comes folded back onto `x`'s.
    The one place the stride-1 input gradient is computed, so a transposed
    convolution stays equal to the direct convolution's input gradient bit
    for bit.
    """
    _, c_in, *kshape = w.shape
    small = g.shape[1:]
    cut = [max(p - k + 1, 0) for p, k in zip(pad, kshape)]
    g = g[(slice(None), *(slice(e, n - e) for e, n in zip(cut, small)))]
    grow = tuple(max(k - 1 - p, 0) for p, k in zip(pad, kshape))
    wmat = _flip_swap(w).reshape(c_in, -1) if want_dx else None
    dx, dw = _tile_gemms(g, grow, kshape, (1,) * len(kshape), big, wmat, x, fold=fold)
    return dx, None if dw is None else _flip_swap(dw)


def _input_grad(g, w, big, pad, stride, fold=0):
    """Input gradient (C_in, *big) of a direct convolution with weight (C_out, C_in, *k).

    At stride 1 it is `_stride1_grads`. A larger stride takes, tile by
    tile, the transposed GEMM of the output gradient and `_scatter`s its
    window columns onto the padded input grid, which it returns cropped: a
    view, whose padding is a border of the result, not a copy. The layout
    stays that of a crop because reductions over the result (batch norm's
    statistics of a transposed conv's output) sum in an order that depends
    on it. `fold` > 0, at stride > 1 only, folds the gradients of that many
    replicated depth slices at either end back in place (`_fold_edges`).
    """
    c_out, c_in, *kshape = w.shape
    if all(s == 1 for s in stride):
        return _stride1_grads(g, w, big, pad)[0]
    wmat_t = w.reshape(c_out, -1).T
    out = np.zeros((c_in, *(n + 2 * p for n, p in zip(big, pad))))
    for tile in _tile_grid(wmat_t.shape[0], g.shape[1:]):
        _scatter(wmat_t @ g[(slice(None), *tile)].reshape(c_out, -1), out, kshape, stride, tile)
    out = out[(slice(None), *(slice(p, p + n) for p, n in zip(pad, big)))]
    return _fold_edges(out, fold) if fold else out


def _conv(x, params, nsp, op, transposed=False):
    """Convolution of (C, *spatial) over `nsp` spatial axes, direct or transposed.

    Every GEMM runs on output tiles (`_tile_grid`), bands of output rows
    that span every depth slice, so no whole window matrix exists, forward
    or backward, nor a whole padded input. A direct convolution
    maps a big grid to a small one: per block of padded input rows, per
    band `_unfold` the (kh, kw) windows of its padded depth slices once and
    apply the weight, one GEMM per depth tap (`_tile_gemms`). Its backward
    keeps no window matrix: at stride 1 the bands of the padded output
    gradient give both the input and the weight gradient
    (`_stride1_grads`); at stride > 1 the weight gradient unfolds the input
    again, band by band, and the input gradient is the tiled transposed
    GEMM and `_scatter` (`_input_grad`). A transposed convolution is that
    input gradient as an operator, so its forward is `_input_grad` and its
    backward unfolds the padded output gradient's bands for both GEMMs.

    `replicate_depth` edges sit inside the zeros of each block of padded
    rows. The stride-1 backward grows each band of the input by them for
    the weight gradient and folds each band of the input gradient back
    (`_fold_edges`); the strided one folds its input gradient in place.
    """
    x = _as_tensor(x)
    w = params.weight
    b = params.bias
    stride = _per_axis(params.stride, nsp, "stride", 1)
    pad = _per_axis(params.padding, nsp, "padding", 0)
    outpad = _per_axis(params.output_padding, nsp, "output_padding", 0)
    if any(o >= s for o, s in zip(outpad, stride)):
        raise ParameterError(f"output_padding {outpad} must be smaller than stride {stride}")
    edge = int(params.replicate_depth)
    if edge < 0 or (edge and transposed):
        raise ParameterError(f"{op}: replicate_depth must be >= 0, and 0 when transposed; "
                             f"got {edge}")
    if x.ndim != nsp + 1 or w.ndim != nsp + 2:
        raise DimensionError(f"{op}: input {x.shape} or weight {w.shape} has the wrong rank")
    c_out, c_in = w.shape[1::-1] if transposed else w.shape[:2]
    if x.shape[0] != c_in:
        raise DimensionError(f"{op}: input has {x.shape[0]} channels, weight expects {c_in}")
    kshape = w.shape[2:]
    if transposed:
        small = x.shape[1:]
        big = out_sp = tuple((n - 1) * s - 2 * p + k + o
                             for n, s, p, k, o in zip(small, stride, pad, kshape, outpad))
    else:
        big = (x.shape[1] + 2 * edge, *x.shape[2:])
        small = out_sp = tuple((n + 2 * p - k) // s + 1
                               for n, s, p, k in zip(big, stride, pad, kshape))
    if min(out_sp) < 1:
        raise DimensionError(f"{op}: empty output for input {x.shape}, kernel {kshape}")
    parents = (x, w) if b is None else (x, w, b)
    wd = w.data
    wmat = wd.reshape(w.shape[0], -1)
    if transposed:
        y = _input_grad(x.data, wd, big, pad, stride)
    else:
        y, _ = _tile_gemms(x.data, pad, kshape, stride, small, wmat, edge=edge)
    if b is not None:
        y += b.data.reshape(c_out, *(1,) * nsp)
    want_dx = x.requires_grad
    kept_x = _kept(x) if w.requires_grad else None  # read only for the weight gradient
    has_bias = b is not None
    want_db = has_bias and b.requires_grad

    def bwd(g):
        xd = _restored(kept_x)
        dx = dw = None
        if transposed:
            dx, dw = _tile_gemms(g, pad, kshape, stride, small, wmat if want_dx else None, xd)
        elif all(s == 1 for s in stride):
            dx, dw = _stride1_grads(g, wd, big, pad, want_dx, xd, edge)
        else:
            if xd is not None:
                _, dw = _tile_gemms(xd, pad, kshape, stride, small, a=g, edge=edge)
            if want_dx:
                dx = _input_grad(g, wd, big, pad, stride, edge)
        if not has_bias:
            return dx, dw
        return dx, dw, g.reshape(c_out, -1).sum(axis=1) if want_db else None

    return _result(y, parents, bwd, op)


def conv2d(x, params):
    """Cross-correlation over (C, H, W); see ConvParams for the layout."""
    return _conv(x, params, 2, "conv2d")


def conv3d(x, params):
    """Cross-correlation over (C, D, H, W)."""
    return _conv(x, params, 3, "conv3d")


def conv_transpose3d(x, params):
    """Transposed 3D convolution: the input gradient of `conv3d` with the same weight.

    The weight is (in_ch, out_ch, kd, kh, kw). With stride 2, kernel 3,
    padding 1 and output_padding 1 along an axis the output extent is exactly
    double the input extent.
    """
    return _conv(x, params, 3, "conv_transpose3d", transposed=True)


# ---------------------------------------------------------------------------
# sampling and resizing
# ---------------------------------------------------------------------------

def bilinear_taps(x, y, h, w):
    """Corners of pixel-center samples in an (h, w) map: `(indices, weights, inside)`.

    Flat indices and weights of corners (y0, x0), (y0, x1), (y1, x0), (y1, x1);
    `inside` marks [0, w-1] x [0, h-1], and outside it all four weights are 0."""
    inside = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.where(inside, x, 0.0)
    ys = np.where(inside, y, 0.0)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = xs - x0
    ty = ys - y0
    vf = inside.astype(np.float64)
    idx = (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1)
    wts = ((1.0 - tx) * (1.0 - ty) * vf, tx * (1.0 - ty) * vf,
           (1.0 - tx) * ty * vf, tx * ty * vf)
    return idx, wts, inside


def _gather(flat, idx, wts, out=None):
    """(C, n) bilinear samples of a (C, H*W) map at one chunk's taps; corner
    terms accumulate left to right: ((c00 + c01) + c10) + c11. The taps are
    in range, so mode "clip" changes no index; it only skips the bounds
    check and the buffered copy that mode "raise" makes."""
    term = np.take(flat, idx[0], axis=1, mode="clip")
    out = np.multiply(term, wts[0], out=out)
    for i, wt in zip(idx[1:], wts[1:]):
        np.take(flat, i, axis=1, out=term, mode="clip")
        term *= wt
        out += term
    return out


def grid_sample_bilinear(src, coords, ref=None, groups=1):
    """Bilinear sampling of (C, H, W) at continuous pixel coordinates, alone or
    correlated group-wise with a reference.

    `coords` is a (2, *out) array holding (x, y) in source pixel units where
    integer values hit pixel centers exactly. Corners and weights come from
    `bilinear_taps`, so samples whose center falls outside [0, W-1] x [0, H-1]
    return exactly 0. Without `ref` the result is the (C, *out) samples.

    With a (C, H', W') `ref` and (2, D, H', W') `coords`, the result is the
    (G, D, H', W') correlation over `groups` = G equal channel groups: per
    point, each sample times the reference at its (H', W') pixel, averaged
    over its group's channels (summed in channel order from 0.0, then divided
    by the group size, as numpy's `mean` over the channel axis does).
    Gradients flow to `src` and `ref`; coordinates are treated as constants.

    The points run in chunks of at most `_TILE_BYTES // (8 * C)`, the conv
    tile budget, so a chunk's (C, n) gather and its per-point index and
    weight temporaries stay cache-sized. A chunk is a run of columns within
    one depth slice of the output, so its part of `ref` is a column slice,
    never a gather. Each chunk writes its own columns of the output.
    Every value is computed point by point, so the chunk split changes no
    bit. A recorded call keeps only `coords` (and the input each gradient
    reads); its backward recomputes each chunk's taps, sums `ref`'s gradient
    over depth in depth order and gives `src`'s by one corner-major
    `bincount` per channel.
    """
    src = _as_tensor(src)
    cd = np.asarray(coords, dtype=np.float64)
    if cd.ndim == 0 or cd.shape[0] != 2:
        raise DimensionError(f"coords must be (2, ...), got {cd.shape}")
    if src.ndim != 3:
        raise DimensionError(f"src must be (C, H, W), got {src.shape}")
    c, h, w = src.shape
    if c == 0:
        raise DimensionError(f"src has no channels: {src.shape}")
    xs = cd[0].ravel()
    ys = cd[1].ravel()
    flat = src.data.reshape(c, h * w)
    if ref is None:
        if groups != 1:
            raise ParameterError(f"{groups} groups need a reference to correlate with")
        parents, rows, per_slice, rflat = (src,), c, xs.size, None
    else:
        ref = _as_tensor(ref)
        if ref.ndim != 3 or ref.shape[0] != c:
            raise DimensionError(f"ref must be ({c}, H, W) to match src {src.shape}, "
                                 f"got {ref.shape}")
        if cd.ndim != 4 or cd.shape[2:] != ref.shape[1:]:
            raise DimensionError(f"coords must be (2, D, {ref.shape[1]}, {ref.shape[2]}) "
                                 f"to match ref, got {cd.shape}")
        if groups <= 0 or c % groups:
            raise ParameterError(f"channel count {c} not divisible by {groups} groups")
        # the backward sweep enters the last parent's graph first; src before
        # ref fixes the order in which shared parameters add up their gradients
        parents, rows, per_slice = (ref, src), groups, ref.shape[1] * ref.shape[2]
        rflat = ref.data.reshape(c, per_slice)
    correlate = ref is not None
    k = c // rows  # channels per group
    step = max(1, _TILE_BYTES // (8 * c))
    per_slice = max(1, per_slice)
    n_slices = xs.size // per_slice

    def chunks():
        """Each chunk's points, its columns within their depth slice, and its
        taps: a run of at most `step` columns of one slice."""
        for first in range(0, xs.size, per_slice):
            for start in range(0, per_slice, step):
                stop = min(start + step, per_slice)
                at = slice(first + start, first + stop)
                idx, wts, _ = bilinear_taps(xs[at], ys[at], h, w)
                yield at, slice(start, stop), idx, wts

    out = np.empty((rows, xs.size))
    for at, cols, idx, wts in chunks():
        if not correlate:
            _gather(flat, idx, wts, out[:, at])
            continue
        prod = _gather(flat, idx, wts)
        prod *= rflat[:, cols]
        parts = prod.reshape(rows, k, -1)
        dst = out[:, at]
        dst[...] = 0.0  # each group sums from 0.0 in channel order, as numpy's mean does
        for j in range(k):
            dst += parts[:, j]
        dst /= k
    out = out.reshape((rows, *cd.shape[1:]))

    want_src = src.requires_grad
    ref_shape = (c, *cd.shape[2:])
    # each input is read only for the other's gradient
    samples_of = flat if correlate and ref.requires_grad else None
    ref_of = rflat if want_src else None

    def bwd(g):
        g = g.reshape(rows, -1)
        if correlate:
            g = g / k  # a group mean's gradient, shared by its channels
        if want_src:
            idx_all = np.empty((4, xs.size), dtype=np.int64)
            wts_all = np.empty((4, xs.size))
        dref = None if samples_of is None else np.zeros((c, per_slice))
        for at, cols, idx, wts in chunks():  # depth slices in order
            if want_src:
                for j in range(4):
                    idx_all[j, at] = idx[j]
                    wts_all[j, at] = wts[j]
            if dref is not None:
                prod = _gather(samples_of, idx, wts)
                parts = prod.reshape(rows, k, -1)
                parts *= g[:, None, at]
                dref[:, cols] += prod
        dsrc = None
        if want_src:
            # one bincount per channel over the corners in order, corner-major:
            # each pixel receives the same additions in the same order as a
            # scatter-add per corner
            idx_all = idx_all.ravel()
            vals = np.empty_like(wts_all)
            grad_at = np.empty((n_slices, per_slice)) if correlate else None
            dsrc = np.empty((c, h * w))
            for ch in range(c):
                if correlate:  # a sample's gradient is its group mean's times the reference
                    point_grad = np.multiply(g[ch // k].reshape(n_slices, per_slice), ref_of[ch],
                                             out=grad_at).ravel()
                else:
                    point_grad = g[ch]
                np.multiply(wts_all, point_grad, out=vals)  # each corner's weight times it
                dsrc[ch] = np.bincount(idx_all, vals.ravel(), minlength=h * w)
            dsrc = dsrc.reshape(c, h, w)
        if not correlate:
            return (dsrc,)
        return (None if dref is None else dref.reshape(ref_shape), dsrc)

    return _result(out, parents, bwd, "grid_sample")


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

    def bwd(g):
        return (np.einsum("ih,cij,jw->chw", mh, g, mw, optimize=True),)

    return _result(resize_bilinear(a.data, (2 * h, 2 * w)), (a,), bwd, "upsample2x")


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

BN_EPS = 1e-5  # added to the variance before its square root


def batch_norm(x, gamma, beta, mean=None, var=None):
    """Per-channel normalization over all spatial axes of (C, *spatial), ending in the ReLU.

    Returns `(y, mean, var)`: y = max(gamma * xhat + beta, 0) by the one
    ReLU rule (`_floored`), and the per-channel statistics it used. Without
    `mean` and `var` it normalizes with `x`'s own statistics and the
    gradient flows through them; given statistics are constants. No
    argument is written.

    The node keeps `xhat` only. Its backward rebuilds the ReLU's mask from
    `xhat`, `gamma` and `beta` with the forward's arithmetic, and its
    `rebuild` recomputes y for a consumer whose backward reads it (a conv's
    weight gradient, the other factor of a `mul`), so neither the mask nor
    y outlives the forward. Finiteness is checked once, on the values before
    the ReLU, which would map -inf to 0.
    """
    x = _as_tensor(x)
    axes = tuple(range(1, x.ndim))
    bshape = (x.shape[0],) + (1,) * (x.ndim - 1)
    batch_stats = mean is None
    if batch_stats:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = x.data - mean.reshape(bshape)
    xhat *= inv.reshape(bshape)
    gd, bd = gamma.data.reshape(bshape), beta.data.reshape(bshape)

    def affine(into=None):
        """gamma * xhat + beta, the values the ReLU reads, into a fresh array or `into`."""
        y = np.multiply(gd, xhat, out=into)
        y += bd
        return y

    def rebuild():
        y = affine()
        return _floored(y, 0.0, y)

    n = int(np.prod(x.shape[1:]))
    want_dx, want_dgamma, want_dbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def bwd(g):
        # the ReLU's gradient, plus 0.0 as backward's first arrival adds it
        gm = g * (affine() > 0.0)
        gm += 0.0
        gs = gm.sum(axis=axes, keepdims=True)
        gx = (gm * xhat).sum(axis=axes, keepdims=True)
        dx = None
        if want_dx:
            gr = gd * inv.reshape(bshape)
            dx = gr * (gm - gs / n - xhat * gx / n) if batch_stats else gr * gm
        return (dx, gx.reshape(-1) if want_dgamma else None,
                gs.reshape(-1) if want_dbeta else None)

    # the backward reads xhat; without one, the output may overwrite it
    out = _result(affine(None if _records((x, gamma, beta)) else xhat),
                  (x, gamma, beta), bwd, "batch_norm", rebuild)
    _floored(out.data, 0.0, out.data)  # only now: np.maximum would hide a -inf from _result's check
    return out, mean, var
