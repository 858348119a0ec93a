"""Shared fixtures: cameras, calibrated pairs, plane-induced homographies,
warp validity masks, textured plane scenes, parameter-free photometric
matching features, loop-based references for vectorized kernels, and a
per-call memory trace of the tensor operators."""

import inspect
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest

from minimvs import synth
from minimvs import tensor as T
from minimvs.errors import ParameterError
from minimvs.geometry import Camera, relative_pose, warp_coords
from minimvs.tensor import Tensor


def make_camera(fx=300.0, fy=300.0, cx=40.0, cy=30.0, R=None, t=None,
                depth_range=(1.0, 9.0)):
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    r = np.eye(3) if R is None else np.asarray(R, dtype=np.float64)
    tt = np.zeros(3) if t is None else np.asarray(t, dtype=np.float64)
    return Camera(k, r, tt, depth_range[0], depth_range[1])


def rotation_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    cross = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle) * cross + (1 - np.cos(angle)) * (cross @ cross)


def random_rotation(rng, scale=0.25):
    w = rng.normal(size=3) * scale
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        return np.eye(3)
    return rotation_from_axis_angle(w, angle)


def random_calibrated_pair(rng, depth_range=(1.0, 50.0)):
    """Two cameras with generic intrinsics/poses looking roughly down +z."""
    def cam():
        k = np.array([
            [rng.uniform(250.0, 700.0), 0.0, rng.uniform(20.0, 60.0)],
            [0.0, rng.uniform(250.0, 700.0), rng.uniform(15.0, 50.0)],
            [0.0, 0.0, 1.0],
        ])
        return Camera(k, random_rotation(rng, 0.2), rng.normal(size=3) * 0.3,
                      depth_range[0], depth_range[1])
    return cam(), cam()


def plane_homography(cam_from, cam_to, normal, plane_d):
    """Homography induced by the plane ``normal . x = plane_d`` (frame of cam_from).

    Maps homogeneous pixels of `cam_from` to pixel coordinates of `cam_to`.
    """
    r_rel, t_rel = relative_pose(cam_from, cam_to)
    normal = np.asarray(normal, dtype=np.float64).reshape(3)
    h_cam = r_rel + np.outer(t_rel, normal) / plane_d
    try:
        k_inv = np.linalg.inv(cam_from.K)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("singular intrinsic matrix") from exc
    return cam_to.K @ h_cam @ k_inv


def homography(ref, src, depth):
    """Fronto-parallel sweep homography at `depth` in the reference frame.

    The plane normal is the reference optical axis (0, 0, 1) in the reference
    camera frame; with identical cameras the result is the identity for any
    depth, and it is depth-independent whenever the camera centers coincide.
    """
    if depth <= 0:
        raise ParameterError(f"plane depth must be positive, got {depth}")
    return plane_homography(ref, src, (0.0, 0.0, 1.0), float(depth))


def warp_valid(ref_cam, src_cam, hyp, h, w):
    """(D, H, W) mask of warps that land inside the source image (both h x w).

    Uses grid-sample's rule, 0 <= x <= w-1 and 0 <= y <= h-1; samples outside
    it contribute exact zeros to the correlation.
    """
    x, y = warp_coords(ref_cam, src_cam, hyp, h, w)
    return (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)


def plane_scene(depth, extent=6.0, texture=None, tilt=(0.0, 0.0)):
    """A single large textured quad roughly perpendicular to +z at `depth`.

    `tilt` gives the slopes of the plane along x and y (0 = fronto-parallel
    for a camera looking down +z from the origin).
    """
    texture = texture if texture is not None else synth.Texture()
    origin = np.array([-extent / 2.0, -extent / 2.0,
                       depth - extent / 2.0 * (tilt[0] + tilt[1])])
    edge_u = np.array([extent, 0.0, extent * tilt[0]])
    edge_v = np.array([0.0, extent, extent * tilt[1]])
    return synth.Scene([synth.Rectangle(origin, edge_u, edge_v, texture)])


def fronto_plane_setup(height=64, width=80, n_views=3, span_deg=40.0,
                       depth=4.5, spacing=0.95, noise_scale=14.0, seed=1,
                       focal_factor=1.6):
    """Arc cameras (center view = reference) viewing a plane fronto-parallel
    to the reference camera at `depth`, with a sweep of 8 bins at `spacing`.

    Returns (cams, scene, renders, (dmin, dmax)); cams[0] is the reference.
    """
    arc = synth.arc_cameras(n_views, height, width, radius=4.0, span_deg=span_deg,
                            depth_range=(1.0, 99.0), focal_factor=focal_factor)
    order = [n_views // 2] + [i for i in range(n_views) if i != n_views // 2]
    ref = arc[order[0]]
    dmin = depth - 3.3 * spacing
    dmax = depth + 3.7 * spacing
    axis = ref.R.T @ np.array([0.0, 0.0, 1.0])
    ex = ref.R.T @ np.array([1.0, 0.0, 0.0])
    ey = ref.R.T @ np.array([0.0, 1.0, 0.0])
    tex = synth.Texture(noise_amount=1.0, noise_scale=noise_scale,
                        checker_scale=2.0, octaves=1, seed=seed)
    plane = synth.Rectangle(ref.center() + depth * axis - 8 * ex - 8 * ey,
                            16 * ex, 16 * ey, tex)
    scene = synth.Scene([plane])
    cams = [Camera(arc[i].K, arc[i].R, arc[i].t, dmin, dmax) for i in order]
    renders = [synth.render(scene, cam, height, width) for cam in cams]
    return cams, scene, renders, (dmin, dmax)


def box_blur(image, k):
    """Separable box filter of window 2k (reflect edges) over (C, H, W)."""
    out = np.asarray(image, dtype=np.float64).copy()
    for axis in (1, 2):
        pads = [(0, 0)] * 3
        pads[axis] = (k, k)
        padded = np.pad(out, pads, mode="reflect")
        csum = np.cumsum(padded, axis=axis)
        n = out.shape[axis]
        out = (np.take(csum, range(2 * k, 2 * k + n), axis=axis)
               - np.take(csum, range(0, n), axis=axis)) / (2 * k)
    return out


def photometric_features(image, factor, role, blur=None):
    """Untrained matching features whose product correlation scores photo-consistency.

    Channels are the blurred, subsampled image colors plus one extra channel:
    a constant 1 on the reference side and -|color|^2 / 2 on the source side.
    The channel-mean product of a (ref, src) pair then equals
    ``f_ref . f_src - |f_src|^2 / 2``, which is the blurred-image SSD score up
    to a depth-independent offset, so its argmax over hypotheses is classic
    plane-sweep photometric matching. No parameters are involved.
    """
    if role not in ("ref", "src"):
        raise ParameterError(f"role must be 'ref' or 'src', got {role!r}")
    image = np.asarray(image, dtype=np.float64)
    blur = max(factor // 2, 1) if blur is None else blur
    smooth = box_blur(image, blur) if blur else image
    sub = smooth[:, ::factor, ::factor]
    if role == "ref":
        extra = np.ones((1, *sub.shape[1:]))
    else:
        extra = -0.5 * (sub * sub).sum(axis=0, keepdims=True)
    return Tensor(np.concatenate([sub, extra], axis=0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


def assert_close(got, want):
    """`got` within 1e-12 of `want`, relative to `want`'s largest magnitude."""
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def scene_mean(values):
    """Arithmetic mean of per-scene scores, as the paper's tables average them."""
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def scatter_input_grad(g, w, big, pad, stride):
    """Input gradient of a direct conv, the transposed-GEMM-and-scatter way.

    `g` is the (C_out, *small) output gradient and `w` the (C_out, C_in, *k)
    weight: one GEMM gives every window column, and each kernel offset adds
    its strided slab onto the zero-padded (C_in, *big) grid, which is then
    cropped. A reference for `tensor._input_grad` on every stride.
    """
    c_out, c_in, *kshape = w.shape
    small = g.shape[1:]
    cols = (w.reshape(c_out, -1).T @ g.reshape(c_out, -1)).reshape(c_in, *kshape, *small)
    out = np.zeros((c_in, *(n + 2 * p for n, p in zip(big, pad))))
    for off in np.ndindex(*kshape):
        sel = tuple(slice(o, o + (n - 1) * s + 1, s) for o, n, s in zip(off, small, stride))
        out[(slice(None), *sel)] += cols[(slice(None), *off)]
    return out[(slice(None), *(slice(p, p + n) for p, n in zip(pad, big)))]


def window_matrix(a, kshape, pad, stride, small):
    """The whole (C * prod(k), prod(small)) im2col matrix of (C, *big), one kernel offset at a time.

    Row (c, offset) holds the strided slab of the zero-padded input that the
    kernel tap at `offset` sees. A reference for the window matrices the
    convolutions unfold: `w.reshape(C_out, -1) @ cols` is the forward and
    `g.reshape(C_out, -1) @ cols.T` the weight gradient.
    """
    ap = np.pad(a, [(0, 0)] + [(p, p) for p in pad])
    slabs = [ap[(slice(None), *(slice(o, o + (n - 1) * s + 1, s)
                               for o, n, s in zip(off, small, stride)))]
             for off in np.ndindex(*kshape)]
    return np.stack(slabs, axis=1).reshape(a.shape[0] * len(slabs), -1)


def add_at_grid_sample_grad(shape, coords, g):
    """Source gradient of `grid_sample_bilinear` from four `np.add.at` scatters.

    One scatter-add per corner, in the order 00, 01, 10, 11, with the
    sampler's clamping and its zero weights for samples outside the image.
    """
    c, h, w = shape
    x = coords[0].ravel()
    y = coords[1].ravel()
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.where(valid, x, 0.0)
    ys = np.where(valid, y, 0.0)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = xs - x0
    ty = ys - y0
    vf = valid.astype(np.float64)
    corners = ((y0 * w + x0, (1.0 - tx) * (1.0 - ty) * vf),
               (y0 * w + x1, tx * (1.0 - ty) * vf),
               (y1 * w + x0, (1.0 - tx) * ty * vf),
               (y1 * w + x1, tx * ty * vf))
    g2 = g.reshape(c, -1)
    acc = np.zeros((h * w, c))
    for idx, wt in corners:
        np.add.at(acc, idx, (g2 * wt).T)
    return acc.T.reshape(shape)


def per_source_cost(ref_feats, src_feats, ref_cam, src_cams, hyp, groups, temperature):
    """The cost layer one source view at a time, folded pair by pair.

    Per source: warp, product with the reference, group mean to (G, D, H, W),
    and a softmax over depth of the group sum; then the weighted sums over
    views accumulate left to right. Returns (correlations, weights, volume)
    as lists of per-view tensors and the aggregated (G, D, H, W) volume. A
    reference for the stacked (V, G, D, H, W) cost layer.
    """
    c, h, w = ref_feats.shape
    d = hyp.num_depths
    corrs, weights = [], []
    for feats, cam in zip(src_feats, src_cams, strict=True):
        flat = warp_coords(ref_cam, cam, hyp, h, w).reshape(2, d * h, w)
        warped = T.reshape(T.grid_sample_bilinear(feats, flat), (c, d, h, w))
        prod = T.mul(T.reshape(ref_feats, (c, 1, h, w)), warped)
        corr = T.mean_axis(T.reshape(prod, (groups, c // groups, d, h, w)), 1)
        corrs.append(corr)
        weights.append(T.softmax_axis(T.mul(T.sum_axis(corr, 0), 1.0 / temperature), 0))
    num = den = None
    for corr, weight in zip(corrs, weights):
        term = T.mul(corr, weight)
        num = term if num is None else T.add(num, term)
        den = weight if den is None else T.add(den, weight)
    return corrs, weights, T.div(num, den)


def unfused_bn_relu(x, gamma, beta, mean=None, var=None):
    """Batch norm and the ReLU as two tape ops: `tensor.batch_norm` as it was
    before it ended in the ReLU, then `clamp_min(., 0.0)` as `np.where` with
    its mask on the tape. A reference for the fused operator; returns
    `(y, mean, var)` like it."""
    axes = tuple(range(1, x.ndim))
    bshape = (x.shape[0],) + (1,) * (x.ndim - 1)
    batch_stats = mean is None
    if batch_stats:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
    inv = 1.0 / np.sqrt(var + T.BN_EPS)
    xhat = (x.data - mean.reshape(bshape)) * inv.reshape(bshape)
    gd = gamma.data.reshape(bshape)
    n = int(np.prod(x.shape[1:]))

    def bn_bwd(g):
        gr = gd * inv.reshape(bshape)
        gx = (g * xhat).sum(axis=axes, keepdims=True)
        if batch_stats:
            dx = gr * (g - g.sum(axis=axes, keepdims=True) / n - xhat * gx / n)
        else:
            dx = gr * g
        return dx, gx.reshape(-1), g.sum(axis=axes)

    bn = T._result(gd * xhat + beta.data.reshape(bshape), (x, gamma, beta), bn_bwd,
                   "batch_norm")
    mask = bn.data > 0.0
    relu = T._result(np.where(mask, bn.data, 0.0), (bn,), lambda g: (g * mask,), "clamp_min")
    return relu, mean, var


Call = namedtuple("Call", "op shape live peak left")

# public functions of the tensor module that put nothing on the tape
_NOT_OPERATORS = {"no_grad", "backward", "bilinear_taps", "resize_bilinear"}


@contextmanager
def traced_calls():
    """Trace the memory of every tensor operator and backward closure run in the block.

    Yields a list that receives one `Call(op, shape, live, peak, left)` per
    call as it returns: the operator's name, "<name> backward" for the
    backward closure of a result it recorded; the shape of the operator's
    first argument (None for a list of tensors); and the traced bytes live
    at the call's entry, their peak while it ran and those live at its
    return, which include what it returns. Each call resets tracemalloc's
    peak on entry and hands it back to the call around it on return, so a
    row's peak covers that call alone, its inner calls included. tracemalloc
    runs only inside the block.
    """
    rows, outer = [], []  # outer: per open call, the highest peak before its inner calls reset it

    def traced(op, fn, shape):
        def call(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            if outer:
                outer[-1] = max(outer[-1], peak)
            outer.append(live)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                left, peak = tracemalloc.get_traced_memory()
                peak = max(outer.pop(), peak)
                if outer:
                    outer[-1] = max(outer[-1], peak)
                rows.append(Call(op, shape(args), live, peak, left))
        return call

    def first_shape(args):
        return getattr(args[0], "shape", None)

    operators = {name: fn for name, fn in vars(T).items()
                 if inspect.isfunction(fn) and fn.__module__ == T.__name__
                 and not name.startswith("_") and name not in _NOT_OPERATORS}
    result = T._result

    def recorded(data, parents, backward_fn, op, rebuild=None):
        shape = parents[0].shape
        return result(data, parents, traced(f"{op} backward", backward_fn, lambda _: shape), op,
                      rebuild)

    tracemalloc.start()
    try:
        for name, fn in operators.items():
            setattr(T, name, traced(name, fn, first_shape))
        T._result = recorded
        yield rows
    finally:
        T._result = result
        for name, fn in operators.items():
            setattr(T, name, fn)
        tracemalloc.stop()
