"""Shared fixtures: cameras, calibrated pairs, textured plane scenes, and
parameter-free photometric matching features."""

import numpy as np
import pytest

from minimvs import synth
from minimvs.errors import ParameterError
from minimvs.geometry import Camera
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240816)
