"""Cost volume assembly: the (V, G, D, H, W) correlation over all source views,
view-weighted aggregation over V, and cross-stage guidance channels."""

from __future__ import annotations

import math

from . import tensor as T
from .errors import ParameterError, UsageError
from .geometry import warp_coords
from .nn import ConvBnReLU, Module


def warp_and_correlate(ref_feats, src_feats, ref_cam, src_cams, hyp, groups):
    """Group-wise correlation of every warped source view against the reference.

    Channels split into `groups` equal groups; each correlation entry is the
    group mean of the elementwise product. With groups == C this degenerates
    to the plain elementwise product. Samples landing outside a source image
    contribute exact zeros. Each source is one `grid_sample_bilinear` call,
    which samples, multiplies with the reference and averages each group
    chunk by chunk, so no (C, D, H, W) warped volume or product is ever
    built; the result stacks the sources' (G, D, H, W) correlations into the
    (V, G, D, H, W) correlation.
    """
    if not src_feats:
        raise ParameterError("correlation needs at least one source view")
    _, h, w = ref_feats.shape
    views = [T.grid_sample_bilinear(feats, warp_coords(ref_cam, cam, hyp, h, w), ref_feats, groups)
             for feats, cam in zip(src_feats, src_cams, strict=True)]
    return T.reshape(T.concat_axis(views, 0), (len(views), *views[0].shape))


def view_weights(corr, temperature):
    """(V, D, H, W) weight fields: per view, softmax over depth of the group-summed score / eps."""
    if temperature <= 0 or math.isinf(1.0 / temperature):
        raise ParameterError(f"temperature must be > 0 with a finite inverse, got {temperature}")
    score = T.sum_axis(corr, 1)                          # (V, D, H, W)
    return T.softmax_axis(T.mul(score, 1.0 / temperature), 1)


def aggregate(corr, weights):
    """Weight-normalized sum over the view axis (a per-element convex combination).

    Weights (V, D, H, W) broadcast over the group axis; softmax positivity keeps
    the denominator bounded away from zero.
    """
    v, _, d, h, w = corr.shape
    num = T.sum_axis(T.mul(corr, T.reshape(weights, (v, 1, d, h, w))), 0)
    return T.div(num, T.sum_axis(weights, 0))


class VolumeGuidance(Module):
    """Cross-stage guidance: flattened correlations compressed to a few channels.

    The previous-stage volume (G', D', H', W') and the current volume
    (G, D, H, W) are reshaped to (G*D, H, W), compressed by per-stage 3x3
    conv + batch norm + ReLU stacks to `num_coarse` / `num_fine` channels,
    the coarse map bilinearly upsampled to the current resolution, and both
    replicated across depth and appended along the group axis, giving
    (G + num_coarse + num_fine, D, H, W). With both counts zero the volume
    passes through untouched.
    """

    def __init__(self, prev_flat_channels, curr_flat_channels, num_coarse, num_fine, *, rng):
        super().__init__()
        if num_coarse < 0 or num_fine < 0:
            raise ParameterError("guidance channel counts must be >= 0")
        self.num_coarse = int(num_coarse)
        self.num_fine = int(num_fine)
        if self.num_coarse:
            self.conv_coarse = ConvBnReLU(prev_flat_channels, self.num_coarse, (3, 3), rng=rng)
        if self.num_fine:
            self.conv_fine = ConvBnReLU(curr_flat_channels, self.num_fine, (3, 3), rng=rng)

    def forward(self, prev, curr):
        """Updated volume (G + num_coarse + num_fine, D, H, W).

        When both channel counts are zero the current volume object itself is
        returned, so switching guidance off is bit-identical to bypassing it.
        """
        if self.num_coarse + self.num_fine == 0:
            return curr
        g, d, h, w = curr.shape
        parts = [curr]
        if self.num_coarse:
            if prev is None:
                raise UsageError("guidance requires the previous-stage cost volume")
            pg, pd, ph, pw = prev.shape
            flat_prev = T.reshape(prev, (pg * pd, ph, pw))
            coarse = self.conv_coarse.forward(flat_prev)
            coarse = T.upsample_bilinear2x(coarse)       # (num_coarse, H, W)
            parts.append(T.expand_axis(coarse, 1, d))
        if self.num_fine:
            flat_curr = T.reshape(curr, (g * d, h, w))
            fine = self.conv_fine.forward(flat_curr)
            parts.append(T.expand_axis(fine, 1, d))
        return T.concat_axis(parts, 0)
