"""Cost volume assembly: warped pair correlations, view-weighted aggregation,
and cross-stage guidance channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ParameterError, UsageError
from .geometry import warp_coords
from .nn import ConvBnReLU2d, Module
from .tensor import Tensor


@dataclass
class PairwiseCorrelation:
    """Group correlation (G, D, H, W) for one source view plus its warp validity."""

    data: Tensor
    valid: np.ndarray  # (D, H, W); invalid warps contribute exact zeros


def warp_and_correlate(ref_feats, src_feats, ref_cam, src_cam, hyp, groups):
    """Group-wise correlation of warped source features against the reference.

    Channels split into `groups` equal groups; each correlation entry is the
    group mean of the elementwise product. With groups == C this degenerates
    to the plain elementwise product. Samples landing outside the source
    image contribute exact zeros and are flagged in the validity mask.
    """
    c, h, w = ref_feats.shape
    if c % groups:
        raise ParameterError(f"channel count {c} not divisible by {groups} groups")
    d = hyp.num_depths
    coords = warp_coords(ref_cam, src_cam, hyp, h, w)          # (2, D, H, W)
    flat = coords.reshape(2, d * h, w)
    warped, valid = T.grid_sample_bilinear(src_feats, flat, return_mask=True)
    warped = T.reshape(warped, (c, d, h, w))
    prod = T.mul(T.reshape(ref_feats, (c, 1, h, w)), warped)  # broadcast over D
    corr = T.mean_axis(T.reshape(prod, (groups, c // groups, d, h, w)), 1)
    return PairwiseCorrelation(corr, valid.reshape(d, h, w))


def view_weights(corr, temperature):
    """Per-view weight field: softmax over depth of the group-summed score / eps."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    score = T.sum_axis(corr, 0)                          # (D, H, W)
    return T.softmax_axis(T.mul(score, 1.0 / temperature), 0)


def aggregate(correlations, weights):
    """Weight-normalized sum over source views (a per-element convex combination).

    Weights (D, H, W) broadcast over the group axis; softmax positivity keeps
    the denominator bounded away from zero.
    """
    if not correlations:
        raise ParameterError("aggregate needs at least one source view")
    num = None
    den = None
    for corr, weight in zip(correlations, weights):
        term = T.mul(corr, weight)
        num = term if num is None else T.add(num, term)
        den = weight if den is None else T.add(den, weight)
    return T.div(num, den)


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

    def __init__(self, prev_flat_channels, curr_flat_channels, num_coarse, num_fine,
                 rng=None):
        super().__init__()
        if num_coarse < 0 or num_fine < 0:
            raise ParameterError("guidance channel counts must be >= 0")
        self.num_coarse = int(num_coarse)
        self.num_fine = int(num_fine)
        if self.num_coarse:
            self.conv_coarse = ConvBnReLU2d(prev_flat_channels, self.num_coarse,
                                            3, 1, 1, rng=rng)
        if self.num_fine:
            self.conv_fine = ConvBnReLU2d(curr_flat_channels, self.num_fine,
                                          3, 1, 1, rng=rng)

    @property
    def extra_channels(self):
        return self.num_coarse + self.num_fine

    def forward(self, prev, curr):
        """Updated volume (G + extra_channels, D, H, W).

        When both channel counts are zero the current volume passes through
        untouched (bit-identical to bypassing the module).
        """
        if self.extra_channels == 0:
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
