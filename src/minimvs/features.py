"""Feature pyramid extraction with coordinate-attention fusion on the top-down path."""

from __future__ import annotations

from . import tensor as T
from .errors import ParameterError
from .geometry import STAGE_SCALES
from .nn import Conv, ConvBnReLU, Module, ModuleList

_ENCODER_CHANNELS = (8, 16, 32, 32)  # strides 1, 2, 2, 2


def coordinate_pool(x):
    """Directional means of (C, H, W): returns (C, H, 1) and (C, 1, W).

    Sums over one coordinate are taken as means so the profile scale does not
    depend on resolution; the mean of either profile equals the global mean.
    """
    t_h = T.mean_axis(x, 2, keepdims=True)
    t_w = T.mean_axis(x, 1, keepdims=True)
    return t_h, t_w


class CoordinateGate(Module):
    """Sigmoid attention profiles along height and width.

    The two pooled profiles are stacked into one (C, H+W, 1) sequence, passed
    through a shared squeeze/restore 1x1 stack, split back, and gated.
    """

    def __init__(self, channels, reduction, *, rng):
        super().__init__()
        mid = max(channels // reduction, 1)
        self.reduce = Conv(channels, mid, (1, 1), rng=rng)
        self.restore = Conv(mid, channels, (1, 1), rng=rng)

    def forward(self, t_h, t_w):
        c, h, _ = t_h.shape
        w = t_w.shape[2]
        stacked = T.concat_axis([t_h, T.reshape(t_w, (c, w, 1))], 1)  # (C, H+W, 1)
        z = self.restore.forward(T.clamp_min(self.reduce.forward(stacked), 0.0))
        a_h = T.sigmoid(T.narrow(z, 1, 0, h))                          # (C, H, 1)
        a_w = T.sigmoid(T.reshape(T.narrow(z, 1, h, w), (c, 1, w)))    # (C, 1, W)
        return a_h, a_w


def gated_fuse(coarse, fine, a_h, a_w):
    """upsample2x(coarse) + a_h * a_w * fine.

    `coarse` must already be channel-matched to `fine` (1x1 lateral conv);
    the attention maps broadcast over the missing coordinate.
    """
    return T.add(T.upsample_bilinear2x(coarse), T.mul(T.mul(a_h, a_w), fine))


class FeatureExtractor(Module):
    """Four-stage pyramid at 1/8, 1/4, 1/2, 1/1 of the input resolution."""

    def __init__(self, stage_channels, reduction, *, rng):
        super().__init__()
        e0, e1, e2, e3 = _ENCODER_CHANNELS
        self.enc0 = ConvBnReLU(3, e0, (3, 3), rng=rng)
        self.enc1 = ConvBnReLU(e0, e1, (3, 3), 2, rng=rng)
        self.enc2 = ConvBnReLU(e1, e2, (3, 3), 2, rng=rng)
        self.enc3 = ConvBnReLU(e2, e3, (3, 3), 2, rng=rng)
        # lateral 1x1 convs channel-match the running path to the finer encoder level
        self.lateral = ModuleList([
            Conv(e3, e2, (1, 1), rng=rng),
            Conv(e2, e1, (1, 1), rng=rng),
            Conv(e1, e0, (1, 1), rng=rng),
        ])
        self.gates = ModuleList([
            CoordinateGate(e2, reduction, rng=rng),
            CoordinateGate(e1, reduction, rng=rng),
            CoordinateGate(e0, reduction, rng=rng),
        ])
        self.heads = ModuleList([
            Conv(e3, stage_channels[0], (3, 3), rng=rng),
            Conv(e2, stage_channels[1], (3, 3), rng=rng),
            Conv(e1, stage_channels[2], (3, 3), rng=rng),
            Conv(e0, stage_channels[3], (3, 3), rng=rng),
        ])

    def forward(self, image):
        """The four stage feature maps of a (3, H, W) image, coarsest first."""
        _, h, w = image.shape
        if h % STAGE_SCALES[0] or w % STAGE_SCALES[0]:
            raise ParameterError(f"input resolution must be divisible by {STAGE_SCALES[0]}, "
                                 f"got {h}x{w}")
        e0 = self.enc0.forward(image)   # (8,  H,   W)
        e1 = self.enc1.forward(e0)      # (16, H/2, W/2)
        e2 = self.enc2.forward(e1)      # (32, H/4, W/4)
        e3 = self.enc3.forward(e2)      # (32, H/8, W/8)

        pyramid = [self.heads[0].forward(e3)]
        running = e3
        for step, fine in enumerate((e2, e1, e0)):
            t_h, t_w = coordinate_pool(fine)
            a_h, a_w = self.gates[step].forward(t_h, t_w)
            running = gated_fuse(self.lateral[step].forward(running), fine, a_h, a_w)
            pyramid.append(self.heads[step + 1].forward(running))
        return pyramid
