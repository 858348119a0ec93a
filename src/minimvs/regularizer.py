"""3D U-Net cost regularization, probability volumes, and winner-takes-all depth."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError, ParameterError
from .nn import Conv, ConvBnReLU, Module


class VolumeRegularizer(Module):
    """Two-level 3D U-Net ending in a softmax over the depth hypotheses.

    Downsampling is spatial only (stride (1, 2, 2)); depth mixing happens in
    the 3x3x3 blocks, whose depth padding replicates edges. Spatial extents
    are zero-padded up to multiples of 4 before the encoder and cropped after,
    so any desk-scale resolution is legal.
    """

    def __init__(self, in_channels, base_channels, *, rng):
        super().__init__()
        self.in_channels = in_channels
        b = base_channels
        self.conv0 = ConvBnReLU(in_channels, b, (3, 3, 3), rng=rng)
        self.conv1 = ConvBnReLU(b, 2 * b, (3, 3, 3), (1, 2, 2), rng=rng)
        self.conv2 = ConvBnReLU(2 * b, 2 * b, (3, 3, 3), rng=rng)
        self.conv3 = ConvBnReLU(2 * b, 4 * b, (3, 3, 3), (1, 2, 2), rng=rng)
        self.conv4 = ConvBnReLU(4 * b, 4 * b, (3, 3, 3), rng=rng)
        # kernel (1, 3, 3): upsampling never mixes depth slices, so a volume
        # constant along depth stays constant through the decoder
        self.up5 = ConvBnReLU(4 * b, 2 * b, (1, 3, 3), (1, 2, 2), transposed=True, rng=rng)
        self.up6 = ConvBnReLU(2 * b, b, (1, 3, 3), (1, 2, 2), transposed=True, rng=rng)
        self.prob = Conv(b, 1, (3, 3, 3), rng=rng)

    def forward(self, volume):
        c, d, h, w = volume.shape
        if c != self.in_channels:
            raise DimensionError(
                f"regularizer built for {self.in_channels} channels, volume has {c}"
            )
        if d % 4:
            raise ParameterError(f"depth hypothesis count must be divisible by 4, got {d}")
        pad_h = (-h) % 4
        pad_w = (-w) % 4
        if pad_h or pad_w:
            volume = T.pad_zero(volume, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)))

        # each activation is dropped after its last read, so that without a
        # tape (whose closures keep what they read) it is freed at once
        x0 = self.conv0.forward(volume)                  # (b,  D, H,   W)
        del volume
        x1 = self.conv2.forward(self.conv1.forward(x0))  # (2b, D, H/2, W/2)
        x2 = self.conv4.forward(self.conv3.forward(x1))  # (4b, D, H/4, W/4)
        # each skip add runs once the input of its upsampling is dropped
        y = self.up5.forward(x2)
        del x2
        y = T.add(x1, y)
        del x1
        y = self.up6.forward(y)
        y = T.add(x0, y)
        del x0
        logits = self.prob.forward(y)                    # (1, D, H', W')
        if pad_h or pad_w:
            logits = T.narrow(logits, 2, 0, h)
            logits = T.narrow(logits, 3, 0, w)
        logits = T.reshape(logits, (d, h, w))
        return T.softmax_axis(logits, 0)


def wta_depth(p, hyp):
    """Winner-takes-all over a (D, H, W) probability array.

    Returns (depth, confidence): the argmax hypothesis per pixel, ties broken
    toward the smaller index, and its probability.
    """
    d, h, w = p.shape
    values = hyp.per_pixel(h, w)
    if values.shape[0] != d:
        raise DimensionError(
            f"probability volume has {d} bins, hypothesis set has {values.shape[0]}"
        )
    best = np.argmax(p, axis=0)
    depth = np.take_along_axis(values, best[None], axis=0)[0]
    confidence = np.take_along_axis(p, best[None], axis=0)[0]
    return depth, confidence
