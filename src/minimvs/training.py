"""Ground-truth encoding, the pixel-wise cross-entropy objective, and training."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError
from .geometry import STAGE_COUNT, STAGE_SCALES
from .nn import Adam
from .pipeline import build_network, save_network, view_set
from .tensor import Tensor

_LOG_FLOOR = 1e-12
_STAGE_KEYS = [f"stage{s}" for s in range(STAGE_COUNT)]  # loss trace columns

@dataclass
class GroundTruthStage:
    """Nearest-hypothesis bin index per pixel plus the valid-pixel mask."""

    indices: np.ndarray  # (H, W) int64
    mask: np.ndarray     # (H, W) bool

    @property
    def count(self):
        return int(self.mask.sum())


def encode_gt(gt_depth, valid, hyp):
    """One-hot target bins: nearest hypothesis, equidistant ties to the smaller index.

    Pixels without ground truth or whose depth falls outside the pixel's
    hypothesis window are excluded from the mask.
    """
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    h, w = gt_depth.shape
    values = hyp.per_pixel(h, w)
    indices = np.argmin(np.abs(values - gt_depth[None]), axis=0)
    mask = (gt_depth >= values[0]) & (gt_depth <= values[-1])
    if valid is not None:
        mask = mask & np.asarray(valid, dtype=bool)
    return GroundTruthStage(indices.astype(np.int64), mask)


def pixelwise_ce(prob, gt):
    """Mean over valid pixels of -log P at the ground-truth bin.

    The log argument is clamped at 1e-12. An empty mask yields a constant
    zero loss.
    """
    n = gt.count
    if n == 0:
        return Tensor(0.0)
    d, h, w = prob.shape
    onehot = np.zeros((d, h, w))
    rows, cols = np.nonzero(gt.mask)
    onehot[gt.indices[rows, cols], rows, cols] = 1.0
    picked = T.mul(T.log(T.clamp_min(prob, _LOG_FLOOR)), Tensor(onehot))
    return T.mul(T.sum_all(picked), -1.0 / n)


def total_loss(stage_losses, weights):
    """Weighted sum of the per-stage objectives."""
    total = None
    for loss, weight in zip(stage_losses, weights):
        term = T.mul(loss, float(weight))
        total = term if total is None else T.add(total, term)
    return total


def downsample_gt(gt_depth, valid, factor):
    """Nearest-neighbor stage ground truth (avoids depth-edge averaging)."""
    return gt_depth[::factor, ::factor], valid[::factor, ::factor]


def stage_losses_for_sample(network, images, cams, gt_depth, valid):
    outputs = network.forward_views(images, cams)
    losses = []
    for out in outputs:
        factor = STAGE_SCALES[out.stage]
        gt_s, valid_s = downsample_gt(gt_depth, valid, factor)
        gt_enc = encode_gt(gt_s, valid_s, out.hypotheses)
        losses.append(pixelwise_ce(out.prob, gt_enc))
    return losses, outputs


def train(scenes, cfg, out_dir, log=None):
    """Train the cascade on a list of SceneData; returns (trace, checkpoint path).

    Adam (beta1 0.9, beta2 0.999, eps 1e-8) at cfg.train.learning_rate. One
    iteration is one optimizer step over `batch_size` accumulated samples.
    A fixed seed makes the loss trace and checkpoints bit-reproducible. The
    trace is written to <out_dir>/loss_trace.csv, checkpoints per epoch plus
    `checkpoint.bin` holding the final state.
    """
    tc = cfg.train
    os.makedirs(out_dir, exist_ok=True)
    network = build_network(cfg)
    optimizer = Adam(network.parameters(), lr=tc.learning_rate)
    samples = [
        (si, ref) for si, scene in enumerate(scenes) for ref in range(len(scene.images))
    ]
    order_rng = np.random.default_rng(tc.seed + 1)

    trace = []
    iteration = 0
    stop = False
    network.train()
    for epoch in range(tc.epochs):
        order = order_rng.permutation(len(samples))
        batch = []
        for oi in order:
            batch.append(samples[oi])
            if len(batch) < tc.batch_size:
                continue
            stage_sums = np.zeros(STAGE_COUNT)
            total_val = 0.0
            optimizer.zero_grad()
            for si, ref in batch:
                scene = scenes[si]
                images, cams = view_set(scene, ref, tc.views)
                gt = scene.gt_depths[ref]
                valid = gt > 0
                try:
                    losses, _ = stage_losses_for_sample(network, images, cams, gt, valid)
                    loss = total_loss(losses, tc.stage_weights)
                    sample_loss = T.mul(loss, 1.0 / tc.batch_size)
                    T.backward(sample_loss)
                except NumericError as exc:
                    raise NumericError(
                        f"non-finite loss at iteration {iteration} "
                        f"(scene {scene.name}, view {ref}): {exc}"
                    ) from exc
                stage_sums += [float(l.data) for l in losses]
                total_val += float(loss.data)
            optimizer.step()
            stage_means = stage_sums / tc.batch_size
            trace.append({
                "iteration": iteration,
                **dict(zip(_STAGE_KEYS, stage_means)),
                "total": total_val / tc.batch_size,
            })
            if log is not None and iteration % 10 == 0:
                log(f"iter {iteration:5d}  loss {trace[-1]['total']:.4f}")
            iteration += 1
            batch = []
            if tc.max_iterations and iteration >= tc.max_iterations:
                stop = True
                break
        save_network(os.path.join(out_dir, f"checkpoint_ep{epoch:03d}.bin"), network)
        if stop:
            break

    final_path = os.path.join(out_dir, "checkpoint.bin")
    save_network(final_path, network)
    trace_path = os.path.join(out_dir, "loss_trace.csv")
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["iteration", *_STAGE_KEYS, "total"])
        writer.writeheader()
        for row in trace:
            writer.writerow(row)
    return trace, final_path
