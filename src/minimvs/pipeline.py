"""Dataset loading, the four-stage cascade network, and depth-map inference."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import formats
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import PipelineConfig
from .cost import VolumeGuidance, aggregate, view_weights, warp_and_correlate
from .errors import DatasetError
from .features import FeatureExtractor
from .geometry import STAGE_COUNT, STAGE_SCALES, initial_hypotheses, refine_hypotheses
from .nn import BatchNorm, Module, ModuleList
from .regularizer import VolumeRegularizer, wta_depth
from .tensor import Tensor


# ---------------------------------------------------------------------------
# on-disk datasets (as produced by synth.make_dataset)
# ---------------------------------------------------------------------------

@dataclass
class SceneData:
    name: str
    images: list      # (3, H, W) float64 in [0, 1]
    cameras: list
    gt_depths: list   # (H, W) float64, 0 where invalid; None if loaded without gt
    pairs: list       # per view: ranked [(src_id, score), ...]


def load_scene(scene_dir, with_gt=True):
    img_dir = os.path.join(scene_dir, "images")
    cam_dir = os.path.join(scene_dir, "cams")
    if not os.path.isdir(img_dir) or not os.path.isdir(cam_dir):
        raise DatasetError(f"{scene_dir}: missing images/ or cams/")
    ids = sorted(os.path.splitext(f)[0] for f in os.listdir(img_dir) if f.endswith(".ppm"))
    if not ids:
        raise DatasetError(f"{scene_dir}: no images found")
    # the pair file and the outputs count views by position
    for i, vid in enumerate(ids):
        if vid != f"{i:04d}":
            raise DatasetError(f"{os.path.join(img_dir, vid + '.ppm')}: view ids must run "
                               f"0000 to {len(ids) - 1:04d} without gaps")
    images, cams, depths = [], [], []
    for vid in ids:
        img_path = os.path.join(img_dir, f"{vid}.ppm")
        images.append(formats.read_ppm(img_path))
        size = images[-1].shape[1:]
        if size != images[0].shape[1:]:
            raise DatasetError(f"{img_path}: image is {size[0]}x{size[1]}, the scene's first "
                               f"image is {images[0].shape[1]}x{images[0].shape[2]}")
        cams.append(formats.read_camera(os.path.join(cam_dir, f"{vid}_cam.txt")))
        depth_path = os.path.join(scene_dir, "depths", f"{vid}.pfm")
        if not with_gt:
            depths.append(None)
        elif os.path.exists(depth_path):
            depths.append(formats.read_pfm(depth_path).astype(np.float64))
            if depths[-1].shape != size:
                raise DatasetError(f"{img_path}: image is {size[0]}x{size[1]}, its depth map "
                                   f"{depth_path} is {depths[-1].shape[0]}x{depths[-1].shape[1]}")
        else:
            raise DatasetError(f"{depth_path}: missing ground-truth depth map")
    pairs = formats.read_pair_file(os.path.join(scene_dir, "pair.txt"))
    if len(pairs) != len(ids):
        raise DatasetError(f"{scene_dir}: pair file lists {len(pairs)} views, found {len(ids)}")
    return SceneData(os.path.basename(scene_dir.rstrip("/")), images, cams, depths, pairs)


def load_dataset(root, with_gt=True):
    if not os.path.isdir(root):
        raise DatasetError(f"{root}: no such dataset directory")
    scenes = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)) and d.startswith("scene_")
    )
    if not scenes:
        raise DatasetError(f"{root}: no scene_* directories")
    return [load_scene(os.path.join(root, s), with_gt=with_gt) for s in scenes]


# ---------------------------------------------------------------------------
# cascade network
# ---------------------------------------------------------------------------

@dataclass
class StageOutput:
    stage: int
    hypotheses: object
    prob: Tensor          # (D, H, W), normalized over D
    depth: np.ndarray     # (H, W)
    confidence: np.ndarray
    view_weights: list    # per source view, Tensor (D, H, W)


class CascadeNetwork(Module):
    """Feature pyramid + per-stage correlation, guidance, and regularization."""

    def __init__(self, cfg: PipelineConfig):
        super().__init__()
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.features = FeatureExtractor(cfg.feature_channels, cfg.attention_reduction, rng=rng)
        guidance = []
        for stage in range(1, STAGE_COUNT):
            prev_flat = cfg.groups[stage - 1] * cfg.depths[stage - 1]
            curr_flat = cfg.groups[stage] * cfg.depths[stage]
            guidance.append(
                VolumeGuidance(prev_flat, curr_flat, cfg.guidance_coarse,
                               cfg.guidance_fine, rng=rng)
            )
        self.guidance = ModuleList(guidance)
        regs = []
        for stage in range(STAGE_COUNT):
            extra = 0 if stage == 0 else cfg.guidance_coarse + cfg.guidance_fine
            regs.append(
                VolumeRegularizer(cfg.groups[stage] + extra, cfg.regularizer_base, rng=rng)
            )
        self.regularizers = ModuleList(regs)
        for module in self.modules():
            if isinstance(module, BatchNorm):
                module.eval_stats = cfg.eval_norm

    def forward_views(self, images, cameras, pyramids=None):
        """Run the full cascade for one reference view (images[0]) and its sources.

        `pyramids`, when given, are the feature pyramids of `images` in the
        same order, computed once by a caller that shares them between
        reference views; otherwise they are computed here.

        Under `no_grad` (no tape keeps what its backward reads) each array
        is freed after its last read: a stage's correlation once aggregated,
        before guidance and the regularizer run; the aggregated volume of
        the stage before once this stage's guidance has read it; and the
        last stage's aggregated volume before its regularizer runs. The
        regularizer is the only holder of its input, which it frees after
        its first block.
        """
        cfg = self.cfg
        if pyramids is None:
            pyramids = [self.features.forward(img) for img in images]
        outputs = []
        hyp = None
        prev_volume = None
        prev_depth = None
        # feats: this stage's feature maps of every view, the reference first
        for stage, (scale, feats) in enumerate(zip(STAGE_SCALES, zip(*pyramids))):
            ref_cam, *src_cams = [cam.scaled(1.0 / scale) for cam in cameras]
            if stage == 0:
                hyp = initial_hypotheses((cameras[0].depth_min, cameras[0].depth_max),
                                         cfg.depths[0])
            else:
                hyp = refine_hypotheses(hyp, prev_depth, cfg.depths[stage], feats[0].shape[1:])
            corr = warp_and_correlate(feats[0], feats[1:], ref_cam, src_cams, hyp,
                                      cfg.groups[stage])
            weights = view_weights(corr, cfg.temperature)
            volume = aggregate(corr, weights)
            del corr
            reg_input = [volume if stage == 0
                         else self.guidance[stage - 1].forward(prev_volume, volume)]
            # the next stage's guidance reads this volume; after the last stage nothing does
            prev_volume = volume if stage < STAGE_COUNT - 1 else None
            del volume
            # popped into the call, the input's only holder is the regularizer
            prob = self.regularizers[stage].forward(reg_input.pop())
            depth, confidence = wta_depth(prob.data, hyp)
            outputs.append(StageOutput(stage, hyp, prob, depth, confidence,
                                       [Tensor(w) for w in weights.data]))
            prev_depth = depth
        return outputs


def build_network(cfg: PipelineConfig):
    return CascadeNetwork(cfg)


def view_ids(scene, ref_id, n_views):
    """The reference view id followed by its top-ranked source ids
    (n_views counts the reference)."""
    return [ref_id] + [s for s, _ in scene.pairs[ref_id][:max(1, n_views - 1)]]


def view_set(scene, ref_id, n_views):
    """(images, cameras) of the reference view followed by its top-ranked sources."""
    ids = view_ids(scene, ref_id, n_views)
    return [scene.images[i] for i in ids], [scene.cameras[i] for i in ids]


def infer_view(network, scene, ref_id, n_views):
    return network.forward_views(*view_set(scene, ref_id, n_views))


def run_inference(cfg, dataset_dir, checkpoint_path, out_dir, network=None, collect=False):
    """Write final-stage depth and confidence PFMs for every reference view.

    Outputs land in <out_dir>/<scene>/<view>_depth.pfm and _conf.pfm. Returns
    a record per view (and the stage outputs when `collect` is set).

    Each image's feature pyramid is computed once per scene and shared by
    every reference view that uses it. In eval mode a pyramid depends on its
    image alone (batch norm uses the image's own statistics or the fixed
    running buffers), so the depths equal those of `infer_view` bit for bit.
    """
    scenes = load_dataset(dataset_dir, with_gt=False)
    if network is None:
        network = build_network(cfg)
        if checkpoint_path:
            network.load_state_dict(load_checkpoint(checkpoint_path))
    network.eval()
    records = []
    with T.no_grad():
        for scene in scenes:
            scene_out = os.path.join(out_dir, scene.name)
            pyramids = [network.features.forward(img) for img in scene.images]
            for ref_id in range(len(scene.images)):
                ids = view_ids(scene, ref_id, cfg.train.views)
                outputs = network.forward_views(
                    [scene.images[i] for i in ids], [scene.cameras[i] for i in ids],
                    pyramids=[pyramids[i] for i in ids],
                )
                final = outputs[-1]
                depth_path = os.path.join(scene_out, f"{ref_id:04d}_depth.pfm")
                conf_path = os.path.join(scene_out, f"{ref_id:04d}_conf.pfm")
                os.makedirs(scene_out, exist_ok=True)
                formats.write_pfm(depth_path, final.depth)
                formats.write_pfm(conf_path, final.confidence)
                records.append({
                    "scene": scene.name,
                    "view": ref_id,
                    "depth_path": depth_path,
                    "conf_path": conf_path,
                    "outputs": outputs if collect else None,
                })
    return records


def save_network(path, network):
    save_checkpoint(path, network.state_dict())
