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
from .errors import DatasetError, ParseError
from .features import FeatureExtractor
from .geometry import (STAGE_COUNT, STAGE_SCALES, initial_hypotheses, read_camera,
                       refine_hypotheses)
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
    gt_depths: list   # (H, W) float64, 0 where invalid; may be None
    pairs: list       # per view: ranked [(src_id, score), ...]


def read_pair_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError(f"{path}: empty pair file")
    pos = 0
    try:
        n = int(tokens[pos]); pos += 1
        if n < 1:
            raise ParseError(f"{path}: view count {n} is not positive")
        pairs = [None] * n
        for _ in range(n):
            ref = int(tokens[pos]); pos += 1
            count = int(tokens[pos]); pos += 1
            if count < 0:
                raise ParseError(f"{path}: negative source count {count} for view {ref}")
            ranked = []
            for _ in range(count):
                src = int(tokens[pos])
                if src < 0 or src >= n:
                    raise ParseError(f"{path}: source id {src} out of range at token {pos}")
                ranked.append((src, float(tokens[pos + 1])))
                pos += 2
            if ref < 0 or ref >= n:
                raise ParseError(f"{path}: reference id {ref} out of range")
            pairs[ref] = ranked
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: truncated or malformed at token {pos}") from exc
    if any(p is None for p in pairs):
        raise ParseError(f"{path}: missing reference entries")
    return pairs


def load_scene(scene_dir, with_gt=True):
    img_dir = os.path.join(scene_dir, "images")
    cam_dir = os.path.join(scene_dir, "cams")
    if not os.path.isdir(img_dir) or not os.path.isdir(cam_dir):
        raise DatasetError(f"{scene_dir}: missing images/ or cams/")
    ids = sorted(os.path.splitext(f)[0] for f in os.listdir(img_dir) if f.endswith(".ppm"))
    if not ids:
        raise DatasetError(f"{scene_dir}: no images found")
    images, cams, depths = [], [], []
    for vid in ids:
        images.append(formats.read_ppm(os.path.join(img_dir, f"{vid}.ppm")))
        cams.append(read_camera(os.path.join(cam_dir, f"{vid}_cam.txt")))
        depth_path = os.path.join(scene_dir, "depths", f"{vid}.pfm")
        if with_gt and os.path.exists(depth_path):
            depths.append(formats.read_pfm(depth_path).astype(np.float64))
        else:
            depths.append(None)
    pairs = read_pair_file(os.path.join(scene_dir, "pair.txt"))
    if len(pairs) != len(ids):
        raise DatasetError(f"{scene_dir}: pair file lists {len(pairs)} views, found {len(ids)}")
    return SceneData(os.path.basename(scene_dir.rstrip("/")), images, cams, depths, pairs)


def load_dataset(root, with_gt=True):
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

    def __init__(self, cfg: PipelineConfig, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
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

    def forward_views(self, images, cameras, use_guidance=True):
        """Run the full cascade for one reference view (images[0]) and its sources."""
        cfg = self.cfg
        pyramids = [self.features.forward(img) for img in images]
        ref_cam_full = cameras[0]
        outputs = []
        hyp = None
        prev_volume = None
        prev_depth = None
        for stage, scale in enumerate(STAGE_SCALES):
            stage_cams = [cam.scaled(1.0 / scale) for cam in cameras]
            _, sh, sw = pyramids[0][stage].shape
            if stage == 0:
                hyp = initial_hypotheses(
                    (ref_cam_full.depth_min, ref_cam_full.depth_max), cfg.depths[0]
                )
            else:
                hyp = refine_hypotheses(hyp, prev_depth, cfg.depths[stage], (sh, sw))
            correlations = []
            weight_fields = []
            for i in range(1, len(images)):
                pair = warp_and_correlate(
                    pyramids[0][stage], pyramids[i][stage],
                    stage_cams[0], stage_cams[i], hyp, cfg.groups[stage],
                )
                correlations.append(pair.data)
                weight_fields.append(view_weights(pair.data, cfg.temperature))
            volume = aggregate(correlations, weight_fields)
            if stage > 0 and use_guidance:
                reg_input = self.guidance[stage - 1].forward(prev_volume, volume)
            else:
                reg_input = volume
            prob = self.regularizers[stage].forward(reg_input)
            dm = wta_depth(prob, hyp)
            outputs.append(
                StageOutput(stage, hyp, prob, dm.depth, dm.confidence, weight_fields)
            )
            prev_volume = volume
            prev_depth = dm.depth
        return outputs


def build_network(cfg: PipelineConfig, seed=None):
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    return CascadeNetwork(cfg, rng=rng)


def select_sources(pairs, ref_id, n_views):
    """Top-ranked source ids for a reference view (n_views includes the reference)."""
    ranked = [s for s, _ in pairs[ref_id]]
    wanted = max(1, n_views - 1)
    if not ranked:
        raise DatasetError(f"view {ref_id} has no source views in the pair file")
    return ranked[:wanted]


def view_set(scene, ref_id, n_views):
    """(images, cameras) of the reference view followed by its top-ranked sources."""
    ids = [ref_id] + select_sources(scene.pairs, ref_id, n_views)
    return [scene.images[i] for i in ids], [scene.cameras[i] for i in ids]


def infer_view(network, scene, ref_id, n_views):
    return network.forward_views(*view_set(scene, ref_id, n_views))


def run_inference(cfg, dataset_dir, checkpoint_path, out_dir, network=None, collect=False):
    """Write final-stage depth and confidence PFMs for every reference view.

    Outputs land in <out_dir>/<scene>/<view>_depth.pfm and _conf.pfm. Returns
    a record per view (and the stage outputs when `collect` is set).
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
            os.makedirs(scene_out, exist_ok=True)
            for ref_id in range(len(scene.images)):
                outputs = infer_view(network, scene, ref_id, cfg.train.views)
                final = outputs[-1]
                depth_path = os.path.join(scene_out, f"{ref_id:04d}_depth.pfm")
                conf_path = os.path.join(scene_out, f"{ref_id:04d}_conf.pfm")
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
