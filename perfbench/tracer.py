"""Call-site tracer: per-layer busy and self time plus work counts.

The tracer replaces each traced name where it is bound (a module attribute, a
name rebound by ``from ... import`` in the calling module, or a method on a
class) with a wrapper that records a span around the call. Nothing in the
program is edited, and a wrapper passes arguments and results through
untouched, so traced outputs are bit-identical to untraced ones.

A span's self time is its duration minus the time covered by traced calls
made inside it. Counts are computed from operand shapes and results at the
same boundaries, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

STAGE_SCALES = (8, 4, 2, 1)


@dataclass
class Span:
    """One traced layer entry point.

    `targets` are "module:attr" or "module:Class.attr" bindings; every one is
    wrapped, so calls through a from-import rebinding are seen as well as
    calls through the defining module. `stage(tracer, args)` gives a cascade
    stage label, `count(tracer, args, result)` a dict of work counts, and
    `on_enter(tracer, args)` notes context for the spans nested inside.
    """

    name: str
    targets: tuple
    stage: object = None
    count: object = None
    on_enter: object = None


def _size(shape):
    return int(np.prod(shape))


def _file_bytes(_tracer, args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _conv_macs(_tracer, args, result):
    # output elements x (input channels x kernel taps)
    weight = args[1].weight.shape
    return {"macs": result.size * _size(weight[1:])}


def _conv_transpose_macs(_tracer, args, result):
    # every input element scatters into out_ch x kernel taps outputs
    weight = args[1].weight.shape
    return {"macs": args[0].size * _size(weight[1:])}


def _grid_samples(_tracer, args, _result):
    coords = args[1].data if hasattr(args[1], "data") else np.asarray(args[1])
    return {"samples": _size(coords.shape[1:])}


def _gt_in_window(tracer, args, result):
    stage = tracer.stage_from_width(args[0].shape[-1])
    return {f"in_window.{stage}": int(result.mask.sum()),
            f"valid.{stage}": int(np.count_nonzero(args[1]))}


def _empty_masks(_tracer, args, _result):
    return {"empty_masks": int(args[1].count == 0)}


def _fuse_counts(_tracer, args, result):
    pixels = sum(int(np.count_nonzero(np.asarray(d) > 0)) for d in args[0])
    return {"points": len(result.points), "pixels_with_depth": pixels}


def _queries(_tracer, args, _result):
    return {"queries": len(np.asarray(args[0]).reshape(-1, 3))}


class Tracer:
    """Installs call-site wrappers and accumulates spans while installed."""

    def __init__(self, spans):
        self.spans = spans
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.image_width = None
        self.active = True
        self._stack = []
        self._saved = []

    # -- stage labels -------------------------------------------------------

    def stage_from_width(self, width):
        """Cascade stage of a tensor whose last axis has `width` entries,
        relative to the reference image of the enclosing forward_views call."""
        if self.image_width is None:
            return "unstaged"
        return f"stage{STAGE_SCALES.index(self.image_width // int(width))}"

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for span in self.spans:
            for target in span.targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run the originals without recording."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def reset(self):
        self.busy.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, span, original):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            name = span.name
            if span.on_enter is not None:
                span.on_enter(tracer, args)
            if span.stage is not None:
                name = f"{name}.{span.stage(tracer, args)}"
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.busy[name] += elapsed
                tracer.self_time[name] += elapsed - frame[0]
                tracer.calls[name] += 1
            if span.count is not None:
                for key, value in span.count(tracer, args, result).items():
                    tracer.counts[f"{span.name}.{key}"] += value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span.name)
        return traced


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in owner.__dict__:
        raise KeyError(f"{target}: no such binding")
    return owner, parts[-1]


def _note_image_width(tracer, args):
    tracer.image_width = int(args[1][0].shape[-1])


def _stage_of_arg(index):
    def stage(tracer, args):
        return tracer.stage_from_width(args[index].shape[-1])
    return stage


M = "minimvs."

SPANS = [
    # tensor engine (called as T.<op> from nn, cost and training)
    Span("tensor.backward", (M + "tensor:backward",)),
    Span("tensor.conv2d", (M + "tensor:conv2d",), count=_conv_macs),
    Span("tensor.conv3d", (M + "tensor:conv3d",), count=_conv_macs),
    Span("tensor.conv_transpose3d", (M + "tensor:conv_transpose3d",),
         count=_conv_transpose_macs),
    Span("tensor.grid_sample_bilinear", (M + "tensor:grid_sample_bilinear",),
         count=_grid_samples),
    Span("tensor.batch_norm", (M + "tensor:batch_norm",)),
    # network layers
    Span("pipeline.forward_views", (M + "pipeline:CascadeNetwork.forward_views",),
         on_enter=_note_image_width),
    Span("features.forward", (M + "features:FeatureExtractor.forward",)),
    Span("cost.warp_and_correlate",
         (M + "cost:warp_and_correlate", M + "pipeline:warp_and_correlate"),
         stage=_stage_of_arg(0)),
    Span("cost.view_weights", (M + "cost:view_weights", M + "pipeline:view_weights")),
    Span("cost.aggregate", (M + "cost:aggregate", M + "pipeline:aggregate")),
    Span("cost.guidance", (M + "cost:VolumeGuidance.forward",), stage=_stage_of_arg(2)),
    Span("geometry.warp_coords", (M + "geometry:warp_coords", M + "cost:warp_coords")),
    Span("geometry.refine_hypotheses",
         (M + "geometry:refine_hypotheses", M + "pipeline:refine_hypotheses")),
    Span("regularizer.forward", (M + "regularizer:VolumeRegularizer.forward",),
         stage=_stage_of_arg(1)),
    Span("regularizer.wta_depth", (M + "regularizer:wta_depth", M + "pipeline:wta_depth")),
    # training loop
    Span("training.encode_gt", (M + "training:encode_gt",), count=_gt_in_window),
    Span("training.pixelwise_ce", (M + "training:pixelwise_ce",), count=_empty_masks),
    Span("nn.adam_step", (M + "nn:Adam.step",)),
    Span("checkpoint.save", (M + "pipeline:save_network", M + "training:save_network"),
         count=_file_bytes),
    # datasets and files
    Span("pipeline.load_dataset", (M + "pipeline:load_dataset",)),
    Span("synth.make_dataset", (M + "synth:make_dataset",)),
    Span("formats.write_pfm", (M + "formats:write_pfm",), count=_file_bytes),
    Span("formats.read_pfm", (M + "formats:read_pfm",)),
    Span("formats.write_ply", (M + "formats:write_ply",), count=_file_bytes),
    Span("formats.read_ply", (M + "formats:read_ply",)),
    # fusion and cloud scoring
    Span("fusion.fuse", (M + "fusion:fuse",), count=_fuse_counts),
    Span("fusion.geometric_check", (M + "fusion:geometric_check",)),
    Span("evaluation.cloud_distance_metrics", (M + "evaluation:cloud_distance_metrics",)),
    Span("evaluation.threshold_metrics", (M + "evaluation:threshold_metrics",)),
    Span("evaluation.nearest_distances", (M + "evaluation:nearest_distances",),
         count=_queries),
]
