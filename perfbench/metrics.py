"""Turn a run's op records and trace into named metrics.

End-to-end metrics come from untraced ops only. Per-layer metrics come from
traced ops: `<layer>.s` is busy seconds per op and `<layer>.self_s` the same
minus the time of traced calls nested inside. Layers that run during set-up
(synth, dataset loading) are per set-up instead.
"""

from __future__ import annotations

import statistics

from tracer import SPANS

# stage labels a staged span reports, by cascade stage
STAGED = {
    "cost.warp_and_correlate": (0, 1, 2, 3),
    "cost.guidance": (1, 2, 3),
    "regularizer.forward": (0, 1, 2, 3),
}
SETUP_SPANS = ("synth.make_dataset", "pipeline.load_dataset")
# work counts per op, by the counter a span records
PER_OP_COUNTS = {
    "tensor.conv2d.macs": "count",
    "tensor.conv3d.macs": "count",
    "tensor.conv_transpose3d.macs": "count",
    "tensor.grid_sample_bilinear.samples": "count",
    "checkpoint.save.bytes": "B",
    "formats.write_pfm.bytes": "B",
    "formats.write_ply.bytes": "B",
    "evaluation.nearest_distances.queries": "count",
}


def layer_time_names():
    """Every per-layer timing: (trace key, metric stem, metric suffix)."""
    names = []
    for span in SPANS:
        for stage in STAGED.get(span.name, (None,)):
            key = span.name if stage is None else f"{span.name}.stage{stage}"
            suffix = "" if stage is None else f".stage{stage}"
            names.append((key, span.name, suffix))
    return names


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for _, stem, suffix in layer_time_names():
        units[f"{stem}.s{suffix}"] = "s"
        units[f"{stem}.self_s{suffix}"] = "s"
    units.update(PER_OP_COUNTS)
    units["pipeline.forward_views.calls"] = "count"
    units["features.forward.calls_per_view"] = "count"
    units["fusion.geometric_check.calls"] = "count"
    for stage in range(4):
        units[f"training.gt_in_window_ratio.stage{stage}"] = "ratio"
    units["training.empty_mask_warnings"] = "count"
    units["fusion.survivor_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; with ten samples or fewer no percentile has, and the maximum
    is reported with percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _ratio(num, den):
    return num / den if den else 0.0


def snapshot(tracer):
    return {"busy": dict(tracer.busy), "self": dict(tracer.self_time),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts)}


def per_layer(tracer, setup_trace, setup_reps, traced_ops, overhead):
    values = {}
    loop = snapshot(tracer)
    for key, stem, suffix in layer_time_names():
        phase, reps = (setup_trace, setup_reps) if stem in SETUP_SPANS else (loop, traced_ops)
        values[f"{stem}.s{suffix}"] = phase["busy"].get(key, 0.0) / reps
        values[f"{stem}.self_s{suffix}"] = phase["self"].get(key, 0.0) / reps
    counts, calls = loop["counts"], loop["calls"]
    for name in PER_OP_COUNTS:
        values[name] = counts.get(name, 0) / traced_ops
    views = calls.get("pipeline.forward_views", 0)
    values["pipeline.forward_views.calls"] = views / traced_ops
    values["features.forward.calls_per_view"] = _ratio(calls.get("features.forward", 0), views)
    values["fusion.geometric_check.calls"] = calls.get("fusion.geometric_check", 0) / traced_ops
    for stage in range(4):
        values[f"training.gt_in_window_ratio.stage{stage}"] = _ratio(
            counts.get(f"training.encode_gt.in_window.stage{stage}", 0),
            counts.get(f"training.encode_gt.valid.stage{stage}", 0))
    values["training.empty_mask_warnings"] = (
        counts.get("training.pixelwise_ce.empty_masks", 0) / traced_ops)
    values["fusion.survivor_ratio"] = _ratio(counts.get("fusion.fuse.points", 0),
                                             counts.get("fusion.fuse.pixels_with_depth", 0))
    values["trace.overhead_ratio"] = overhead
    return values


def build(args, setup_times, records, report, peak_rss_mb, tracer, setup_trace):
    """The run's result: correctness, metrics for the last line, full report."""
    failures = [f for rec in records for f in rec["failures"]]
    failed = sum(1 for rec in records if rec["failures"])
    plain = [rec for rec in records if not rec["traced"]]
    op_s = [rec["seconds"] for rec in plain]
    p50 = statistics.median(op_s)
    tail_s, tail_pct = tail(op_s)

    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "throughput": (sum(rec["items"] for rec in plain) / sum(op_s), "1/s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_failed_ratio": (failed / len(records), "ratio"),
    }
    named = dict(e2e)
    unit_names = {"train": ("train_samples_per_s", "train_op_s"),
                  "infer": ("infer_views_per_s", "infer_scene_s"),
                  "cloud": ("cloud_scenes_per_s", "cloud_scene_s")}
    per_s, scene = unit_names[args.workload]
    named[per_s] = e2e["throughput"]
    named[f"{scene}.p50"] = e2e["op_s.p50"]
    named[f"{scene}.tail"] = e2e["op_s.tail"]
    for name, value in report.items():
        if isinstance(value, list):
            named[f"{name}.p50"] = (statistics.median(value), "s")
            named[f"{name}.tail"] = (tail(value)[0], "s")
        else:
            named[name] = value

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "samples": {"setup_seconds": setup_times, "op_seconds": op_s,
                    "tail_percentile": tail_pct},
    }
    if tracer is None:
        result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()
                             if k != "ops_failed_ratio"}
    else:
        traced = [rec["seconds"] for rec in records if rec["traced"]]
        # each traced op against the untraced op after it, so drift cancels
        overhead = statistics.median(
            records[i]["seconds"] / records[i + 1]["seconds"]
            for i in range(1, len(records) - 1, 2)) - 1.0
        units = per_layer_units()
        values = per_layer(tracer, setup_trace, len(setup_times), len(traced), overhead)
        result["metrics"] = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
        named["trace.overhead_ratio"] = (overhead, "ratio")
    result["report"] = {k: {"value": float(v), "unit": u} for k, (v, u) in named.items()}
    return result
