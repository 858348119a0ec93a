"""Trace coverage of the benchmark: every layer span fires on the workload that
should exercise it, traced outputs are bit-identical to untraced ones, and a
traced run reports its overhead.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
Workload sizes are shrunk here so the suite takes well under a minute.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NETWORK = [
    "pipeline.forward_views", "features.forward",
    "cost.warp_and_correlate.stage0", "cost.warp_and_correlate.stage1",
    "cost.warp_and_correlate.stage2", "cost.warp_and_correlate.stage3",
    "cost.view_weights", "cost.aggregate",
    "cost.guidance.stage1", "cost.guidance.stage2", "cost.guidance.stage3",
    "geometry.warp_coords", "geometry.refine_hypotheses",
    "regularizer.forward.stage0", "regularizer.forward.stage1",
    "regularizer.forward.stage2", "regularizer.forward.stage3",
    "regularizer.wta_depth",
    "tensor.conv2d", "tensor.conv3d", "tensor.conv_transpose3d",
    "tensor.grid_sample_bilinear", "tensor.batch_norm",
]
SETUP = ["synth.make_dataset", "pipeline.load_dataset"]
EXERCISED = {
    "train": SETUP + NETWORK + ["tensor.backward", "training.encode_gt",
                                "training.pixelwise_ce", "nn.adam_step", "checkpoint.save"],
    "infer": SETUP + NETWORK + ["formats.write_pfm"],
    "cloud": SETUP + ["formats.read_pfm", "formats.write_ply", "formats.read_ply",
                      "fusion.fuse", "fusion.geometric_check",
                      "evaluation.cloud_distance_metrics", "evaluation.threshold_metrics",
                      "evaluation.nearest_distances"],
}
# layers a workload bypasses: the prediction there is no change
BYPASSED = {
    "train": ["fusion.fuse", "evaluation.nearest_distances", "formats.write_ply"],
    "infer": ["tensor.backward", "nn.adam_step", "fusion.fuse"],
    "cloud": ["pipeline.forward_views", "tensor.backward"],
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN_HW", (32, 40))
    monkeypatch.setattr(workloads, "TRAIN_ITERATIONS", 2)
    monkeypatch.setattr(workloads, "INFER_HW", (32, 40))
    monkeypatch.setattr(workloads, "CLOUD_HW", (32, 40))


def one_op(name, root, traced):
    """Set up and run one op; returns (tracer, failures, output bytes by path)."""
    mods = run.import_program()
    tracer = tracing.Tracer(tracing.SPANS)
    if traced:
        tracer.install()
    try:
        workload = workloads.WORKLOADS[name](mods)
        workload.untraced = tracer.paused
        workload.setup(str(root), seed=3)
        _, _, failures = workload.op(0)
    finally:
        tracer.uninstall()
    files = {}
    for folder, _, names in os.walk(root):
        for fname in names:
            path = os.path.join(folder, fname)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return tracer, failures, files


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_spans_fire_and_outputs_are_bit_identical(name, tmp_path):
    _, plain_failures, plain = one_op(name, tmp_path / "plain", traced=False)
    tracer, traced_failures, traced = one_op(name, tmp_path / "traced", traced=True)
    assert plain_failures == [] and traced_failures == []
    missing = [span for span in EXERCISED[name] if tracer.calls.get(span, 0) < 1]
    assert missing == [], f"{name}: spans that never fired: {missing}"
    fired = [span for span in BYPASSED[name] if tracer.calls.get(span, 0)]
    assert fired == [], f"{name}: bypassed layers ran: {fired}"
    assert sorted(plain) == sorted(traced)
    changed = [path for path in plain if plain[path] != traced[path]]
    assert changed == [], f"{name}: traced outputs differ: {changed}"


def test_call_site_bindings_are_wrapped():
    run.import_program()
    import minimvs.pipeline
    import minimvs.training
    tracer = tracing.Tracer(tracing.SPANS)
    tracer.install()
    try:
        assert hasattr(minimvs.pipeline.warp_and_correlate, "__wrapped__")
        assert hasattr(minimvs.training.save_network, "__wrapped__")
        assert hasattr(minimvs.pipeline.CascadeNetwork.forward_views, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(minimvs.pipeline.warp_and_correlate, "__wrapped__")
    assert not hasattr(minimvs.training.save_network, "__wrapped__")


def test_traced_run_reports_every_layer_metric_and_overhead(monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "cloud", "--seed", "5", "--seconds", "0",
                         "--trace", "1"])
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(metrics.per_layer_units())
    assert "trace.overhead_ratio" in last["metrics"]
    assert last["metrics"]["fusion.fuse.s"]["value"] > 0
    assert last["metrics"]["fusion.fuse.self_s"]["value"] <= last["metrics"]["fusion.fuse.s"]["value"]


def test_work_counts_repeat_exactly(monkeypatch):
    monkeypatch.chdir(ROOT)
    counts = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            run.main(["--workload", "train", "--seed", "2", "--seconds", "0", "--trace", "1"])
        found = json.loads(out.getvalue().strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in found.items() if v["unit"] != "s"
                       and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["tensor.conv3d.macs"] > 0
    assert counts[0]["checkpoint.save.bytes"] > 0
    assert counts[0]["features.forward.calls_per_view"] == 3
