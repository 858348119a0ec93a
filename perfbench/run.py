"""minimvs benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload train|infer|cloud --seed N \
        --seconds S --trace 0|1

Run it from the root of a minimvs checkout; the program is imported from
``src/``. BLAS is pinned to one thread. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
ops and reports per-layer busy and self time, work counts and the tracing
overhead. Human-readable lines come first; the last line of standard output
is one JSON object. The full result with its run manifest is also written to
``.perfbench_results/`` in the checkout. Exit code 1 means a correctness
check failed, 2 that the checkout holds no program to measure.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import types

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
PROGRAM_MODULES = ("checkpoint", "config", "evaluation", "formats", "fusion", "geometry",
                   "pipeline", "synth", "tensor", "training")


def import_program():
    """Import minimvs afresh (numpy stays loaded) and return its modules."""
    for name in [n for n in sys.modules if n == "minimvs" or n.startswith("minimvs.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"minimvs.{name}") for name in PROGRAM_MODULES})


def setup(workload_cls, work, seed, tracer):
    """Set up SETUP_REPEATS times (import, synth, load, build); keep the last."""
    times = []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.uninstall()
        start = time.perf_counter()
        mods = import_program()
        if tracer is not None:
            tracer.install()
        workload = workload_cls(mods)
        workload.setup(os.path.join(work, f"setup_{rep}"), seed)
        times.append(time.perf_counter() - start)
    return workload, times


def measure(workload, seconds, tracer):
    """Run ops until the next one would overrun `seconds` (at least min_ops).

    A traced run starts with an untraced warm-up op, then alternates traced
    and untraced ops, so that each traced op has an untraced neighbour.
    Returns per-op records.
    """
    records = []
    walls = []
    begin = time.perf_counter()
    index = 0
    while True:
        need = max(workload.min_ops, 3 if tracer is not None else 1)
        if index >= need:
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(walls) > seconds:
                break
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.active = traced
        start = time.perf_counter()
        items, op_seconds, failures = workload.op(index)
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        records.append({"items": items, "seconds": op_seconds, "failures": failures,
                        "traced": traced})
        index += 1
    return records


def manifest(root, args, workload):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "minimvs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "inputs": workload.sizes(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minimvs", "__init__.py")):
        print(f"perfbench: no minimvs sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = tracing.Tracer(tracing.SPANS) if args.trace else None
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        workload, setup_times = setup(workload_cls, work, args.seed, tracer)
        setup_trace = None
        if tracer is not None:
            setup_trace = metrics.snapshot(tracer)
            tracer.reset()
            tracer.active = False
            workload.untraced = tracer.paused
        records = measure(workload, args.seconds, tracer)
        report = workload.report()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = metrics.build(args, setup_times, records, report, peak_rss_mb, tracer,
                           setup_trace)
    result["manifest"] = manifest(root, args, workload)

    for name, entry in sorted(result["report"].items()):
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))

    out_dir = os.path.join(root, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
