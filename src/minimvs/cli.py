"""Command-line surface: synth / train / infer / fuse / eval-depth / eval-cloud /
gradcheck / selftest.

Exit codes: 0 success, 2 bad input (configuration, arguments, input files,
datasets), 1 other errors.
All outputs are written under --out.
"""

from __future__ import annotations

import os
import sys


def _apply_thread_env(argv):
    # must run before numpy is imported anywhere in this process; a value
    # that is not an integer >= 1 exports nothing, and `main` refuses it
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    try:
        count = int(value)
    except (TypeError, ValueError):
        return
    if count >= 1:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(count)


_apply_thread_env(sys.argv)

import argparse

import numpy as np

from . import evaluation, formats, fusion, pipeline, synth, training
from .config import PipelineConfig, default_config_text, load_config
from .errors import DatasetError, MvsError, ParameterError, ParseError
from .gradcheck import run_op_checks
from .selftest import run_selftest


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train.seed = args.seed
    return cfg.validate()


def _require_out(args):
    if not args.out:
        raise ParameterError("--out <dir> is required for this command")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ParameterError(f"--out {args.out}: cannot make the directory ({exc.strerror})") from exc
    return args.out


def _data_dir(args):
    data_dir = args.data or args.cfg.dataset
    if not data_dir:
        raise ParameterError("--data <dataset dir> is required (or [pipeline] dataset)")
    return data_dir


def cmd_synth(args):
    out = _require_out(args)
    s = args.cfg.synth
    dirs = synth.make_dataset(out, s.scenes, s.views, s.height, s.width,
                              seed=args.cfg.seed, radius=s.radius, span_deg=s.span_deg,
                              style=s.style, focal_factor=s.focal_factor,
                              range_margin=s.range_margin)
    print(f"wrote {len(dirs)} scene(s) under {out}")
    return 0


def cmd_train(args):
    out = _require_out(args)
    scenes = pipeline.load_dataset(_data_dir(args))
    trace, ckpt = training.train(scenes, args.cfg, out, log=print)
    print(f"trained {len(trace)} iterations; checkpoint at {ckpt}")
    return 0


def cmd_infer(args):
    cfg = args.cfg
    out = _require_out(args)
    records = pipeline.run_inference(cfg, _data_dir(args), args.checkpoint or cfg.checkpoint, out)
    print(f"wrote depth + confidence maps for {len(records)} view(s) under {out}")
    return 0


def _read_map(path, shape):
    """A depth or confidence map of an (H, W) image, as float64."""
    arr = formats.read_pfm(path).astype(np.float64)
    if arr.shape != shape:
        raise DatasetError(f"{path}: map is {arr.shape[0]}x{arr.shape[1]}, "
                           f"its image is {shape[0]}x{shape[1]}")
    return arr


def cmd_fuse(args):
    out = _require_out(args)
    data_dir = _data_dir(args)
    if not args.depths:
        raise ParameterError("--depths <infer output dir> is required")
    scenes = pipeline.load_dataset(data_dir, with_gt=False)
    total = 0
    for scene in scenes:
        scene_dir = os.path.join(args.depths, scene.name)
        shape = scene.images[0].shape[1:]
        depths, confs = ([_read_map(os.path.join(scene_dir, f"{v:04d}_{kind}.pfm"), shape)
                          for v in range(len(scene.images))]
                         for kind in ("depth", "conf"))
        cloud = fusion.fuse(depths, confs, scene.images, scene.cameras, args.cfg.fusion)
        ply = os.path.join(out, f"{scene.name}.ply")
        formats.write_ply(ply, cloud.points, cloud.colors)
        print(f"{scene.name}: {len(cloud.points)} points -> {ply}")
        total += len(cloud.points)
    print(f"fused {total} points from {len(scenes)} scene(s)")
    return 0


def cmd_eval_depth(args):
    pred = formats.read_pfm(args.pred).astype(np.float64)
    gt = formats.read_pfm(args.gt).astype(np.float64)
    if pred.shape != gt.shape:
        raise DatasetError(f"{args.pred}: depth map is {pred.shape[0]}x{pred.shape[1]}, "
                           f"the ground truth {args.gt} is {gt.shape[0]}x{gt.shape[1]}")
    mask = gt > 0
    report = evaluation.depth_errors(pred, gt, mask)
    sys.stdout.write(evaluation.depth_report_text(report))
    if args.out:
        path = os.path.join(_require_out(args), "depth_report.csv")
        formats.write_file(path, evaluation.depth_report_csv(report))
        print(f"report written to {path}")
    return 0


def _read_cloud(path):
    """The points of a non-empty PLY cloud."""
    points, _ = formats.read_ply(path)
    if not len(points):
        raise DatasetError(f"{path}: the cloud has no points")
    return points


def cmd_eval_cloud(args):
    recon = _read_cloud(args.recon)
    gt = _read_cloud(args.gt)
    dist = evaluation.cloud_distance_metrics(recon, gt, outlier_cap=args.cap)
    thr = evaluation.threshold_metrics(recon, gt, args.tau) if args.tau else None
    sys.stdout.write(evaluation.cloud_report_text(dist, thr))
    if args.out:
        path = os.path.join(_require_out(args), "cloud_report.csv")
        formats.write_file(path, evaluation.cloud_report_csv(dist, thr))
        print(f"report written to {path}")
    return 0


def cmd_gradcheck(args):
    names = None if args.ops in (None, "all") else args.ops.split(",")
    results = run_op_checks(names, seed=args.seed if args.seed is not None else 0)
    worst_fail = False
    for name, err, ok in results:
        print(f"{name:24s} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
        worst_fail |= not ok
    return 2 if worst_fail else 0


def cmd_selftest(args):
    failures = run_selftest(log=print)
    return 2 if failures else 0


def cmd_default_config(args):
    sys.stdout.write(default_config_text())
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (key = value sections)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--out", help="output directory (all writes stay inside)")
    common.add_argument("--threads", type=int,
                        help="BLAS thread cap; 1 guarantees bit-reproducible runs")

    parser = argparse.ArgumentParser(prog="minimvs",
                                     description="desk-scale multi-view stereo pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="render a synthetic dataset")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the cascade network")
    p.add_argument("--data", help="dataset directory (scene_* subdirectories)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", parents=[common], help="estimate depth maps")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="parameter checkpoint to load")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("fuse", parents=[common], help="fuse depth maps into a point cloud")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--depths", help="directory produced by `infer`")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("eval-depth", parents=[common], help="depth-map error metrics")
    p.add_argument("--pred", required=True, help="predicted depth PFM")
    p.add_argument("--gt", required=True, help="ground-truth depth PFM (0 = invalid)")
    p.set_defaults(fn=cmd_eval_depth)

    p = sub.add_parser("eval-cloud", parents=[common], help="point-cloud metrics")
    p.add_argument("--recon", required=True, help="reconstructed cloud PLY")
    p.add_argument("--gt", required=True, help="ground-truth cloud PLY")
    p.add_argument("--tau", type=float, default=0.0,
                   help="distance threshold for precision/recall/F-score")
    p.add_argument("--cap", type=float, default=20.0, help="outlier distance cap")
    p.set_defaults(fn=cmd_eval_cloud)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference checks of every operator")
    p.add_argument("--ops", default="all", help="comma-separated op names or 'all'")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("selftest", parents=[common],
                       help="end-to-end smoke run on a tiny synthetic scene")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("default-config", parents=[common],
                       help="print a config file with every default")
    p.set_defaults(fn=cmd_default_config)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ParameterError(f"--threads must be >= 1, got {args.threads}")
        args.cfg = _load_cfg(args)  # any config error is fatal for every command
        return args.fn(args)
    except (ParameterError, ParseError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
