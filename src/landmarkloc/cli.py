"""Subcommand CLI wiring the pipeline stages together.

Subcommands: synth, select, partition, visibility, simulate, localize,
evaluate. A YAML config file (--config) may supply per-subcommand defaults;
command-line flags win over file values. Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from .detection import load_detections, merge_ensemble, save_detections, simulate_detections
from .errors import DataError, DegeneracyError, RobustFitError
from .evaluation import (
    RunRecord,
    build_report,
    per_image_csv,
    report_to_csv,
    report_to_text,
)
from .landmarks import load_landmarks, save_landmarks, select_landmarks
from .mesh import load_mesh
from .partitioning import CRITERIA, make_partition, save_partition
from .pose import STATUS_OK, SolverConfig, load_poses, localize, save_poses
from .scene_model import Intrinsics, load_scene
from .synth import SynthConfig, generate_scene, write_scene
from .visibility import VisibilityConfig, compute_visibility, load_visibility, save_visibility

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_RANDOMIZED = {"synth", "simulate", "localize"}  # partition depends on criterion


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="landmarkloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--room", type=float, nargs=3, default=[6.0, 4.0, 3.0],
                   metavar=("LX", "LY", "LZ"))
    p.add_argument("--sites", type=int, default=120, help="landmark sites")
    p.add_argument("--occluders", type=int, default=0)
    p.add_argument("--cameras", type=int, default=50)
    p.add_argument("--focal", type=float, default=500.0)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--margin", type=float, default=0.8,
                   help="camera clearance from walls")
    p.add_argument("--min-target-dist", type=float, default=0.5,
                   help="cameras aim at wall points at least this far away")
    p.add_argument("--config", default=None)

    p = sub.add_parser("select", help="greedy landmark selection")
    p.add_argument("--scene", required=True, help="reconstruction directory")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--radius", type=float, default=None,
                   help="initial separation radius (default: scene diameter / 4)")
    p.add_argument("--min-track", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("partition", help="split landmarks into ensemble groups")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--criterion", choices=CRITERIA, default="default")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("visibility", help="mesh-based visibility table")
    p.add_argument("--scene", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--tol-depth", type=float, default=0.05)
    p.add_argument("--rel-frac", type=float, default=0.01)
    p.add_argument("--tol-normal", type=float, default=30.0)
    p.add_argument("--max-surface-dist", type=float, default=0.2)
    p.add_argument("--decimation", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("simulate", help="simulate a landmark detector")
    p.add_argument("--scene", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--visibility", required=True)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("localize", help="robust pose estimation per image")
    p.add_argument("--scene", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--detections", required=True, nargs="+",
                   help="one or more detection CSVs (multiple = ensemble union)")
    p.add_argument("--weight-exp", type=float, default=2.0)
    p.add_argument("--threshold", type=float, default=4.0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--confidence", type=float, default=0.999)
    p.add_argument("--min-inliers", type=int, default=12)
    p.add_argument("--refinement", choices=("none", "unweighted", "weighted"),
                   default="weighted")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)

    p = sub.add_parser("evaluate", help="metrics report against ground truth")
    p.add_argument("--scene", required=True, help="ground-truth reconstruction")
    p.add_argument("--estimates", required=True, nargs="+")
    p.add_argument("--labels", nargs="+", default=None)
    p.add_argument("--detections", default=None,
                   help="detection CSV for angular-error statistics")
    p.add_argument("--landmarks", default=None)
    p.add_argument("--rot-thresh", type=float, default=5.0)
    p.add_argument("--pos-thresh", type=float, default=0.05)
    p.add_argument("--out", required=True, help="human-readable report path")
    p.add_argument("--csv", default=None, help="machine-readable report path")
    p.add_argument("--per-image", default=None,
                   help="per-image CSV path (suffixed per run when several)")
    p.add_argument("--config", default=None)

    return parser


def _apply_config(argv: list) -> list:
    """Inject config-file values as defaults: flags on argv win."""
    # `--flag=value` is the same explicit flag as `--flag value`.
    argv = [tok for arg in argv
            for tok in (arg.split("=", 1) if arg.startswith("--") else (arg,))]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config requires a path")
    path = Path(argv[idx + 1])
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise DataError("config file must be a mapping")
    command = argv[0] if argv and not argv[0].startswith("-") else None
    section = data.get(command, {}) if command else {}
    if not isinstance(section, dict):
        raise DataError(f"config section {command!r} must be a mapping")
    extra = []
    present = set(argv)
    for key, value in section.items():
        flag = "--" + str(key).replace("_", "-")
        if flag in present:
            continue  # explicit flag wins
        if isinstance(value, (list, tuple)):
            extra.extend([flag] + [str(v) for v in value])
        else:
            extra.extend([flag, str(value)])
    return argv + extra


def _require_seed(args) -> None:
    randomized = args.command in _RANDOMIZED or (
        args.command == "partition" and args.criterion in ("random", "kmeans")
    )
    if randomized and args.seed is None:
        raise UsageError(f"{args.command} is randomized: an explicit --seed is required")


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        room_size=tuple(args.room),
        num_landmark_sites=args.sites,
        num_occluders=args.occluders,
        num_cameras=args.cameras,
        camera_margin=args.margin,
        min_target_dist=args.min_target_dist,
        intrinsics=Intrinsics(args.focal, args.focal, args.width / 2.0,
                              args.height / 2.0, args.width, args.height),
        seed=args.seed,
    )
    scene = generate_scene(cfg)
    write_scene(scene, args.out)
    print(
        f"wrote scene: {len(scene.model.images)} images, "
        f"{len(scene.gt_landmarks)} landmarks, {len(scene.mesh)} triangles -> {args.out}"
    )
    return EXIT_OK


def cmd_select(args) -> int:
    model = load_scene(args.scene)
    radius = args.radius
    if radius is None:
        xyz = np.array([p.xyz for p in model.points.values()])
        radius = float(np.linalg.norm(xyz.max(axis=0) - xyz.min(axis=0))) / 4.0
    ls = select_landmarks(model, args.count, radius, args.min_track)
    save_landmarks(ls, args.out)
    print(f"selected {len(ls)} landmarks -> {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    if args.groups < 1:
        raise UsageError("--groups must be >= 1")
    ls = load_landmarks(args.landmarks)
    pa = make_partition(ls, args.criterion, args.groups, seed=args.seed,
                        max_iter=args.max_iter)
    save_partition(pa, args.out)
    print(f"partitioned {len(ls)} landmarks into {args.groups} groups -> {args.out}")
    return EXIT_OK


def cmd_visibility(args) -> int:
    model = load_scene(args.scene)
    mesh_path = Path(args.mesh)
    if not mesh_path.exists():
        raise DataError(f"mesh file not found: {mesh_path}")
    mesh = load_mesh(mesh_path)
    ls = load_landmarks(args.landmarks)
    cfg = VisibilityConfig(
        tol_depth=args.tol_depth,
        rel_frac=args.rel_frac,
        tol_normal_deg=args.tol_normal,
        max_surface_dist=args.max_surface_dist,
        decimation=args.decimation,
    )
    vt = compute_visibility(model, mesh, ls, cfg)
    save_visibility(vt, args.out)
    visible = int(vt.mask.sum())
    print(
        f"visibility: {visible} visible pairs of {vt.mask.size}, "
        f"{len(vt.excluded)} landmarks off-mesh -> {args.out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_scene(args.scene)
    ls = load_landmarks(args.landmarks)
    vt = load_visibility(args.visibility)
    dets = simulate_detections(
        model, ls, vt, noise_sigma_px=args.noise_sigma,
        outlier_rate=args.outlier_rate, seed=args.seed,
    )
    save_detections(dets, args.out)
    total = sum(len(ds) for ds in dets.values())
    print(f"simulated {total} detections over {len(dets)} images -> {args.out}")
    return EXIT_OK


def cmd_localize(args) -> int:
    model = load_scene(args.scene)
    ls = load_landmarks(args.landmarks)
    per_file = [load_detections(p) for p in args.detections]
    image_ids = sorted(set().union(*[set(d) for d in per_file]))
    cfg = SolverConfig(
        e=args.weight_exp,
        threshold_px=args.threshold,
        max_iterations=args.max_iters,
        confidence=args.confidence,
        min_inliers=args.min_inliers,
        refinement=args.refinement,
    )
    estimates = {}
    t0 = time.perf_counter()
    for iid in image_ids:
        if iid not in model.images:
            raise DataError(f"detections reference unknown image {iid}")
        sets = [d[iid] for d in per_file if iid in d]
        ds = sets[0] if len(sets) == 1 else merge_ensemble(sets, iid)
        K = model.intrinsics[model.images[iid].camera_id]
        estimates[iid] = localize(ds, ls, K, cfg, seed=(args.seed ^ iid))
    elapsed = time.perf_counter() - t0
    sec_per_image = elapsed / max(len(image_ids), 1)
    save_poses(estimates, args.out, sec_per_image=sec_per_image)
    n_ok = sum(1 for e in estimates.values() if e.status == STATUS_OK)
    print(
        f"localized {n_ok}/{len(estimates)} images "
        f"({sec_per_image * 1000:.1f} ms/image) -> {args.out}"
    )
    if estimates and n_ok == 0:
        raise RobustFitError("no image could be localized")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_scene(args.scene)
    labels = args.labels
    if labels is None:
        labels = [Path(p).stem for p in args.estimates]
    if len(labels) != len(args.estimates):
        raise UsageError("--labels must match --estimates in length")
    detections = load_detections(args.detections) if args.detections else None
    landmarks = load_landmarks(args.landmarks) if args.landmarks else None
    runs = []
    for label, path in zip(labels, args.estimates):
        estimates, meta = load_poses(path)
        runs.append(
            RunRecord(
                label,
                estimates,
                model,
                detections=detections,
                landmarks=landmarks,
                sec_per_image=meta.get("sec_per_image", float("nan")),
            )
        )
    report = build_report(runs, args.rot_thresh, args.pos_thresh)
    text = report_to_text(report)
    Path(args.out).write_text(text)
    if args.csv:
        Path(args.csv).write_text(report_to_csv(report))
    if args.per_image:
        base = Path(args.per_image)
        for run in runs:
            path = base if len(runs) == 1 else base.with_name(
                f"{base.stem}_{run.label}{base.suffix}"
            )
            path.write_text(per_image_csv(run.estimates, model))
    sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "select": cmd_select,
    "partition": cmd_partition,
    "visibility": cmd_visibility,
    "simulate": cmd_simulate,
    "localize": cmd_localize,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        _require_seed(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegeneracyError, RobustFitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
