"""Subcommand CLI wiring the pipeline stages together.

Subcommands: synth, select, partition, visibility, simulate, localize,
evaluate. A YAML config file (--config) may supply per-subcommand defaults;
command-line flags win over file values. Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import _io
from .detection import (
    DetectionTable,
    load_detections,
    merge_ensemble,
    save_detections,
    simulate_detections,
)
from .errors import DanglingReferenceError, DataError, DegeneracyError, RobustFitError
from .evaluation import (
    RunRecord,
    build_report,
    check_csv_label,
    per_image_csv,
    report_to_csv,
    report_to_text,
)
from .landmarks import load_landmarks, save_landmarks, select_landmarks
from .mesh import load_mesh
from .partitioning import CRITERIA, make_partition, save_partition
from .pose import (
    STATUS_OK,
    PoseTable,
    SolverConfig,
    _first_block,
    load_poses,
    localize,
    save_poses,
)
from .scene_model import Intrinsics, _diameter, load_scene
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


def _synth_args(p) -> None:
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


def _select_args(p) -> None:
    p.add_argument("--scene", required=True, help="reconstruction directory")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--radius", type=float, default=None,
                   help="initial separation radius (default: scene diameter / 4)")
    p.add_argument("--min-track", type=int, default=10)
    p.add_argument("--out", required=True)


def _partition_args(p) -> None:
    p.add_argument("--landmarks", required=True)
    p.add_argument("--criterion", choices=CRITERIA, default="default")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", required=True)


def _visibility_args(p) -> None:
    p.add_argument("--scene", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--tol-depth", type=float, default=0.05)
    p.add_argument("--rel-frac", type=float, default=0.01)
    p.add_argument("--tol-normal", type=float, default=30.0)
    p.add_argument("--max-surface-dist", type=float, default=0.2)
    p.add_argument("--decimation", type=int, default=1)
    p.add_argument("--out", required=True)


def _simulate_args(p) -> None:
    p.add_argument("--scene", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--visibility", required=True)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)


def _localize_args(p) -> None:
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


def _evaluate_args(p) -> None:
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


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser. Every subcommand is registered with its help, but
    only command's flags are added (all subcommands' where command is None):
    main parses one subcommand, and the flags are most of a parser's cost."""
    parser = _Parser(prog="landmarkloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if command in (None, name):
            add_args(p)
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
    with open(path, encoding="utf-8") as fh:
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
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")


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


def _refuse_overflow(power: int, *clouds) -> None:
    """A DataError naming the file of the first of clouds, (file, what, xyz),
    whose rows with those before it span a diameter D at which the stage's
    products of distances overflow. power 2 bounds D**2: select and evaluate
    square distances among points, landmarks and true and estimated camera
    centres. power 4 bounds 8 D**4: the visibility test multiplies up to four
    distances among mesh vertices, landmarks and camera centres (at most
    6 D**4), P3P two squared distances among landmarks (at most 8 D**4).
    partition's k-means++ sums n squared distances among landmarks, and fps
    averages n distances: power 2 lets n D**2 overflow, but under power 4
    D**2 < 5e153, so no n that fits in memory overflows the sum."""
    rows = []
    for path, what, xyz in clouds:
        rows.append(xyz)
        d = _diameter(np.vstack(rows))  # inf or NaN where D**2 overflows
        if not np.isfinite(d if power == 2 else 8.0 * d * d * d * d):
            product = "squared distances" if power == 2 else "products of four distances"
            raise DataError(f"{path}: {what} overflow: with them, {product} would not be finite")


def cmd_select(args) -> int:
    model = load_scene(args.scene)
    scene = Path(args.scene)
    _refuse_overflow(2, (scene / "points3D.txt", "point coordinates", model.points.xyz),
                     (scene / "images.txt", "camera centres", model.images.center))
    radius = args.radius
    if radius is None:
        # A quarter of the cloud's extent. Where that is 0 (no points, or all at
        # one place) any positive radius selects the same points, so 1; a cloud
        # without points has no candidates, and select_landmarks says so.
        radius = _diameter(model.points.xyz) / 4.0 or 1.0
    ls = select_landmarks(model, args.count, radius, args.min_track)
    save_landmarks(ls, args.out)
    print(f"selected {len(ls)} landmarks -> {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    if args.groups < 1:
        raise UsageError("--groups must be >= 1")
    ls = load_landmarks(args.landmarks)
    if len(ls) == 0:
        raise DataError(f"{args.landmarks}: no landmarks to partition")
    if args.criterion in ("kmeans", "fps"):
        _refuse_overflow(4, (args.landmarks, "landmark coordinates", ls.xyz))
    if args.criterion == "kmeans":
        # Lloyd's centres are means of raw coordinates. Under the power-4 rule a
        # cloud far from the origin lies on one side of it in each axis, so no
        # subset's sum exceeds the whole set's; far out, that sum can overflow.
        with np.errstate(over="ignore"):
            finite = np.isfinite(ls.xyz.sum(0)).all()
        if not finite:
            raise DataError(f"{args.landmarks}: landmark coordinates overflow: their sums "
                            "over all landmarks would not be finite")
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
    _refuse_overflow(4, (mesh_path, "vertex coordinates", mesh.vertices),
                     (args.landmarks, "landmark coordinates", ls.xyz),
                     (Path(args.scene) / "images.txt", "camera centres", model.images.center))
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
    if len(vt.mask) > len(ls):  # a table of another landmark set
        raise DataError(f"{args.visibility}: {len(vt.mask)} landmark rows, but "
                        f"{args.landmarks} holds {len(ls)} landmarks")
    try:
        dets = simulate_detections(model, ls, vt, noise_sigma_px=args.noise_sigma,
                                   outlier_rate=args.outlier_rate, seed=args.seed)
    except DanglingReferenceError as exc:
        raise DanglingReferenceError(f"{args.visibility}: {exc}") from None
    save_detections(dets, args.out)
    print(f"simulated {len(dets.image_ids)} detections over {len(model.images)} images "
          f"-> {args.out}")
    return EXIT_OK


def _detections_in_images(path, model, landmarks=None) -> DetectionTable:
    """load_detections, with every image checked at once, before any work: the
    model has it, its detections lie inside it (u in [0, width) and v in [0,
    height)), and, given landmarks, its landmark ids are rows of them. The
    error names path, and the first fault of the image that comes first in it."""
    detections = load_detections(path)
    if not len(detections):
        return detections
    images, lids, starts = model.images, detections.landmark_ids, detections.offsets[:-1]
    stray = ((lids < 0) | (lids >= len(landmarks)) if landmarks is not None
             else np.zeros(len(lids), bool))
    # The least floats >= each image's width and height (inf for an unknown
    # image), so that u < extent as floats is u < width as numbers.
    sizes = {c: [math.nextafter(float(n), math.inf) if float(n) < n else float(n)
                 for n in (K.width, K.height)] for c, K in model.intrinsics.items()}
    extent = np.array([*map(sizes.get, images.camera_ids.tolist()), [math.inf] * 2])
    known = np.isin(detections.images, images.ids)
    faulty = (~known | np.logical_or.reduceat(stray, starts)
              | (np.minimum.reduceat(detections.uv, starts) < 0).any(1)
              | (np.maximum.reduceat(detections.uv, starts)
                 >= extent[np.searchsorted(images.ids, detections.images)]).any(1))
    if faulty.any():
        k = np.flatnonzero(faulty)[np.argmin(detections.first_rows[faulty])]
        iid, rows = detections.images[k].item(), slice(*detections.offsets[k:k + 2])
        if not known[k]:
            raise DanglingReferenceError(f"{path}: detections reference unknown image {iid}")
        if stray[rows].any():
            raise DanglingReferenceError(
                f"{path}: detection references unknown landmark {lids[rows][stray[rows]][0]}")
        K = model.camera(iid)
        raise DataError(f"{path}: image {iid} has a detection outside its "
                        f"{K.width}x{K.height} pixels")
    return detections


def cmd_localize(args) -> int:
    """Localize every image with detections, once every file is checked and
    several are merged in one merge_ensemble call: one localize call per image
    in ascending id order (the per-image clock of perfbench/worker.py times these
    calls), each image's first PROSAC block sized by pose._first_block from the
    images before it. The block plan moves no output byte; the poses file's
    `# sec_per_image` is the mean wall time of those calls."""
    model = load_scene(args.scene)
    ls = load_landmarks(args.landmarks)
    _refuse_overflow(4, (args.landmarks, "landmark coordinates", ls.xyz))
    detections = (merge_ensemble([_detections_in_images(p, model, ls) for p in args.detections],
                                 args.detections) if len(args.detections) > 1
                  else _detections_in_images(args.detections[0], model, ls))
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
    for iid, ds in detections.items():
        estimates[iid] = localize(ds, ls, model.camera(iid), cfg, seed=(args.seed ^ iid),
                                  first_block=_first_block(estimates.values()))
    elapsed = time.perf_counter() - t0
    sec_per_image = elapsed / max(len(detections), 1)
    poses = PoseTable.of(estimates)
    save_poses(poses, args.out, sec_per_image=sec_per_image)
    n_ok = poses.status.count(STATUS_OK)
    print(
        f"localized {n_ok}/{len(poses)} images "
        f"({sec_per_image * 1000:.1f} ms/image) -> {args.out}"
    )
    if len(poses) and n_ok == 0:
        raise RobustFitError("no image could be localized")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_scene(args.scene)
    labels = args.labels
    if labels is None:
        labels = [Path(p).stem for p in args.estimates]
    if len(labels) != len(args.estimates):
        raise UsageError("--labels must match --estimates in length")
    repeated = next((label for k, label in enumerate(labels) if label in labels[:k]), None)
    if repeated is not None:
        raise UsageError(f"two runs are labelled {repeated!r}: give each its own with --labels")
    for label in labels:  # before any file is written
        if args.per_image and len(labels) > 1 and (not label or "/" in label or "\0" in label):
            raise UsageError(f"--labels: run label {label!r} cannot be a file-name suffix "
                             "of --per-image")
        if args.csv:
            try:
                check_csv_label(label)
            except ValueError as exc:
                raise UsageError(f"--labels: {exc}, which --csv cannot carry") from None
    landmarks = load_landmarks(args.landmarks) if args.landmarks else None
    detections = (_detections_in_images(args.detections, model, landmarks)
                  if args.detections else None)
    clouds = [(Path(args.scene) / "images.txt", "camera centres", model.images.center)]
    if landmarks is not None:
        clouds.append((args.landmarks, "landmark coordinates", landmarks.xyz))
    _refuse_overflow(2, *clouds)
    runs = []
    for label, path in zip(labels, args.estimates):
        poses, meta = load_poses(path)
        if not len(poses):
            raise DataError(f"{path}: no pose lines to evaluate")
        unknown = poses.ids[~np.isin(poses.ids, model.images.ids)]
        if len(unknown):
            raise DanglingReferenceError(
                f"{path}: estimates reference unknown images {unknown.tolist()}")
        ok = np.array(poses.status) == STATUS_OK
        _refuse_overflow(2, clouds[0], (path, "camera centres", poses.center[ok]))
        runs.append(RunRecord(label, poses, model, detections=detections, landmarks=landmarks,
                              sec_per_image=meta.get("sec_per_image", float("nan"))))
    if detections is not None:
        for path, run in zip(args.estimates, runs):
            unposed = detections.images[~np.isin(detections.images, run.poses.ids)]
            if len(unposed):
                raise DataError(f"{path}: no pose line for image {unposed.min()}, which has "
                                f"detections in {args.detections}")
    report = build_report(runs, args.rot_thresh, args.pos_thresh)
    text = report_to_text(report)
    _io.write_text(args.out, [text])
    if args.csv:
        _io.write_text(args.csv, [report_to_csv(report)])
    if args.per_image:
        base = Path(args.per_image)
        for run in runs:
            path = base if len(runs) == 1 else base.with_name(
                f"{base.stem}_{run.label}{base.suffix}"
            )
            _io.write_text(path, [per_image_csv(run)])
    sys.stdout.write(text)
    return EXIT_OK


# Each subcommand: the function that runs it, its help, and the function that
# adds its flags (each also takes --config).
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic scene", _synth_args),
    "select": (cmd_select, "greedy landmark selection", _select_args),
    "partition": (cmd_partition, "split landmarks into ensemble groups", _partition_args),
    "visibility": (cmd_visibility, "mesh-based visibility table", _visibility_args),
    "simulate": (cmd_simulate, "simulate a landmark detector", _simulate_args),
    "localize": (cmd_localize, "robust pose estimation per image", _localize_args),
    "evaluate": (cmd_evaluate, "metrics report against ground truth", _evaluate_args),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        _require_seed(args)
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # no path at fault (a write error names its output)
            raise
        print(f"data error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegeneracyError, RobustFitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
