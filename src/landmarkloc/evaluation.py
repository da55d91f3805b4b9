"""Localization metrics and report tables: rotation/position errors, recall
at configurable thresholds, detection angular errors, and per-configuration
ablation rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _io
from .errors import InvalidRotationError
from .landmarks import LandmarkSet
from .pose import STATUS_OK
from .scene_model import Intrinsics, Pose, SceneModel, _camera_frame, bearing

DEFAULT_ROT_THRESH_DEG = 5.0
DEFAULT_POS_THRESH_M = 0.05


@dataclass(frozen=True)
class PoseErrors:
    rot_deg: float
    pos_m: float

    def __post_init__(self):
        if not (0.0 <= self.rot_deg <= 180.0 + 1e-9):
            raise ValueError("rotation error outside [0, 180]")
        if self.pos_m < 0:
            raise ValueError("position error must be >= 0")


def _check_rotation(R: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or np.abs(R.T @ R - np.eye(3)).max() > tol:
        raise InvalidRotationError("matrix is not orthogonal within 1e-6")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise InvalidRotationError("matrix determinant is not +1 within 1e-6")
    return R


def rotation_error(R: np.ndarray, R_hat: np.ndarray) -> float:
    """Geodesic angle between rotations in degrees, arccos((Tr(R^T R_hat)-1)/2)."""
    R = _check_rotation(R)
    R_hat = _check_rotation(R_hat)
    arg = (np.trace(R.T @ R_hat) - 1.0) / 2.0
    return math.degrees(math.acos(np.clip(arg, -1.0, 1.0)))


def position_error(pose: Pose, pose_hat: Pose) -> float:
    """Distance between camera centers -R^T t in meters."""
    return float(np.linalg.norm(pose.center - pose_hat.center))


def pose_errors(pose: Pose, pose_hat: Pose) -> PoseErrors:
    return PoseErrors(rotation_error(pose.R, pose_hat.R), position_error(pose, pose_hat))


def recall_at(
    errors,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    pos_thresh_m: float = DEFAULT_POS_THRESH_M,
) -> float:
    """Fraction of images whose errors pass both thresholds.

    Entries of None stand for failed localizations and count as misses.
    """
    errors = list(errors)
    if not errors:
        raise ValueError("recall over an empty error list")
    hits = sum(
        1
        for e in errors
        if e is not None and e.rot_deg <= rot_thresh_deg and e.pos_m <= pos_thresh_m
    )
    return hits / len(errors)


def _angular_errors(uv: np.ndarray, gt_pose: Pose, K: Intrinsics, xyz: np.ndarray) -> list:
    """detection_angular_error of each row of pixels uv (N,2) and landmarks
    xyz (N,3) whose landmark lies in front of the camera; rows at or behind
    it are left out. The angle comes from math.atan2, because np.arctan2
    differs in the last bit on some rows."""
    cam = _camera_frame(gt_pose, xyz)
    front = cam[:, 2] > 0
    cam, uv = cam[front], uv[front]
    cam = cam / np.sqrt(np.vecdot(cam, cam))[:, None]
    b = bearing(K, uv)
    c = np.cross(b, cam)
    sines, cosines = np.sqrt(np.vecdot(c, c)).tolist(), np.vecdot(b, cam).tolist()
    return [math.degrees(math.atan2(s, co)) for s, co in zip(sines, cosines)]


def detection_angular_error(det, gt_pose: Pose, K: Intrinsics, xyz: np.ndarray) -> float:
    """Angle (degrees) between the detection's bearing and the landmark's
    true camera-frame direction under the ground-truth pose: the one-row
    case of _angular_errors."""
    angles = _angular_errors(np.reshape(det.uv, (1, 2)), gt_pose, K, np.reshape(xyz, (1, 3)))
    if not angles:
        raise ValueError("landmark behind the ground-truth camera")
    return angles[0]


@dataclass
class RunRecord:
    """One evaluated configuration: estimates against ground truth."""

    label: str
    estimates: dict            # image id -> PoseEstimate
    gt_model: SceneModel
    detections: dict | None = None   # image id -> DetectionSet, for angular error
    landmarks: LandmarkSet | None = None
    sec_per_image: float = float("nan")


@dataclass
class ReportRow:
    label: str
    n_images: int
    n_ok: int
    recall: float
    median_rot_deg: float
    median_pos_m: float
    median_angular_deg: float
    sec_per_image: float


@dataclass
class EvalReport:
    rows: list
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG
    pos_thresh_m: float = DEFAULT_POS_THRESH_M


def per_image_errors(estimates: dict, gt_model: SceneModel) -> dict:
    """PoseErrors per image id; None where localization failed.

    Raises on image sets that do not match the ground truth model.
    """
    missing = set(estimates) - set(gt_model.images)
    if missing:
        raise ValueError(f"estimates reference unknown images {sorted(missing)}")
    out = {}
    for iid, est in estimates.items():
        if est.status != STATUS_OK or est.pose is None:
            out[iid] = None
        else:
            out[iid] = pose_errors(est.pose, gt_model.images[iid].pose)
    return out


def _median_or_nan(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return float(np.median(values)) if values else float("nan")


def build_report(
    runs,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    pos_thresh_m: float = DEFAULT_POS_THRESH_M,
) -> EvalReport:
    """One row per run: recall, error medians (over localized images), and
    the median detection angular error when detections are supplied."""
    rows = []
    for run in runs:
        errs = per_image_errors(run.estimates, run.gt_model)
        err_list = [errs[iid] for iid in sorted(errs)]
        recall = recall_at(err_list, rot_thresh_deg, pos_thresh_m)
        ang = float("nan")
        if run.detections is not None and run.landmarks is not None:
            xyz = run.landmarks.xyz
            angles = []
            for iid, ds in run.detections.items():
                img = run.gt_model.images[iid]
                ids = [det.landmark_id for det in ds]
                uv = np.array([det.uv for det in ds]).reshape(-1, 2)
                angles += _angular_errors(uv, img.pose, run.gt_model.intrinsics[img.camera_id],
                                          xyz[ids].reshape(-1, 3))
            ang = _median_or_nan(angles)
        rows.append(
            ReportRow(
                label=run.label,
                n_images=len(err_list),
                n_ok=sum(1 for e in err_list if e is not None),
                recall=recall,
                median_rot_deg=_median_or_nan(
                    [e.rot_deg for e in err_list if e is not None]
                ),
                median_pos_m=_median_or_nan(
                    [e.pos_m for e in err_list if e is not None]
                ),
                median_angular_deg=ang,
                sec_per_image=run.sec_per_image,
            )
        )
    return EvalReport(rows, rot_thresh_deg, pos_thresh_m)


_CSV_COLUMNS = [
    "label",
    "n_images",
    "n_ok",
    "recall",
    "median_rot_deg",
    "median_pos_m",
    "median_angular_deg",
    "sec_per_image",
]


def report_to_csv(report: EvalReport) -> str:
    rot, pos = _io.fmt(report.rot_thresh_deg), _io.fmt(report.pos_thresh_m)
    lines = [f"# thresholds rot_deg={rot} pos_m={pos}", ",".join(_CSV_COLUMNS)]
    for r in report.rows:
        vals = (r.recall, r.median_rot_deg, r.median_pos_m, r.median_angular_deg, r.sec_per_image)
        lines.append(",".join([r.label, str(r.n_images), str(r.n_ok), *map(_io.fmt, vals)]))
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> EvalReport:
    lines = [l for l in text.splitlines() if l.strip()]
    rot, pos = DEFAULT_ROT_THRESH_DEG, DEFAULT_POS_THRESH_M
    rows = []
    for line in lines:
        if line.startswith("#"):
            for tok in line[1:].split():
                k, _, v = tok.partition("=")
                if k == "rot_deg":
                    rot = float(v)
                elif k == "pos_m":
                    pos = float(v)
            continue
        if line.startswith("label,"):
            continue
        parts = line.split(",")
        rows.append(
            ReportRow(
                parts[0],
                int(parts[1]),
                int(parts[2]),
                float(parts[3]),
                float(parts[4]),
                float(parts[5]),
                float(parts[6]),
                float(parts[7]),
            )
        )
    return EvalReport(rows, rot, pos)


def report_to_text(report: EvalReport) -> str:
    """Fixed-width human-readable table."""
    header = (
        f"{'config':<24} {'images':>6} {'ok':>5} "
        f"{'recall@' + format(report.pos_thresh_m * 100, 'g') + 'cm/' + format(report.rot_thresh_deg, 'g') + 'deg':>18} "
        f"{'med dR (deg)':>13} {'med dt (m)':>11} {'med ang (deg)':>14} {'s/img':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.label:<24} {r.n_images:>6} {r.n_ok:>5} {r.recall:>18.4f} "
            f"{r.median_rot_deg:>13.5f} {r.median_pos_m:>11.5f} "
            f"{r.median_angular_deg:>14.5f} {r.sec_per_image:>8.4f}"
        )
    return "\n".join(lines) + "\n"


def per_image_csv(estimates: dict, gt_model: SceneModel) -> str:
    """Machine-readable per-image `image_id,rot_err_deg,pos_err_m,status` rows."""
    errs = per_image_errors(estimates, gt_model)
    lines = ["image_id,rot_err_deg,pos_err_m,status"]
    for iid in sorted(errs):
        e = errs[iid]
        status = estimates[iid].status
        if e is None:
            lines.append(f"{iid},nan,nan,{status}")
        else:
            lines.append(f"{iid},{_io.fmt(e.rot_deg)},{_io.fmt(e.pos_m)},{status}")
    return "\n".join(lines) + "\n"
