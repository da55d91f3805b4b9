"""Localization metrics and report tables: rotation/position errors, recall
at configurable thresholds, detection angular errors, and per-configuration
ablation rows.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from . import _io
from .detection import _BLOCK_ROWS, DetectionTable
from .errors import DanglingReferenceError, InvalidRotationError
from .landmarks import LandmarkSet
from .pose import STATUS_OK, PoseTable
from .scene_model import ImageSet, Intrinsics, Pose, SceneModel, bearing

DEFAULT_ROT_THRESH_DEG = 5.0
DEFAULT_POS_THRESH_M = 0.05


def _check_rotation(R: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or np.abs(R.T @ R - np.eye(3)).max() > tol:
        raise InvalidRotationError("matrix is not orthogonal within 1e-6")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise InvalidRotationError("matrix determinant is not +1 within 1e-6")
    return R


def rotation_error(R: np.ndarray, R_hat: np.ndarray) -> float:
    """Geodesic angle in degrees, arccos((Tr(R^T R_hat)-1)/2): _pose_errors of one pair."""
    R = _check_rotation(R)
    R_hat = _check_rotation(R_hat)
    arg = (np.trace(R.T @ R_hat) - 1.0) / 2.0
    return math.degrees(math.acos(np.clip(arg, -1.0, 1.0)))


def position_error(pose: Pose, pose_hat: Pose) -> float:
    """Distance between camera centers -R^T t in meters: _pose_errors of one pair."""
    return float(np.linalg.norm(pose.center - pose_hat.center))


def _pose_errors(poses: PoseTable, images: ImageSet) -> tuple:
    """Rotation errors (degrees) and position errors (meters) of the rows of
    poses against the images' ground truth, as two columns, NaN where the row
    is not ok; a ValueError names images that the set lacks. Each row has the
    bits of rotation_error and position_error: math.acos row by row, since
    np.arccos differs from it in the last bit on some rows."""
    known = np.isin(poses.ids, images.ids)
    if not known.all():
        raise ValueError(f"estimates reference unknown images {poses.ids[~known].tolist()}")
    rows = np.searchsorted(images.ids, poses.ids)
    trace = np.trace(np.matmul(poses.R.transpose(0, 2, 1), images.R[rows]), axis1=1, axis2=2)
    cosines = np.clip((trace - 1.0) / 2.0, -1.0, 1.0).tolist()
    rot_deg = np.array([math.degrees(math.acos(c)) for c in cosines])
    d = poses.center - images.center[rows]
    return rot_deg, np.sqrt(np.vecdot(d, d))


def recall_at(
    rot_deg,
    pos_m,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    pos_thresh_m: float = DEFAULT_POS_THRESH_M,
) -> float:
    """Fraction of images whose errors, the columns rot_deg and pos_m, pass
    both thresholds. NaN stands for a failed localization and is a miss."""
    rot_deg, pos_m = np.asarray(rot_deg, dtype=np.float64), np.asarray(pos_m, dtype=np.float64)
    if not len(rot_deg):
        raise ValueError("recall over an empty error list")
    hits = np.count_nonzero((rot_deg <= rot_thresh_deg) & (pos_m <= pos_thresh_m))
    return int(hits) / len(rot_deg)


def _angular_errors(b: np.ndarray, R: np.ndarray, t: np.ndarray, xyz: np.ndarray) -> list:
    """detection_angular_error of each row whose landmark xyz (N, 3) lies in
    front of the camera of pose R (N, 3, 3), t (N, 3), with bearing b (N, 3);
    rows at or behind it are left out. As in _camera_frame, each camera frame
    is one 3x3 by 3-vector product; the angle comes from math.atan2, because
    np.arctan2 differs in the last bit on some rows."""
    cam = np.matmul(R, xyz[:, :, None])[:, :, 0] + t
    front = cam[:, 2] > 0
    cam, b = cam[front], b[front]
    cam = cam / np.sqrt(np.vecdot(cam, cam))[:, None]
    c = np.cross(b, cam)
    sines, cosines = np.sqrt(np.vecdot(c, c)).tolist(), np.vecdot(b, cam).tolist()
    return [math.degrees(math.atan2(s, co)) for s, co in zip(sines, cosines)]


def detection_angular_error(uv, gt_pose: Pose, K: Intrinsics, xyz: np.ndarray) -> float:
    """Angle (degrees) between the bearing of a detection at pixel uv (2,)
    and the landmark's true camera-frame direction under the ground-truth
    pose: the one-row case of _angular_errors."""
    angles = _angular_errors(bearing(K, np.reshape(uv, (1, 2))), gt_pose.R[None],
                             gt_pose.t[None], np.reshape(xyz, (1, 3)))
    if not angles:
        raise ValueError("landmark behind the ground-truth camera")
    return angles[0]


def _detection_errors(detections: DetectionTable, model: SceneModel, landmarks: LandmarkSet):
    """_angular_errors of every detection, in the table's order, under its
    image's true pose, _BLOCK_ROWS rows at a time (one bearing call per camera
    id in each), so that the rows' temporaries stay small. The first detection
    of an image or landmark that they lack raises DanglingReferenceError."""
    images, lids, counts = model.images, detections.landmark_ids, np.diff(detections.offsets)
    known = np.repeat(np.isin(detections.images, images.ids), counts)
    bad = np.flatnonzero(~known | (lids < 0) | (lids >= len(landmarks)))
    if len(bad):
        k = bad[0]
        raise DanglingReferenceError(f"detection references unknown landmark {lids[k]}" if known[k]
                                     else f"detections reference unknown image "
                                     f"{detections.image_ids[k]}")
    image_rows, angles = np.repeat(np.searchsorted(images.ids, detections.images), counts), []
    for lo in range(0, len(lids), _BLOCK_ROWS):
        rows, uv = image_rows[lo:lo + _BLOCK_ROWS], detections.uv[lo:lo + _BLOCK_ROWS]
        cameras, b = images.camera_ids[rows], np.empty((len(rows), 3))
        for cam in np.unique(cameras).tolist():
            b[cameras == cam] = bearing(model.intrinsics[cam], uv[cameras == cam])
        angles += _angular_errors(b, images.R[rows], images.t[rows],
                                  landmarks.xyz[lids[lo:lo + _BLOCK_ROWS]])
    return angles


@dataclass
class RunRecord:
    """One evaluated configuration: estimates against ground truth."""

    label: str
    poses: PoseTable
    gt_model: SceneModel
    detections: DetectionTable | None = None   # for angular error
    landmarks: LandmarkSet | None = None
    sec_per_image: float = float("nan")

    @cached_property
    def errors(self) -> tuple:
        """_pose_errors of the poses, (rot_deg, pos_m), computed once."""
        return _pose_errors(self.poses, self.gt_model.images)


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


def _median_or_nan(values) -> float:
    """The median of the finite values, NaN when there are none."""
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(np.median(values)) if len(values) else float("nan")


def build_report(
    runs,
    rot_thresh_deg: float = DEFAULT_ROT_THRESH_DEG,
    pos_thresh_m: float = DEFAULT_POS_THRESH_M,
) -> EvalReport:
    """One row per run: recall, error medians (over localized images), and
    the median detection angular error when detections and landmarks are
    supplied (a DetectionTable, or a mapping DetectionTable.of takes), all
    in one pass: _detection_errors, which raises DanglingReferenceError for
    a detection of an image or landmark that they lack. Both thresholds must
    be finite and positive."""
    for name, value in (("rotation", rot_thresh_deg), ("position", pos_thresh_m)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} threshold must be finite and > 0, not {value}")
    rows = []
    for run in runs:
        rot_deg, pos_m = run.errors
        ang = float("nan")
        if run.detections is not None and run.landmarks is not None:
            ang = _median_or_nan(_detection_errors(DetectionTable.of(run.detections),
                                                   run.gt_model, run.landmarks))
        rows.append(
            ReportRow(
                label=run.label,
                n_images=len(run.poses),
                n_ok=run.poses.status.count(STATUS_OK),
                recall=recall_at(rot_deg, pos_m, rot_thresh_deg, pos_thresh_m),
                median_rot_deg=_median_or_nan(rot_deg),
                median_pos_m=_median_or_nan(pos_m),
                median_angular_deg=ang,
                sec_per_image=run.sec_per_image,
            )
        )
    return EvalReport(rows, rot_thresh_deg, pos_thresh_m)


_CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def check_csv_label(label: str) -> None:
    """A ValueError when report_from_csv would not read label back from the
    row report_to_csv writes of it: a label that holds a comma or a line
    break, or starts a row that reads as a comment or as the column header
    (starts with `#`, or is `label`)."""
    if "," in label or len((label + ".").splitlines()) > 1:
        raise ValueError(f"label {label!r} holds a comma or a line break")
    if label.startswith("#") or label == "label":
        raise ValueError(f"label {label!r} makes a row that reads as a comment or the header")


def report_to_csv(report: EvalReport) -> str:
    """The report as CSV: a `# thresholds` line, the column header, then one
    row per run. A label that the rows cannot carry raises ValueError (see
    check_csv_label)."""
    for r in report.rows:
        check_csv_label(r.label)
    rot, pos = _io.fmt(report.rot_thresh_deg), _io.fmt(report.pos_thresh_m)
    lines = [f"# thresholds rot_deg={rot} pos_m={pos}", ",".join(_CSV_COLUMNS)]
    for r in report.rows:
        floats = map(_io.fmt, astuple(r)[3:])
        lines.append(",".join([r.label, str(r.n_images), str(r.n_ok), *floats]))
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
        rows.append(ReportRow(parts[0], int(parts[1]), int(parts[2]), *map(float, parts[3:8])))
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


def per_image_csv(run: RunRecord) -> str:
    """Machine-readable per-image `image_id,rot_err_deg,pos_err_m,status`
    rows of the run, nan errors for an image that is not ok."""
    lines = ["image_id,rot_err_deg,pos_err_m,status"]
    rows = zip(run.poses.ids.tolist(), *(col.tolist() for col in run.errors), run.poses.status)
    for iid, rot, pos, status in rows:
        lines.append(f"{iid},{_io.fmt(rot)},{_io.fmt(pos)},{status}")
    return "\n".join(lines) + "\n"
