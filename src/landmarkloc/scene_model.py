"""Core geometric types, SfM-model text ingestion, and projection operators.

project_many is the pinhole projection of arrays of points: the pose
solver's residuals and Jacobian and the visibility test call it. project is
the one-point case of _pixel on _camera_frame rows, which the detection
simulator and the synthetic scene generator project. All of them apply
_pixel, the one place the model is written.

Conventions used by every module in this package:
  - poses are world-to-camera: p_cam = R @ p_world + t, camera center = -R^T t
  - pixel origin at the top-left corner, pixel centers at integer coordinates
  - scene units are meters
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _io
from .errors import (
    DanglingReferenceError,
    UnsupportedCameraModelError,
)

_ORTHO_TOL = 1e-9


def qvec2rotmat(qvec: np.ndarray) -> np.ndarray:
    """Quaternion (qw, qx, qy, qz) to 3x3 rotation matrix."""
    norm = np.linalg.norm(qvec)
    if not norm > 0:
        raise ValueError("quaternion must be finite and non-zero")
    w, x, y, z = np.asarray(qvec, dtype=np.float64) / norm
    return np.array(
        [
            [1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y],
            [2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x],
            [2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y],
        ]
    )


def rotmat2qvec(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to quaternion (qw, qx, qy, qz), qw >= 0."""
    R = np.asarray(R, dtype=np.float64)
    tr = np.trace(R)
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def axis_angle_to_matrix(omega: np.ndarray) -> np.ndarray:
    """Rodrigues exponential map; omega is an axis-angle 3-vector in radians."""
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        K = skew(omega)
        return np.eye(3) + K
    k = omega / theta
    K = skew(k)
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)) -> "Pose":
    """World-to-camera pose for a camera at eye looking toward target.

    The camera looks along +z in its own frame with image y pointing down.
    Degenerate when the viewing direction is parallel to up.
    """
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    fwd = fwd / norm
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise ValueError("viewing direction parallel to up vector")
    right /= rnorm
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    return Pose(R, -R @ eye)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics; width/height define the image extent."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image extent")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


class Pose:
    """World-to-camera rigid transform (R, t)."""

    __slots__ = ("R", "t")

    def __init__(self, R: np.ndarray, t: np.ndarray):
        R = np.array(R, dtype=np.float64)
        t = np.array(t, dtype=np.float64).reshape(3)
        # The tolerance tests below are False for NaN, so check finiteness first.
        if not (np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError("R and t must be finite")
        if np.abs(R.T @ R - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("R is not orthogonal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("det(R) != +1 within 1e-9")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("Pose is immutable")

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Map world points (3,) or (N,3) into the camera frame."""
        p = np.asarray(p, dtype=np.float64)
        if p.ndim == 1:
            return self.R @ p + self.t
        return p @ self.R.T + self.t

    def inverse(self) -> "Pose":
        return Pose(self.R.T, -self.R.T @ self.t)

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T t."""
        return -self.R.T @ self.t

    @property
    def qvec(self) -> np.ndarray:
        return rotmat2qvec(self.R)

    def __repr__(self):
        return f"Pose(center={np.round(self.center, 4)})"


@dataclass
class TrackPoint:
    """A reconstructed 3D point with its 2D observation track."""

    id: int
    xyz: np.ndarray
    observations: list  # [(image_id, np.ndarray uv)], non-empty
    rgb: tuple | None = None

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(3)
        if len(self.observations) == 0:
            raise ValueError(f"track point {self.id} has no observations")

    @property
    def track_length(self) -> int:
        """Number of distinct observing images."""
        return len({iid for iid, _ in self.observations})


@dataclass
class ImageRecord:
    id: int
    pose: Pose
    camera_id: int
    name: str


@dataclass
class SceneModel:
    """Immutable SfM reconstruction: cameras, posed images, and tracks."""

    intrinsics: dict  # camera_id -> Intrinsics
    images: dict      # image_id -> ImageRecord
    points: dict      # point_id -> TrackPoint

    def __post_init__(self):
        for img in self.images.values():
            if img.camera_id not in self.intrinsics:
                raise DanglingReferenceError(
                    f"image {img.id} references unknown camera {img.camera_id}"
                )
        for pt in self.points.values():
            for iid, _ in pt.observations:
                if iid not in self.images:
                    raise DanglingReferenceError(
                        f"point {pt.id} references unknown image {iid}"
                    )


def _pixel(K: Intrinsics, x, y, z):
    """The pinhole model on arrays of camera-frame coordinates: the pixel
    (u, v), NaN at or behind the camera (depth <= 0), and whether it falls
    inside [0, width) x [0, height)."""
    z = np.where(z > 0, z, np.nan)
    u = K.fx * x / z + K.cx
    v = K.fy * y / z + K.cy
    return u, v, (u >= 0.0) & (u < K.width) & (v >= 0.0) & (v < K.height)


def _camera_frame(T: Pose, pts: np.ndarray) -> np.ndarray:
    """Camera-frame rows of (N,3) world points, each with the bits of T.apply
    on its row: one 3x3 by 3-vector product per row. The gemm of
    pts @ T.R.T sums in another order and differs in the last bit."""
    return np.matmul(T.R, pts[:, :, None])[:, :, 0] + T.t


def project(K: Intrinsics, T: Pose, p: np.ndarray):
    """Project one world point; the pixel (u, v), or None when not in view.
    The one-point case of _pixel on _camera_frame rows."""
    u, v, inside = _pixel(K, *_camera_frame(T, np.reshape(p, (1, 3))).T)
    return np.array([u[0], v[0]]) if inside[0] else None


def project_many(K: Intrinsics, T: Pose, pts: np.ndarray):
    """Pinhole projection of (N,3) world points.

    Returns (uv, valid): uv is (N,2) with NaN rows for points at or behind the
    camera (depth <= 0); valid marks the rows in front and inside the extent.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    uv = np.empty((len(pts), 2))
    uv[:, 0], uv[:, 1], valid = _pixel(K, *(pts @ T.R.T + T.t).T)
    return uv, valid


def bearing(K: Intrinsics, uv: np.ndarray) -> np.ndarray:
    """Unit camera-frame rays through pixels uv, (2,) or (N, 2); a row of a
    batch has the bits of its one-pixel call."""
    uv = np.asarray(uv, dtype=np.float64)
    d = np.stack([(uv[..., 0] - K.cx) / K.fx, (uv[..., 1] - K.cy) / K.fy,
                  np.ones(uv.shape[:-1])], axis=-1)
    return d / np.sqrt(np.vecdot(d, d))[..., None]


def load_scene(path) -> SceneModel:
    """Load a COLMAP-style text reconstruction from a directory.

    Expects cameras.txt, images.txt and points3D.txt. Only PINHOLE and
    SIMPLE_PINHOLE camera models are supported. Quaternions are stored as
    (qw qx qy qz) and converted to rotation matrices.
    """
    path = Path(path)
    for name in ("cameras.txt", "images.txt", "points3D.txt"):
        if not (path / name).exists():
            raise FileNotFoundError(f"missing reconstruction file: {path / name}")

    intrinsics = {}
    with _io.lines(path / "cameras.txt") as src:
        for tokens in src:
            if tokens[0][0] == "#":
                continue
            if len(tokens) < 4:
                raise ValueError("camera line too short")
            cam_id, width, height = int(tokens[0]), int(tokens[2]), int(tokens[3])
            if cam_id in intrinsics:
                raise ValueError(f"repeated camera id {cam_id}")
            model = tokens[1]
            params = _io.finite("camera parameter", *map(float, tokens[4:]))
            if model == "PINHOLE":
                if len(params) != 4:
                    raise ValueError("PINHOLE needs 4 params")
                fx, fy, cx, cy = params
            elif model == "SIMPLE_PINHOLE":
                if len(params) != 3:
                    raise ValueError("SIMPLE_PINHOLE needs 3 params")
                fx, cx, cy = params
                fy = fx
            else:
                raise UnsupportedCameraModelError(
                    f"{src.path}:{src.no}: unsupported camera model {model!r}"
                )
            intrinsics[cam_id] = Intrinsics(fx, fy, cx, cy, width, height)

    images = {}
    image_obs = {}  # image_id -> list of (u, v, point3d_id)
    with _io.lines(path / "images.txt") as src:
        # Each header line is followed by its observations line, which may be
        # blank; the reader skips a blank line, so it shows as a gap in src.no.
        obs = hdr_no = None
        for tokens in src:
            if obs is not None and src.no == hdr_no + 1:
                if len(tokens) % 3 != 0:
                    raise ValueError("observations not in (x y id) triples")
                obs.extend(zip(
                    _io.finite("observation", *map(float, tokens[0::3])),
                    _io.finite("observation", *map(float, tokens[1::3])),
                    map(int, tokens[2::3]),
                ))
                obs = None
            elif tokens[0][0] != "#":
                if len(tokens) < 10:
                    raise ValueError("image header line too short")
                image_id, camera_id = int(tokens[0]), int(tokens[8])
                if image_id in images:
                    raise ValueError(f"repeated image id {image_id}")
                vals = [float(t) for t in tokens[1:8]]
                _io.finite("pose", *vals)
                if camera_id not in intrinsics:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: image {image_id} references unknown "
                        f"camera {camera_id}"
                    )
                pose = Pose(qvec2rotmat(vals[:4]), vals[4:7])
                images[image_id] = ImageRecord(image_id, pose, camera_id, " ".join(tokens[9:]))
                obs = image_obs[image_id] = []
                hdr_no = src.no
        if obs is not None and src.no == hdr_no:
            raise ValueError("image header without observations line")

    points = {}
    with _io.lines(path / "points3D.txt") as src:
        for tokens in src:
            if tokens[0][0] == "#":
                continue
            if len(tokens) < 8 or len(tokens) % 2 != 0:
                raise ValueError("point line has wrong token count")
            pt_id, *rgb = map(int, tokens[0:1] + tokens[4:7])
            if pt_id in points:
                raise ValueError(f"repeated point id {pt_id}")
            *xyz, _error = _io.finite("position or error", *map(float, tokens[1:4] + tokens[7:8]))
            track = list(map(int, tokens[8:]))
            observations = []
            for image_id, p2d_idx in zip(track[0::2], track[1::2]):
                if image_id not in images:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: point {pt_id} references unknown image {image_id}"
                    )
                obs = image_obs[image_id]
                if not (0 <= p2d_idx < len(obs)):
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: point {pt_id} references observation "
                        f"{p2d_idx} out of range for image {image_id}"
                    )
                u, v, back_ref = obs[p2d_idx]
                if back_ref != -1 and back_ref != pt_id:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: observation {p2d_idx} of image {image_id} "
                        f"belongs to point {back_ref}, not {pt_id}"
                    )
                observations.append((image_id, np.array([u, v])))
            points[pt_id] = TrackPoint(pt_id, xyz, observations, tuple(rgb))

    return SceneModel(intrinsics, images, points)


def save_scene(model: SceneModel, path) -> None:
    """Write a SceneModel as COLMAP-style text files (load_scene inverse)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    with open(path / "cameras.txt", "w") as fh:
        fh.write("# CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n")
        for cam_id in sorted(model.intrinsics):
            K = model.intrinsics[cam_id]
            fh.write(
                f"{cam_id} PINHOLE {K.width} {K.height} "
                f"{_io.fmt(K.fx)} {_io.fmt(K.fy)} {_io.fmt(K.cx)} {_io.fmt(K.cy)}\n"
            )

    # Per-image 2D observation lists are rebuilt from the tracks.
    per_image = {iid: [] for iid in model.images}
    obs_index = {}  # (point_id, image_id, slot in track) -> index in image list
    for pt_id in sorted(model.points):
        for slot, (iid, uv) in enumerate(model.points[pt_id].observations):
            obs_index[(pt_id, iid, slot)] = len(per_image[iid])
            per_image[iid].append((uv[0], uv[1], pt_id))

    with open(path / "images.txt", "w") as fh:
        fh.write("# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        fh.write("# POINTS2D[] as (X Y POINT3D_ID)\n")
        for iid in sorted(model.images):
            img = model.images[iid]
            q = img.pose.qvec
            t = img.pose.t
            fh.write(
                f"{iid} {_io.fmt(q[0])} {_io.fmt(q[1])} {_io.fmt(q[2])} {_io.fmt(q[3])} "
                f"{_io.fmt(t[0])} {_io.fmt(t[1])} {_io.fmt(t[2])} {img.camera_id} {img.name}\n"
            )
            fh.write(
                " ".join(f"{_io.fmt(u)} {_io.fmt(v)} {pid}" for u, v, pid in per_image[iid])
                + "\n"
            )

    with open(path / "points3D.txt", "w") as fh:
        fh.write("# POINT3D_ID X Y Z R G B ERROR TRACK[] as (IMAGE_ID POINT2D_IDX)\n")
        for pt_id in sorted(model.points):
            pt = model.points[pt_id]
            rgb = pt.rgb if pt.rgb is not None else (128, 128, 128)
            track = " ".join(
                f"{iid} {obs_index[(pt_id, iid, slot)]}"
                for slot, (iid, _) in enumerate(pt.observations)
            )
            fh.write(
                f"{pt_id} {_io.fmt(pt.xyz[0])} {_io.fmt(pt.xyz[1])} {_io.fmt(pt.xyz[2])} "
                f"{rgb[0]} {rgb[1]} {rgb[2]} 0 {track}\n"
            )
