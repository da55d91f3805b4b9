"""Core geometric types, SfM-model text ingestion, and projection operators.

project_many is the pinhole projection of arrays of points, which the
visibility test and the synthetic scene generator call; the pose solver's
residuals and Jacobian (pose._residuals) apply _pixel to the same camera-frame
product. project is the one-point case of _pixel on _camera_frame rows, which
the detection simulator and the synthetic scene generator project. All of
them apply _pixel, the one place the model is written.

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


class TrackPoint:
    """A reconstructed 3D point with its 2D observation track, held as two
    columns in track order: image_ids (n,) int64 and uv (n, 2) pixels.
    TrackPoint(id, xyz, [(image_id, uv), ...]) builds them from pairs, and
    observations gives the pairs back; from_columns takes the columns."""

    def __init__(self, id: int, xyz, observations, rgb: tuple | None = None):
        obs = list(observations)
        self._set(id, xyz, [iid for iid, _ in obs], [uv for _, uv in obs], rgb)

    @classmethod
    def from_columns(cls, id: int, xyz, image_ids, uv, rgb: tuple | None = None) -> TrackPoint:
        pt = cls.__new__(cls)
        pt._set(id, xyz, image_ids, uv, rgb)
        return pt

    def _set(self, id, xyz, image_ids, uv, rgb):
        self.id, self.rgb = id, rgb
        self.xyz = np.asarray(xyz, dtype=np.float64).reshape(3)
        self.image_ids = np.asarray(image_ids, dtype=np.int64).reshape(-1)
        self.uv = np.asarray(uv, dtype=np.float64).reshape(len(self.image_ids), 2)
        if len(self.image_ids) == 0:
            raise ValueError(f"track point {id} has no observations")

    @property
    def observations(self) -> list:
        """The track as (image id, uv (2,)) pairs."""
        return list(zip(self.image_ids.tolist(), self.uv))

    @property
    def track_length(self) -> int:
        """Number of distinct observing images."""
        return len(set(self.image_ids.tolist()))


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
        points = list(self.points.values())
        image_ids = np.concatenate([np.empty(0, np.int64), *(pt.image_ids for pt in points)])
        unknown = ~np.isin(image_ids, np.fromiter(self.images, np.int64, len(self.images)))
        if unknown.any():
            k = int(np.argmax(unknown))
            owner = np.repeat(np.arange(len(points)), [len(pt.image_ids) for pt in points])
            raise DanglingReferenceError(
                f"point {points[owner[k]].id} references unknown image {image_ids[k]}"
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
    (qw qx qy qz) and converted to rotation matrices. A track entry that
    names an unknown image, an observation out of range or another point's
    observation raises a DanglingReferenceError at points3D.txt:line: the
    first such entry in the file, unless a malformed line comes before it.
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
    # Every observation of images.txt, in file order; an image's rows run
    # from its first row to the next image's.
    obs_u, obs_v, obs_point, first_row = [], [], [], {}
    with _io.lines(path / "images.txt") as src:
        # Each header line is followed by its observations line, which may be
        # blank; the reader skips a blank line, so it shows as a gap in src.no.
        hdr_no = None
        for tokens in src:
            if hdr_no is not None and src.no == hdr_no + 1:
                if len(tokens) % 3 != 0:
                    raise ValueError("observations not in (x y id) triples")
                u = _io.finite("observation", *map(float, tokens[0::3]))
                v = _io.finite("observation", *map(float, tokens[1::3]))
                obs_point += _io.int64("observed point id", *map(int, tokens[2::3]))
                obs_u += u
                obs_v += v
                hdr_no = None
            elif tokens[0][0] != "#":
                if len(tokens) < 10:
                    raise ValueError("image header line too short")
                image_id, camera_id = int(tokens[0]), int(tokens[8])
                if image_id in images:
                    raise ValueError(f"repeated image id {image_id}")
                _io.int64("image id", image_id)
                vals = [float(t) for t in tokens[1:8]]
                _io.finite("pose", *vals)
                if camera_id not in intrinsics:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: image {image_id} references unknown "
                        f"camera {camera_id}"
                    )
                pose = Pose(qvec2rotmat(vals[:4]), vals[4:7])
                images[image_id] = ImageRecord(image_id, pose, camera_id, " ".join(tokens[9:]))
                first_row[image_id] = len(obs_point)
                hdr_no = src.no
        if hdr_no is not None and src.no == hdr_no:
            raise ValueError("image header without observations line")

    # Each image's first row and row count, by image id. An unknown image gets
    # the extra last entry, of count 0, and its entries read the -1 that ends
    # obs_point.
    keys = np.fromiter(first_row, np.int64, len(first_row))
    bounds = np.append(np.fromiter(first_row.values(), np.int64, len(first_row)), len(obs_point))
    by_id = np.argsort(keys)
    keys, start = keys[by_id], np.append(bounds[:-1][by_id], 0)
    count = np.append(np.diff(bounds)[by_id], 0)
    obs_point = np.append(np.array(obs_point, dtype=np.int64), -1)

    points_path = path / "points3D.txt"
    point_line = {}  # point id -> its line
    point_xyz, point_rgb, track_len, track_image, track_index = [], [], [], [], []

    def track_rows():
        """The observation row of each track entry read so far, or a
        DanglingReferenceError for the first entry in file order that names an
        unknown image, an observation out of range or one of another point."""
        image = np.array(track_image, dtype=np.int64)
        index = np.array(track_index, dtype=np.int64)
        owner = np.repeat(np.arange(len(track_len)), track_len)
        owner_id = np.array(list(point_line), dtype=np.int64)[owner]
        known = np.isin(image, keys)
        at = np.where(known, np.searchsorted(keys, image), len(keys))
        in_range = (index >= 0) & (index < count[at])
        row = np.where(in_range, start[at] + index, -1)
        back_ref = obs_point[row]
        foreign = (back_ref != -1) & (back_ref != owner_id)
        bad = ~in_range | foreign
        if not bad.any():
            return image, row
        k = int(np.argmax(bad))
        pt_id, image_id, p2d_idx = owner_id[k], image[k], index[k]
        where = f"{points_path}:{list(point_line.values())[owner[k]]}"
        if not known[k]:
            raise DanglingReferenceError(
                f"{where}: point {pt_id} references unknown image {image_id}")
        if not in_range[k]:
            raise DanglingReferenceError(
                f"{where}: point {pt_id} references observation {p2d_idx} out of range "
                f"for image {image_id}")
        raise DanglingReferenceError(
            f"{where}: observation {p2d_idx} of image {image_id} belongs to point "
            f"{back_ref[k]}, not {pt_id}")

    with _io.lines(points_path) as src:
        try:
            for tokens in src:
                if tokens[0][0] == "#":
                    continue
                if len(tokens) < 8 or len(tokens) % 2 != 0:
                    raise ValueError("point line has wrong token count")
                pt_id, *rgb = map(int, tokens[0:1] + tokens[4:7])
                if pt_id in point_line:
                    raise ValueError(f"repeated point id {pt_id}")
                *xyz, _error = _io.finite("position or error",
                                          *map(float, tokens[1:4] + tokens[7:8]))
                track = list(map(int, tokens[8:]))
                if not track:
                    raise ValueError(f"track point {pt_id} has no observations")
                _io.int64("point id or track entry", pt_id, *track)
                point_line[pt_id] = src.no
                point_xyz.append(xyz)
                point_rgb.append(tuple(rgb))
                track_len.append(len(track) // 2)
                track_image += track[0::2]
                track_index += track[1::2]
        except ValueError:
            track_rows()  # a dangling reference on an earlier line is reported first
            raise

    image, row = track_rows()
    uv = np.column_stack((obs_u, obs_v))[row]
    xyz = np.array(point_xyz).reshape(-1, 3)
    bounds = [0, *np.cumsum(track_len).tolist()]
    points = {
        pt_id: TrackPoint.from_columns(pt_id, p, image[lo:hi], uv[lo:hi], rgb)
        for pt_id, p, rgb, lo, hi in zip(point_line, xyz, point_rgb, bounds, bounds[1:])
    }
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

    # Every observation is a row, in (point id, track slot) order. Each image
    # lists its rows in that order, and a track entry names the row's place there.
    point_ids = sorted(model.points)
    points = [model.points[pid] for pid in point_ids]
    lens = [len(pt.image_ids) for pt in points]
    image = np.concatenate([np.empty(0, np.int64), *(pt.image_ids for pt in points)])
    uv = np.concatenate([np.empty((0, 2)), *(pt.uv for pt in points)])
    order = np.argsort(image, kind="stable")
    by_image = image[order]
    place = np.empty(len(image), dtype=np.int64)
    place[order] = np.arange(len(image)) - np.searchsorted(by_image, by_image)

    image_ids = sorted(model.images)
    lo = np.searchsorted(by_image, image_ids).tolist()
    hi = np.searchsorted(by_image, image_ids, side="right").tolist()
    u, v = uv[order].T.tolist()
    owner = np.repeat(np.array(point_ids, dtype=np.int64), lens)[order].tolist()
    with open(path / "images.txt", "w") as fh:
        fh.write("# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        fh.write("# POINTS2D[] as (X Y POINT3D_ID)\n")
        for iid, first, last in zip(image_ids, lo, hi):
            img = model.images[iid]
            q = img.pose.qvec
            t = img.pose.t
            fh.write(
                f"{iid} {_io.fmt(q[0])} {_io.fmt(q[1])} {_io.fmt(q[2])} {_io.fmt(q[3])} "
                f"{_io.fmt(t[0])} {_io.fmt(t[1])} {_io.fmt(t[2])} {img.camera_id} {img.name}\n"
            )
            rows = zip(u[first:last], v[first:last], owner[first:last])
            fh.write(" ".join(f"{x:.17g} {y:.17g} {pid}" for x, y, pid in rows) + "\n")

    entries = list(zip(image.tolist(), place.tolist()))
    bounds = [0, *np.cumsum(lens).tolist()]
    with open(path / "points3D.txt", "w") as fh:
        fh.write("# POINT3D_ID X Y Z R G B ERROR TRACK[] as (IMAGE_ID POINT2D_IDX)\n")
        for pt_id, pt, lo, hi in zip(point_ids, points, bounds, bounds[1:]):
            x, y, z = pt.xyz.tolist()
            r, g, b = pt.rgb if pt.rgb is not None else (128, 128, 128)
            track = " ".join(f"{iid} {k}" for iid, k in entries[lo:hi])
            fh.write(f"{pt_id} {x:.17g} {y:.17g} {z:.17g} {r} {g} {b} 0 {track}\n")
