"""Core geometric types, SfM-model text ingestion, and projection operators.

A SceneModel holds its images and points as columns, an ImageSet and a
PointSet; every stage reads the images' stacked poses and camera centres.

_uv is the one place the pinhole model is written; _pixel adds the in-image
mask. project_many is the pinhole projection of arrays of points; the
visibility test and the synthetic scene generator make its product for a
block of images at once (_pairs_in_view). _pair_frames (one rotation per
listed pair) gives evaluation its camera frames, and _pair_pixels applies
_pixel to them for the detection simulator and the synthetic scene generator;
_by_camera splits images by camera for them all. The pose solver,
which discards the mask, applies _uv: to the same camera-frame product as
project_many in its residuals and Jacobian (pose._residuals), and to stacked
poses when it scores P3P hypotheses (pose._stacked_errors). _valid_poses is
the one pose rule, of Pose, ImageSet, pose.PoseTable, P3P and
evaluation.rotation_error.

Conventions used by every module in this package:
  - poses are world-to-camera: p_cam = R @ p_world + t, camera center = -R^T t
  - pixel origin at the top-left corner, pixel centers at integer coordinates
  - scene units are meters
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _io
from .errors import (
    DanglingReferenceError,
    DataError,
    UnsupportedCameraModelError,
)

_ORTHO_TOL = 1e-9
_EYE = np.eye(3)


def qvec2rotmat(qvec: np.ndarray) -> np.ndarray:
    """Quaternion (qw, qx, qy, qz) to 3x3 rotation matrix."""
    with np.errstate(over="ignore"):  # a norm past the float range is checked below
        norm = np.linalg.norm(qvec)
    if not 0 < norm < math.inf:
        raise ValueError("quaternion norm must be finite and non-zero")
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


def _cross(a, b) -> tuple:
    """a x b for 3-sequences, or column by column for (3, N) arrays: the
    products and differences np.cross makes, without its overhead."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


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
    right = np.array(_cross(fwd, up))
    rnorm = np.linalg.norm(right)
    if rnorm < 1e-9:
        raise ValueError("viewing direction parallel to up vector")
    right /= rnorm
    down = np.array(_cross(fwd, right))
    R = np.stack([right, down, fwd])
    return Pose(R, -R @ eye)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics; width/height, int64 integers, define the image extent."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _io.int64("image width or height", self.width, self.height)
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be finite and positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image extent")
        # bearing squares (u - cx) / fx and (v - cy) / fy over the extent and sums them.
        x = max(self.cx, self.width - self.cx) / self.fx
        y = max(self.cy, self.height - self.cy) / self.fy
        if not math.isfinite(x * x + y * y + 1.0):
            raise ValueError("focal lengths too small for the image extent: "
                             "a pixel's offset over them overflows when squared")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


def _cameras(rows) -> dict:
    """rows (camera id, fx, fy, cx, cy, width, height) as {camera id:
    Intrinsics}: int64 ids, each once, and each row's Intrinsics."""
    ids = _io.int64_column("camera id", [row[0] for row in rows])
    _io.refuse_repeats(ids, "repeated camera id {}")
    return {cam_id: Intrinsics(*row[1:]) for cam_id, row in zip(ids.tolist(), rows)}


def _valid_poses(R, t):
    """Which stacked R (N, 3, 3) and t (N, 3) are a pose: finite, R orthogonal
    with det +1, each within 1e-9."""
    with np.errstate(over="ignore", invalid="ignore"):  # in rows that are refused
        err = np.concatenate([(np.matmul(R.transpose(0, 2, 1), R) - _EYE).reshape(-1, 9),
                              np.linalg.det(R)[:, None] - 1.0, t * 0.0], axis=1)
    return np.abs(err).max(1) <= _ORTHO_TOL  # a value that is not finite leaves inf or NaN


class Pose:
    """World-to-camera rigid transform (R, t), which _valid_poses accepts."""

    __slots__ = ("R", "t")

    def __init__(self, R: np.ndarray, t: np.ndarray):
        R, t = np.array(R, dtype=np.float64), np.array(t, dtype=np.float64).reshape(3)
        if not _valid_poses(R[None], t[None])[0]:
            raise ValueError("R and t are not a finite pose")
        R.flags.writeable = t.flags.writeable = False
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


class PointSet:
    """3D points as read-only columns in file order: ids (P,) int64, xyz (P,
    3), rgb (P, 3) int64, and the tracks back to back, image_ids (M,) int64 and
    uv (M, 2) pixels, point k's at offsets[k]:offsets[k + 1] in track order.
    The constructor takes track lengths and checks that the columns pair up,
    that no track is empty or id repeated, and that every value is finite."""

    def __init__(self, ids, xyz, rgb, track_len, image_ids, uv):
        self.ids = _io.int64_column("point id", ids)
        n = len(self.ids)
        self.xyz = np.asarray(xyz, dtype=np.float64).reshape(n, 3)
        self.rgb = _io.int64_column("colour", rgb).reshape(n, 3)
        track_len = _io.int64_column("track length", track_len).reshape(n)
        self.image_ids = _io.int64_column("track image id", image_ids)
        self.uv = np.asarray(uv, dtype=np.float64).reshape(len(self.image_ids), 2)
        self.offsets = np.concatenate(([0], np.cumsum(track_len)))
        if self.offsets[-1] != len(self.image_ids):
            raise ValueError("track lengths do not add up to the track columns")
        if (track_len <= 0).any():
            raise ValueError(
                f"track point {self.ids[np.argmax(track_len <= 0)]} has no observations")
        _io.refuse_repeats(self.ids, "repeated point id {}")
        if not (np.isfinite(self.xyz).all() and np.isfinite(self.uv).all()):
            raise ValueError("non-finite point position or observation")
        for column in (self.ids, self.xyz, self.rgb, self.image_ids, self.uv, self.offsets):
            column.flags.writeable = False

    def __len__(self):
        return len(self.ids)

    @property
    def owner(self) -> np.ndarray:
        """(M,) the index of the point that each track entry belongs to."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))


def _posed_rows(ids, R, t, posed) -> tuple:
    """The rows' order by id, then in that order the read-only columns ids
    (N,) int64, R (N, 3, 3), t (N, 3) and center (N, 3) = -R^T t, with the bits
    of Pose.center. Rows that the mask posed (N,) leaves out are NaN. A
    ValueError when an id repeats or _valid_poses refuses a posed row."""
    ids = _io.int64_column("image id", ids)
    n, order = len(ids), np.argsort(ids, kind="stable")
    ids = ids[order]
    R = np.asarray(R, dtype=np.float64).reshape(n, 3, 3)[order]
    t = np.asarray(t, dtype=np.float64).reshape(n, 3)[order]
    posed = np.asarray(posed, bool).reshape(n)[order]
    R[~posed], t[~posed] = np.nan, np.nan
    _io.refuse_repeats(ids, "repeated image id {}")
    with np.errstate(over="ignore", invalid="ignore"):  # a centre may overflow to inf
        bad = posed & ~_valid_poses(R, t)
        center = np.matmul(-R.transpose(0, 2, 1), t[:, :, None])[:, :, 0]
    if bad.any():
        raise ValueError(f"image {ids[np.argmax(bad)]}: R and t are not a finite pose")
    for column in (ids, R, t, center):
        column.flags.writeable = False
    return order, ids, R, t, center


class ImageSet:
    """Posed images as read-only columns in ascending id order: ids (N,) and
    camera_ids (N,) int64, world-to-camera poses R (N, 3, 3) and t (N, 3),
    names (a tuple of N str) and center (N, 3), each camera centre -R^T t with
    the bits of Pose.center. The constructor takes rows in any order and checks
    that the columns pair up, that no id repeats and that each pose is one
    (_valid_poses)."""

    def __init__(self, ids, camera_ids=(), R=(), t=(), names=()):
        order, self.ids, self.R, self.t, self.center = _posed_rows(
            ids, R, t, np.ones(np.size(ids), bool))
        n = len(order)
        self.camera_ids = _io.int64_column("camera id", camera_ids).reshape(n)[order]
        self.camera_ids.flags.writeable = False
        self.names = tuple(np.array(names, dtype=object).reshape(n)[order])
        self._rows = dict(zip(self.ids.tolist(), range(n)))  # image id -> row

    def __len__(self):
        return len(self.ids)

    def __contains__(self, image_id) -> bool:
        return image_id in self._rows

    def row(self, image_id) -> int:
        """The row of image image_id; a KeyError when the set lacks it."""
        return self._rows[image_id]

    def pose(self, image_id) -> Pose:
        """Image image_id's Pose, read-only views of its rows of R and t,
        which the constructor checked as Pose would."""
        T, k = object.__new__(Pose), self.row(image_id)
        object.__setattr__(T, "R", self.R[k])
        object.__setattr__(T, "t", self.t[k])
        return T


@dataclass
class SceneModel:
    """SfM reconstruction: cameras, posed images, and points with tracks.
    Construction checks int64 camera ids and every camera and image named."""

    intrinsics: dict  # camera_id -> Intrinsics
    images: ImageSet
    points: PointSet

    def __post_init__(self):
        _io.int64("camera id", *self.intrinsics)
        for iid, cam_id in zip(self.images.ids.tolist(), self.images.camera_ids.tolist()):
            if cam_id not in self.intrinsics:
                raise DanglingReferenceError(f"image {iid} references unknown camera {cam_id}")
        pts = self.points
        unknown = ~np.isin(pts.image_ids, self.images.ids)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise DanglingReferenceError(
                f"point {pts.ids[pts.owner[k]]} references unknown image {pts.image_ids[k]}"
            )

    def camera(self, image_id) -> Intrinsics:
        """The intrinsics of image image_id; a KeyError when the model lacks it."""
        return self.intrinsics[self.images.camera_ids[self.images.row(image_id)]]


def _uv(K: Intrinsics, x, y, z):
    """The pinhole model on arrays of camera-frame coordinates: the pixel
    (u, v), NaN at or behind the camera (depth <= 0)."""
    z = np.where(z > 0, z, np.nan)
    return K.fx * x / z + K.cx, K.fy * y / z + K.cy


def _pixel(K: Intrinsics, x, y, z):
    """_uv, and whether the pixel falls inside [0, width) x [0, height)."""
    u, v = _uv(K, x, y, z)
    return u, v, (u >= 0.0) & (u < K.width) & (v >= 0.0) & (v < K.height)


_PAIR_BLOCK = 8192  # (point, image) pairs per block of a pair pass: its temporaries are O(pairs)


def _pair_blocks(n: int, pairs_each: int):
    """Slices of range(n), in order, for n items of pairs_each pairs each
    (an image and its points, or one pair): blocks of at most _PAIR_BLOCK
    pairs, or of one item."""
    step = max(1, _PAIR_BLOCK // max(pairs_each, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _by_camera(camera_ids: np.ndarray) -> list:
    """(camera id, rows) for each id of camera_ids, in first-seen order, where
    rows picks its positions in ascending order: slice(None), not a gather,
    when there is one id. Several ids are split at the changes of a stable
    sort, with no Python pass over the rows (and no np.unique, which imports
    numpy.ma)."""
    if not len(camera_ids):
        return []
    if camera_ids.min() == camera_ids.max():
        return [(camera_ids[0].item(), slice(None))]
    order = np.argsort(camera_ids, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(camera_ids[order])) + 1)
    groups.sort(key=lambda rows: rows[0])
    return [(camera_ids[rows[0]].item(), rows) for rows in groups]


def _pairs_in_view(K: Intrinsics, xyz: np.ndarray, RT: np.ndarray, t: np.ndarray,
                   candidates: np.ndarray):
    """The (point, image) pairs in view in a block of B images of one
    camera, image by image: candidate points of xyz (L, 3) that are in
    front of image b's camera and project inside its extent. RT[b] and t[b]
    are its pose's R.T and t. Returns the pairs' image rows (in the block)
    and point rows, their full-resolution pixels (P, 2) and their
    camera-frame depths (P,), with the bits of one image's project_many."""
    cam = np.matmul(xyz, RT)  # (B, L, 3): each image's xyz @ T.R.T
    cam += t[:, None]
    with np.errstate(over="ignore"):  # a pixel past the float range is outside the image
        u, v, inside = _pixel(K, cam[..., 0], cam[..., 1], cam[..., 2])
    img, pt = np.nonzero(inside & candidates)
    return img, pt, np.column_stack([u[img, pt], v[img, pt]]), cam[img, pt, 2]


def _pair_frames(images: ImageSet, xyz: np.ndarray, img: np.ndarray, pt: np.ndarray):
    """The camera frames (N, 3) of N (image, point) pairs, image row img[k]
    of images and point xyz[pt[k]]: one 3x3 by 3-vector product per pair,
    so each row has the bits of Pose.apply on its point. The gemm of
    xyz @ R.T sums in another order and differs in the last bit."""
    return np.matmul(images.R[img], xyz[pt][:, :, None])[:, :, 0] + images.t[img]


def _pair_pixels(images: ImageSet, intrinsics: dict, xyz: np.ndarray, img: np.ndarray,
                 pt: np.ndarray):
    """The pixels (N, 2) of the pairs of _pair_frames and whether each lies
    inside its image, intrinsics by camera id: _PAIR_BLOCK pairs at a time."""
    uv, inside = np.empty((len(img), 2)), np.empty(len(img), dtype=bool)
    with np.errstate(over="ignore"):  # a pixel past the float range is outside the image
        for rows in _pair_blocks(len(img), 1):
            cam = _pair_frames(images, xyz, img[rows], pt[rows])
            out = uv[rows]  # a view: written through
            for cid, at in _by_camera(images.camera_ids[img[rows]]):
                out[at, 0], out[at, 1], inside[rows][at] = _pixel(intrinsics[cid], *cam[at].T)
    return uv, inside


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


_SCENE_FILES = ("cameras.txt", "images.txt", "points3D.txt")
# A model's columns: dtype, and the shape of one row.
_COLUMNS = {
    "camera_id": (np.int64, ()), "camera_fxfycxcy": (np.float64, (4,)),
    "camera_size": (np.int64, (2,)),
    "image_id": (np.int64, ()), "image_camera": (np.int64, ()),
    "image_R": (np.float64, (3, 3)), "image_t": (np.float64, (3,)),
    "image_names": (np.uint8, ()), "image_name_len": (np.int64, ()),
    "point_id": (np.int64, ()), "point_xyz": (np.float64, (3,)),
    "point_rgb": (np.int64, (3,)),
    "track_len": (np.int64, ()), "track_image": (np.int64, ()), "track_uv": (np.float64, (2,)),
}


def _sidecar(path: Path) -> _io.Sidecar:
    return _io.Sidecar(path / ".landmarkloc-scene", [path / name for name in _SCENE_FILES],
                       [__file__], _COLUMNS)


def load_scene(path) -> SceneModel:
    """Load a COLMAP-style text reconstruction from a directory.

    Expects cameras.txt, images.txt and points3D.txt. Only PINHOLE and
    SIMPLE_PINHOLE camera models are supported. Quaternions are stored as
    (qw qx qy qz) and converted to rotation matrices. The values of each
    camera line are judged by Intrinsics, and those of the image and point
    lines by ImageSet and by PointSet, which holds the points in file order:
    a line that they refuse raises MalformedFileError at the first line
    refused (_io.lines). A track entry that names an unknown image, an
    observation out of range or another point's observation raises a
    DanglingReferenceError at points3D.txt:line: the first such entry in the
    file, unless its own line is malformed or a line before it is malformed
    or refused. Then an images.txt observation whose point id is neither -1
    nor a point raises a DanglingReferenceError at the images.txt line of
    the first one. A focal length that, times the diameter of the points and
    camera centres, overflows raises a DataError naming cameras.txt.

    The model's columns are kept in <path>/.landmarkloc-scene (an
    _io.Sidecar), by save_scene for the files it writes and by a load that
    parsed the files and passed every check. A load of the same bytes
    rebuilds the model from that copy, through the same constructors, which
    hold the parse's value rules, to the same values, types and order.
    """
    path = Path(path)
    return _sidecar(path).read(lambda: _parse_scene(path), _model_from_columns, _columns)


def _columns(model: SceneModel) -> dict:
    """The columns of a model, in its order."""
    cams, images, points = list(model.intrinsics.values()), model.images, model.points
    return {
        "camera_id": np.array(list(model.intrinsics), np.int64),
        "camera_fxfycxcy": np.array([(K.fx, K.fy, K.cx, K.cy) for K in cams],
                                    np.float64).reshape(-1, 4),
        "camera_size": np.array([(K.width, K.height) for K in cams], np.int64).reshape(-1, 2),
        "image_id": images.ids, "image_camera": images.camera_ids,
        "image_R": images.R, "image_t": images.t,
        # One UTF-8 run and each name's length: a numpy str array would
        # drop a name's trailing NULs.
        "image_names": np.frombuffer("".join(images.names).encode(), np.uint8),
        "image_name_len": np.array([len(n) for n in images.names], np.int64),
        "point_id": points.ids, "point_xyz": points.xyz, "point_rgb": points.rgb,
        "track_len": np.diff(points.offsets),
        "track_image": points.image_ids, "track_uv": points.uv,
    }


def _model_from_columns(c: dict) -> SceneModel:
    """The model of columns c, through the constructors the parse uses; an
    exception when they do not make one."""
    intrinsics = _cameras([(cam_id, *k, *size) for cam_id, k, size in zip(
        c["camera_id"].tolist(), c["camera_fxfycxcy"].tolist(), c["camera_size"].tolist(),
        strict=True)])
    text = c["image_names"].tobytes().decode()
    ends = [0, *np.cumsum(c["image_name_len"]).tolist()]
    if ends[-1] != len(text):
        raise ValueError("image names do not add up to their text")
    images = ImageSet(c["image_id"], c["image_camera"], c["image_R"], c["image_t"],
                      [text[lo:hi] for lo, hi in zip(ends, ends[1:])])
    return SceneModel(intrinsics, images, PointSet(
        c["point_id"], c["point_xyz"], c["point_rgb"], c["track_len"], c["track_image"],
        c["track_uv"]))


def _parse_scene(path: Path) -> SceneModel:
    """load_scene's parse of the three text files, with every check."""
    with _io.lines(path / "cameras.txt", make=_cameras) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                continue
            if len(tokens) < 4:
                raise ValueError("camera line too short")
            cam_id, model, width, height = int(tokens[0]), tokens[1], int(tokens[2]), int(tokens[3])
            params = [float(t) for t in tokens[4:]]
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
            src.keep(cam_id, fx, fy, cx, cy, width, height)
        intrinsics = src.table()

    # Every observation of images.txt, in file order; an image's rows run
    # from its first row to the next image's.
    obs_u, obs_v, obs_point, obs_no, first_row = [], [], [], [], {}
    with _io.lines(path / "images.txt", make=lambda rows: ImageSet(*_io.columns(rows, 5))) as src:
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
                obs_no += [src.no] * len(u)
                hdr_no = None
            elif tokens[0][0] != "#":
                if len(tokens) < 10:
                    raise ValueError("image header line too short")
                image_id, camera_id = int(tokens[0]), int(tokens[8])
                vals = [float(t) for t in tokens[1:8]]
                src.keep(image_id, camera_id, qvec2rotmat(vals[:4]), vals[4:],
                         " ".join(tokens[9:]))
                if camera_id not in intrinsics:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: image {image_id} references unknown "
                        f"camera {camera_id}"
                    )
                first_row[image_id] = len(obs_point)
                hdr_no = src.no
        if hdr_no is not None and src.no == hdr_no:
            raise ValueError("image header without observations line")
        images = src.table()

    # Each image's first observation row and row count, by image id.
    ends = [*list(first_row.values())[1:], len(obs_point)]
    spans = {iid: (lo, hi - lo) for (iid, lo), hi in zip(first_row.items(), ends)}
    obs_uv = np.column_stack((obs_u, obs_v))

    def point_set(rows) -> PointSet:
        pt_ids, xyz, rgb, track_image, track_row = _io.columns(rows, 5)
        return PointSet(pt_ids, xyz, rgb, list(map(len, track_image)),
                        list(itertools.chain.from_iterable(track_image)),
                        obs_uv[list(itertools.chain.from_iterable(track_row))])

    with _io.lines(path / "points3D.txt", make=point_set) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                continue
            if len(tokens) < 8 or len(tokens) % 2 != 0:
                raise ValueError("point line has wrong token count")
            pt_id, *rgb = map(int, tokens[0:1] + tokens[4:7])
            pos = [float(tok) for tok in tokens[1:4]]
            _io.finite("point error", float(tokens[7]))
            track = list(map(int, tokens[8:]))
            # Each entry names an image of images.txt and one of its
            # observations, which images.txt gives to this point.
            track_row = []
            for image_id, index in zip(track[0::2], track[1::2]):
                lo, count = spans.get(image_id, (None, None))
                if lo is None:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: point {pt_id} references unknown image {image_id}")
                if not 0 <= index < count:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: point {pt_id} references observation {index} "
                        f"out of range for image {image_id}")
                if obs_point[lo + index] != pt_id:
                    raise DanglingReferenceError(
                        f"{src.path}:{src.no}: observation {index} of image {image_id} belongs "
                        f"to point {obs_point[lo + index]}, not {pt_id}")
                track_row.append(lo + index)
            src.keep(pt_id, pos, rgb, track[0::2], track_row)
        points = src.table()

    # Each observation names no point (-1) or a point of points3D.txt.
    dangling = np.flatnonzero(~np.isin(np.array(obs_point, np.int64), np.append(points.ids, -1)))
    if len(dangling):
        k = dangling[0]
        raise DanglingReferenceError(f"{path / 'images.txt'}:{obs_no[k]}: observation of "
                                     f"unknown point {obs_point[k]}")
    model = SceneModel(intrinsics, images, points)
    _check_focal_lengths(path, model)
    return model


def _check_focal_lengths(path: Path, model: SceneModel) -> None:
    """A DataError naming cameras.txt when a focal length times the diameter
    of the model's points and camera centres overflows: the pinhole model
    multiplies camera-frame coordinates, at most that diameter, by it. A
    diameter that overflows itself is left to the stage that reads the
    coordinates, which names their file."""
    diameter = _diameter(np.vstack([model.points.xyz, model.images.center]))
    for cam_id, K in model.intrinsics.items():
        if math.isfinite(diameter) and not math.isfinite(max(K.fx, K.fy) * diameter):
            raise DataError(f"{path / 'cameras.txt'}: camera {cam_id}: focal length too large: "
                            "times the diameter of the points and camera centres it overflows")


def _diameter(xyz: np.ndarray) -> float:
    """The diagonal of the bounding box of the rows xyz (0 for none): inf or
    NaN where its square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        extent = xyz.max(axis=0) - xyz.min(axis=0) if len(xyz) else np.zeros(3)
        return float(np.linalg.norm(extent))


def save_scene(model: SceneModel, path) -> None:
    """Write a SceneModel as COLMAP-style text files (load_scene inverse).

    Each image's observation line, and each point's track, is written with
    one % format over a flat list of its values, floats as _io.fmt gives them.
    The columns a load of the files gives are kept beside them (see
    load_scene), unless a name is not a single-spaced str, which the text
    cannot carry, or _check_focal_lengths refuses the model. The
    constructors hold every other rule of the load.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cameras = {cam_id: model.intrinsics[cam_id] for cam_id in sorted(model.intrinsics)}
    images = model.images
    qvecs = [rotmat2qvec(R) for R in images.R]

    # Every observation is a row, in (point id, track slot) order. Each image
    # lists its rows in that order, and a track entry names the row's place there.
    pts = model.points
    by_id = np.argsort(pts.ids)
    rows = np.argsort(pts.ids[pts.owner], kind="stable")
    point_ids, lens = pts.ids[by_id], np.diff(pts.offsets)[by_id]
    xyz, rgb = pts.xyz[by_id], pts.rgb[by_id]
    image, uv = pts.image_ids[rows], pts.uv[rows]
    order = np.argsort(image, kind="stable")
    by_image = image[order]
    place = np.empty(len(image), dtype=np.int64)
    place[order] = np.arange(len(image)) - np.searchsorted(by_image, by_image)

    def camera_lines():
        yield b"# CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n"
        for cam_id, K in cameras.items():
            yield (f"{cam_id} PINHOLE {K.width} {K.height} "
                   f"{_io.fmt(K.fx)} {_io.fmt(K.fy)} {_io.fmt(K.cx)} {_io.fmt(K.cy)}\n").encode()

    def image_lines():
        # Each observation line is one % format over a flat list.
        lo = np.searchsorted(by_image, images.ids).tolist()
        hi = np.searchsorted(by_image, images.ids, side="right").tolist()
        obs = [None] * (3 * len(image))
        obs[0::3], obs[1::3] = uv[order, 0].tolist(), uv[order, 1].tolist()
        obs[2::3] = np.repeat(point_ids, lens)[order].tolist()
        yield b"# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n# POINTS2D[] as (X Y POINT3D_ID)\n"
        for k, (q, t, first, last) in enumerate(zip(qvecs, images.t.tolist(), lo, hi)):
            yield (f"{images.ids[k]} {_io.fmt(q[0])} {_io.fmt(q[1])} {_io.fmt(q[2])} "
                   f"{_io.fmt(q[3])} {_io.fmt(t[0])} {_io.fmt(t[1])} {_io.fmt(t[2])} "
                   f"{images.camera_ids[k]} {images.names[k]}\n"
                   + ("%.17g %.17g %d " * (last - first))[:-1] % tuple(obs[3 * first:3 * last])
                   + "\n").encode()

    def point_lines():
        # Each track is one % format over a flat list.
        track = [None] * (2 * len(image))
        track[0::2], track[1::2] = image.tolist(), place.tolist()
        bounds = [0, *np.cumsum(lens).tolist()]
        yield b"# POINT3D_ID X Y Z R G B ERROR TRACK[] as (IMAGE_ID POINT2D_IDX)\n"
        for pt_id, (x, y, z), (r, g, b), lo, hi in zip(
                point_ids.tolist(), xyz.tolist(), rgb.tolist(), bounds, bounds[1:]):
            yield (f"{pt_id} {x:.17g} {y:.17g} {z:.17g} {r} {g} {b} 0"
                   + " %d %d" * (hi - lo) % tuple(track[2 * lo:2 * hi]) + "\n").encode()

    _sidecar(path).write([camera_lines(), image_lines(), point_lines()], _read_back(
        path, cameras, images, qvecs, (point_ids, xyz, rgb, lens, image, uv)))


def _read_back(path: Path, cameras: dict, images: ImageSet, qvecs: list, points: tuple):
    """The columns _parse_scene gives for the files save_scene wrote of
    cameras, in id order, images, whose quaternions are qvecs, and the
    PointSet columns points, in id order with tracks in file order; None when
    the text cannot carry them or the constructors or the parse refuse them."""
    if not all(isinstance(name, str) and name and " ".join(name.split()) == name
               for name in images.names):
        return None
    try:
        images = ImageSet(images.ids, images.camera_ids, [qvec2rotmat(q) for q in qvecs],
                          images.t, images.names)
        model = SceneModel(cameras, images, PointSet(*points))
        _check_focal_lengths(path, model)
    except (ValueError, DataError):
        return None
    return _columns(model)
