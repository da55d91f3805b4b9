from pathlib import Path

import numpy as np
import pytest

from landmarkloc import _io
from landmarkloc.landmarks import LandmarkSet
from landmarkloc.mesh import ray_cast
from landmarkloc.scene_model import (
    ImageSet,
    Intrinsics,
    PointSet,
    Pose,
    SceneModel,
    _pixel,
)


def random_rotation(rng):
    """Uniform random rotation via a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y],
            [2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x],
            [2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y],
        ]
    )


def _camera_frame(T: Pose, pts: np.ndarray) -> np.ndarray:
    """Camera-frame rows of (N,3) world points, each with the bits of T.apply
    on its row: one 3x3 by 3-vector product per row. The gemm of
    pts @ T.R.T sums in another order and differs in the last bit."""
    return np.matmul(T.R, pts[:, :, None])[:, :, 0] + T.t


def project(K, T, p):
    """Project one world point; the pixel (u, v), or None when not in view.
    The one-point case of _pixel on _camera_frame rows, as the detection
    simulator projects."""
    u, v, inside = _pixel(K, *_camera_frame(T, np.reshape(p, (1, 3))).T)
    return np.array([u[0], v[0]]) if inside[0] else None


def make_intrinsics(f=100.0, c=50.0, size=100):
    return Intrinsics(fx=f, fy=f, cx=c, cy=c, width=size, height=size)


def image_set(poses, camera_ids=1, names=None):
    """An ImageSet of {image id: Pose}: each image of camera camera_ids (one
    id, or one per image) and named names[k], or im<id>.png."""
    ids = list(poses)
    return ImageSet(ids, np.broadcast_to(camera_ids, len(ids)), [T.R for T in poses.values()],
                    [T.t for T in poses.values()],
                    [f"im{iid}.png" for iid in ids] if names is None else names)


def rename_image(model, image_id, name):
    """model, its image image_id renamed to name."""
    images = model.images
    names = list(images.names)
    names[images.row(image_id)] = name
    model.images = ImageSet(images.ids, images.camera_ids, images.R, images.t, names)
    return model


def points_from_pairs(points):
    """A PointSet from {point id: (xyz, [(image id, uv), ...])}, in dict
    order, every colour 128."""
    tracks = [obs for _, obs in points.values()]
    return PointSet(list(points), [xyz for xyz, _ in points.values()],
                    np.full((len(points), 3), 128), [len(obs) for obs in tracks],
                    [iid for obs in tracks for iid, _ in obs],
                    [uv for obs in tracks for _, uv in obs])


def landmark_set(xyz, saliency=1.0, first_source=0):
    """A LandmarkSet of the points xyz (L, 3) in order: landmark k comes from
    source point first_source + k and has saliency (one value, or L)."""
    xyz = np.reshape(xyz, (-1, 3))
    n = len(xyz)
    return LandmarkSet(np.arange(first_source, first_source + n), xyz,
                       np.broadcast_to(saliency, n))


def track(points, k):
    """Point k's track: its (image_ids, uv) slices."""
    lo, hi = points.offsets[k], points.offsets[k + 1]
    return points.image_ids[lo:hi], points.uv[lo:hi]


def make_minimal_model():
    """1 camera, 2 images, 1 point observed twice."""
    K = make_intrinsics()
    pose0 = Pose(np.eye(3), np.zeros(3))
    pose1 = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
    images = image_set({1: pose0, 2: pose1}, names=["img0.png", "img1.png"])
    points = points_from_pairs({7: (np.array([0.0, 0.0, 2.0]), [
        (1, np.array([50.0, 50.0])), (2, np.array([45.0, 50.0]))])})
    return SceneModel({1: K}, images, points)


@pytest.fixture
def minimal_model():
    return make_minimal_model()


def correspondences(uv, xyz, v=1.0, w=1.0, ids=None):
    """pose.Correspondences of the rows of uv (N, 2) and xyz (N, 3): landmark
    ids 0, 1, ... unless given, and confidences v and weights w, each one
    value or N."""
    from landmarkloc.pose import Correspondences

    uv = np.array(uv, dtype=np.float64).reshape(-1, 2)
    n = len(uv)
    return Correspondences(np.arange(n) if ids is None else np.array(ids, dtype=np.int64), uv,
                           np.array(xyz, dtype=np.float64).reshape(n, 3),
                           np.broadcast_to(np.array(v, dtype=np.float64), n).copy(),
                           np.broadcast_to(np.array(w, dtype=np.float64), n).copy())


def p3p_in_blocks(samples, K, size=64):
    """pose._p3p_block's answer for each sample of three Correspondences, in
    blocks of `size`: None for a degenerate sample, else its poses in order."""
    from landmarkloc.pose import _p3p_block
    from landmarkloc.scene_model import bearing

    out = []
    for s in range(0, len(samples), size):
        block = samples[s:s + size]
        uv = np.array([sample.uv for sample in block])
        P = np.array([sample.xyz for sample in block])
        degenerate, R, t, owner = _p3p_block(P, bearing(K, uv), uv, K)
        out += [None if degenerate[j] else [Pose(R[h], t[h]) for h in np.flatnonzero(owner == j)]
                for j in range(len(block))]
    return out


def record_ray_casts(monkeypatch, module):
    """Wrap module.ray_cast; returns the list of (origins, dirs, depth, tri)
    of its calls."""
    calls = []

    def recorded(mesh, origins, dirs):
        depth, tri = ray_cast(mesh, origins, dirs)
        calls.append((np.array(origins), np.array(dirs), depth, tri))
        return depth, tri

    monkeypatch.setattr(module, "ray_cast", recorded)
    return calls


def record_ray_steps(monkeypatch):
    """Wrap mesh._cast_step; returns the number of rays of each step that
    ray_cast takes."""
    import landmarkloc.mesh as mesh

    steps = []
    cast_step = mesh._cast_step

    def recorded(corners, origins, dirs):
        steps.append(len(origins))
        return cast_step(corners, origins, dirs)

    monkeypatch.setattr(mesh, "_cast_step", recorded)
    return steps


def sorted_rows(calls):
    """The rows of calls, each a tuple of arrays with one row per item
    (1-D, or three columns), joined column by column and sorted."""
    rows = np.column_stack([np.concatenate([c[k] for c in calls]).astype(float)
                            for k in range(len(calls[0]))])
    return rows[np.lexsort(rows.T[::-1])]


def read_only_open(file, mode="r", *args, **kwargs):
    """open, refusing to create a file as a read-only directory would."""
    if "x" in mode or "w" in mode:
        raise PermissionError(13, "Permission denied", str(file))
    return open(file, mode, *args, **kwargs)


class _HalfWrite:
    """A new file that takes half of the bytes of its first write, then fails
    as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def disk_full_for(name):
    """An open for landmarkloc._io under which a new file whose name starts
    with `name.` (the temp file of the target name) fails halfway through its
    first write."""
    def full_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWrite(fh) if "x" in mode and Path(file).name.startswith(name + ".") else fh
    return full_open


def outcome(load, path):
    """What load(path) gives: its result, or the type and text of its error."""
    try:
        return load(path)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def edit_copy(sidecar, column, value):
    """Set column (a new one, when the copy has none) of the copy that sidecar
    keeps to value, under the same key and a CRC-32 that holds."""
    key = sidecar.key()
    columns = dict(_io.unpack(sidecar.path.read_bytes(), key, sidecar.columns))
    columns[column] = value
    sidecar.path.write_bytes(b"".join(_io.pack(key, columns)))


def _flipped(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _offset_past_end(data, foreign):
    """data, a copy file, with the last column's offset past its end, under a
    CRC-32 that holds."""
    header, _, start = _io.unframe(data)
    header["columns"][-1][3] = len(data)
    return b"".join(_io.frame(header, [data[start:]]))


# Damage to the layout of a copy file, each of which must give the parse:
# name -> damage(the copy's bytes, another file's copy).
LAYOUT_DAMAGE = {
    "header-byte": lambda data, foreign: _flipped(
        data, 16 + int.from_bytes(data[12:16], "little") // 2),
    "last-column-byte": lambda data, foreign: _flipped(data, len(data) - 1),
    "one-byte-short": lambda data, foreign: data[:-1],
    "offset-past-end": _offset_past_end,
}


def loads_both_ways(load, copy_of, stale, same):
    """load, made to load each file twice: as text, with any copy beside it
    (at copy_of(path)) removed, and with a copy beside it, either the one
    found there, which is then read, or the bytes stale (another file's
    copy). The two must give the same value, as same(copied, text) checks,
    or raise the same error; the text's is returned or raised, and the copy
    is left as it was found."""
    def both(path):
        copy = copy_of(path)
        found = copy.read_bytes() if copy.exists() else None
        results = []
        for kept in (None, stale if found is None else found):
            copy.unlink(missing_ok=True)
            if kept is not None:
                copy.write_bytes(kept)
            try:
                results.append(load(path))
            except Exception as exc:  # compared, then raised below
                results.append(exc)
        if found is None:
            copy.unlink()
        text, copied = results
        if isinstance(text, Exception):
            assert (type(copied), str(copied)) == (type(text), str(text))
            raise text
        same(copied, text)
        return text

    return both


def same_landmarks(a, b):
    """Two landmark sets: columns of the same dtypes, shapes and bytes, and
    the same provenance, in the same order, of the same types."""
    for column in ("source_point_ids", "xyz", "saliency"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), column
    assert [(k, type(v), repr(v)) for k, v in a.provenance.items()] == [
        (k, type(v), repr(v)) for k, v in b.provenance.items()]


def same_table(a, b):
    """Two visibility tables: the same image ids, mask bytes, tolerances and
    excluded ids, in the same order, of the same types."""
    def typed(values):
        return [(type(v), repr(v)) for v in values]
    assert typed(a.image_ids) == typed(b.image_ids) and typed(a.excluded) == typed(b.excluded)
    assert a.mask.dtype == b.mask.dtype and a.mask.shape == b.mask.shape
    assert a.mask.tobytes() == b.mask.tobytes()
    assert list(a.tolerances) == list(b.tolerances)
    assert typed(a.tolerances.values()) == typed(b.tolerances.values())
