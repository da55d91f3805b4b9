import numpy as np
import pytest

from landmarkloc.landmarks import LandmarkSet
from landmarkloc.mesh import ray_cast
from landmarkloc.scene_model import ImageRecord, Intrinsics, Pose, PointSet, SceneModel


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


def make_intrinsics(f=100.0, c=50.0, size=100):
    return Intrinsics(fx=f, fy=f, cx=c, cy=c, width=size, height=size)


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
    images = {
        1: ImageRecord(1, pose0, 1, "img0.png"),
        2: ImageRecord(2, pose1, 1, "img1.png"),
    }
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


def sorted_rows(calls):
    """The rows of calls, each a tuple of arrays with one row per item
    (1-D, or three columns), joined column by column and sorted."""
    rows = np.column_stack([np.concatenate([c[k] for c in calls]).astype(float)
                            for k in range(len(calls[0]))])
    return rows[np.lexsort(rows.T[::-1])]
