import numpy as np
import pytest

from landmarkloc.scene_model import ImageRecord, Intrinsics, Pose, SceneModel, TrackPoint


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


def make_minimal_model():
    """1 camera, 2 images, 1 point observed twice."""
    K = make_intrinsics()
    pose0 = Pose(np.eye(3), np.zeros(3))
    pose1 = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
    images = {
        1: ImageRecord(1, pose0, 1, "img0.png"),
        2: ImageRecord(2, pose1, 1, "img1.png"),
    }
    pt = TrackPoint(7, np.array([0.0, 0.0, 2.0]),
                    [(1, np.array([50.0, 50.0])), (2, np.array([45.0, 50.0]))])
    return SceneModel({1: K}, images, {7: pt})


@pytest.fixture
def minimal_model():
    return make_minimal_model()


def p3p_in_blocks(samples, K, size=64):
    """pose._p3p_block's answer for each list of three correspondences, in
    blocks of `size`: None for a degenerate sample, else its poses in order."""
    from landmarkloc.pose import _p3p_block
    from landmarkloc.scene_model import bearing

    out = []
    for s in range(0, len(samples), size):
        block = samples[s:s + size]
        uv = np.array([[c.uv for c in sample] for sample in block])
        P = np.array([[c.xyz for c in sample] for sample in block])
        degenerate, R, t, owner = _p3p_block(P, bearing(K, uv), uv, K)
        out += [None if degenerate[j] else [Pose(R[h], t[h]) for h in np.flatnonzero(owner == j)]
                for j in range(len(block))]
    return out
