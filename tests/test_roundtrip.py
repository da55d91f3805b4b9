"""Round trips through the four writers that leave a copy of their columns,
and through the poses writer.

Values are built through the public constructors, which hold every value
rule of the loaders. Each is saved, then loaded twice: from the copy the
writer left, and from a parse of the text with the copy removed. The two
loads must agree with each other and with the value. A writer leaves a copy
unless a rule of the text form refuses the value: a line break in a
provenance or tolerance, an image name that does not read back to itself, or
a focal length that times the scene's diameter overflows. A pose table has
no copy; its load must give the table back.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation, same_landmarks, same_table
from landmarkloc import detection, landmarks, scene_model, visibility
from landmarkloc.detection import DetectionSet, load_detections, save_detections
from landmarkloc.errors import DataError
from landmarkloc.landmarks import LandmarkSet, load_landmarks, save_landmarks
from landmarkloc.pose import STATUSES, PoseTable, load_poses, save_poses
from landmarkloc.scene_model import (
    ImageSet,
    Intrinsics,
    PointSet,
    SceneModel,
    load_scene,
    qvec2rotmat,
    rotmat2qvec,
    save_scene,
)
from landmarkloc.visibility import VisibilityTable, load_visibility, save_visibility
from test_detection import same_bits
from test_scene_model import assert_same_model

ROUND_TRIP = settings(derandomize=True, max_examples=25, deadline=None, database=None)

INT64 = st.integers(-2**63, 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Text with blanks, line breaks and `=`, which the `k=v` tokens split on.
TEXT = st.text(alphabet="ab=. \t\n\r\x0c é", max_size=4)


def both_loads(load, path, copy):
    """load(path) from the copy the writer left, then from a parse of the
    text alone."""
    copied = load(path)
    copy.unlink()
    return copied, load(path)


def breaks_lines(text):
    return "\n" in text or "\r" in text


@st.composite
def landmark_sets(draw):
    n = draw(st.integers(0, 5))
    return LandmarkSet(draw(st.lists(INT64, min_size=n, max_size=n, unique=True)),
                       draw(st.lists(FINITE, min_size=3 * n, max_size=3 * n)),
                       draw(st.lists(FINITE, min_size=n, max_size=n)),
                       draw(st.dictionaries(TEXT, st.one_of(TEXT, INT64, FINITE), max_size=3)))


@given(landmark_sets())
@ROUND_TRIP
def test_landmarks(ls):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "sel.txt"
        save_landmarks(ls, path)
        copy = landmarks._sidecar(path).path
        prov = " ".join(f"{k}={v}" for k, v in ls.provenance.items())
        assert copy.exists() != breaks_lines(prov)
        if not copy.exists():
            return
        copied, parsed = both_loads(load_landmarks, path, copy)
    same_landmarks(copied, parsed)
    same_landmarks(copied, LandmarkSet(ls.source_point_ids, ls.xyz, ls.saliency,
                                       copied.provenance))


@st.composite
def tables(draw):
    image_ids = draw(st.lists(INT64, max_size=4, unique=True))
    rows = draw(st.integers(0, 5))
    mask = draw(st.lists(st.booleans(), min_size=rows * len(image_ids),
                         max_size=rows * len(image_ids)))
    excluded = draw(st.lists(st.integers(0, rows - 1), unique=True)) if rows else []
    tolerances = draw(st.dictionaries(TEXT, st.one_of(TEXT, FINITE), max_size=3))
    return VisibilityTable(image_ids, np.reshape(mask, (rows, len(image_ids))), tolerances,
                           excluded)


@given(tables())
@ROUND_TRIP
def test_visibility(vt):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "vis.txt"
        save_visibility(vt, path)
        copy = visibility._sidecar(path).path
        tol = " ".join(f"{k}={v}" for k, v in vt.tolerances.items())
        assert copy.exists() != breaks_lines(tol)
        if not copy.exists():
            return
        copied, parsed = both_loads(load_visibility, path, copy)
    same_table(copied, parsed)
    same_table(copied, VisibilityTable(vt.image_ids, vt.mask, copied.tolerances, vt.excluded))


@st.composite
def detection_sets(draw):
    sets = {}
    for iid in draw(st.lists(INT64, max_size=3, unique=True)):
        n = draw(st.integers(0, 4))
        sets[iid] = DetectionSet(
            iid, draw(st.lists(INT64, min_size=n, max_size=n, unique=True)),
            np.reshape(draw(st.lists(FINITE, min_size=2 * n, max_size=2 * n)), (n, 2)),
            draw(st.lists(st.floats(0, 1, exclude_min=True), min_size=n, max_size=n)))
    return sets


@given(detection_sets())
@ROUND_TRIP
def test_detections(dets):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "dets.csv"
        save_detections(dets, path)
        copy = detection._sidecar(path).path
        assert copy.exists()
        copied, parsed = both_loads(load_detections, path, copy)
    same_bits(copied, parsed)
    # An image without detections has no row.
    same_bits(copied, {iid: dets[iid] for iid in sorted(dets) if len(dets[iid])})


@st.composite
def scenes(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cameras = {}
    for cam_id in draw(st.lists(INT64, min_size=1, max_size=2, unique=True)):
        width, height = draw(st.integers(1, 2**53)), draw(st.integers(1, 2**53))
        # Focal lengths at which a pixel's offset over them, squared, is finite.
        cameras[cam_id] = Intrinsics(
            draw(st.floats(width * 1e-150, 1e10)), draw(st.floats(height * 1e-150, 1e10)),
            draw(st.floats(0, width, exclude_min=True, exclude_max=True)),
            draw(st.floats(0, height, exclude_min=True, exclude_max=True)), width, height)
    ids = draw(st.lists(INT64, min_size=1, max_size=3, unique=True))
    # Mostly names that read back; now and then any text.
    names = draw(st.lists(st.one_of(st.from_regex(r"[a-zé.]{1,3}( [a-z.]{1,3})?", fullmatch=True),
                                    st.text(alphabet="ab. \t", max_size=3)),
                          min_size=len(ids), max_size=len(ids)))
    images = ImageSet(ids, [draw(st.sampled_from(list(cameras))) for _ in ids],
                      [random_rotation(rng) for _ in ids],
                      np.reshape(draw(st.lists(st.floats(-1e300, 1e300), min_size=3 * len(ids),
                                               max_size=3 * len(ids))), (-1, 3)), names)
    point_ids = draw(st.lists(INT64, max_size=3, unique=True))
    lens = [draw(st.integers(1, 3)) for _ in point_ids]
    points = PointSet(point_ids,
                      np.reshape(draw(st.lists(FINITE, min_size=3 * len(point_ids),
                                               max_size=3 * len(point_ids))), (-1, 3)),
                      rng.integers(-2**63, 2**63 - 1, size=(len(point_ids), 3)), lens,
                      [draw(st.sampled_from(ids)) for _ in range(sum(lens))],
                      np.reshape(draw(st.lists(FINITE, min_size=2 * sum(lens),
                                               max_size=2 * sum(lens))), (-1, 2)))
    return SceneModel(cameras, images, points)


@given(scenes())
@ROUND_TRIP
def test_scene(model):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d)
        save_scene(model, path)
        copy = scene_model._sidecar(path).path
        named = all(name and " ".join(name.split()) == name for name in model.images.names)
        try:
            scene_model._check_focal_lengths(path, model)
            focal_ok = True
        except DataError:
            focal_ok = False
        assert copy.exists() == (named and focal_ok)
        if not copy.exists():
            return
        copied, parsed = both_loads(load_scene, path, copy)
    assert_same_model(copied, parsed)
    images, points = copied.images, copied.points
    assert images.ids.tolist() == sorted(model.images.ids.tolist())
    assert np.array_equal(images.t, model.images.t) and images.names == model.images.names
    assert np.allclose(images.R, model.images.R, rtol=0, atol=1e-12)
    order = np.argsort(model.points.ids)
    assert points.ids.tolist() == model.points.ids[order].tolist()
    assert points.xyz.tobytes() == model.points.xyz[order].tobytes()


@st.composite
def pose_tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = draw(st.lists(INT64, max_size=5, unique=True))
    status = [draw(st.sampled_from(STATUSES)) for _ in ids]
    # The error of an image that is not ok may be NaN or negative; an ok
    # image's is finite and >= 0, and no inlier count is negative.
    errors = [draw(FINITE.map(abs) if s == "ok" else st.one_of(FINITE, st.just(float("nan"))))
              for s in status]
    return PoseTable(ids, status, [random_rotation(rng) for _ in ids],
                     np.reshape(draw(st.lists(FINITE, min_size=3 * len(ids),
                                              max_size=3 * len(ids))), (-1, 3)),
                     draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(ids),
                                   max_size=len(ids))), errors)


@given(pose_tables(), st.one_of(st.none(), FINITE))
@ROUND_TRIP
def test_poses(poses, sec_per_image):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "poses.txt"
        save_poses(poses, path, sec_per_image)
        loaded, meta = load_poses(path)
    assert meta == ({} if sec_per_image is None else {"sec_per_image": sec_per_image})
    # The file holds each rotation as its quaternion.
    ok = [s == "ok" for s in poses.status]
    R = [qvec2rotmat(rotmat2qvec(R)) if k else R for k, R in zip(ok, poses.R)]
    expected = PoseTable(poses.ids, poses.status, R, poses.t, poses.num_inliers,
                         poses.mean_reproj_px)
    assert loaded.status == expected.status
    for column in ("ids", "R", "t", "center", "num_inliers", "mean_reproj_px"):
        x, y = getattr(loaded, column), getattr(expected, column)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), column
