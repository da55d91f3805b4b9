import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from landmarkloc import _io, scene_model
from landmarkloc.cli import main
from landmarkloc.errors import (
    DanglingReferenceError,
    DataError,
    MalformedFileError,
    UnsupportedCameraModelError,
)
from landmarkloc.scene_model import (
    ImageSet,
    Intrinsics,
    PointSet,
    Pose,
    SceneModel,
    _by_camera,
    _parse_scene,
    bearing,
    load_scene,
    look_at_pose,
    project_many,
    qvec2rotmat,
    rotmat2qvec,
    save_scene,
)
from landmarkloc.synth import SynthConfig, generate_scene

from conftest import (
    LAYOUT_DAMAGE,
    edit_copy,
    image_set,
    make_intrinsics,
    make_minimal_model,
    needs_haswell,
    outcome,
    points_from_pairs,
    project,
    random_rotation,
    read_only_open,
    rename_image,
    subprocess_env,
)

CACHE = ".landmarkloc-scene"


def cold_and_warm(rows, ids=None):
    """Each parameter row as it is, then again with warm=True under the id
    warm-<id>. A warm test loads the good scene once before it damages a
    file, so that a cached copy of the good files exists."""
    ids = ids or ["-".join(map(str, row)) for row in rows]
    return ([pytest.param(*row, False, id=i) for row, i in zip(rows, ids)]
            + [pytest.param(*row, True, id=f"warm-{i}") for row, i in zip(rows, ids)])


def good_scene(path, warm):
    """The minimal model saved to path, with the copy save_scene leaves when
    warm (and loaded once from it), without any copy when cold."""
    save_scene(make_minimal_model(), path)
    assert (path / CACHE).exists()
    if warm:
        load_scene(path)
    else:
        (path / CACHE).unlink()


def assert_same_model(a, b):
    """Every field, Python type, dtype, shape and order of two scene models."""
    assert list(a.intrinsics) == list(b.intrinsics)
    for cam_id, K in a.intrinsics.items():
        assert type(cam_id) is int
        assert [(type(v), v) for v in vars(K).values()] == [
            (type(v), v) for v in vars(b.intrinsics[cam_id]).values()]
    assert type(a.images) is type(b.images) is ImageSet
    for name in ("ids", "camera_ids", "R", "t", "center"):
        x, y = getattr(a.images, name), getattr(b.images, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        assert not x.flags.writeable
    assert a.images.ids.dtype == a.images.camera_ids.dtype == np.int64
    assert a.images.names == b.images.names
    assert type(a.images.names) is tuple and all(type(n) is str for n in a.images.names)
    assert type(a.points) is type(b.points) is PointSet
    for name in ("ids", "xyz", "rgb", "offsets", "image_ids", "uv"):
        x, y = getattr(a.points, name), getattr(b.points, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        assert not x.flags.writeable


def with_value(column, index, value):
    """A writable copy of a read-only column, value set at index."""
    column = column.copy()
    column[index] = value
    return column


def project_oracle(K, R, t, p):
    """Independent projection route: homogeneous K [R|t] multiply."""
    P = K.K @ np.hstack([R, t.reshape(3, 1)])
    ph = P @ np.append(p, 1.0)
    return ph[:2] / ph[2]


class TestIntrinsics:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1, fy=1, cx=5, cy=5, width=10, height=10)
        with pytest.raises(ValueError):
            Intrinsics(fx=1, fy=1, cx=20, cy=5, width=10, height=10)

    @pytest.mark.parametrize("width, height, message", [
        (100.0, 100, "image width or height 100.0 is not an integer"),
        (100, True, "image width or height True is not an integer"),
        (2 ** 63, 100, "image width or height out of the int64 range"),
    ], ids=["float-width", "bool-height", "width-past-int64"])
    def test_extent_is_int64(self, width, height, message):
        # What load_scene reads: an int64 width and height.
        with pytest.raises(ValueError, match=message):
            Intrinsics(100.0, 100.0, 50.0, 0.5, width, height)


class TestPose:
    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1

    def test_rejects_non_finite(self):
        # The tolerance tests alone pass NaN, since comparisons with NaN are False.
        with pytest.raises(ValueError):
            Pose(np.full((3, 3), np.nan), np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.array([0.0, 0.0, np.inf]))

    def test_compose_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T = Pose(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3) * 5
            back = T.inverse().apply(T.apply(p))
            assert np.abs(back - p).max() < 1e-9

    def test_center(self):
        rng = np.random.default_rng(1)
        R = random_rotation(rng)
        t = rng.normal(size=3)
        T = Pose(R, t)
        assert np.allclose(T.apply(T.center), 0.0, atol=1e-12)

    def test_immutable(self):
        T = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(AttributeError):
            T.R = np.eye(3)
        with pytest.raises(ValueError):
            T.t[0] = 1.0


class TestQuaternions:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            R = random_rotation(rng)
            R2 = qvec2rotmat(rotmat2qvec(R))
            assert np.abs(R - R2).max() < 1e-12


class TestProject:
    def test_optical_axis(self):
        K = make_intrinsics()
        uv = project(K, Pose(np.eye(3), np.zeros(3)), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(uv, [50.0, 50.0])

    def test_behind_camera_is_empty(self):
        K = make_intrinsics()
        assert project(K, Pose(np.eye(3), np.zeros(3)), np.array([0.0, 0.0, -1.0])) is None

    def test_outside_extent_is_empty(self):
        K = make_intrinsics()
        assert project(K, Pose(np.eye(3), np.zeros(3)), np.array([2.0, 0.0, 1.0])) is None

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(3)
        K = Intrinsics(320.0, 300.0, 319.5, 239.5, 640, 480)
        n_checked = 0
        while n_checked < 100:
            R = random_rotation(rng)
            t = rng.normal(size=3)
            T = Pose(R, t)
            p = rng.normal(size=3) * 4
            if T.apply(p)[2] <= 0.1:
                continue
            uv = project(K, T, p)
            expected = project_oracle(K, R, t, p)
            if uv is None:
                assert not (
                    0 <= expected[0] < K.width and 0 <= expected[1] < K.height
                )
            else:
                assert np.abs(uv - expected).max() < 1e-9
                n_checked += 1

    def test_project_many_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        K = make_intrinsics()
        T = Pose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(200, 3)) * 3
        uv, valid = project_many(K, T, pts)
        for i, p in enumerate(pts):
            single = project(K, T, p)
            one_row, one_valid = project_many(K, T, p[None])
            if single is None:
                assert not valid[i] and not one_valid[0]
            else:
                assert valid[i] and one_valid[0]
                assert np.abs(uv[i] - single).max() < 1e-12
                assert np.array_equal(one_row[0], single)  # the same bits


class TestBearing:
    def test_principal_point(self):
        K = make_intrinsics()
        assert np.allclose(bearing(K, (50.0, 50.0)), [0.0, 0.0, 1.0])

    def test_45_degree_ray(self):
        K = make_intrinsics(f=100.0, c=50.0)
        b = bearing(K, (150.0, 50.0))
        assert np.allclose(b, np.array([1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        K = make_intrinsics()
        for _ in range(100):
            b = bearing(K, rng.uniform(-500, 500, size=2))
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_project_bearing_roundtrip(self):
        rng = np.random.default_rng(6)
        K = Intrinsics(320.0, 320.0, 320.0, 240.0, 640, 480)
        checked = 0
        while checked < 200:
            T = Pose(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3) * 5
            uv = project(K, T, p)
            if uv is None:
                continue
            b = bearing(K, uv)
            cam = T.apply(p)
            cam = cam / np.linalg.norm(cam)
            angle = np.arctan2(np.linalg.norm(np.cross(b, cam)), np.dot(b, cam))
            assert angle < 1e-9
            checked += 1


class TestSceneModel:
    def test_minimal_model(self, minimal_model):
        assert len(minimal_model.images) == 2
        assert len(minimal_model.points) == 1
        assert minimal_model.points.ids.tolist() == [7]
        assert minimal_model.points.image_ids.tolist() == [1, 2]

    def test_dangling_image_reference(self):
        K = make_intrinsics()
        images = image_set({1: Pose(np.eye(3), np.zeros(3))}, names=["a.png"])
        points = points_from_pairs({0: ([0, 0, 2], [(99, np.array([1.0, 1.0]))])})
        with pytest.raises(DanglingReferenceError):
            SceneModel({1: K}, images, points)

    def test_dangling_image_reference_names_point_and_image(self):
        K = make_intrinsics()
        images = image_set({1: Pose(np.eye(3), np.zeros(3))}, names=["a.png"])
        points = points_from_pairs({
            0: ([0, 0, 2], [(1, np.array([1.0, 1.0]))]),
            5: ([0, 0, 2], [(1, np.array([1.0, 1.0])), (98, np.array([2.0, 1.0])),
                            (99, np.array([3.0, 1.0]))]),
        })
        with pytest.raises(DanglingReferenceError) as err:
            SceneModel({1: K}, images, points)
        assert str(err.value) == "point 5 references unknown image 98"

    @pytest.mark.parametrize("cam_id, message", [
        (1.0, "camera id 1.0 is not an integer"),
        (True, "camera id True is not an integer"),
        (2 ** 63, "camera id out of the int64 range"),
    ], ids=["float-camera", "bool-camera", "camera-past-int64"])
    def test_camera_ids_are_int64(self, cam_id, message):
        # What load_scene reads: an int64 camera id.
        model = make_minimal_model()
        with pytest.raises(ValueError, match=message):
            SceneModel({cam_id: model.intrinsics[1]}, model.images, model.points)


def two_points(**change):
    """PointSet columns for points 4 and 9, with tracks [3, 1, 3] and [2],
    as keyword arguments; change replaces some of them."""
    columns = dict(ids=[4, 9], xyz=[[1, 2, 3], [4, 5, 6]], rgb=[[1, 2, 3], [128, 128, 128]],
                   track_len=[3, 1], image_ids=[3, 1, 3, 2],
                   uv=[[1.5, 2.5], [0.25, 7.0], [4.0, 5.0], [6.0, 1.0]])
    return {**columns, **change}


class TestPointSet:
    def test_columns_in_track_order(self):
        points = PointSet(**two_points())
        assert len(points) == 2
        for name, dtype, shape in [("ids", np.int64, (2,)), ("xyz", np.float64, (2, 3)),
                                   ("rgb", np.int64, (2, 3)), ("offsets", np.int64, (3,)),
                                   ("image_ids", np.int64, (4,)), ("uv", np.float64, (4, 2))]:
            column = getattr(points, name)
            assert column.dtype == dtype and column.shape == shape
        assert points.offsets.tolist() == [0, 3, 4]
        assert points.image_ids.tolist() == [3, 1, 3, 2]  # track order is kept
        assert points.owner.tolist() == [0, 0, 0, 1]
        for name in ("ids", "xyz", "rgb", "offsets", "image_ids", "uv"):
            assert not getattr(points, name).flags.writeable

    def test_given_arrays_stay_writable(self):
        xyz, uv = np.zeros((2, 3)), np.zeros((4, 2))
        PointSet(**two_points(xyz=xyz, uv=uv))
        assert xyz.flags.writeable and uv.flags.writeable

    def test_empty_set(self):
        points = PointSet([], [], [], [], [], [])
        assert len(points) == 0 and points.offsets.tolist() == [0]
        assert points.xyz.shape == (0, 3) and points.uv.shape == (0, 2)

    @pytest.mark.parametrize("change", [
        dict(xyz=[[1, 2, 3]]),                  # one position for two points
        dict(rgb=[[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        dict(track_len=[3]),                    # one length for two points
        dict(track_len=[2, 1]),                 # tracks shorter than the columns
        dict(track_len=[3, 2]),                 # tracks longer than the columns
        dict(uv=[[1.5, 2.5]]),                  # one pixel for four entries
    ], ids=["xyz", "rgb", "track-len", "tracks-short", "tracks-long", "uv"])
    def test_columns_must_pair_up(self, change):
        with pytest.raises(ValueError):
            PointSet(**two_points(**change))

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="track point 9 has no observations"):
            PointSet(**two_points(track_len=[4, 0]))
        with pytest.raises(ValueError, match="track point 4 has no observations"):
            PointSet(**two_points(track_len=[-1, 5]))

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="repeated point id 4"):
            PointSet(**two_points(ids=[4, 4]))

    @pytest.mark.parametrize("change", [
        dict(xyz=[[1, np.inf, 3], [4, 5, 6]]),
        dict(uv=[[1.5, 2.5], [np.nan, 7.0], [4.0, 5.0], [6.0, 1.0]]),
    ], ids=["inf-position", "nan-observation"])
    def test_non_finite_rejected(self, change):
        # What load_scene reads: finite positions and observations.
        with pytest.raises(ValueError, match="non-finite point position or observation"):
            PointSet(**two_points(**change))


def three_images(**change):
    """ImageSet columns for images 5, 2 and 9 (given out of id order), of
    cameras 1, 2 and 1, as keyword arguments; change replaces some of them."""
    rng = np.random.default_rng(4)
    columns = dict(ids=[5, 2, 9], camera_ids=[1, 2, 1],
                   R=[random_rotation(rng) for _ in range(3)], t=rng.normal(size=(3, 3)),
                   names=["five.png", "two.png", "nine.png"])
    return {**columns, **change}


class TestImageSet:
    def test_rows_in_id_order(self):
        columns = three_images()
        images = ImageSet(**columns)
        assert len(images) == 3 and images.ids.tolist() == [2, 5, 9]
        assert images.camera_ids.tolist() == [2, 1, 1]
        assert images.names == ("two.png", "five.png", "nine.png")
        assert [images.row(iid) for iid in (9, 5, 2)] == [2, 1, 0]
        assert 5 in images and np.int64(9) in images and 7 not in images
        for k, src in enumerate([1, 0, 2]):
            T = Pose(columns["R"][src], columns["t"][src])
            assert images.pose(images.ids[k]).R.tobytes() == T.R.tobytes()
            assert images.center[k].tobytes() == T.center.tobytes()
        for column in (images.ids, images.camera_ids, images.R, images.t, images.center):
            assert not column.flags.writeable

    def test_unknown_id_is_a_key_error(self):
        images = ImageSet(**three_images())
        for lookup in (images.row, images.pose):
            with pytest.raises(KeyError, match="7"):
                lookup(7)

    @pytest.mark.parametrize("change", [
        dict(camera_ids=[1, 2]),
        dict(R=np.eye(3)),
        dict(t=np.zeros((2, 3))),
        dict(names=["a.png"]),
    ], ids=["cameras", "rotations", "translations", "names"])
    def test_columns_must_pair_up(self, change):
        with pytest.raises(ValueError):
            ImageSet(**three_images(**change))

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="repeated image id 5"):
            ImageSet(**three_images(ids=[5, 2, 5]))

    @pytest.mark.parametrize("k, R, t", [
        (0, 2.0 * np.eye(3), np.zeros(3)),                # not orthogonal
        (1, np.diag([1.0, 1.0, -1.0]), np.zeros(3)),      # a reflection
        (2, np.eye(3), [0.0, np.inf, 0.0]),               # not finite
    ])
    def test_pose_must_be_valid(self, k, R, t):
        columns = three_images()
        columns["R"][k], columns["t"][k] = R, t
        with pytest.raises(ValueError, match=f"image {columns['ids'][k]}: R and t are not"):
            ImageSet(**columns)


class TestSceneIO:
    def test_roundtrip_minimal(self, tmp_path, monkeypatch):
        model = make_minimal_model()
        save_scene(model, tmp_path)
        (tmp_path / CACHE).unlink()  # the copy save_scene leaves: the text is parsed
        parses = count_parses(monkeypatch)
        loaded = load_scene(tmp_path)
        assert len(parses) == 1
        got, img = loaded.images, model.images
        assert set(got.ids.tolist()) == set(img.ids.tolist())
        assert got.names == img.names and np.array_equal(got.camera_ids, img.camera_ids)
        assert np.abs(got.R - img.R).max() < 1e-12
        assert np.abs(got.t - img.t).max() < 1e-15
        for name in ("ids", "xyz", "rgb", "offsets", "image_ids", "uv"):
            assert np.array_equal(getattr(loaded.points, name), getattr(model.points, name))

    def test_save_writes_points_in_id_order(self, tmp_path):
        # The same points in another order, each track in its own order,
        # give the same files.
        model = generate_scene(SynthConfig(num_landmark_sites=40, num_cameras=8,
                                           camera_margin=1.4, min_target_dist=3.0, seed=3)).model
        pts = model.points
        perm = np.random.default_rng(0).permutation(len(pts))
        rows = np.concatenate([np.arange(pts.offsets[k], pts.offsets[k + 1]) for k in perm])
        shuffled = PointSet(pts.ids[perm], pts.xyz[perm], pts.rgb[perm],
                            np.diff(pts.offsets)[perm], pts.image_ids[rows], pts.uv[rows])
        save_scene(model, tmp_path / "a")
        save_scene(SceneModel(model.intrinsics, model.images, shuffled), tmp_path / "b")
        for name in ("cameras.txt", "images.txt", "points3D.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_load_is_pure_function_of_bytes(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        a = load_scene(tmp_path)
        b = load_scene(tmp_path)
        assert np.array_equal(a.images.pose(1).R, b.images.pose(1).R)
        assert np.array_equal(a.points.xyz, b.points.xyz)
        assert a.images.names[a.images.row(1)] == b.images.names[b.images.row(1)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(tmp_path)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_malformed_line_reports_location(self, tmp_path, warm):
        good_scene(tmp_path, warm)
        cam = tmp_path / "cameras.txt"
        lines = cam.read_text().splitlines()
        lines.append("2 PINHOLE 100 100 oops 100 50 50")
        cam.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFileError) as err:
            load_scene(tmp_path)
        assert "cameras.txt" in str(err.value)
        assert str(len(lines)) in str(err.value)

    @pytest.mark.parametrize("line, warm", cold_and_warm([
        ("x PINHOLE 100 100 100 100 50 50",),    # camera id
        ("1 PINHOLE 100.5 100 100 100 50 50",),  # width
        ("1 PINHOLE 100 1e2 100 100 50 50",),    # height
        ("1 PINHOLE 100 100 inf 100 50 50",),    # non-finite focal length
        ("1 PINHOLE 100 100 100 100 nan 50",),   # non-finite principal point
        ("1 PINHOLE 100 100 100 100 150 50",),   # principal point off the image
        ("1 PINHOLE 100 100 -100 100 50 50",),   # negative focal length
    ]))
    def test_bad_camera_line_reports_location(self, tmp_path, line, warm):
        good_scene(tmp_path, warm)
        (tmp_path / "cameras.txt").write_text("# cameras\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"cameras\.txt:2: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("line_no, line, warm", cold_and_warm([
        (3, "1.5 1 0 0 0 0 0 0 1 img0.png"),  # image id
        (3, "1 1 0 0 0 0 0 0 one img0.png"),  # camera reference
        (3, "1 nan 0 0 0 0 0 0 1 img0.png"),  # non-finite quaternion
        (3, "1 1 0 0 0 0 inf 0 1 img0.png"),  # non-finite translation
        (3, "1 0 0 0 0 0 0 0 1 img0.png"),    # zero quaternion
        (4, "50 50 7.5"),                     # observed point id
        (4, "nan 50 7"),                      # non-finite observation
        (5, "1 1 0 0 0 0 0 0 1 img1.png"),    # image id repeated
    ]))
    def test_bad_image_line_reports_location(self, tmp_path, line_no, line, warm):
        good_scene(tmp_path, warm)
        path = tmp_path / "images.txt"
        lines = path.read_text().splitlines()
        lines[line_no - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFileError, match=rf"images\.txt:{line_no}: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("line, warm", cold_and_warm([
        ("7.0 0 0 2 128 128 128 0 1 0 2 0",),   # point id
        ("7 0 0 2 128 x 128 0 1 0 2 0",),       # rgb
        ("7 0 0 2 128 128 128 0 1.0 0 2 0",),   # track image id
        ("7 0 0 2 128 128 128 0 1 0 2 zero",),  # track observation index
        ("7 0 nan 2 128 128 128 0 1 0 2 0",),   # non-finite position
    ]))
    def test_bad_point_line_reports_location(self, tmp_path, line, warm):
        good_scene(tmp_path, warm)
        (tmp_path / "points3D.txt").write_text("# points\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"points3D\.txt:2: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("name, line, warm", cold_and_warm([
        ("cameras.txt", "1 PINHOLE 100 100 500 500 50 50"),
        ("points3D.txt", "7 0 0 2 128 128 128 0 1 0 2 0"),
    ]))
    def test_repeated_id_reports_location(self, tmp_path, name, line, warm):
        good_scene(tmp_path, warm)
        path = tmp_path / name
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(MalformedFileError, match=rf"{name}:3: repeated"):
            load_scene(tmp_path)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_unsupported_camera_model(self, tmp_path, warm):
        good_scene(tmp_path, warm)
        cam = tmp_path / "cameras.txt"
        text = cam.read_text().replace("PINHOLE", "OPENCV")
        cam.write_text(text)
        with pytest.raises(UnsupportedCameraModelError):
            load_scene(tmp_path)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_dangling_point_reference(self, tmp_path, warm):
        good_scene(tmp_path, warm)
        pts = tmp_path / "points3D.txt"
        text = pts.read_text() + "8 0 0 1 0 0 0 0 42 0\n"
        pts.write_text(text)
        with pytest.raises(DanglingReferenceError):
            load_scene(tmp_path)

    @pytest.mark.parametrize("lines, error, message, warm", cold_and_warm([
        (["8 0 0 1 0 0 0 0 42 0"], DanglingReferenceError,
         "3: point 8 references unknown image 42"),
        (["8 0 0 1 0 0 0 0 1 5"], DanglingReferenceError,
         "3: point 8 references observation 5 out of range for image 1"),
        (["8 0 0 1 0 0 0 0 1 -1"], DanglingReferenceError,
         "3: point 8 references observation -1 out of range for image 1"),
        (["8 0 0 1 0 0 0 0 1 0"], DanglingReferenceError,
         "3: observation 0 of image 1 belongs to point 7, not 8"),
        # The first failing entry of a line, then the first failing line.
        (["8 0 0 1 0 0 0 0 1 3 42 0"], DanglingReferenceError,
         "3: point 8 references observation 3 out of range for image 1"),
        (["8 0 0 1 0 0 0 0 2 0 42 0", "9 0 0 1 0 0 0 0 1 0"], DanglingReferenceError,
         "3: observation 0 of image 2 belongs to point 7, not 8"),
        # A dangling line before a malformed one is reported, and after it is not.
        (["8 0 0 1 0 0 0 0 42 0", "9 0 0 1"], DanglingReferenceError,
         "3: point 8 references unknown image 42"),
        (["9 0 0 1", "8 0 0 1 0 0 0 0 42 0"], MalformedFileError,
         "3: point line has wrong token count"),
        (["8 0 0 1 0 0 0 0 42 0", "9 0 0 1 0 0 0 0"], DanglingReferenceError,
         "3: point 8 references unknown image 42"),
        (["9 0 0 1 0 0 0 0", "8 0 0 1 0 0 0 0 42 0"], MalformedFileError,
         "3: track point 9 has no observations"),
        (["8 0 0 1 0 0 0 0 42 0", "9 0 0 1 0 0 0 0 1 x"], DanglingReferenceError,
         "3: point 8 references unknown image 42"),
        # A line's own syntax is checked before its references.
        (["8 0 0 1 0 0 0 0 42 0 1 x"], MalformedFileError,
         "3: invalid literal for int() with base 10: 'x'"),
    ], ids=["unknown-image", "index-out-of-range", "negative-index", "back-reference",
            "first-entry-of-line", "first-line", "dangling-then-short", "short-then-dangling",
            "dangling-then-empty", "empty-then-dangling", "dangling-then-bad-int",
            "dangling-entry-then-bad-int"]))
    def test_bad_track_reports_first_failing_line(self, tmp_path, lines, error, message, warm):
        good_scene(tmp_path, warm)
        path = tmp_path / "points3D.txt"
        path.write_text(path.read_text() + "".join(line + "\n" for line in lines))
        with pytest.raises(error) as err:
            load_scene(tmp_path)
        assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize("edit, message, warm", cold_and_warm([
        ({6: "45 50 7 10 10 8"}, "6: observation of unknown point 8"),
        ({4: "50 50 7 1 2 -2", 6: "45 50 7 3 4 9"}, "4: observation of unknown point -2"),
        ({8: None}, "4: observation of unknown point 7"),  # the point's line deleted
        ({4: "50 50 7 10 10 -1"}, None),                     # -1: no point
    ], ids=["unknown-point", "first-line", "deleted-point", "no-point"]))
    def test_observation_of_unknown_point_reports_its_line(self, tmp_path, edit, message,
                                                           warm):
        # Each images.txt observation names -1 or a point of points3D.txt;
        # lines 1-6 are images.txt's, 7-8 points3D.txt's.
        good_scene(tmp_path, warm)
        images, points = (tmp_path / "images.txt"), (tmp_path / "points3D.txt")
        lines = images.read_text().splitlines() + points.read_text().splitlines()
        for no, line in edit.items():
            lines[no - 1] = line
        images.write_text("".join(line + "\n" for line in lines[:6]))
        points.write_text("".join(line + "\n" for line in lines[6:] if line is not None))
        if message is None:
            assert len(load_scene(tmp_path).points) == 1
            return
        with pytest.raises(DanglingReferenceError) as err:
            load_scene(tmp_path)
        assert str(err.value) == f"{images}:{message}"

    # (file, line number, line, the exact message when it is not the int64 rule's)
    OUTSIDE_INT64 = [
        ("images.txt", 3, "9223372036854775808 1 0 0 0 0 0 0 1 img0.png", None),
        ("images.txt", 4, "50 50 9223372036854775807 50 50 -9223372036854775809", None),
        # A point's references are checked before its values: no point of
        # images.txt has an id past int64, and an index past it is out of range.
        ("points3D.txt", 2, "9223372036854775808 0 0 2 128 128 128 0 1 0 2 0",
         "observation 0 of image 1 belongs to point 7, not 9223372036854775808"),
        ("points3D.txt", 2, "7 0 0 2 128 128 128 0 1 0 2 18446744073709551616",
         "point 7 references observation 18446744073709551616 out of range for image 2"),
        ("points3D.txt", 2, "7 0 0 2 128 18446744073709551616 128 0 1 0 2 0", None),
        ("cameras.txt", 2, "1180591620717411303424 PINHOLE 100 100 100 100 50 50", None),
        ("cameras.txt", 2, "1 PINHOLE 9223372036854775808 100 100 100 50 50", None),
        ("cameras.txt", 2, "1 PINHOLE 100 -9223372036854775809 100 100 50 50", None),
        ("images.txt", 3, "1 1 0 0 0 0 0 0 1180591620717411303424 img0.png", None),
    ]

    @pytest.mark.parametrize("name, line_no, line, message, warm", cold_and_warm(
        OUTSIDE_INT64, ids=["-".join(map(str, row[:3])) for row in OUTSIDE_INT64]))
    def test_id_outside_int64_reports_location(self, tmp_path, name, line_no, line, message,
                                               warm):
        # Ids, image sizes, colours and track entries are read into int64 columns.
        good_scene(tmp_path, warm)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[line_no - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_scene(tmp_path)
        if message is None:
            assert isinstance(err.value, MalformedFileError)
            assert re.search(rf"{name}:{line_no}: .* out of the int64", str(err.value))
        else:
            assert str(err.value) == f"{path}:{line_no}: {message}"

    def test_simple_pinhole_supported(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        cam = tmp_path / "cameras.txt"
        cam.write_text("1 SIMPLE_PINHOLE 100 100 100 50 50\n")
        model = load_scene(tmp_path)
        K = model.intrinsics[1]
        assert K.fx == K.fy == 100.0


def count_parses(monkeypatch):
    """A list that gets one entry per call of the text parse."""
    calls = []

    def parse(path):
        calls.append(path)
        return _parse_scene(path)

    monkeypatch.setattr(scene_model, "_parse_scene", parse)
    return calls


def bench_sized_model():
    """The scene of the ensemble1000 bench workload: 100 cameras at 640 x 480
    and 1400 landmark sites in the README room, synth seed 7."""
    return generate_scene(SynthConfig(
        num_landmark_sites=1400, num_cameras=100, camera_margin=1.4, min_target_dist=3.0,
        intrinsics=Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480), seed=7)).model


class TestSceneCache:
    @pytest.mark.parametrize("make", [make_minimal_model, bench_sized_model],
                             ids=["minimal", "bench-sized"])
    def test_hit_equals_parse(self, tmp_path, monkeypatch, make):
        model = make()
        first, second, *_ = model.images.ids.tolist()
        rename_image(model, first, "a name with inner spaces.png")
        rename_image(model, second, "ends in a NUL\x00")  # a numpy str array would drop it
        save_scene(model, tmp_path)
        (tmp_path / CACHE).unlink()  # the copy save_scene leaves
        pts = tmp_path / "points3D.txt"
        comment, *lines = pts.read_text().splitlines(keepends=True)
        pts.write_text(comment + "".join(reversed(lines)))  # ids no longer in order
        parses = count_parses(monkeypatch)
        miss = load_scene(tmp_path)
        assert len(parses) == 1 and (tmp_path / CACHE).exists()
        hit = load_scene(tmp_path)
        assert len(parses) == 1
        fresh = _parse_scene(tmp_path)
        assert_same_model(hit, fresh)
        assert_same_model(miss, fresh)
        assert hit.images.names[hit.images.row(second)] == "ends in a NUL\x00"

    @pytest.mark.filterwarnings("error")  # a damaged copy gives no warning either
    @pytest.mark.parametrize("damage", [
        lambda data, foreign: data[:len(data) // 2],                 # truncated
        lambda data, foreign: data[:500] + bytes(200) + data[700:],  # corrupt
        lambda data, foreign: b"",                                   # empty
        lambda data, foreign: b"not a zip file\n",                   # foreign format
        lambda data, foreign: foreign,                               # another scene's key
        *LAYOUT_DAMAGE.values(),
    ], ids=["truncated", "corrupt", "empty", "foreign-format", "foreign-key", *LAYOUT_DAMAGE])
    def test_bad_cache_gives_the_parse(self, tmp_path, monkeypatch, damage):
        other = tmp_path / "other"
        save_scene(make_minimal_model(), other)
        (other / "cameras.txt").write_text("1 PINHOLE 100 100 90 90 50 50\n")
        load_scene(other)
        scene = tmp_path / "scene"
        good_scene(scene, warm=True)
        cache = scene / CACHE
        good = cache.read_bytes()
        cache.write_bytes(damage(good, (other / CACHE).read_bytes()))
        assert cache.read_bytes() != good
        parses = count_parses(monkeypatch)
        assert_same_model(load_scene(scene), _parse_scene(scene))
        assert len(parses) == 1
        load_scene(scene)  # the parse wrote a good copy again
        assert len(parses) == 1

    def test_unreadable_cache_gives_the_parse(self, tmp_path):
        good_scene(tmp_path, warm=False)
        (tmp_path / CACHE).mkdir()  # neither read nor replaced
        for _ in range(2):
            assert_same_model(load_scene(tmp_path), _parse_scene(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [CACHE, "cameras.txt", "images.txt",
                                                "points3D.txt"]

    @pytest.mark.parametrize("column, value", [
        ("image_R", np.zeros((2, 9))),               # a row of the wrong shape
        ("point_id", np.array([7.0])),               # the wrong dtype
        ("track_len", np.array([3])),                # tracks longer than the columns
        ("image_name_len", np.array([8, 9])),        # names longer than the text
        ("camera_id", np.array([1, 2])),             # more ids than cameras
        ("image_id", np.array([1, 1])),              # a repeated id
        ("image_camera", np.array([1, 5])),          # an unknown camera
        ("track_image", np.array([1, 3])),           # an unknown image
        ("image_t", np.array([[0, 0, 0], [np.nan, 0, 0]])),  # what Pose rejects
        ("extra", np.zeros(1)),                      # a column the loader does not know
    ])
    def test_malformed_cache_gives_the_parse(self, tmp_path, monkeypatch, column, value):
        # A copy under the right key whose columns do not make a model.
        good_scene(tmp_path, warm=True)
        edit_copy(scene_model._sidecar(tmp_path), column, value)
        parses = count_parses(monkeypatch)
        assert_same_model(load_scene(tmp_path), _parse_scene(tmp_path))
        assert len(parses) == 1

    def test_read_only_directory(self, tmp_path, monkeypatch):
        scene = tmp_path / "scene"
        save_scene(make_minimal_model(), scene)
        (scene / CACHE).unlink()  # the copy save_scene leaves
        files = sorted(os.listdir(scene))
        scene.chmod(0o555)
        try:
            if os.access(scene, os.W_OK):  # permission bits do not bind root
                monkeypatch.setattr(_io, "open", read_only_open, raising=False)
            parses = count_parses(monkeypatch)
            for _ in range(2):
                assert_same_model(load_scene(scene), _parse_scene(scene))
            assert len(parses) == 2
            assert sorted(os.listdir(scene)) == files
        finally:
            scene.chmod(0o755)

    @pytest.mark.parametrize("name, old, new", [
        ("cameras.txt", b" 50 50\n", b" 50 51\n"),
        ("images.txt", b"img1.png", b"img1.pnh"),
        ("points3D.txt", b" 128 128 128 ", b" 128 128 129 "),
    ])
    def test_one_byte_edit_forces_a_parse(self, tmp_path, monkeypatch, name, old, new):
        good_scene(tmp_path, warm=True)
        path = tmp_path / name
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        parses = count_parses(monkeypatch)
        edited = load_scene(tmp_path)
        assert len(parses) == 1
        assert_same_model(edited, _parse_scene(tmp_path))
        assert_same_model(load_scene(tmp_path), edited)
        assert len(parses) == 1  # the edited files have their own copy now

    def test_bytes_moved_between_files_force_a_parse(self, tmp_path):
        # The camera line moved from the end of cameras.txt to the start of
        # images.txt: the files read in a row give the same bytes as before.
        good_scene(tmp_path, warm=True)
        cam, img = tmp_path / "cameras.txt", tmp_path / "images.txt"
        header, camera = cam.read_bytes().splitlines(keepends=True)
        cam.write_bytes(header)
        img.write_bytes(camera + img.read_bytes())
        with pytest.raises(MalformedFileError, match=r"images\.txt:1: image header line too short"):
            load_scene(tmp_path)

    def test_loader_edit_forces_a_parse(self, tmp_path, monkeypatch):
        good_scene(tmp_path, warm=True)
        edited = tmp_path / "scene_model.py"
        edited.write_bytes(open(scene_model.__file__, "rb").read() + b"\n")
        monkeypatch.setattr(scene_model, "__file__", str(edited))
        parses = count_parses(monkeypatch)
        load_scene(tmp_path)
        assert len(parses) == 1

    def test_errors_are_never_cached(self, tmp_path, monkeypatch):
        good_scene(tmp_path, warm=True)
        kept = (tmp_path / CACHE).read_bytes()
        cam = tmp_path / "cameras.txt"
        good = cam.read_bytes()
        cam.write_bytes(good.replace(b"PINHOLE", b"OPENCV"))
        for _ in range(2):
            with pytest.raises(UnsupportedCameraModelError):
                load_scene(tmp_path)
        assert (tmp_path / CACHE).read_bytes() == kept
        assert sorted(os.listdir(tmp_path)) == [CACHE, "cameras.txt", "images.txt",
                                                "points3D.txt"]
        cam.write_bytes(good)
        parses = count_parses(monkeypatch)
        load_scene(tmp_path)
        assert parses == []


def assert_same_outcome(a, b):
    if isinstance(a, SceneModel) and isinstance(b, SceneModel):
        assert_same_model(a, b)
    else:
        assert a == b


# The synth flags of the three bench workloads (perfbench/worker.py), and a
# scene of one site.
BENCH_ROOM = ["--seed", "7", "--cameras", "100", "--width", "640", "--height", "480",
              "--margin", "1.4", "--min-target-dist", "3.0"]


class TestWriterCopy:
    """save_scene leaves the columns a parse of its text gives."""

    @pytest.mark.parametrize("flags", [
        ["--sites", "250"], ["--sites", "1000", "--occluders", "6"], ["--sites", "1400"],
        ["--sites", "1", "--seed", "5", "--cameras", "9"],
    ], ids=["demo", "occluders", "ensemble1000", "one-site"])
    def test_synth_copy_equals_parse(self, tmp_path, monkeypatch, flags):
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(tmp_path), *BENCH_ROOM, *flags]) == 0
        scene = tmp_path / "scene"
        assert (scene / CACHE).exists()
        parses = count_parses(monkeypatch)
        copied = load_scene(scene)
        assert parses == []
        assert_same_model(copied, _parse_scene(scene))
        if flags[1] == "1":
            assert len(copied.points) == 1

    def test_unsorted_model_copy_equals_parse(self, tmp_path, monkeypatch):
        # Images, cameras and points out of id order, numpy integer ids, a
        # track out of image order and names as load_scene reads them back.
        rng = np.random.default_rng(3)
        K = Intrinsics(400, 410.5, 320.25, 240.0, np.int64(640), 480)
        cams = {np.int64(9): K, 2: make_intrinsics()}
        order = ((np.int64(5), 2), (1, np.int64(9)), (3, 9))
        poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in order]
        images = ImageSet([iid for iid, _ in order], [cam for _, cam in order],
                          [T.R for T in poses], [T.t for T in poses],
                          [f"img {iid}.png" if iid != 3 else "a\x00b" for iid, _ in order])
        points = PointSet([40, 7, 12], rng.normal(size=(3, 3)), [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                          [3, 2, 1], [3, 5, 1, 1, 3, 5], rng.uniform(0, 100, size=(6, 2)))
        save_scene(SceneModel(cams, images, points), tmp_path)
        parses = count_parses(monkeypatch)
        copied = load_scene(tmp_path)
        assert parses == []
        assert_same_model(copied, _parse_scene(tmp_path))

    @pytest.mark.parametrize("edit", [
        lambda m: rename_image(m, 1, "two  spaces.png"),
        lambda m: rename_image(m, 1, " leading.png"),
        lambda m: rename_image(m, 1, "tab\there.png"),
        lambda m: rename_image(m, 1, "line\rend.png"),
        lambda m: rename_image(m, 1, ""),
        lambda m: setattr(m, "intrinsics", {1.0: m.intrinsics[1]}),
        lambda m: m.intrinsics.update({1: Intrinsics(1e308, 100.0, 50.0, 50.0, 100, 100)}),
        lambda m: setattr(m.points, "xyz", with_value(m.points.xyz, (0, 1), np.inf)),
        lambda m: setattr(m.points, "uv", with_value(m.points.uv, (1, 0), np.nan)),
        lambda m: setattr(m, "intrinsics", {True: m.intrinsics[1]}),
    ], ids=["double-space", "leading-space", "tab", "carriage-return", "empty-name",
            "float-camera", "focal-overflows", "inf-position", "nan-observation", "bool-camera"])
    def test_no_copy_for_text_that_reads_back_otherwise(self, tmp_path, edit):
        # The float-camera, inf-position, nan-observation and bool-camera
        # cases change a model after it was made: the writer rebuilds it
        # through the constructors, which refuse it (see the constructor
        # tests for the same values), so it leaves no copy.
        model = make_minimal_model()
        edit(model)
        save_scene(model, tmp_path)
        assert not (tmp_path / CACHE).exists()
        assert_same_outcome(outcome(load_scene, tmp_path), outcome(_parse_scene, tmp_path))

    def test_writer_copy_of_other_bytes_is_stale(self, tmp_path, monkeypatch):
        save_scene(make_minimal_model(), tmp_path)
        kept = (tmp_path / CACHE).read_bytes()
        images = tmp_path / "images.txt"
        images.write_bytes(images.read_bytes().replace(b"img1.png", b"img9.png"))
        parses = count_parses(monkeypatch)
        images = load_scene(tmp_path).images
        assert images.names[images.row(2)] == "img9.png"
        assert len(parses) == 1 and (tmp_path / CACHE).read_bytes() != kept

    @needs_haswell
    def test_copy_made_under_another_blas_kernel_is_stale(self, tmp_path):
        # qvec2rotmat's norm rounds differently under OpenBLAS's Haswell
        # kernel than under some others: the copy that save_scene leaves
        # under Haswell holds Haswell's rotations, which a load under this
        # process's kernel must not take for its own parse.
        save = ("import sys; import numpy as np; from landmarkloc.scene_model import *; "
                "q = np.random.default_rng(3).normal(size=(300, 4)); "
                "images = ImageSet(range(300), [1] * 300, [qvec2rotmat(v) for v in q], "
                "np.zeros((300, 3)), [f'{k}.png' for k in range(300)]); "
                "points = PointSet([7], [[0.0, 0.0, 2.0]], [[1, 2, 3]], [1], [0], [[5.0, 5.0]]); "
                "K = Intrinsics(100.0, 100.0, 50.0, 50.0, 100, 100); "
                "save_scene(SceneModel({1: K}, images, points), sys.argv[1])")
        proc = subprocess.run([sys.executable, "-c", save, str(tmp_path)],
                              env=subprocess_env(OPENBLAS_CORETYPE="Haswell"),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and (tmp_path / CACHE).exists(), proc.stderr
        assert load_scene(tmp_path).images.R.tobytes() == _parse_scene(tmp_path).images.R.tobytes()

    def test_unwritable_copy_leaves_the_text(self, tmp_path):
        (tmp_path / CACHE).mkdir(parents=True)  # cannot be replaced
        save_scene(make_minimal_model(), tmp_path)
        assert sorted(os.listdir(tmp_path)) == [CACHE, "cameras.txt", "images.txt",
                                                "points3D.txt"]
        assert_same_model(load_scene(tmp_path), _parse_scene(tmp_path))


def test_look_at_pose_has_the_bits_of_np_cross():
    rng = np.random.default_rng(8)
    for _ in range(200):
        eye, target = rng.uniform(-5, 5, size=(2, 3))
        fwd = (target - eye) / np.linalg.norm(target - eye)
        right = np.cross(fwd, [0.0, 0.0, 1.0])
        right /= np.linalg.norm(right)
        R = np.stack([right, np.cross(fwd, right), fwd])
        T = look_at_pose(eye, target)
        assert T.R.tobytes() == R.tobytes() and T.t.tobytes() == (-R @ eye).tobytes()


@pytest.mark.parametrize("cameras", [2, 3, 7])
def test_by_camera_matches_the_first_seen_split(cameras):
    # The sorted split gives each id and its rows, in first-seen order, as
    # one pass over the ids does; blocks of one id keep slice(None).
    rng = np.random.default_rng(40 + cameras)
    ids_of = rng.choice(np.arange(-5, 100), size=cameras, replace=False)
    for size in (2, 3, 17, 500):
        for runs in (False, True):
            ids = ids_of[rng.integers(0, cameras, size)]
            if runs:  # images of a camera in stretches, as scenes list them
                ids = np.sort(ids)[::rng.choice([1, -1])].copy()
            if ids.min() == ids.max():
                assert _by_camera(ids) == [(ids[0].item(), slice(None))]
                continue
            got = _by_camera(ids)
            want = [(c, np.flatnonzero(ids == c)) for c in dict.fromkeys(ids.tolist())]
            assert [c for c, _ in got] == [c for c, _ in want]
            assert all(type(c) is int for c, _ in got)
            for (_, rows), (_, ref) in zip(got, want):
                assert rows.dtype == ref.dtype and np.array_equal(rows, ref)
    assert _by_camera(np.array([], dtype=np.int64)) == []
