import numpy as np
import pytest

from landmarkloc.errors import (
    DanglingReferenceError,
    MalformedFileError,
    UnsupportedCameraModelError,
)
from landmarkloc.scene_model import (
    ImageRecord,
    Intrinsics,
    Pose,
    SceneModel,
    TrackPoint,
    bearing,
    load_scene,
    project,
    project_many,
    qvec2rotmat,
    rotmat2qvec,
    save_scene,
)

from conftest import make_intrinsics, make_minimal_model, random_rotation


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
        assert minimal_model.points[7].track_length == 2

    def test_dangling_image_reference(self):
        K = make_intrinsics()
        images = {1: ImageRecord(1, Pose(np.eye(3), np.zeros(3)), 1, "a.png")}
        pt = TrackPoint(0, [0, 0, 2], [(99, np.array([1.0, 1.0]))])
        with pytest.raises(DanglingReferenceError):
            SceneModel({1: K}, images, {0: pt})

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            TrackPoint(0, [0, 0, 2], [])


class TestSceneIO:
    def test_roundtrip_minimal(self, tmp_path):
        model = make_minimal_model()
        save_scene(model, tmp_path)
        loaded = load_scene(tmp_path)
        assert set(loaded.images) == set(model.images)
        assert set(loaded.points) == set(model.points)
        for iid, img in model.images.items():
            got = loaded.images[iid]
            assert got.name == img.name and got.camera_id == img.camera_id
            assert np.abs(got.pose.R - img.pose.R).max() < 1e-12
            assert np.abs(got.pose.t - img.pose.t).max() < 1e-15
        for pid, pt in model.points.items():
            got = loaded.points[pid]
            assert np.array_equal(got.xyz, pt.xyz)
            assert [i for i, _ in got.observations] == [i for i, _ in pt.observations]
            for (_, a), (_, b) in zip(got.observations, pt.observations):
                assert np.array_equal(a, b)

    def test_load_is_pure_function_of_bytes(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        a = load_scene(tmp_path)
        b = load_scene(tmp_path)
        assert np.array_equal(a.images[1].pose.R, b.images[1].pose.R)
        assert np.array_equal(a.points[7].xyz, b.points[7].xyz)
        assert a.images[1].name == b.images[1].name

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(tmp_path)

    def test_malformed_line_reports_location(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        cam = tmp_path / "cameras.txt"
        lines = cam.read_text().splitlines()
        lines.append("2 PINHOLE 100 100 oops 100 50 50")
        cam.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFileError) as err:
            load_scene(tmp_path)
        assert "cameras.txt" in str(err.value)
        assert str(len(lines)) in str(err.value)

    @pytest.mark.parametrize("line", [
        "x PINHOLE 100 100 100 100 50 50",    # camera id
        "1 PINHOLE 100.5 100 100 100 50 50",  # width
        "1 PINHOLE 100 1e2 100 100 50 50",    # height
        "1 PINHOLE 100 100 inf 100 50 50",    # non-finite focal length
        "1 PINHOLE 100 100 100 100 nan 50",   # non-finite principal point
        "1 PINHOLE 100 100 100 100 150 50",   # principal point off the image
        "1 PINHOLE 100 100 -100 100 50 50",   # negative focal length
    ])
    def test_bad_camera_line_reports_location(self, tmp_path, line):
        save_scene(make_minimal_model(), tmp_path)
        (tmp_path / "cameras.txt").write_text("# cameras\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"cameras\.txt:2: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("line_no, line", [
        (3, "1.5 1 0 0 0 0 0 0 1 img0.png"),  # image id
        (3, "1 1 0 0 0 0 0 0 one img0.png"),  # camera reference
        (3, "1 nan 0 0 0 0 0 0 1 img0.png"),  # non-finite quaternion
        (3, "1 1 0 0 0 0 inf 0 1 img0.png"),  # non-finite translation
        (3, "1 0 0 0 0 0 0 0 1 img0.png"),    # zero quaternion
        (4, "50 50 7.5"),                     # observed point id
        (4, "nan 50 7"),                      # non-finite observation
        (5, "1 1 0 0 0 0 0 0 1 img1.png"),    # image id repeated
    ])
    def test_bad_image_line_reports_location(self, tmp_path, line_no, line):
        save_scene(make_minimal_model(), tmp_path)
        path = tmp_path / "images.txt"
        lines = path.read_text().splitlines()
        lines[line_no - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFileError, match=rf"images\.txt:{line_no}: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("line", [
        "7.0 0 0 2 128 128 128 0 1 0 2 0",   # point id
        "7 0 0 2 128 x 128 0 1 0 2 0",       # rgb
        "7 0 0 2 128 128 128 0 1.0 0 2 0",   # track image id
        "7 0 0 2 128 128 128 0 1 0 2 zero",  # track observation index
        "7 0 nan 2 128 128 128 0 1 0 2 0",   # non-finite position
    ])
    def test_bad_point_line_reports_location(self, tmp_path, line):
        save_scene(make_minimal_model(), tmp_path)
        (tmp_path / "points3D.txt").write_text("# points\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"points3D\.txt:2: "):
            load_scene(tmp_path)

    @pytest.mark.parametrize("name, line", [
        ("cameras.txt", "1 PINHOLE 100 100 500 500 50 50"),
        ("points3D.txt", "7 0 0 2 128 128 128 0 1 0 2 0"),
    ])
    def test_repeated_id_reports_location(self, tmp_path, name, line):
        save_scene(make_minimal_model(), tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(MalformedFileError, match=rf"{name}:3: repeated"):
            load_scene(tmp_path)

    def test_unsupported_camera_model(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        cam = tmp_path / "cameras.txt"
        text = cam.read_text().replace("PINHOLE", "OPENCV")
        cam.write_text(text)
        with pytest.raises(UnsupportedCameraModelError):
            load_scene(tmp_path)

    def test_dangling_point_reference(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        pts = tmp_path / "points3D.txt"
        text = pts.read_text() + "8 0 0 1 0 0 0 0 42 0\n"
        pts.write_text(text)
        with pytest.raises(DanglingReferenceError):
            load_scene(tmp_path)

    def test_simple_pinhole_supported(self, tmp_path):
        save_scene(make_minimal_model(), tmp_path)
        cam = tmp_path / "cameras.txt"
        cam.write_text("1 SIMPLE_PINHOLE 100 100 100 50 50\n")
        model = load_scene(tmp_path)
        K = model.intrinsics[1]
        assert K.fx == K.fy == 100.0
