import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from landmarkloc.detection import DetectionSet
from landmarkloc.errors import InvalidRotationError
from landmarkloc.evaluation import (
    EvalReport,
    ReportRow,
    RunRecord,
    _pose_errors,
    build_report,
    detection_angular_error,
    per_image_csv,
    position_error,
    recall_at,
    report_from_csv,
    report_to_csv,
    report_to_text,
    rotation_error,
)
from landmarkloc.pose import PoseEstimate, PoseTable
from landmarkloc.scene_model import Pose, SceneModel, _valid_poses

from conftest import (
    image_set,
    landmark_set,
    make_intrinsics,
    points_from_pairs,
    project,
    random_rotation,
)


def axis_rotation(axis, deg):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return ScipyRotation.from_rotvec(axis * math.radians(deg)).as_matrix()


class TestRotationError:
    def test_identical(self):
        # arccos near argument 1 has a ~1e-6 deg resolution floor in doubles.
        R = random_rotation(np.random.default_rng(80))
        assert rotation_error(R, R) < 1e-5

    def test_ten_degree_rotation(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            R = random_rotation(rng)
            axis = rng.normal(size=3)
            R_hat = axis_rotation(axis, 10.0) @ R
            assert abs(rotation_error(R, R_hat) - 10.0) < 1e-9

    def test_quaternion_geodesic_oracle(self):
        rng = np.random.default_rng(82)
        for _ in range(10_000):
            R = random_rotation(rng)
            R_hat = random_rotation(rng)
            got = rotation_error(R, R_hat)
            qa = ScipyRotation.from_matrix(R).as_quat()
            qb = ScipyRotation.from_matrix(R_hat).as_quat()
            expected = math.degrees(2.0 * math.acos(min(1.0, abs(float(np.dot(qa, qb))))))
            assert abs(got - expected) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            R, R_hat = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_error(R, R_hat) - rotation_error(R_hat, R)) < 1e-12

    def test_left_invariance(self):
        rng = np.random.default_rng(84)
        for _ in range(100):
            R, R_hat, Q = (random_rotation(rng) for _ in range(3))
            assert abs(
                rotation_error(Q @ R, Q @ R_hat) - rotation_error(R, R_hat)
            ) < 1e-8

    def test_non_rotation_rejected(self):
        with pytest.raises(InvalidRotationError):
            rotation_error(np.eye(3) * 1.01, np.eye(3))
        with pytest.raises(InvalidRotationError):
            rotation_error(np.diag([1.0, 1.0, -1.0]), np.eye(3))

    @pytest.mark.parametrize("R", [
        np.diag([1.0 + 1e-8, 1.0, 1.0]),  # off by 2e-8: within 1e-6, past the pose rule's 1e-9
        np.full((3, 3), np.nan),
    ], ids=["off-by-2e-8", "nan"])
    def test_what_the_pose_rule_refuses_is_no_rotation(self, R):
        assert not _valid_poses(R[None], np.zeros((1, 3)))[0]
        for pair in ((R, np.eye(3)), (np.eye(3), R)):
            with pytest.raises(InvalidRotationError, match="^matrix is not a rotation within 1e-9$"):
                rotation_error(*pair)

    def test_clamping_at_zero(self):
        # A rotation pair whose trace argument drifts just above 1.
        R = random_rotation(np.random.default_rng(85))
        R_hat = R @ axis_rotation([0, 0, 1], 1e-9)
        err = rotation_error(R, R_hat)
        assert 0.0 <= err < 1e-6


class TestPositionError:
    def test_identical(self):
        T = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert position_error(T, T) == 0.0

    def test_unit_offset(self):
        a = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        b = Pose(np.eye(3), np.zeros(3))
        assert abs(position_error(a, b) - 1.0) < 1e-15

    def test_camera_center_oracle(self):
        rng = np.random.default_rng(86)
        for _ in range(500):
            Ra, Rb = random_rotation(rng), random_rotation(rng)
            ta, tb = rng.normal(size=3), rng.normal(size=3)
            got = position_error(Pose(Ra, ta), Pose(Rb, tb))
            expected = np.linalg.norm((-Ra.T @ ta) - (-Rb.T @ tb))
            assert abs(got - expected) < 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(87)
        for _ in range(100):
            poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
            d01 = position_error(poses[0], poses[1])
            d10 = position_error(poses[1], poses[0])
            d02 = position_error(poses[0], poses[2])
            d12 = position_error(poses[1], poses[2])
            assert abs(d01 - d10) < 1e-12
            assert d02 <= d01 + d12 + 1e-12


class TestRecall:
    # recall_at takes the rotation and the position error columns; NaN in
    # both stands for a failed image.
    def test_all_exact(self):
        assert recall_at(np.zeros(5), np.zeros(5)) == 1.0

    def test_one_of_three_passes(self):
        rot, pos = [1.0, 10.0, 1.0], [0.01, 0.01, 0.10]
        assert abs(recall_at(rot, pos, 5.0, 0.05) - 1 / 3) < 1e-15

    def test_failures_count_as_misses(self):
        nan = float("nan")
        assert recall_at([0.0, nan, nan, nan], [0.0, nan, nan, nan]) == 0.25

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            recall_at([], [])

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(88)
        rot, pos = np.array([(rng.uniform(0, 10), rng.uniform(0, 0.1)) for _ in range(200)]).T
        grid = [(2.0, 0.02), (5.0, 0.05), (10.0, 0.10)]
        vals = [recall_at(rot, pos, r, t) for r, t in grid]
        assert vals[0] <= vals[1] <= vals[2]

    def test_monte_carlo_closed_form(self):
        # dR ~ U(0, 10), dt ~ U(0, 0.10) independent: recall@5/0.05 = 0.25.
        rng = np.random.default_rng(89)
        n = 500
        rot, pos = np.array([(rng.uniform(0, 10), rng.uniform(0, 0.10)) for _ in range(n)]).T
        got = recall_at(rot, pos, 5.0, 0.05)
        p = 0.25
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(got - p) < 3 * sigma


class TestDetectionAngularError:
    def test_exact_detection_zero(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        p = np.array([0.3, -0.2, 2.0])
        assert detection_angular_error(project(K, T, p), T, K, p) < 1e-9

    def test_offset_by_focal_is_45_degrees(self):
        K = make_intrinsics(f=100.0, c=50.0)
        T = Pose(np.eye(3), np.zeros(3))
        p = np.array([0.0, 0.0, 3.0])  # projects to the principal point
        assert abs(detection_angular_error(np.array([150.0, 50.0]), T, K, p) - 45.0) < 1e-9

    def test_behind_camera_raises(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            detection_angular_error(np.array([50.0, 50.0]), T, K, np.array([0.0, 0.0, -2.0]))

    def test_median_matches_recomputation(self):
        rng = np.random.default_rng(90)
        K = make_intrinsics(f=200.0, c=50.0)
        T = Pose(random_rotation(rng), rng.normal(size=3))
        angles_direct = []
        dets = []
        pts = []
        n = 0
        while n < 200:
            p = T.inverse().apply(
                np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(1, 4)])
            )
            uv = project(K, T, p)
            if uv is None:
                continue
            uv_noisy = uv + rng.normal(0, 1.0, 2)
            dets.append(uv_noisy)
            pts.append(p)
            n += 1
        for uv, p in zip(dets, pts):
            angles_direct.append(detection_angular_error(uv, T, K, p))
        # Independent recomputation via explicit ray trigonometry.
        recomputed = []
        for uv, p in zip(dets, pts):
            ray = np.array(
                [(uv[0] - K.cx) / K.fx, (uv[1] - K.cy) / K.fy, 1.0]
            )
            ray /= np.linalg.norm(ray)
            cam = T.apply(p)
            cam /= np.linalg.norm(cam)
            recomputed.append(
                math.degrees(math.acos(np.clip(np.dot(ray, cam), -1, 1)))
            )
        assert abs(np.median(angles_direct) - np.median(recomputed)) < 1e-9


def small_gt_model(n_images=4):
    K = make_intrinsics()
    rng = np.random.default_rng(91)
    poses = {i: Pose(random_rotation(rng), rng.normal(size=3)) for i in range(n_images)}
    images = image_set(poses, names=[f"{i}.png" for i in poses])
    return SceneModel({1: K}, images, points_from_pairs({}))


class TestReport:
    def test_exact_run_has_full_recall(self):
        model = small_gt_model()
        estimates = {
            iid: PoseEstimate(model.images.pose(iid), frozenset({1}), 1, 0.0, "ok")
            for iid in model.images.ids.tolist()
        }
        report = build_report([RunRecord("exact", PoseTable.of(estimates), model)])
        assert report.rows[0].recall == 1.0
        assert report.rows[0].n_ok == 4
        assert report.rows[0].median_rot_deg < 1e-9

    def test_mismatched_images_raise(self):
        model = small_gt_model()
        estimates = {99: PoseEstimate(None, frozenset(), 0, float("nan"), "no_consensus")}
        with pytest.raises(ValueError):
            _pose_errors(PoseTable.of(estimates), model.images)

    def test_csv_roundtrip_identical(self):
        model = small_gt_model()
        estimates = {
            iid: PoseEstimate(model.images.pose(iid), frozenset(), 1, 0.1, "ok")
            for iid in model.images.ids.tolist()
        }
        estimates[0] = PoseEstimate(None, frozenset(), 2, float("nan"), "no_consensus")
        report = build_report([RunRecord("run-a", PoseTable.of(estimates), model)])
        text = report_to_csv(report)
        again = report_to_csv(report_from_csv(text))
        assert text == again

    def test_csv_roundtrip_of_labels(self):
        # Labels without a comma or a line break that do not start with `#`
        # and are not `label` come back as they went in.
        rng = np.random.default_rng(26)
        alphabet = list("ab Z09_-.;=#/\\\"'\t\u00e9\u00a0") + ["label"]
        labels = ["", " #", "labels", "label ", "a\x00b"] + [
            "".join(rng.choice(alphabet, size=rng.integers(1, 12))) for _ in range(200)]
        labels = [label for label in labels if not label.startswith("#") and label != "label"]
        rows = [ReportRow(label, 10, k % 11, k / 200, 0.5 * k, 1e-3 * k, 0.25, 0.01)
                for k, label in enumerate(labels)]
        report = EvalReport(rows, 2.5, 0.125)
        again = report_from_csv(report_to_csv(report))
        assert again == report

    @pytest.mark.parametrize("label", ["x,y", "a\nb", "a\rb", "a\r\n", "a\x0bb", "a\x1cb",
                                       "a\u2028b", "#x", "#", "label"])
    def test_csv_refuses_labels_it_cannot_read_back(self, label):
        report = EvalReport([ReportRow(label, 1, 1, 1.0, 0.0, 0.0, 0.0, 0.1)])
        with pytest.raises(ValueError, match="label"):
            report_to_csv(report)

    def test_text_table_lists_rows(self):
        model = small_gt_model()
        estimates = {
            iid: PoseEstimate(model.images.pose(iid), frozenset(), 1, 0.1, "ok")
            for iid in model.images.ids.tolist()
        }
        poses = PoseTable.of(estimates)
        report = build_report([RunRecord("a", poses, model), RunRecord("b", poses, model)])
        text = report_to_text(report)
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 4

    def test_per_image_csv(self):
        model = small_gt_model(2)
        estimates = {
            0: PoseEstimate(model.images.pose(0), frozenset(), 1, 0.0, "ok"),
            1: PoseEstimate(None, frozenset(), 1, float("nan"), "insufficient"),
        }
        text = per_image_csv(RunRecord("run", PoseTable.of(estimates), model))
        lines = text.splitlines()
        assert lines[0] == "image_id,rot_err_deg,pos_err_m,status"
        assert lines[1].startswith("0,") and lines[1].endswith(",ok")
        assert lines[2] == "1,nan,nan,insufficient"

    def test_angular_error_column(self):
        model = small_gt_model(1)
        K = model.intrinsics[1]
        T = model.images.pose(0)
        p_world = T.inverse().apply(np.array([0.0, 0.0, 2.0]))
        ls = landmark_set(p_world)
        uv = project(K, T, p_world)
        dets = {0: DetectionSet(0, [0], [uv], [1.0])}
        estimates = {0: PoseEstimate(T, frozenset(), 1, 0.0, "ok")}
        report = build_report(
            [RunRecord("run", PoseTable.of(estimates), model, detections=dets, landmarks=ls)]
        )
        assert report.rows[0].median_angular_deg < 1e-9
