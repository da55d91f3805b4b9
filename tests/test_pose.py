import itertools
import math

import numpy as np
import pytest

from landmarkloc.detection import Detection, DetectionSet, simulate_detections_labeled
import landmarkloc.pose as pose_module
from landmarkloc.errors import DanglingReferenceError, DegeneracyError, MalformedFileError
from landmarkloc.landmarks import Landmark, LandmarkSet
from landmarkloc.pose import (
    Correspondence,
    PoseEstimate,
    SolverConfig,
    _apply_increment,
    compute_weights,
    load_poses,
    localize,
    p3p_solve,
    pose_residuals_jacobian,
    prosac_estimate,
    refine_pose,
    refine_weighted,
    reprojection_errors,
    save_poses,
)
from landmarkloc.scene_model import Intrinsics, Pose, project, project_many
from landmarkloc.synth import SynthConfig, generate_scene

from conftest import p3p_in_blocks, random_rotation
from lm_reference import pose_residuals_jacobian_ref, refine_pose_ref
from quartic_p3p import quartic_p3p_solve
from scalar_lambda_twist import _cubic_root as scalar_cubic_root, prosac_ref

K = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def rot_angle_deg(Ra, Rb):
    """Angle between rotations via the Frobenius form (stable near zero)."""
    d = np.linalg.norm(Ra - Rb) / (2.0 * math.sqrt(2.0))
    return math.degrees(2.0 * math.asin(min(1.0, d)))


def center_dist(Ta, Tb):
    return float(np.linalg.norm(Ta.center - Tb.center))


def pnp_scene(rng, n=30, noise=0.0, outlier_frac=0.0):
    """Ground-truth pose plus correspondences with optional planted noise.

    Points fill the whole frustum (room-scale depths) so the pose is well
    conditioned. Returns (pose, correspondences, outlier landmark ids);
    confidences are coupled to the actual noise magnitude as the simulator
    does.
    """
    R = random_rotation(rng)
    t = rng.normal(size=3)
    T = Pose(R, t)
    z = rng.uniform(2.0, 6.0, n)
    cam = np.column_stack(
        [rng.uniform(-0.62, 0.62, n) * z, rng.uniform(-0.46, 0.46, n) * z, z]
    )
    world = (cam - t) @ R
    corrs = []
    outliers = set()
    for i in range(n):
        truth = project(K, T, world[i])
        assert truth is not None
        if rng.random() < outlier_frac:
            uv = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
            v = float(rng.uniform(0.31, 0.7))
            outliers.add(i)
        elif noise > 0:
            delta = rng.normal(0, noise, size=2)
            uv = truth + delta
            v = float(np.clip(1 - np.linalg.norm(delta) / (4 * noise), 0.31, 1.0))
        else:
            uv = truth
            v = 1.0
        corrs.append(Correspondence(i, uv, world[i], v, v ** 2))
    return T, corrs, outliers


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0}, {"max_iterations": -5}, {"min_inliers": 3},
        {"confidence": 0.0}, {"confidence": -0.5}, {"confidence": 1.5},
        {"threshold_px": 0.0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_accepts_bounds(self):
        SolverConfig(max_iterations=1, min_inliers=4, confidence=1.0)

    def test_four_inliers_refine(self):
        # The smallest consensus min_inliers admits is one refine_weighted accepts.
        rng = np.random.default_rng(79)
        T, corrs, _ = pnp_scene(rng, n=4)
        ls = LandmarkSet([Landmark(c.landmark_id, 100 + c.landmark_id, c.xyz, 1.0)
                          for c in corrs])
        dets = DetectionSet(0, [Detection(c.landmark_id, c.uv, c.v) for c in corrs])
        est = localize(dets, ls, K, SolverConfig(min_inliers=4), seed=0)
        assert est.status == "ok" and len(est.inliers) == 4
        assert est.refine is not None


class TestComputeWeights:
    def make(self, v):
        ls = LandmarkSet([Landmark(0, 0, np.array([0.0, 0, 5]), 1.0)])
        dets = DetectionSet(0, [Detection(0, np.array([320.0, 240.0]), v)])
        return ls, dets

    def test_full_confidence(self):
        ls, dets = self.make(1.0)
        assert compute_weights(dets, ls, e=3.0)[0].w == 1.0

    def test_squared(self):
        ls, dets = self.make(0.5)
        assert compute_weights(dets, ls, e=2.0)[0].w == 0.25

    def test_exponent_zero_uniform(self):
        ls, dets = self.make(0.4)
        assert compute_weights(dets, ls, e=0.0)[0].w == 1.0

    def test_unknown_landmark(self):
        ls, _ = self.make(1.0)
        dets = DetectionSet(0, [Detection(99, np.array([1.0, 1.0]), 0.9)])
        with pytest.raises(DanglingReferenceError):
            compute_weights(dets, ls)

    def test_negative_landmark_id(self):
        # Ids index the set, and -1 must not wrap round to its last landmark.
        ls, _ = self.make(1.0)
        dets = DetectionSet(0, [Detection(-1, np.array([1.0, 1.0]), 0.9)])
        with pytest.raises(DanglingReferenceError):
            compute_weights(dets, ls)


class TestP3P:
    def sample_corrs(self, rng, T):
        cam = np.column_stack(
            [rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.2, 1.2, 3), rng.uniform(3, 8, 3)]
        )
        world = (cam - T.t) @ T.R
        corrs = []
        for i in range(3):
            uv = project(K, T, world[i])
            if uv is None:
                return None
            corrs.append(Correspondence(i, uv, world[i], 1.0, 1.0))
        return corrs

    def test_forward_projection_oracle(self):
        rng = np.random.default_rng(60)
        found = trials = 0
        while trials < 1000:
            T = Pose(random_rotation(rng), rng.normal(size=3))
            corrs = self.sample_corrs(rng, T)
            if corrs is None:
                continue
            try:
                poses = p3p_solve(corrs, K)
            except DegeneracyError:
                continue
            trials += 1
            assert len(poses) <= 4
            if any(
                rot_angle_deg(p.R, T.R) < math.degrees(1e-8)
                and np.abs(p.t - T.t).max() < 1e-8
                for p in poses
            ):
                found += 1
        assert found == trials

    def test_solutions_reproject_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            T = Pose(random_rotation(rng), rng.normal(size=3))
            corrs = self.sample_corrs(rng, T)
            if corrs is None:
                continue
            for pose in p3p_solve(corrs, K):
                uv = np.array([c.uv for c in corrs])
                xyz = np.array([c.xyz for c in corrs])
                assert reprojection_errors(pose, uv, xyz, K).max() < 1e-6

    def test_equilateral_configuration(self):
        s = 2.0
        pts = np.array(
            [[0.0, s / math.sqrt(3), 5.0],
             [-s / 2, -s / (2 * math.sqrt(3)), 5.0],
             [s / 2, -s / (2 * math.sqrt(3)), 5.0]]
        )
        T = Pose(np.eye(3), np.zeros(3))
        corrs = [Correspondence(i, project(K, T, p), p, 1.0, 1.0) for i, p in enumerate(pts)]
        poses = p3p_solve(corrs, K)
        assert poses
        uv = np.array([c.uv for c in corrs])
        for pose in poses:
            assert reprojection_errors(pose, uv, pts, K).max() < 1e-6

    def test_collinear_degeneracy(self):
        pts = [np.array([0.0, 0, 5]), np.array([0.5, 0, 5]), np.array([1.0, 0, 5])]
        T = Pose(np.eye(3), np.zeros(3))
        corrs = [Correspondence(i, project(K, T, p), p, 1.0, 1.0) for i, p in enumerate(pts)]
        with pytest.raises(DegeneracyError):
            p3p_solve(corrs, K)


def pose_key(T):
    return np.concatenate([T.R.ravel(), T.t])


def nearest(T, poses):
    """Largest element difference between T and the nearest of poses."""
    return min((np.abs(pose_key(T) - pose_key(p)).max() for p in poses), default=np.inf)


class TestLambdaTwist:
    """p3p_solve (Lambda Twist) against the quartic solver it replaced."""

    def test_matches_quartic_oracle(self):
        # The oracle referees a triple only where it is accurate itself: its
        # solution nearest the true pose lies within 1e-10 of it, and no two
        # of its solutions lie within 1e-3 (near a double root two float64
        # solvers may differ by more than 1e-9). That leaves out about 1 in
        # 1000 triples; on some of those the oracle is 1e-9 to 0.5 off the
        # true pose or misses it. On every triple p3p_solve must find it.
        # Lambda Twist's side runs in blocks of 64, as PROSAC runs it.
        rng = np.random.default_rng(90)
        degenerate, triples = [], []  # (true pose, correspondences, oracle's poses)
        while len(triples) < 10_000:
            T = Pose(random_rotation(rng), rng.normal(size=3))
            corrs = TestP3P().sample_corrs(rng, T)
            if corrs is None:
                continue
            try:
                triples.append((T, corrs, quartic_p3p_solve(corrs, K)))
            except DegeneracyError:
                degenerate.append(corrs)
        assert all(new is None for new in p3p_in_blocks(degenerate, K))
        refereed = 0
        for (T, _, old), new in zip(triples, p3p_in_blocks([c for _, c, _ in triples], K)):
            assert new is not None
            assert nearest(T, new) < 1e-9
            if nearest(T, old) >= 1e-10 or any(
                nearest(p, old[i + 1:]) < 1e-3 for i, p in enumerate(old)
            ):
                continue
            refereed += 1
            assert all(nearest(p, new) < 1e-9 for p in old)
            assert all(nearest(p, old) < 1e-9 for p in new)
        assert refereed >= 9_950

    def test_prosac_same_as_with_quartic_oracle(self):
        # The quartic solver runs through the one-sample PROSAC loop that the
        # block kernel replaced.
        rng = np.random.default_rng(91)
        scenes = [pnp_scene(rng, n=40, noise=1.0, outlier_frac=0.3)[1] for _ in range(20)]
        runs = [prosac_estimate(corrs, K, SolverConfig(min_inliers=10), seed=i)
                for i, corrs in enumerate(scenes)]
        calls = []

        def quartic(sample, K):
            calls.append(sample)
            return quartic_p3p_solve(sample, K)

        for i, (corrs, new) in enumerate(zip(scenes, runs)):
            old = prosac_ref(corrs, K, SolverConfig(min_inliers=10), seed=i, solve=quartic)
            assert new.status == old.status == "ok"
            assert new.inliers == old.inliers
            assert new.num_iterations == old.num_iterations
            assert np.abs(pose_key(new.pose) - pose_key(old.pose)).max() < 1e-8
        assert len(calls) == sum(run.num_iterations for run in runs)

    @pytest.mark.parametrize("coeffs, root", [
        ((0.0, -1.0, 0.0), -1.0),             # (x + 1) x (x - 1): the smallest of three
        ((-6.0, 11.0, -6.0), 1.0),            # (x - 1)(x - 2)(x - 3)
        ((0.0, -3.0, 2.0), -2.0),             # (x - 1)^2 (x + 2)
        ((0.0, 1.0, 1.0), -0.6823278038280193),  # one real root
    ])
    def test_cubic_root_is_cubicks_pick(self, coeffs, root):
        # Lambda Twist's cubick starts Newton beside the local maximum when
        # the cubic is positive there, so with three real roots it lands on
        # the smallest one, not the largest.
        assert scalar_cubic_root(*coeffs) == pytest.approx(root, abs=1e-6)
        got, zero_div = pose_module._cubic_roots(*np.array(coeffs)[:, None])
        assert got.tolist() == [scalar_cubic_root(*coeffs)] and not zero_div.any()

    def test_symmetric_triple_in_every_order(self):
        # The equilateral triple seen head-on makes det(D2) exactly 0 for
        # some orders, which puts the cubic's root at infinity.
        s = 2.0
        pts = np.array(
            [[0.0, s / math.sqrt(3), 5.0],
             [-s / 2, -s / (2 * math.sqrt(3)), 5.0],
             [s / 2, -s / (2 * math.sqrt(3)), 5.0]]
        )
        T = Pose(np.eye(3), np.zeros(3))
        for order in itertools.permutations(range(3)):
            corrs = [Correspondence(i, project(K, T, pts[i]), pts[i], 1.0, 1.0)
                     for i in order]
            assert nearest(T, p3p_solve(corrs, K)) < 1e-9

    def test_stacked_errors_match_reprojection_errors_bit_for_bit(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            poses = [Pose(random_rotation(rng), rng.normal(size=3))
                     for _ in range(int(rng.integers(1, 5)))]
            behind = poses[0].inverse().apply(np.array([0.1, 0.2, -1.0]))
            xyz = np.vstack([rng.normal(size=(int(rng.integers(1, 300)), 3)) * 5.0, behind])
            uv = rng.uniform(0.0, 640.0, size=(len(xyz), 2))
            stacked = pose_module._stacked_errors(np.array([p.R for p in poses]),
                                                  np.array([p.t for p in poses]), uv, xyz, K)
            for pose, row in zip(poses, stacked):
                assert np.array_equal(row, reprojection_errors(pose, uv, xyz, K))
                res = project_many(K, pose, xyz)[0] - uv
                ref = np.hypot(res[:, 0], res[:, 1])
                ref[np.isnan(ref)] = np.inf
                assert np.array_equal(row, ref)
            assert np.isinf(stacked[0, -1])


class TestProsac:
    def test_noiseless_consensus(self):
        rng = np.random.default_rng(62)
        T, corrs, _ = pnp_scene(rng, n=20)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        assert est.status == "ok"
        assert len(est.inliers) == 20
        assert rot_angle_deg(est.pose.R, T.R) < math.degrees(1e-6)
        assert np.abs(est.pose.t - T.t).max() < 1e-6

    def test_insufficient(self):
        rng = np.random.default_rng(63)
        _, corrs, _ = pnp_scene(rng, n=3)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        assert est.status == "insufficient"

    def test_planted_outliers_excluded(self):
        rng = np.random.default_rng(64)
        clean = 0
        for trial in range(100):
            T, corrs, outliers = pnp_scene(rng, n=40, noise=1.0, outlier_frac=0.3)
            est = prosac_estimate(corrs, K, SolverConfig(min_inliers=10), seed=trial)
            assert est.status == "ok"
            assert rot_angle_deg(est.pose.R, T.R) < 0.5
            assert center_dist(est.pose, T) < 0.02
            if not (est.inliers & outliers):
                clean += 1
        # A uniform outlier occasionally lands within the pixel threshold of
        # the true pose; those rare collisions are indistinguishable inliers.
        assert clean >= 99

    def test_prosac_not_slower_than_ransac(self):
        rng = np.random.default_rng(65)
        iters_p, iters_r = [], []
        for trial in range(100):
            T, corrs, _ = pnp_scene(rng, n=40, noise=0.5, outlier_frac=0.45)
            cfg_p = SolverConfig(min_inliers=8)
            cfg_r = SolverConfig(min_inliers=8, sampler="ransac")
            iters_p.append(prosac_estimate(corrs, K, cfg_p, seed=trial).num_iterations)
            iters_r.append(prosac_estimate(corrs, K, cfg_r, seed=trial).num_iterations)
        assert np.median(iters_p) <= np.median(iters_r)

    def test_determinism(self):
        rng = np.random.default_rng(66)
        _, corrs, _ = pnp_scene(rng, n=30, noise=1.0, outlier_frac=0.2)
        a = prosac_estimate(corrs, K, SolverConfig(), seed=5)
        b = prosac_estimate(corrs, K, SolverConfig(), seed=5)
        assert a.inliers == b.inliers
        assert np.array_equal(a.pose.R, b.pose.R)
        assert np.array_equal(a.pose.t, b.pose.t)
        assert a.num_iterations == b.num_iterations

    def test_exponent_preserves_sampling_order(self):
        # v -> v^e is monotone for e > 0, so the PROSAC ranking and thus the
        # sampled hypotheses are identical across exponents.
        rng = np.random.default_rng(67)
        _, corrs, _ = pnp_scene(rng, n=30, noise=1.0, outlier_frac=0.2)
        def with_e(e):
            return [
                Correspondence(c.landmark_id, c.uv, c.xyz, c.v, c.v ** e) for c in corrs
            ]
        a = prosac_estimate(with_e(1.0), K, SolverConfig(), seed=9)
        b = prosac_estimate(with_e(2.0), K, SolverConfig(), seed=9)
        assert a.inliers == b.inliers
        assert a.num_iterations == b.num_iterations
        assert np.array_equal(a.pose.R, b.pose.R)


class TestReprojectionErrors:
    def test_behind_camera_is_inf(self):
        T = Pose(np.eye(3), np.zeros(3))
        xyz = np.array([[0.1, 0.0, 2.0], [0.1, 0.0, 0.0], [0.1, 0.0, -2.0]])
        uv = np.full((3, 2), 300.0)
        err = reprojection_errors(T, uv, xyz, K)
        assert np.isfinite(err[0])
        assert np.isinf(err[1:]).all() and (err[1:] > 0).all()


class TestRefine:
    def test_fixed_point_at_truth(self):
        rng = np.random.default_rng(68)
        T, corrs, _ = pnp_scene(rng, n=15)
        rr = refine_weighted(T, corrs, K)
        assert rr.cost_trace[0] < 1e-18
        assert rot_angle_deg(rr.pose.R, T.R) < 1e-12
        assert np.abs(rr.pose.t - T.t).max() < 1e-12

    def test_recovers_from_perturbation(self):
        rng = np.random.default_rng(69)
        for _ in range(20):
            T, corrs, _ = pnp_scene(rng, n=15)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            dR = np.array(
                [[math.cos(math.radians(1)), -math.sin(math.radians(1)), 0],
                 [math.sin(math.radians(1)), math.cos(math.radians(1)), 0],
                 [0, 0, 1]]
            )
            start = Pose(dR @ T.R, dR @ T.t + np.array([0.05, 0.0, 0.0]))
            rr = refine_weighted(start, corrs, K)
            assert rot_angle_deg(rr.pose.R, T.R) < math.degrees(1e-8)
            assert np.abs(rr.pose.t - T.t).max() < 1e-8

    def test_jacobian_matches_finite_differences(self):
        from landmarkloc.pose import _apply_increment

        rng = np.random.default_rng(70)
        h = 1e-6
        for _ in range(100):
            T, corrs, _ = pnp_scene(rng, n=8, noise=2.0)
            uv = np.array([c.uv for c in corrs])
            xyz = np.array([c.xyz for c in corrs])
            _, J = pose_residuals_jacobian(T, uv, xyz, K)
            J_fd = np.zeros_like(J)
            for k in range(6):
                step = np.zeros(6)
                step[k] = h
                rp, _ = pose_residuals_jacobian(_apply_increment(T, step), uv, xyz, K)
                rm, _ = pose_residuals_jacobian(_apply_increment(T, -step), uv, xyz, K)
                J_fd[:, k] = (rp - rm) / (2 * h)
            rel = np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1.0)
            assert rel < 1e-5

    def test_jacobian_matches_per_point_product(self):
        # Reference: per point, d(uv)/d(cam) @ [-[cam]_x, I].
        from landmarkloc.scene_model import skew

        rng = np.random.default_rng(73)
        for _ in range(20):
            T, corrs, _ = pnp_scene(rng, n=12, noise=2.0)
            uv = np.array([c.uv for c in corrs])
            xyz = np.array([c.xyz for c in corrs])
            w = rng.uniform(0.1, 1.0, len(corrs))
            _, J = pose_residuals_jacobian(T, uv, xyz, K, weights=w)
            for i, (x, y, z) in enumerate(T.apply(xyz)):
                Jp = np.array([[K.fx / z, 0.0, -K.fx * x / z**2],
                               [0.0, K.fy / z, -K.fy * y / z**2]])
                Jc = np.hstack([-skew(np.array([x, y, z])), np.eye(3)])
                ref = math.sqrt(w[i]) * (Jp @ Jc)
                assert np.abs(J[2 * i:2 * i + 2] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cost_trace_monotone(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            T, corrs, _ = pnp_scene(rng, n=20, noise=2.0)
            start = Pose(T.R, T.t + rng.normal(0, 0.05, size=3))
            rr = refine_weighted(start, corrs, K)
            trace = np.array(rr.cost_trace)
            assert (np.diff(trace) <= 0).all()

    def test_rejects_step_behind_camera(self):
        from landmarkloc.pose import _apply_increment

        # Far points are observed from the identity pose; refinement starts
        # 0.1 m behind it. A near point with negligible weight sits in front
        # of the start but behind the identity pose, so the Gauss-Newton step
        # toward the far points' optimum would cross it over.
        rng = np.random.default_rng(5)
        n = 20
        z = rng.uniform(2.0, 6.0, n)
        far = np.column_stack(
            [rng.uniform(-0.6, 0.6, n) * z, rng.uniform(-0.45, 0.45, n) * z, z]
        )
        near = np.array([[0.05, 0.0, -0.05]])
        start = Pose(np.eye(3), np.array([0.0, 0.0, 0.1]))
        xyz = np.vstack([far, near])
        uv = np.vstack([project_many(K, Pose(np.eye(3), np.zeros(3)), far)[0],
                        project_many(K, start, near)[0]])
        w = np.append(np.ones(n), 1e-12)

        res, J = pose_residuals_jacobian(start, uv, xyz, K, weights=w)
        gauss_newton = _apply_increment(start, np.linalg.solve(J.T @ J, -J.T @ res))
        assert gauss_newton.apply(near[0])[2] < 0

        rr = refine_pose(start, uv, xyz, w, K)
        assert rr.pose.apply(near[0])[2] > 0
        trace = np.array(rr.cost_trace)
        assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()
        assert trace[-1] < trace[0]

    def test_matches_reference_call_for_call(self, monkeypatch):
        # Every LM call of fixed-seed localize runs (the PROSAC refit and the
        # final pass, weighted and unweighted), a start with a point behind the
        # camera and a step that would cross one, against the code that
        # projected each accepted pose twice.
        scene = generate_scene(SynthConfig(num_landmark_sites=150, num_cameras=20,
                                           camera_margin=1.4, min_target_dist=3.0, seed=4))
        dets, _ = simulate_detections_labeled(
            scene.model, scene.gt_landmarks, scene.gt_visibility, 1.0, 0.3, seed=8)
        Ks = scene.model.intrinsics[1]
        calls = []

        def recording(*args):
            calls.append(args)
            return refine_pose(*args)

        monkeypatch.setattr(pose_module, "refine_pose", recording)
        for refinement in ("unweighted", "weighted"):
            cfg = SolverConfig(refinement=refinement)
            for iid in sorted(dets):
                localize(dets[iid], scene.gt_landmarks, Ks, cfg, seed=iid)
        assert len(calls) >= 60
        # The scene of test_rejects_step_behind_camera, from its start and
        # from the identity pose, where the near point is behind the camera.
        rng = np.random.default_rng(5)
        z = rng.uniform(2.0, 6.0, 20)
        xyz = np.vstack([np.column_stack([rng.uniform(-0.6, 0.6, 20) * z,
                                          rng.uniform(-0.45, 0.45, 20) * z, z]),
                         [[0.05, 0.0, -0.05]]])
        uv = project_many(K, Pose(np.eye(3), np.zeros(3)), xyz)[0]
        uv[-1] = project_many(K, Pose(np.eye(3), [0.0, 0.0, 0.1]), xyz[-1:])[0]
        w = np.append(np.ones(20), 1e-12)
        for tz in (0.1, 0.0):
            calls.append((Pose(np.eye(3), [0.0, 0.0, tz]), uv, xyz, w, K))

        rejected = behind = 0
        for args in calls:
            trials = []

            def counting(pose, step):
                trials.append(step)
                return _apply_increment(pose, step)

            got, ref = refine_pose(*args), refine_pose_ref(*args, trial=counting)
            assert (got.pose.R == ref.pose.R).all() and (got.pose.t == ref.pose.t).all()
            assert got.cost_trace == ref.cost_trace
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
            for a, b in zip(pose_residuals_jacobian(*args[:3], args[4], args[3]),
                            pose_residuals_jacobian_ref(*args[:3], args[4], args[3])):
                assert np.array_equal(a, b, equal_nan=True)
            rejected += len(trials) > len(ref.cost_trace) - 1
            behind += ref.cost_trace == [np.inf]
        unweighted = sum(bool((args[3] == 1.0).all()) for args in calls)
        assert 0 < unweighted < len(calls)
        assert rejected >= 2 and behind == 1

    def test_too_few_inliers(self):
        rng = np.random.default_rng(72)
        T, corrs, _ = pnp_scene(rng, n=3)
        with pytest.raises(ValueError):
            refine_weighted(T, corrs, K)


class TestLocalize:
    def make_scene(self, rng, n=20, noise=0.0, outlier_frac=0.0):
        T, corrs, outliers = pnp_scene(rng, n=n, noise=noise, outlier_frac=outlier_frac)
        ls = LandmarkSet(
            [Landmark(c.landmark_id, 1000 + c.landmark_id, c.xyz, 1.0) for c in corrs]
        )
        dets = DetectionSet(0, [Detection(c.landmark_id, c.uv, c.v) for c in corrs])
        return T, ls, dets, outliers

    def test_noiseless_exact(self):
        rng = np.random.default_rng(73)
        T, ls, dets, _ = self.make_scene(rng, n=12)
        est = localize(dets, ls, K, SolverConfig(), seed=0)
        assert est.status == "ok"
        assert len(est.inliers) == 12
        assert rot_angle_deg(est.pose.R, T.R) < 1e-6
        assert center_dist(est.pose, T) < 1e-8

    def test_three_detections_insufficient(self):
        rng = np.random.default_rng(74)
        _, ls, dets, _ = self.make_scene(rng, n=3)
        est = localize(dets, ls, K, SolverConfig(), seed=0)
        assert est.status == "insufficient"

    def test_weighted_beats_unweighted_on_coupled_noise(self):
        rng = np.random.default_rng(75)
        dt_w, dt_u = [], []
        for trial in range(150):
            T, ls, dets, _ = self.make_scene(rng, n=30, noise=2.0, outlier_frac=0.1)
            cfg_w = SolverConfig(e=2.0, min_inliers=8)
            cfg_u = SolverConfig(e=0.0, min_inliers=8, refinement="unweighted")
            ew = localize(dets, ls, K, cfg_w, seed=trial)
            eu = localize(dets, ls, K, cfg_u, seed=trial)
            if ew.status == "ok" and eu.status == "ok":
                dt_w.append(center_dist(ew.pose, T))
                dt_u.append(center_dist(eu.pose, T))
        assert len(dt_w) > 100
        assert np.median(dt_w) <= np.median(dt_u)

    def test_refinement_none_returns_prosac_pose(self):
        rng = np.random.default_rng(76)
        _, ls, dets, _ = self.make_scene(rng, n=15)
        est = localize(dets, ls, K, SolverConfig(refinement="none"), seed=0)
        assert est.status == "ok"
        assert est.refine is None


class TestPoseIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(77)
        T, corrs, _ = pnp_scene(rng, n=15)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        failed = PoseEstimate(None, frozenset(), 4, float("nan"), "no_consensus")
        path = tmp_path / "poses.txt"
        save_poses({0: est, 1: failed}, path, sec_per_image=0.01)
        loaded, meta = load_poses(path)
        assert meta["sec_per_image"] == 0.01
        assert meta["num_inliers"][0] == len(est.inliers)
        assert loaded[1].status == "no_consensus"
        assert loaded[1].pose is None
        assert np.abs(loaded[0].pose.R - est.pose.R).max() < 1e-12
        assert np.abs(loaded[0].pose.t - est.pose.t).max() < 1e-15

    def test_save_deterministic(self, tmp_path):
        rng = np.random.default_rng(78)
        _, corrs, _ = pnp_scene(rng, n=15)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_poses({0: est}, a)
        save_poses({0: est}, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("line", [
        "x 1 0 0 0 0 0 1 ok 12 0.5",             # image id
        "1 1 0 0 0 0 0 1 ok 12.5 0.5",           # num_inliers
        "0 1 0 0 0 0 0 1 ok 12 0.5",             # image id 0 again
        "1 1 0 0 0 0 0 inf ok 12 0.5",           # non-finite translation
        "1 0 0 0 0 0 0 1 ok 12 0.5",             # zero quaternion
        "1 1 0 0 0 0 0 1 ok 12 x",               # mean_reproj_px
        "# sec_per_image=abc",                   # header
    ])
    def test_bad_line_reports_location(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text("# header\n0 1 0 0 0 0 0 1 ok 12 0.5\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"poses\.txt:3: "):
            load_poses(path)
