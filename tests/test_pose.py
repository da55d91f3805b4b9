import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from landmarkloc.detection import DetectionSet, simulate_detections_labeled
import landmarkloc.pose as pose_module
from landmarkloc.errors import DanglingReferenceError, DegeneracyError, MalformedFileError
from landmarkloc.pose import (
    PoseEstimate,
    PoseTable,
    SolverConfig,
    _apply_increment,
    _first_block,
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
from landmarkloc.scene_model import ImageSet, Intrinsics, Pose, project_many
from landmarkloc.synth import SynthConfig, generate_scene

from conftest import correspondences, landmark_set, p3p_in_blocks, project, random_rotation
from lm_reference import localize_two_pass, pose_residuals_jacobian_ref, refine_pose_ref
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
    uvs, vs = [], []
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
        uvs.append(uv)
        vs.append(v)
    return T, correspondences(uvs, world, vs, [v ** 2 for v in vs]), outliers


@pytest.fixture(scope="module")
def outlier_draws():
    """A synth room and two detection draws on it, 1 px noise and 30%
    outliers: (scene, [draw 8, draw 9])."""
    scene = generate_scene(SynthConfig(num_landmark_sites=150, num_cameras=20,
                                       camera_margin=1.4, min_target_dist=3.0, seed=4))
    return scene, [simulate_detections_labeled(scene.model, scene.gt_landmarks,
                                               scene.gt_visibility, 1.0, 0.3, seed=draw)[0]
                   for draw in (8, 9)]


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
        ls = landmark_set(corrs.xyz, first_source=100)
        dets = DetectionSet(0, corrs.landmark_ids, corrs.uv, corrs.v)
        est = localize(dets, ls, K, SolverConfig(min_inliers=4), seed=0)
        assert est.status == "ok" and len(est.inliers) == 4
        assert est.refine is not None


class TestComputeWeights:
    def make(self, v):
        ls = landmark_set([0.0, 0, 5])
        dets = DetectionSet(0, [0], [[320.0, 240.0]], [v])
        return ls, dets

    def test_full_confidence(self):
        ls, dets = self.make(1.0)
        assert compute_weights(dets, ls, e=3.0).w.tolist() == [1.0]

    def test_squared(self):
        ls, dets = self.make(0.5)
        assert compute_weights(dets, ls, e=2.0).w.tolist() == [0.25]

    def test_exponent_zero_uniform(self):
        ls, dets = self.make(0.4)
        assert compute_weights(dets, ls, e=0.0).w.tolist() == [1.0]

    def test_unknown_landmark(self):
        ls, _ = self.make(1.0)
        dets = DetectionSet(0, [99], [[1.0, 1.0]], [0.9])
        with pytest.raises(DanglingReferenceError):
            compute_weights(dets, ls)

    def test_negative_landmark_id(self):
        # Ids index the set, and -1 must not wrap round to its last landmark.
        ls, _ = self.make(1.0)
        dets = DetectionSet(0, [-1], [[1.0, 1.0]], [0.9])
        with pytest.raises(DanglingReferenceError):
            compute_weights(dets, ls)


class TestP3P:
    def sample_corrs(self, rng, T):
        cam = np.column_stack(
            [rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.2, 1.2, 3), rng.uniform(3, 8, 3)]
        )
        world = (cam - T.t) @ T.R
        uv = [project(K, T, p) for p in world]
        return None if any(x is None for x in uv) else correspondences(uv, world)

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
                assert reprojection_errors(pose, corrs.uv, corrs.xyz, K).max() < 1e-6

    def test_equilateral_configuration(self):
        s = 2.0
        pts = np.array(
            [[0.0, s / math.sqrt(3), 5.0],
             [-s / 2, -s / (2 * math.sqrt(3)), 5.0],
             [s / 2, -s / (2 * math.sqrt(3)), 5.0]]
        )
        T = Pose(np.eye(3), np.zeros(3))
        corrs = correspondences([project(K, T, p) for p in pts], pts)
        poses = p3p_solve(corrs, K)
        assert poses
        for pose in poses:
            assert reprojection_errors(pose, corrs.uv, pts, K).max() < 1e-6

    def test_collinear_degeneracy(self):
        pts = [np.array([0.0, 0, 5]), np.array([0.5, 0, 5]), np.array([1.0, 0, 5])]
        T = Pose(np.eye(3), np.zeros(3))
        corrs = correspondences([project(K, T, p) for p in pts], pts)
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
        with np.errstate(all="ignore"):  # as in _p3p_block: masked lanes may warn
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
            corrs = correspondences([project(K, T, pts[i]) for i in order], pts[list(order)],
                                    ids=order)
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

    def test_blocks_hold_only_samples_the_stop_uses(self, monkeypatch):
        # A block is cut to the samples the current stop can still use, so
        # every block but the last is replayed in full, and only samples that
        # the stop moves past while a block replays are solved for nothing.
        # Drawn whole, blocks solved 64% more samples than these scenes use.
        p3p_block, blocks = pose_module._p3p_block, []

        def counting(P, *args):
            blocks.append(len(P))
            return p3p_block(P, *args)

        monkeypatch.setattr(pose_module, "_p3p_block", counting)
        rng = np.random.default_rng(80)
        lanes = used = calls = 0
        for trial in range(100):
            _, corrs, _ = pnp_scene(rng, n=40, noise=1.0, outlier_frac=0.3)
            blocks.clear()
            cfg = SolverConfig(min_inliers=10, refinement="none")
            est = prosac_estimate(corrs, K, cfg, seed=trial)
            assert sum(blocks[:-1]) < est.num_iterations <= sum(blocks)
            lanes, used = lanes + sum(blocks), used + est.num_iterations
            calls += len(blocks)
        assert used >= 1000 and lanes <= 1.05 * used
        # Once a hypothesis sets the stop, the rest of it is one block: 199
        # calls, where doubling blocks made 220.
        assert calls <= 205

    def test_block_plan_does_not_move_results(self, monkeypatch):
        # One sample per _p3p_block call, 64 per call, and the plan give the
        # same estimates: lanes never depend on each other and the replay is
        # the same. The images stop in different blocks; the last, all
        # outliers, runs its whole budget without consensus.
        rng = np.random.default_rng(81)
        cases = [(pnp_scene(rng, n=40, noise=1.0, outlier_frac=frac)[1],
                  SolverConfig(min_inliers=10)) for frac in (0.1, 0.3, 0.5) * 17]
        cases.append((pnp_scene(rng, n=40, outlier_frac=1.0)[1],
                      SolverConfig(min_inliers=10, max_iterations=300)))
        p3p_block, calls = pose_module._p3p_block, []

        def counting(P, *args):
            calls.append(len(P))
            return p3p_block(P, *args)

        def run(**first):
            runs, stops, firsts = [], [], []
            for i, (corrs, cfg) in enumerate(cases):
                calls.clear()
                runs.append(prosac_estimate(corrs, K, cfg, seed=i, **first))
                stops.append(len(calls))
                firsts.append(calls[0])
            return runs, stops, firsts

        monkeypatch.setattr(pose_module, "_p3p_block", counting)
        plan, stops, _ = run()
        assert {1, 2, 3} <= set(stops)
        assert (plan[-1].status, plan[-1].num_iterations) == ("no_consensus", 300)
        # First blocks of 1, 5, 23 and 64 samples, then the plan's doubling
        # and cut; then one sample per call throughout, and 64.
        variants = [({"first_block": size}, {}) for size in (1, 5, 23, 64)]
        variants += [({}, {"_BLOCK": 1, "_BLOCK_CAP": 1}), ({}, {"_BLOCK": 64, "_BLOCK_CAP": 64})]
        for first, sizes in variants:
            for name, value in sizes.items():
                monkeypatch.setattr(pose_module, name, value)
            runs, _, firsts = run(**first)
            if first:
                assert set(firsts) == {first["first_block"]}
            else:
                assert max(calls) == sizes["_BLOCK"]
            for a, b in zip(runs, plan):
                assert (a.inliers, a.num_iterations, a.status) == (b.inliers, b.num_iterations,
                                                                   b.status)
                assert a.mean_reproj_px == b.mean_reproj_px or (
                    math.isnan(a.mean_reproj_px) and math.isnan(b.mean_reproj_px))
                if b.pose is None:
                    assert a.pose is None and a.refine is None and b.refine is None
                    continue
                assert np.array_equal(a.pose.R, b.pose.R) and np.array_equal(a.pose.t, b.pose.t)
                assert (a.refine.converged, a.refine.iterations, a.refine.cost_trace) == (
                    b.refine.converged, b.refine.iterations, b.refine.cost_trace)

    def test_first_block_rule(self, monkeypatch):
        # The largest stop among the run's last 8 ok images, within [8, 64].
        def est(status, stop):
            return PoseEstimate(None, frozenset(), stop, float("nan"), status)

        assert _first_block([]) == 8
        assert _first_block([est("no_consensus", 2000), est("degenerate", 40)]) == 8
        assert _first_block([est("ok", 3), est("ok", 5)]) == 8
        assert _first_block([est("ok", 3), est("no_consensus", 2000), est("ok", 26)]) == 26
        # 40 is 9 ok images back, behind a failed image that does not count.
        run = [est("ok", 40)] + [est("ok", 11)] * 4 + [est("no_consensus", 2000)]
        assert _first_block(run + [est("ok", 12)] * 4) == 12
        assert _first_block(run + [est("ok", 12)] * 3) == 40
        assert _first_block(run + [est("ok", 12)] * 3 + [est("ok", 300)]) == 64
        assert _first_block({7: est("ok", 17), 9: est("ok", 9)}.values()) == 17
        # The bounds are read when the rule runs.
        monkeypatch.setattr(pose_module, "_BLOCK", 20)
        assert _first_block([est("ok", 17)]) == 20

    def test_first_block_must_hold_a_sample(self):
        _, corrs, _ = pnp_scene(np.random.default_rng(82), n=20)
        for size in (0, -3):
            with pytest.raises(ValueError, match="must hold at least 1"):
                prosac_estimate(corrs, K, SolverConfig(), seed=0, first_block=size)

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
            return replace(corrs, w=np.array([v ** e for v in corrs.v.tolist()]))
        # Unweighted, since the weighted LM would move the poses apart.
        cfg = SolverConfig(refinement="unweighted")
        a = prosac_estimate(with_e(1.0), K, cfg, seed=9)
        b = prosac_estimate(with_e(2.0), K, cfg, seed=9)
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
            uv, xyz = corrs.uv, corrs.xyz
            _, J = pose_residuals_jacobian(T, uv, xyz, K)
            J_fd = np.zeros_like(J)
            for k in range(6):
                step = np.zeros(6)
                step[k] = h
                rp, _ = pose_residuals_jacobian(
                    Pose(*_apply_increment(T.R, T.t, step)), uv, xyz, K)
                rm, _ = pose_residuals_jacobian(
                    Pose(*_apply_increment(T.R, T.t, -step)), uv, xyz, K)
                J_fd[:, k] = (rp - rm) / (2 * h)
            rel = np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1.0)
            assert rel < 1e-5

    def test_jacobian_matches_per_point_product(self):
        # Reference: per point, d(uv)/d(cam) @ [-[cam]_x, I].
        from landmarkloc.scene_model import skew

        rng = np.random.default_rng(73)
        for _ in range(20):
            T, corrs, _ = pnp_scene(rng, n=12, noise=2.0)
            uv, xyz = corrs.uv, corrs.xyz
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
        step = np.linalg.solve(J.T @ J, -J.T @ res)
        gauss_newton = Pose(*_apply_increment(start.R, start.t, step))
        assert gauss_newton.apply(near[0])[2] < 0

        rr = refine_pose(start, uv, xyz, w, K)
        assert rr.pose.apply(near[0])[2] > 0
        trace = np.array(rr.cost_trace)
        assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()
        assert trace[-1] < trace[0]

    def test_matches_reference_call_for_call(self, monkeypatch, outlier_draws):
        # Every LM call of fixed-seed localize runs on two detection draws (the
        # one pass of "unweighted" and "weighted"; "none" runs none), a start
        # with a point behind the camera and a step that would cross one,
        # against the code that projected each accepted pose twice.
        scene, draws = outlier_draws
        Ks = scene.model.intrinsics[1]
        calls = []

        def recording(*args):
            calls.append(args)
            return refine_pose(*args)

        monkeypatch.setattr(pose_module, "refine_pose", recording)
        for dets in draws:
            for refinement in ("none", "unweighted", "weighted"):
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
                return Pose(*_apply_increment(pose.R, pose.t, step))

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
        ls = landmark_set(corrs.xyz, first_source=1000)
        dets = DetectionSet(0, corrs.landmark_ids, corrs.uv, corrs.v)
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

    @pytest.mark.parametrize("refinement", ["none", "unweighted", "weighted"])
    def test_one_lm_per_localized_image(self, monkeypatch, outlier_draws, refinement):
        # One refine_pose call per ok image, none for a failed one, and none at
        # all for "none": one pass from the P3P winner with the mode's weights.
        scene, draws = outlier_draws
        ls, Ks = scene.gt_landmarks, scene.model.intrinsics[1]
        cfg = SolverConfig(refinement=refinement)
        lm = refinement != "none"
        calls = []

        def counting(*args):
            calls.append(args)
            return refine_pose(*args)

        monkeypatch.setattr(pose_module, "refine_pose", counting)
        statuses = []
        for dets in draws:
            for iid in sorted(dets):
                before = len(calls)
                est = localize(dets[iid], ls, Ks, cfg, seed=iid)
                statuses.append(est.status)
                assert len(calls) - before == (est.status == "ok" and lm)
                if est.status != "ok":
                    continue
                winner = prosac_ref(compute_weights(dets[iid], ls, cfg.e), Ks,
                                    replace(cfg, refinement="none"), iid).pose
                start = calls[-1][0] if lm else est.pose
                assert (start.R == winner.R).all() and (start.t == winner.t).all()
                if lm:
                    w = calls[-1][3]
                    assert (w == 1.0).all() == (refinement != "weighted")
                    assert len(w) == len(est.inliers)
        assert statuses.count("ok") >= 30 and "no_consensus" in statuses
        assert len(calls) == lm * statuses.count("ok")

    def test_matches_two_pass_localize(self, outlier_draws):
        # Against localize as it was when it refined PROSAC's refit again:
        # the same statuses, inlier sets and PROSAC iterations, and poses
        # within 1e-8 m and 1e-5 deg. For "none" the reference is the scalar
        # PROSAC, whose unrefined winner localize gives bit for bit.
        scene, draws = outlier_draws
        ls, Ks = scene.gt_landmarks, scene.model.intrinsics[1]
        ok = 0
        for refinement in ("none", "unweighted", "weighted"):
            cfg = SolverConfig(refinement=refinement)
            for dets in draws:
                for iid in sorted(dets):
                    est = localize(dets[iid], ls, Ks, cfg, seed=iid)
                    ref = localize_two_pass(dets[iid], ls, Ks, cfg, seed=iid)
                    assert (est.status, est.inliers, est.num_iterations) == (
                        ref.status, ref.inliers, ref.num_iterations)
                    assert (est.refine is None) == (ref.refine is None)
                    if est.pose is None:
                        continue
                    ok += 1
                    if refinement == "none":
                        assert (est.pose.R == ref.pose.R).all() and (est.pose.t == ref.pose.t).all()
                        assert est.mean_reproj_px == ref.mean_reproj_px
                    assert center_dist(est.pose, ref.pose) < 1e-8
                    assert rot_angle_deg(est.pose.R, ref.pose.R) < 1e-5
        assert ok >= 100

    def test_lm_rejects_non_finite_trial(self, monkeypatch):
        # The first LM trial's rotation comes out NaN: its cost is inf, so LM
        # rejects it, raises the damping and goes on from the same pose.
        axis_angle, steps = pose_module.axis_angle_to_matrix, []

        def nan_first(omega):
            steps.append(omega)
            return np.full((3, 3), np.nan) if len(steps) == 1 else axis_angle(omega)

        monkeypatch.setattr(pose_module, "axis_angle_to_matrix", nan_first)
        rng = np.random.default_rng(78)
        T, ls, dets, _ = self.make_scene(rng, n=30, noise=2.0)
        est = localize(dets, ls, K, SolverConfig(), seed=0)
        assert est.status == "ok" and len(steps) >= 2
        trace = est.refine.cost_trace
        assert (np.diff(trace) <= 0).all() and trace[-1] < trace[0]
        assert center_dist(est.pose, T) < 0.05
        # The returned pose is a checked, read-only Pose.
        assert type(est.pose) is Pose and est.refine.pose is est.pose
        assert not est.pose.R.flags.writeable and not est.pose.t.flags.writeable
        with pytest.raises(AttributeError):
            est.pose.R = np.eye(3)

    def test_refinement_none_returns_prosac_pose(self):
        rng = np.random.default_rng(76)
        _, ls, dets, _ = self.make_scene(rng, n=15)
        est = localize(dets, ls, K, SolverConfig(refinement="none"), seed=0)
        assert est.status == "ok"
        assert est.refine is None


def three_poses(**change):
    """PoseTable columns for images 5, 2 and 9 (given out of id order), 5 and
    9 ok and 2 failed, as keyword arguments; change replaces some of them."""
    rng = np.random.default_rng(12)
    columns = dict(ids=[5, 2, 9], status=["ok", "no_consensus", "ok"],
                   R=[random_rotation(rng) for _ in range(3)], t=rng.normal(size=(3, 3)),
                   num_inliers=[40, 3, 25], mean_reproj_px=[0.5, float("nan"), 0.25])
    return {**columns, **change}


class TestPoseTable:
    def test_rows_in_id_order(self):
        columns = three_poses()
        table = PoseTable(**columns)
        assert len(table) == 3 and table.ids.tolist() == [2, 5, 9]
        assert table.status == ("no_consensus", "ok", "ok")
        assert table.num_inliers.tolist() == [3, 40, 25]
        assert table.mean_reproj_px.tolist()[1:] == [0.5, 0.25]
        for k, src in ((1, 0), (2, 2)):
            T = Pose(columns["R"][src], columns["t"][src])
            assert table.R[k].tobytes() == T.R.tobytes() and table.t[k].tobytes() == T.t.tobytes()
            assert table.center[k].tobytes() == T.center.tobytes()
        # A row that is not ok has no pose, whatever R and t it was given.
        for column in (table.R, table.t, table.center):
            assert np.isnan(column[0]).all()
        for column in (table.ids, table.R, table.t, table.num_inliers, table.mean_reproj_px,
                       table.center):
            assert not column.flags.writeable

    def test_of_estimates(self):
        rng = np.random.default_rng(13)
        T = Pose(random_rotation(rng), rng.normal(size=3))
        table = PoseTable.of({
            7: PoseEstimate(T, frozenset({1, 4, 9}), 12, 0.75, "ok"),
            3: PoseEstimate(None, frozenset(), 2, float("nan"), "insufficient"),
        })
        assert table.ids.tolist() == [3, 7] and table.status == ("insufficient", "ok")
        assert table.num_inliers.tolist() == [0, 3] and table.mean_reproj_px[1] == 0.75
        assert table.R[1].tobytes() == T.R.tobytes() and np.isnan(table.R[0]).all()
        assert len(PoseTable.of({})) == 0

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="repeated image id 5"):
            PoseTable(**three_poses(ids=[5, 2, 5]))

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown status 'lost'"):
            PoseTable(**three_poses(status=["ok", "lost", "ok"]))

    @pytest.mark.parametrize("k, R, t", [
        (0, 2.0 * np.eye(3), np.zeros(3)),                # not orthogonal
        (2, np.diag([1.0, 1.0, -1.0]), np.zeros(3)),      # a reflection
        (0, np.eye(3), [0.0, np.inf, 0.0]),               # not finite
    ])
    def test_ok_row_needs_a_pose(self, k, R, t):
        columns = three_poses()
        columns["R"][k], columns["t"][k] = R, t
        with pytest.raises(ValueError, match=f"image {columns['ids'][k]}: R and t are not"):
            PoseTable(**columns)
        # The same values in a row that is not ok are no pose, and no error.
        columns["status"][k] = "degenerate"
        row = sorted(columns["ids"]).index(columns["ids"][k])
        assert np.isnan(PoseTable(**columns).R[row]).all()

    @pytest.mark.parametrize("change, image", [
        (dict(num_inliers=[40, 3, -1]), 9),               # an ok row's inlier count
        (dict(num_inliers=[40, -3, 25]), 2),              # a failed row's inlier count
        (dict(mean_reproj_px=[-0.5, float("nan"), 0.25]), 5),  # an ok row's error
    ], ids=["ok-inliers", "failed-inliers", "ok-error"])
    def test_negative_counts_rejected(self, change, image):
        with pytest.raises(ValueError, match=f"image {image}: negative inlier count or mean "
                                             "reprojection error"):
            PoseTable(**three_poses(**change))

    def test_failed_row_may_have_a_negative_error(self):
        table = PoseTable(**three_poses(mean_reproj_px=[0.5, -1.0, 0.25]))
        assert table.mean_reproj_px[0] == -1.0


def off_orthogonal(d):
    """diag(1 + d, 1, 1), whose R^T R is off the identity by 2d + d^2."""
    return np.diag([1.0 + d, 1.0, 1.0])


def test_boundary_rows_straddle_the_tolerance():
    for d, below in ((0.4999e-9, True), (0.5001e-9, False)):
        R = off_orthogonal(d)
        assert (np.abs(R.T @ R - np.eye(3)).max() < 1e-9) == below


@pytest.mark.parametrize("R, t, accepted", [
    (2.0 * np.eye(3), np.zeros(3), False),
    (np.diag([1.0, 1.0, -1.0]), np.zeros(3), False),
    (np.eye(3), np.array([0.0, np.nan, 0.0]), False),
    (off_orthogonal(0.4999e-9), np.zeros(3), True),
    (off_orthogonal(0.5001e-9), np.zeros(3), False),
], ids=["not-orthogonal", "reflection", "non-finite", "just-under-1e-9", "just-over-1e-9"])
def test_one_pose_rule(tmp_path, monkeypatch, R, t, accepted):
    # Pose, ImageSet, PoseTable and a one-line poses.txt accept the same
    # poses, and refuse the others with the same message. The file holds a
    # quaternion, which names only rotations, so load_poses is handed R in
    # place of the rotation of its quaternion.
    def accepts(make):
        try:
            make()
        except (ValueError, MalformedFileError) as exc:
            assert "R and t are not a finite pose" in str(exc)
            return False
        return True

    monkeypatch.setattr(pose_module, "qvec2rotmat", lambda qvec: R)
    path = tmp_path / "poses.txt"
    path.write_text(f"1 1 0 0 0 {' '.join(map(str, t.tolist()))} ok 10 0.5\n")
    assert [accepts(lambda: Pose(R, t)),
            accepts(lambda: ImageSet([1], [1], [R], [t], ["a.png"])),
            accepts(lambda: PoseTable([1], ["ok"], [R], [t], [10], [0.5])),
            accepts(lambda: load_poses(path))] == [accepted] * 4


class TestPoseIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(77)
        T, corrs, _ = pnp_scene(rng, n=15)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        failed = PoseEstimate(None, frozenset(), 4, float("nan"), "no_consensus")
        path = tmp_path / "poses.txt"
        save_poses(PoseTable.of({0: est, 1: failed}), path, sec_per_image=0.01)
        loaded, meta = load_poses(path)
        assert meta["sec_per_image"] == 0.01
        assert loaded.num_inliers[0] == len(est.inliers)
        assert loaded.status[1] == "no_consensus"
        assert np.isnan(loaded.R[1]).all() and np.isnan(loaded.t[1]).all()
        assert np.abs(loaded.R[0] - est.pose.R).max() < 1e-12
        assert np.abs(loaded.t[0] - est.pose.t).max() < 1e-15

    def test_save_deterministic(self, tmp_path):
        rng = np.random.default_rng(78)
        _, corrs, _ = pnp_scene(rng, n=15)
        est = prosac_estimate(corrs, K, SolverConfig(), seed=0)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_poses(PoseTable.of({0: est}), a)
        save_poses(PoseTable.of({0: est}), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("line", [
        "x 1 0 0 0 0 0 1 ok 12 0.5",             # image id
        "1 1 0 0 0 0 0 1 ok 12.5 0.5",           # num_inliers
        "0 1 0 0 0 0 0 1 ok 12 0.5",             # image id 0 again
        "1 1 0 0 0 0 0 inf ok 12 0.5",           # non-finite translation
        "1 0 0 0 0 0 0 1 ok 12 0.5",             # zero quaternion
        "1 1 0 0 0 0 0 1 ok 12 x",               # mean_reproj_px
        "1 1 0 0 0 0 0 1 ok -22 1.12",           # negative num_inliers
        "1 nan nan nan nan nan nan nan degenerate -1 nan",  # ... of a failed image
        "1 1 0 0 0 0 0 1 ok 12 -0.5",            # negative mean_reproj_px of an ok pose
        "# sec_per_image=abc",                   # header
    ])
    def test_bad_line_reports_location(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text("# header\n0 1 0 0 0 0 0 1 ok 12 0.5\n" + line + "\n")
        with pytest.raises(MalformedFileError, match=r"poses\.txt:3: "):
            load_poses(path)
