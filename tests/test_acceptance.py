"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from landmarkloc.cli import main as cli_main
from landmarkloc.detection import (
    DetectionSet,
    extract_detection,
    render_gt_heatmap,
    save_detections,
    simulate_detections,
    simulate_detections_labeled,
)
from landmarkloc.evaluation import (
    _pose_errors,
    position_error,
    recall_at,
    rotation_error,
)
from landmarkloc.landmarks import LandmarkSet
from landmarkloc.mesh import ray_cast
from landmarkloc.partitioning import fps_traversal, make_partition, partition_default
from landmarkloc.pose import (
    PoseTable,
    SolverConfig,
    _first_round,
    compute_weights,
    localize,
    pose_residuals_jacobian,
)
from landmarkloc.scene_model import Pose, _by_camera, project_many
from landmarkloc.synth import SynthConfig, generate_scene
from landmarkloc.visibility import (
    VisibilityConfig,
    compute_visibility,
    estimate_affine_alignment,
    rasterize_depth,
)

from conftest import random_rotation

CFG = SolverConfig()  # pipeline defaults: e=2, 4 px, 2000 iters, 0.999, 12 inliers


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


def stable_rot_deg(Ra, Rb):
    """Geodesic angle in degrees, exact near zero (Frobenius-asin form).

    Equivalent to the arccos trace formula but free of its ~1e-6 deg
    double-precision floor, which matters below the 1e-6 deg tolerance.
    """
    d = np.linalg.norm(Ra - Rb) / (2.0 * math.sqrt(2.0))
    return math.degrees(2.0 * math.asin(min(1.0, d)))


def localize_all(scene, dets, cfg, seed):
    """localize on every image, in id order, as the localize stage runs it:
    the first PROSAC blocks of a camera's images solved together first."""
    model, ls, first = scene.model, scene.gt_landmarks, {}
    ids = np.array(sorted(dets))
    for cid, rows in _by_camera(model.images.camera_ids[np.searchsorted(model.images.ids, ids)]):
        group = ids[rows].tolist()
        first.update(zip(group, _first_round(
            ((compute_weights(dets[iid], ls, cfg.e), seed ^ iid) for iid in group),
            model.intrinsics[cid], cfg)))
    return {iid: localize(dets[iid], ls, model.camera(iid), cfg, seed=seed ^ iid, first=first[iid])
            for iid in ids.tolist()}


@pytest.fixture(scope="module")
def scene100():
    return generate_scene(
        SynthConfig(num_landmark_sites=250, num_cameras=100, seed=0,
                    camera_margin=1.4, min_target_dist=3.0)
    )


@pytest.fixture(scope="module")
def scene500():
    return generate_scene(
        SynthConfig(num_landmark_sites=250, num_cameras=500, seed=1,
                    camera_margin=1.4, min_target_dist=3.0)
    )


@pytest.fixture(scope="module")
def crit2(scene500):
    """Shared robustness run: sigma=1 px, 30% outliers, 500 images."""
    t0 = time.perf_counter()
    dets, outliers = simulate_detections_labeled(
        scene500.model, scene500.gt_landmarks, scene500.gt_visibility,
        noise_sigma_px=1.0, outlier_rate=0.3, seed=7,
    )
    estimates = localize_all(scene500, dets, CFG, seed=7)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        scene=scene500, dets=dets, outliers=outliers,
        estimates=estimates, elapsed=elapsed,
    )


def test_criterion_1_exact_recovery(scene100):
    dets = simulate_detections(
        scene100.model, scene100.gt_landmarks, scene100.gt_visibility,
        noise_sigma_px=0.0, outlier_rate=0.0, seed=42,
    )
    assert min(len(ds) for ds in dets.values()) >= 12
    t0 = time.perf_counter()
    estimates = localize_all(scene100, dets, CFG, seed=42)
    elapsed = time.perf_counter() - t0

    max_dr = max_dt = 0.0
    all_ok = True
    for iid, est in estimates.items():
        gt = scene100.model.images.pose(iid)
        if est.status != "ok":
            all_ok = False
            continue
        max_dr = max(max_dr, stable_rot_deg(est.pose.R, gt.R))
        max_dt = max(max_dt, position_error(est.pose, gt))
    recall = recall_at(*_pose_errors(PoseTable.of(estimates), scene100.model.images), 5.0, 0.05)
    ok = (
        all_ok and recall == 1.0 and max_dr < 1e-6 and max_dt < 1e-8
        and elapsed < 5.0
    )
    report(
        "1 exact-recovery",
        ok,
        f"recall={recall:.3f} max_dR={max_dr:.2e}deg max_dt={max_dt:.2e}m "
        f"runtime={elapsed:.2f}s/100img",
    )


def test_criterion_2_outlier_robustness(crit2):
    recall = recall_at(*_pose_errors(PoseTable.of(crit2.estimates), crit2.scene.model.images),
                       5.0, 0.05)
    clean = sum(
        1
        for iid, est in crit2.estimates.items()
        if not (est.inliers & crit2.outliers[iid])
    )
    frac_clean = clean / len(crit2.estimates)
    ok = recall >= 0.95 and frac_clean >= 0.99 and crit2.elapsed < 60.0
    report(
        "2 outlier-robustness",
        ok,
        f"recall={recall:.4f} outlier-free-images={frac_clean:.4f} "
        f"runtime={crit2.elapsed:.1f}s/500img",
    )


def test_criterion_3_weighted_pose_trend(scene500):
    cfg_w = SolverConfig(e=2.0, refinement="weighted")
    cfg_u = SolverConfig(e=0.0, refinement="unweighted")
    wins = 0
    details = []
    for seed in (201, 202, 203, 204, 205):
        dets = simulate_detections(
            scene500.model, scene500.gt_landmarks, scene500.gt_visibility,
            noise_sigma_px=1.5, outlier_rate=0.1, seed=seed,
        )
        est_w = localize_all(scene500, dets, cfg_w, seed=seed)
        est_u = localize_all(scene500, dets, cfg_u, seed=seed)
        rot_w, pos_w = _pose_errors(PoseTable.of(est_w), scene500.model.images)
        rot_u, pos_u = _pose_errors(PoseTable.of(est_u), scene500.model.images)
        recall_w = recall_at(rot_w, pos_w, 5.0, 0.05)
        recall_u = recall_at(rot_u, pos_u, 5.0, 0.05)
        # The median over the localized images, whose errors are not NaN.
        dt_w = np.median(pos_w[~np.isnan(pos_w)])
        dt_u = np.median(pos_u[~np.isnan(pos_u)])
        win = recall_w >= recall_u and dt_w <= dt_u
        wins += win
        details.append(f"s{seed}:{'+' if win else '-'}")
    ok = wins >= 4
    report(
        "3 weighted-pose-trend", ok,
        f"non-negative gap in {wins}/5 seeds [{' '.join(details)}]",
    )


def test_criterion_4_visibility_oracle():
    # Landmarks go through the real selection pipeline (wall-mounted sites,
    # track-length filtered), mirroring how landmark sets reach the
    # visibility stage in production.
    from landmarkloc.landmarks import select_landmarks

    scene = generate_scene(
        SynthConfig(num_landmark_sites=600, num_occluders=10, num_cameras=100,
                    seed=4, camera_margin=1.4, min_target_dist=3.0,
                    occluder_size_range=(0.4, 1.0), occluder_site_fraction=0.0)
    )
    ls = select_landmarks(scene.model, 200, r_init=1.8, min_track=8)
    vcfg = VisibilityConfig()
    t0 = time.perf_counter()
    vt = compute_visibility(scene.model, scene.mesh, ls, vcfg)
    elapsed = time.perf_counter() - t0

    xyz = ls.xyz
    image_ids = scene.model.images.ids.tolist()
    disagreements = []
    agree = 0
    n_occluded = 0
    for j, iid in enumerate(image_ids):
        T, K = scene.model.images.pose(iid), scene.model.camera(iid)
        uv, valid = project_many(K, T, xyz)
        origin = T.center
        dirs = xyz - origin
        dists = np.linalg.norm(dirs, axis=1)
        t_hit, _ = ray_cast(scene.mesh, np.tile(origin, (len(xyz), 1)),
                            dirs / dists[:, None])
        oracle = valid & (np.abs(t_hit - dists) < 1e-6)
        n_occluded += int((valid & ~oracle).sum())
        got = vt.mask[:, j]
        agree += int((got == oracle).sum())
        for i in np.flatnonzero(got != oracle):
            disagreements.append((i, iid, uv[i]))
    total = len(xyz) * len(image_ids)
    agreement = agree / total
    assert n_occluded >= 200  # the scene must actually exercise occlusion

    # Every disagreement must sit at an occluder silhouette: the local depth
    # window spans more than the tolerance (a discontinuity) or the depth
    # residual lies at the tolerance boundary.
    near_silhouette = 0
    by_image = {}
    for i, iid, uv in disagreements:
        by_image.setdefault(iid, []).append((i, uv))
    for iid, items in by_image.items():
        T, K = scene.model.images.pose(iid), scene.model.camera(iid)
        dm = rasterize_depth(scene.mesh, K, T)
        for i, uv in items:
            z = float(T.apply(xyz[i])[2])
            tol = max(vcfg.tol_depth, vcfg.rel_frac * z)
            px = int(round(uv[0]))
            py = int(round(uv[1]))
            win = dm.depth[max(0, py - 2) : py + 3, max(0, px - 2) : px + 3]
            finite = win[np.isfinite(win)]
            spans_edge = (
                finite.size < win.size
                or (finite.size and float(finite.max() - finite.min()) > tol)
            )
            d_here, _ = dm.lookup(np.array([uv]))
            at_boundary = (
                np.isfinite(d_here[0]) and abs(abs(d_here[0] - z) - tol) <= 0.5 * tol
            )
            near_silhouette += spans_edge or at_boundary
    all_explained = near_silhouette == len(disagreements)
    ok = agreement >= 0.999 and all_explained and elapsed < 120.0
    report(
        "4 visibility-oracle", ok,
        f"agreement={agreement:.5f} ({total - agree}/{total} disagree, "
        f"{near_silhouette} at silhouettes) runtime={elapsed:.1f}s",
    )


def test_criterion_5_subpixel_extraction():
    rng = np.random.default_rng(55)
    extent = (640, 480)  # grid 80 x 60
    worst = 0.0
    for sigma in (1.0, 1.5, 2.5):
        for _ in range(1000):
            center = np.array(
                [rng.uniform(8.0, 72.0), rng.uniform(8.0, 52.0)]
            ) * 8.0
            uv, _ = extract_detection(render_gt_heatmap(center, extent, sigma=sigma))
            worst = max(worst, float(np.abs(uv / 8.0 - center / 8.0).max()))
    grid = np.zeros((60, 80))
    grid[30, 40] = 0.3
    from landmarkloc.detection import Heatmap

    pruned_at_boundary = extract_detection(Heatmap(grid)) is None
    grid[30, 40] = np.nextafter(0.3, 1.0)
    kept_above = extract_detection(Heatmap(grid)) is not None
    ok = worst <= 0.25 and pruned_at_boundary and kept_above
    report(
        "5 subpixel-extraction", ok,
        f"max_err={worst:.4f} low-res px, boundary prune exact={pruned_at_boundary and kept_above}",
    )


def test_criterion_6_partition_invariants():
    rng = np.random.default_rng(66)
    n = 1000
    draws = [(rng.uniform(-5, 5, size=3), float(rng.uniform(0.1, 10))) for _ in range(n)]
    ls = LandmarkSet(range(n), [p for p, _ in draws], [s for _, s in draws])
    shapes_ok = True
    for criterion in ("default", "random", "kmeans", "fps"):
        for g in (3, 4, 6, 8, 12):
            pa = make_partition(ls, criterion, g, seed=13)
            sizes = pa.group_sizes()
            covered = len(pa.group) == len(ls)
            shapes_ok &= covered and sum(sizes) == n and max(sizes) - min(sizes) <= 1

    # FPS replay: at every insertion step past the seeds, the inserted point
    # must be the globally farthest unassigned point.
    xyz = ls.xyz
    sal = ls.saliency
    g = 8
    caps = [n // g + (1 if i < n % g else 0) for i in range(g)]
    labels, order = fps_traversal(xyz, sal, g, caps)
    pairwise = np.linalg.norm(xyz[:, None, :] - xyz[None, :, :], axis=2)
    assigned = np.zeros(n, dtype=bool)
    min_d = np.full(n, np.inf)
    replay_ok = True
    for step, idx in enumerate(order):
        if step >= g:
            unassigned = np.flatnonzero(~assigned)
            best = float(min_d[unassigned].max())
            replay_ok &= min_d[idx] >= best - 1e-12
        assigned[idx] = True
        np.minimum(min_d, pairwise[idx], out=min_d)
    replay_ok &= bool((np.bincount(labels, minlength=g) == np.array(caps)).all())
    ok = shapes_ok and replay_ok
    report(
        "6 partition-invariants", ok,
        f"four criteria x g in {{3,4,6,8,12}} on 1000 landmarks, "
        f"fps replay at all {n - g} insertions={replay_ok}",
    )


def test_criterion_7_metric_formulas():
    rng = np.random.default_rng(77)
    # Single-axis 10-degree rotations.
    single_axis_ok = True
    for _ in range(100):
        R = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R_hat = ScipyRotation.from_rotvec(axis * math.radians(10.0)).as_matrix() @ R
        single_axis_ok &= abs(rotation_error(R, R_hat) - 10.0) < 1e-9

    quat_max = 0.0
    pos_max = 0.0
    for _ in range(10_000):
        Ra, Rb = random_rotation(rng), random_rotation(rng)
        got = rotation_error(Ra, Rb)
        qa = ScipyRotation.from_matrix(Ra).as_quat()
        qb = ScipyRotation.from_matrix(Rb).as_quat()
        want = math.degrees(2 * math.acos(min(1.0, abs(float(np.dot(qa, qb))))))
        quat_max = max(quat_max, abs(got - want))

        ta, tb = rng.normal(size=3), rng.normal(size=3)
        pa, pb = Pose(Ra, ta), Pose(Rb, tb)
        want_dt = float(np.linalg.norm((-Ra.T @ ta) - (-Rb.T @ tb)))
        pos_max = max(pos_max, abs(position_error(pa, pb) - want_dt))
    ok = single_axis_ok and quat_max < 1e-9 and pos_max < 1e-12
    report(
        "7 metric-formulas", ok,
        f"10deg exact={single_axis_ok} quat_gap={quat_max:.2e}deg "
        f"center_gap={pos_max:.2e}m over 1e4 pairs",
    )


def test_criterion_8_affine_alignment():
    rng = np.random.default_rng(88)
    worst = 0.0
    flags_exact = True
    for trial in range(100):
        A = rng.normal(size=(3, 3)) + np.eye(3) * 2.0
        b = rng.normal(size=3)
        src = rng.uniform(-5, 5, size=(50, 3))
        dst = src @ A.T + b
        planted = rng.choice(50, size=10, replace=False)
        for i in planted:
            off = rng.normal(size=3)
            dst[i] += off / np.linalg.norm(off)  # 1 m offsets
        tf, mask = estimate_affine_alignment(src, dst, threshold=0.05, seed=trial)
        worst = max(worst, float(np.abs(tf.A - A).max()), float(np.abs(tf.b - b).max()))
        flags_exact &= set(np.flatnonzero(~mask)) == set(planted.tolist())
    ok = worst < 1e-6 and flags_exact
    report(
        "8 affine-alignment", ok,
        f"max_param_err={worst:.2e} outliers exactly flagged={flags_exact} (100 trials)",
    )


def test_criterion_9_refinement_correctness(crit2):
    from landmarkloc.pose import _apply_increment
    from landmarkloc.scene_model import Intrinsics

    K = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(99)
    h = 1e-6
    jac_max = 0.0
    for _ in range(100):
        T = Pose(random_rotation(rng), rng.normal(size=3))
        z = rng.uniform(2.0, 6.0, 10)
        cam = np.column_stack(
            [rng.uniform(-0.6, 0.6, 10) * z, rng.uniform(-0.45, 0.45, 10) * z, z]
        )
        world = (cam - T.t) @ T.R
        uv = rng.uniform(0, 640, size=(10, 2))
        _, J = pose_residuals_jacobian(T, uv, world, K)
        J_fd = np.zeros_like(J)
        for k in range(6):
            step = np.zeros(6)
            step[k] = h
            rp, _ = pose_residuals_jacobian(
                Pose(*_apply_increment(T.R, T.t, step)), uv, world, K)
            rm, _ = pose_residuals_jacobian(
                Pose(*_apply_increment(T.R, T.t, -step)), uv, world, K)
            J_fd[:, k] = (rp - rm) / (2 * h)
        jac_max = max(jac_max, np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1.0))

    monotone = True
    n_traces = 0
    for est in crit2.estimates.values():
        if est.refine is None:
            continue
        n_traces += 1
        trace = np.array(est.refine.cost_trace)
        monotone &= bool((np.diff(trace) <= 0).all())
    ok = jac_max < 1e-5 and monotone and n_traces > 0
    report(
        "9 refinement-correctness", ok,
        f"jacobian_rel_err={jac_max:.2e} (100 poses), "
        f"cost monotone in {n_traces} refine traces={monotone}",
    )


def test_criterion_10_ensemble_composition(tmp_path):
    scene = generate_scene(
        SynthConfig(num_landmark_sites=1100, num_cameras=30, seed=3,
                    camera_margin=1.4, min_target_dist=3.0)
    )
    gt = scene.gt_landmarks
    assert len(gt) >= 1000
    ls = LandmarkSet(gt.source_point_ids[:1000], gt.xyz[:1000], gt.saliency[:1000])
    dets = simulate_detections(
        scene.model, ls, scene.gt_visibility, noise_sigma_px=1.0,
        outlier_rate=0.0, seed=5,
    )
    pa = partition_default(ls, 8)
    assert pa.group_sizes() == [125] * 8

    from landmarkloc.synth import write_scene

    scene_dir = tmp_path / "scene1000"
    write_scene(scene, scene_dir)
    from landmarkloc.landmarks import save_landmarks

    lm_path = tmp_path / "landmarks1000.txt"
    save_landmarks(ls, lm_path)

    merged_csv = tmp_path / "merged.csv"
    save_detections(dets, merged_csv)
    part_files = []
    for grp in range(8):
        members = pa.members(grp)
        split = {}
        for iid, ds in dets.items():
            keep = np.isin(ds.landmark_ids, members)
            split[iid] = DetectionSet(iid, ds.landmark_ids[keep], ds.uv[keep],
                                      ds.confidence[keep])
        path = tmp_path / f"part{grp}.csv"
        save_detections(split, path)
        part_files.append(str(path))

    out_merged = tmp_path / "poses_merged.txt"
    out_parts = tmp_path / "poses_parts.txt"
    base = [
        "localize", "--scene", str(scene_dir / "scene"),
        "--landmarks", str(lm_path), "--seed", "17",
    ]
    assert cli_main(base + ["--detections", str(merged_csv), "--out", str(out_merged)]) == 0
    assert cli_main(base + ["--detections", *part_files, "--out", str(out_parts)]) == 0

    merged_lines = [
        l for l in out_merged.read_text().splitlines() if not l.startswith("#")
    ]
    part_lines = [
        l for l in out_parts.read_text().splitlines() if not l.startswith("#")
    ]
    ok = merged_lines == part_lines and len(merged_lines) == 30
    report(
        "10 ensemble-composition", ok,
        f"8x125 partition route bit-identical to merged route over "
        f"{len(merged_lines)} images={merged_lines == part_lines}",
    )
