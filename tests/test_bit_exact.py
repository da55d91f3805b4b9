"""The batched kernels give the bits of the one-row computations they replace.

Every comparison here is ==, never a tolerance: fixed-seed outputs
(dets.csv, sel.txt, poses.txt, report.csv, the synthetic scene) must stay
byte for byte what the point-by-point code wrote. The *_ref functions are
that code, one row at a time; the one-sample P3P solver and PROSAC loop are
in scalar_lambda_twist.py.
"""

import hashlib
import io
import itertools
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import landmarkloc.pose as pose_module
from landmarkloc.cli import main
from landmarkloc.detection import Detection, simulate_detections_labeled
from landmarkloc.errors import DegeneracyError
from landmarkloc.evaluation import _angular_errors, detection_angular_error
from landmarkloc.landmarks import (
    Landmark,
    LandmarkSet,
    _distinct_images,
    _saliencies,
    score_saliency,
)
from landmarkloc.mesh import nearest_surface_point
from landmarkloc.pose import Correspondence, SolverConfig, localize, p3p_solve, prosac_estimate
from landmarkloc.scene_model import Intrinsics, Pose, _camera_frame, bearing, project
from landmarkloc.synth import SynthConfig, generate_scene
from landmarkloc.visibility import landmark_reference_normals

from conftest import p3p_in_blocks, random_rotation, track
from scalar_lambda_twist import consensus_ref, p3p_solve_ref, prosac_ref
from test_pose import pnp_scene


def project_ref(K, T, p):
    x, y, z = T.apply(p)
    if z <= 0:
        return None
    u, v = K.fx * x / z + K.cx, K.fy * y / z + K.cy
    return (u, v) if 0 <= u < K.width and 0 <= v < K.height else None


def angular_ref(uv, T, K, xyz):
    cam = T.apply(xyz)
    cam = cam / np.linalg.norm(cam)
    b = bearing(K, uv)
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(b, cam))),
                                   float(np.dot(b, cam))))


def saliency_ref(xyz, track_images, model):
    image_ids = sorted(set(track_images.tolist()))
    n = len(image_ids)
    if n == 1:
        return 1.0
    dirs = np.empty((n, 3))
    for i, iid in enumerate(image_ids):
        d = xyz - model.images[iid].pose.center
        dirs[i] = d / np.linalg.norm(d)
    cosines = np.clip(dirs @ dirs.T, -1.0, 1.0)
    spread = min(float(np.mean(np.arccos(cosines[np.triu_indices(n, k=1)]))), math.pi / 2)
    return n * (1.0 + spread)


def simulate_ref(model, ls, vt, sigma, outlier_rate, seed):
    """(image id, landmark id, u, v, confidence, outlier) per detection."""
    rows = []
    for iid in sorted(model.images):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        rng = np.random.default_rng(seed ^ iid)
        for lm in ls:
            if not vt.visible(lm.id, iid):
                continue
            truth = project_ref(K, img.pose, lm.xyz)
            if truth is None:
                continue
            if rng.random() < outlier_rate:
                uv = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
                rows.append((iid, lm.id, *uv, float(rng.uniform(0.31, 0.7)), True))
                continue
            noise = rng.normal(0.0, sigma, size=2) if sigma > 0 else np.zeros(2)
            uv = np.array(truth) + noise
            uv[0] = np.clip(uv[0], 0.0, np.nextafter(float(K.width), 0.0))
            uv[1] = np.clip(uv[1], 0.0, np.nextafter(float(K.height), 0.0))
            v = float(np.clip(1.0 - np.linalg.norm(noise) / (4.0 * sigma), 0.31, 1.0)) if sigma > 0 else 1.0
            rows.append((iid, lm.id, *uv, v, False))
    return rows


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SynthConfig(num_landmark_sites=150, num_cameras=20,
                                      camera_margin=1.4, min_target_dist=3.0, seed=4))


def test_camera_frame_rows_match_apply_and_project():
    rng = np.random.default_rng(0)
    K = Intrinsics(320.0, 300.0, 319.5, 239.5, 640, 480)
    pts = rng.normal(size=(10_000, 3)) * 4
    in_view = 0
    for _ in range(4):
        T = Pose(random_rotation(rng), rng.normal(size=3))
        cam = _camera_frame(T, pts)
        for p, row in zip(pts, cam):
            assert (row == T.apply(p)).all()
            uv, ref = project(K, T, p), project_ref(K, T, p)
            assert (uv is None) == (ref is None)
            if uv is not None:
                assert tuple(uv) == ref
                in_view += 1
    assert in_view > 2000


def test_angular_errors_match_one_row(scene):
    model = scene.model
    rng = np.random.default_rng(1)
    K = model.intrinsics[1]
    xyz = scene.gt_landmarks.xyz
    behind = 0
    for iid in (0, 7, 13):
        T = model.images[iid].pose
        uv = rng.uniform([0.0, 0.0], [K.width, K.height], size=(len(xyz), 2))
        front = [i for i in range(len(xyz)) if T.apply(xyz[i])[2] > 0]
        behind += len(xyz) - len(front)
        ref = [angular_ref(uv[i], T, K, xyz[i]) for i in front]
        assert _angular_errors(uv, T, K, xyz) == ref
        assert [detection_angular_error(Detection(0, uv[i], 1.0), T, K, xyz[i])
                for i in front] == ref
    assert behind > 0


def test_saliencies_match_one_point(scene):
    model = scene.model
    points = model.points
    tracks = [track(points, k)[0] for k in range(len(points))]
    ref = [saliency_ref(xyz, images, model) for xyz, images in zip(points.xyz, tracks)]
    assert _saliencies(points.xyz, *_distinct_images(points), model) == ref
    assert [score_saliency(xyz, images, model) for xyz, images in zip(points.xyz, tracks)] == ref
    assert [lm.saliency for lm in scene.gt_landmarks] == ref


def test_synth_observations_match_project(scene):
    model = scene.model
    K = model.intrinsics[1]
    points = model.points
    for xyz, iid, uv in zip(points.xyz[points.owner], points.image_ids.tolist(), points.uv):
        assert tuple(uv) == project_ref(K, model.images[iid].pose, xyz)


def reference_normals_ref(mesh, ls, max_dist):
    normals, excluded = np.zeros((len(ls), 3)), []
    for i, lm in enumerate(ls):
        dist, _, tri = nearest_surface_point(mesh, lm.xyz)
        if dist > max_dist:
            excluded.append(lm.id)
        else:
            normals[i] = mesh.face_normals()[tri]
    return normals, excluded


def test_reference_normals_match_one_landmark():
    # 84 triangles, sites on the walls and occluders, and points off the mesh;
    # 4096 rows per step is 48 landmarks, so the last step is a partial one.
    scene = generate_scene(SynthConfig(num_landmark_sites=200, num_occluders=6, seed=3))
    rng = np.random.default_rng(2)
    xyz = np.vstack([scene.gt_landmarks.xyz, rng.uniform([0, 0, 0], [6, 4, 3], size=(100, 3))])
    ls = LandmarkSet([Landmark(i, i, p, 1.0) for i, p in enumerate(xyz)])
    for max_dist in (0.2, 0.05, 0.0):
        normals, excluded = landmark_reference_normals(scene.mesh, ls, max_dist)
        ref_normals, ref_excluded = reference_normals_ref(scene.mesh, ls, max_dist)
        assert (normals == ref_normals).all()
        assert excluded == ref_excluded
        assert 0 < len(excluded) < len(ls)


@pytest.mark.parametrize("sigma, outlier_rate", [(1.0, 0.3), (0.0, 0.0)])
def test_simulate_matches_one_row(scene, sigma, outlier_rate):
    dets, outliers = simulate_detections_labeled(
        scene.model, scene.gt_landmarks, scene.gt_visibility, sigma, outlier_rate, seed=6)
    got = [(iid, d.landmark_id, *d.uv, d.confidence, d.landmark_id in outliers[iid])
           for iid in sorted(dets) for d in dets[iid]]
    ref = simulate_ref(scene.model, scene.gt_landmarks, scene.gt_visibility, sigma,
                       outlier_rate, seed=6)
    assert got == ref
    assert any(row[5] for row in ref) == (outlier_rate > 0)


# sha256 of the outputs of a small fixed-seed CLI run, as written by the
# point-by-point code (numpy 2.4, OpenBLAS, x86-64). report.csv is written
# after the wall-time line of poses.txt is set to a constant.
PINNED = {
    "synth/landmarks.txt": "b99f1a00f8f836c5aa78283486553f490f74126671ff1d3ab96f8d64c07925ec",
    "synth/scene/cameras.txt": "e01f204013c99352da1a37ece8efe77cda27a2a53697c5e756d8c7afa28338b7",
    "synth/scene/images.txt": "0edbbb2b0118eda4d8f25ad8ee2ac489faaa7706ffe32e5d1d2f9777bc030860",
    "synth/scene/points3D.txt": "5e68baf41b273f8dd2757abf38f2db2b2502b322130990d68c2c51d491842838",
    "sel.txt": "0e08b70dd5feccf6b8630dffabf776b739e563f10b2ec53e147e0137e1f34816",
    "dets.csv": "c3943d3bca9ea8cc2082789c5e2551e1f944250d39042890f3f128908af0229a",
    "report.csv": "dd3e8413c34b9b070e22afe66f978214f27399e27c1f58b5033a258417bea20b",
}


def test_cli_outputs_pinned(tmp_path):
    d, s = tmp_path, tmp_path / "synth"
    stages = [
        ["synth", "--out", str(s), "--seed", "3", "--sites", "250", "--cameras", "20",
         "--width", "320", "--height", "240", "--focal", "200", "--margin", "1.4",
         "--min-target-dist", "3.0"],
        ["select", "--scene", str(s / "scene"), "--count", "80", "--min-track", "3",
         "--out", str(d / "sel.txt")],
        ["visibility", "--scene", str(s / "scene"), "--mesh", str(s / "mesh.ply"),
         "--landmarks", str(d / "sel.txt"), "--out", str(d / "vis.txt")],
        ["simulate", "--scene", str(s / "scene"), "--landmarks", str(d / "sel.txt"),
         "--visibility", str(d / "vis.txt"), "--noise-sigma", "1", "--outlier-rate", "0.2",
         "--seed", "5", "--out", str(d / "dets.csv")],
        ["localize", "--scene", str(s / "scene"), "--landmarks", str(d / "sel.txt"),
         "--detections", str(d / "dets.csv"), "--seed", "9", "--out", str(d / "poses.txt")],
    ]
    with redirect_stdout(io.StringIO()):
        for argv in stages:
            assert main(argv) == 0
        poses = d / "poses.txt"
        poses.write_text("".join(
            "# sec_per_image=0.25\n" if line.startswith("# sec_per_image=") else line
            for line in poses.read_text().splitlines(keepends=True)))
        assert main(["evaluate", "--scene", str(s / "scene"), "--estimates", str(poses),
                     "--detections", str(d / "dets.csv"), "--landmarks", str(d / "sel.txt"),
                     "--out", str(d / "report.txt"), "--csv", str(d / "report.csv")]) == 0
    got = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED


def p3p_samples(rng, K, n):
    """n random triples: a third seen exactly from a random pose, a third the
    same with 2 px of pixel noise (no pose fits them exactly), a third random
    points and random pixels."""
    samples = []
    for k in range(n):
        if k % 3 == 2:
            world = rng.normal(size=(3, 3)) * 3.0
            uv = rng.uniform([0.0, 0.0], [K.width, K.height], size=(3, 2))
        else:
            R, t = random_rotation(rng), rng.normal(size=3)
            x, y, z = rng.uniform([-0.6, -0.45, 1.0], [0.6, 0.45, 8.0], size=(3, 3)).T
            cam = np.column_stack([x * z, y * z, z])  # inside the image
            world = (cam - t) @ R
            uv = np.column_stack([K.fx * x + K.cx, K.fy * y + K.cy])
            uv += rng.normal(0.0, 2.0, size=(3, 2)) if k % 3 else 0.0
        samples.append([Correspondence(i, uv[i], world[i], 1.0, 1.0) for i in range(3)])
    return samples


def special_samples(K):
    """Seen head-on from the identity pose, in all six orders: an equilateral
    triple (det(D2) = 0 in some orders) and a right angle at the principal
    point (a division by zero when that corner comes first). Then a collinear
    triple and two points on one bearing, both degenerate."""
    eye = Pose(np.eye(3), np.zeros(3))
    tri = np.array([[0.0, 2.0 / math.sqrt(3), 5.0], [-1.0, -1.0 / math.sqrt(3), 5.0],
                    [1.0, -1.0 / math.sqrt(3), 5.0]])
    corner = np.array([[0.0, 0.0, 4.0], [-0.5, 0.0, 4.0], [0.0, 0.5, 4.0]])
    line = np.array([[0.0, 0.0, 5.0], [0.5, 0.0, 5.0], [1.0, 0.0, 5.0]])
    ray = np.array([[0.2, 0.1, 4.0], [0.4, 0.2, 8.0], [-1.0, 0.5, 6.0]])
    orders = [list(itertools.permutations(range(3)))] * 2 + [[(0, 1, 2)]] * 2
    return [[Correspondence(i, project(K, eye, pts[i]), pts[i], 1.0, 1.0) for i in order]
            for pts, pts_orders in zip((tri, corner, line, ray), orders)
            for order in pts_orders]


def same_poses(ref, got):
    return len(ref) == len(got) and all(
        (p.R == q.R).all() and (p.t == q.t).all() for p, q in zip(ref, got))


def test_p3p_block_matches_one_sample_solver():
    K = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    special = special_samples(K)
    samples = special + p3p_samples(np.random.default_rng(12), K, 10_000)
    ref = []
    for sample in samples:
        try:
            ref.append(p3p_solve_ref(sample, K))
        except DegeneracyError:
            ref.append(None)
    got = p3p_in_blocks(samples, K)
    assert [r is None for r in ref] == [g is None for g in got]
    assert all(r is None or same_poses(r, g) for r, g in zip(ref, got))
    for sample, r in zip(samples[:200], ref[:200]):
        if r is None:
            with pytest.raises(DegeneracyError):
                p3p_solve(sample, K)
        else:
            assert same_poses(r, p3p_solve(sample, K))
    # Every outcome occurs: degenerate, no pose, one pose, several.
    outcomes = [-1 if r is None else min(len(r), 2) for r in ref]
    assert all(outcomes.count(k) >= 2 for k in (-1, 0, 1, 2))
    assert [-1 if r is None else len(r) > 0 for r in ref[:len(special)]] == (
        [True] * 6 + [False] * 2 + [True] * 4 + [-1] * 2)


def same_estimate(a, b):
    assert a.status == b.status
    assert a.inliers == b.inliers
    assert a.num_iterations == b.num_iterations
    if b.pose is None:
        assert a.pose is None and math.isnan(a.mean_reproj_px) and math.isnan(b.mean_reproj_px)
    else:
        assert (a.pose.R == b.pose.R).all() and (a.pose.t == b.pose.t).all()
        assert a.mean_reproj_px == b.mean_reproj_px


@pytest.mark.parametrize("sampler", ["prosac", "ransac"])
def test_prosac_matches_one_sample_loop(sampler):
    # Budgets of 1 and 7 end inside the first block of 8; 2000 is no sum of
    # the block sizes 8, 16, 32, 64, 64, ...
    rng = np.random.default_rng(91)
    scenes = [pnp_scene(rng, n=40, noise=1.0, outlier_frac=0.3)[1] for _ in range(20)]
    K = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    stops = set()
    for budget in (1, 7, 2000):
        cfg = SolverConfig(min_inliers=10, max_iterations=budget, sampler=sampler)
        for i, corrs in enumerate(scenes):
            est = prosac_estimate(corrs, K, cfg, seed=i)
            same_estimate(est, prosac_ref(corrs, K, cfg, seed=i))
            stops.add((budget, est.num_iterations == budget, est.status))
    assert {(1, True, "ok"), (7, True, "ok"), (2000, False, "ok")} <= stops


@pytest.mark.parametrize("refinement", ["none", "unweighted", "weighted"])
def test_localize_matches_one_sample_loop(scene, monkeypatch, refinement):
    # A 30%-outlier draw on the synth scene, each image localized with both
    # samplers, then again with PROSAC one sample at a time.
    dets, _ = simulate_detections_labeled(
        scene.model, scene.gt_landmarks, scene.gt_visibility, 1.0, 0.3, seed=8)
    K = scene.model.intrinsics[1]
    cfgs = [SolverConfig(refinement=refinement, sampler=s) for s in ("prosac", "ransac")]
    runs = [localize(dets[iid], scene.gt_landmarks, K, cfg, seed=iid)
            for cfg in cfgs for iid in sorted(dets)]
    monkeypatch.setattr(pose_module, "prosac_estimate", prosac_ref)
    monkeypatch.setattr(pose_module, "_consensus", consensus_ref)
    refs = [localize(dets[iid], scene.gt_landmarks, K, cfg, seed=iid)
            for cfg in cfgs for iid in sorted(dets)]
    for est, ref in zip(runs, refs):
        same_estimate(est, ref)
        assert (est.refine is None) == (ref.refine is None)
    assert sum(est.status == "ok" for est in runs) >= len(runs) - 2
