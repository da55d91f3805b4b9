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
import random
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import landmarkloc.evaluation as evaluation
import landmarkloc.pose as pose_module
import landmarkloc.scene_model as scene_model
from landmarkloc.cli import main
from landmarkloc.detection import DetectionSet, DetectionTable, simulate_detections_labeled
from landmarkloc.errors import DegeneracyError
from landmarkloc.evaluation import (
    _angular_errors,
    _detection_errors,
    _median_or_nan,
    _pose_errors,
    detection_angular_error,
    position_error,
    rotation_error,
)
from landmarkloc.landmarks import _distinct_images, _saliencies, score_saliency
from landmarkloc.mesh import nearest_surface_point
from landmarkloc.pose import PoseTable, SolverConfig, localize, p3p_solve, prosac_estimate
from landmarkloc.pose import _squares, compute_weights
from landmarkloc.scene_model import (
    ImageSet,
    Intrinsics,
    Pose,
    SceneModel,
    _pair_pixels,
    _pixel,
    axis_angle_to_matrix,
    bearing,
)
from landmarkloc.synth import SynthConfig, generate_scene
from landmarkloc.visibility import VisibilityTable, landmark_reference_normals

from conftest import (
    OTHER_SETTINGS,
    _camera_frame,
    correspondences,
    landmark_set,
    needs_haswell,
    p3p_in_blocks,
    project,
    random_rotation,
    runtime_under,
    subprocess_env,
    track,
)
from detection_reference import detection_errors_ref
from scalar_lambda_twist import p3p_solve_ref, prosac_ref, prosac_samples_ref
from test_pose import pnp_scene

import landmarkloc.cli as cli
from landmarkloc.detection import load_detections, save_detections
from landmarkloc.landmarks import load_landmarks, save_landmarks
from landmarkloc.pose import save_poses
from landmarkloc.scene_model import load_scene, save_scene


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
        d = xyz - model.images.pose(iid).center
        dirs[i] = d / np.linalg.norm(d)
    cosines = np.clip(dirs @ dirs.T, -1.0, 1.0)
    spread = min(float(np.mean(np.arccos(cosines[np.triu_indices(n, k=1)]))), math.pi / 2)
    return n * (1.0 + spread)


def simulate_ref(model, ls, vt, sigma, outlier_rate, seed):
    """(image id, landmark id, u, v, confidence, outlier) per detection."""
    rows = []
    for iid in model.images.ids.tolist():
        T, K = model.images.pose(iid), model.camera(iid)
        rng = np.random.default_rng(seed ^ iid)
        for lid, xyz in enumerate(ls.xyz):
            if not vt.visible(lid, iid):
                continue
            truth = project_ref(K, T, xyz)
            if truth is None:
                continue
            if rng.random() < outlier_rate:
                uv = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
                rows.append((iid, lid, *uv, float(rng.uniform(0.31, 0.7)), True))
                continue
            noise = rng.normal(0.0, sigma, size=2) if sigma > 0 else np.zeros(2)
            uv = np.array(truth) + noise
            uv[0] = np.clip(uv[0], 0.0, np.nextafter(float(K.width), 0.0))
            uv[1] = np.clip(uv[1], 0.0, np.nextafter(float(K.height), 0.0))
            v = float(np.clip(1.0 - np.linalg.norm(noise) / (4.0 * sigma), 0.31, 1.0)) if sigma > 0 else 1.0
            rows.append((iid, lid, *uv, v, False))
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
        # _pixel on the rows, as the detection simulator projects them.
        u, v, inside = _pixel(K, *cam.T)
        for p, row, uv, seen in zip(pts, cam, np.column_stack([u, v]), inside):
            assert (row == T.apply(p)).all()
            ref = project_ref(K, T, p)
            assert (not seen) == (ref is None)
            if seen:
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
        T = model.images.pose(iid)
        uv = rng.uniform([0.0, 0.0], [K.width, K.height], size=(len(xyz), 2))
        front = [i for i in range(len(xyz)) if T.apply(xyz[i])[2] > 0]
        behind += len(xyz) - len(front)
        ref = [angular_ref(uv[i], T, K, xyz[i]) for i in front]
        assert _angular_errors(bearing(K, uv), _camera_frame(T, xyz)) == ref
        assert [detection_angular_error(uv[i], T, K, xyz[i]) for i in front] == ref
    assert behind > 0


@pytest.mark.parametrize("block", [None, 37], ids=["one-block", "blocks-of-37"])
def test_detection_errors_match_per_image_loop(scene, monkeypatch, block):
    # Every detection's angular error in one pass, on a model whose images
    # alternate between two cameras, with rows of landmarks behind each
    # camera mixed in: the per-image loop's list, in order, bit for bit,
    # whether the rows fit one block or blocks end inside an image.
    if block is not None:
        monkeypatch.setattr(evaluation, "_BLOCK_ROWS", block)
    model, ls, images = scene.model, scene.gt_landmarks, scene.model.images
    cameras = {1: model.intrinsics[1], 2: Intrinsics(410.0, 405.0, 300.5, 250.25, 600, 500)}
    two = SceneModel(cameras, ImageSet(images.ids, 1 + images.ids % 2, images.R, images.t,
                                       images.names), model.points)
    dets, _ = simulate_detections_labeled(two, ls, scene.gt_visibility, 1.0, 0.3, seed=8)
    rng = np.random.default_rng(2)
    rows = [dets.image_ids, dets.landmark_ids, dets.uv, dets.confidence]
    for iid in images.ids.tolist():
        behind = np.flatnonzero(_camera_frame(images.pose(iid), ls.xyz)[:, 2] <= 0)[:5]
        for k, col in enumerate([np.full(len(behind), iid), behind,
                                 rng.uniform(0, 500, (len(behind), 2)), np.full(len(behind), 0.5)]):
            rows[k] = np.concatenate([rows[k], col])
    table = DetectionTable(*rows)
    got = _detection_errors(table, two, ls)
    assert got == detection_errors_ref(table, two, ls)
    assert 0 < len(got) < len(table.image_ids)
    assert (len(table.image_ids) <= evaluation._BLOCK_ROWS) == (block is None)
    assert set(two.images.camera_ids.tolist()) == {1, 2}


def test_median_matches_np_median():
    # The report's medians keep np.median's bits, signed zeros, subnormals
    # and overflow included, over the finite values.
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, math.nan]
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300)
        a[rng.integers(0, n, size=n // 2)] = rng.choice(special)
        finite = a[np.isfinite(a)]
        if len(finite):
            with np.errstate(over="ignore"):
                want = np.median(finite).tobytes()
            assert np.float64(_median_or_nan(a)).tobytes() == want
        else:
            assert math.isnan(_median_or_nan(a))


def test_pose_errors_match_one_pair(scene):
    # 10^4 random pairs, half of them within about 1e-6 rad of each other
    # (where the trace nears 3 and the clip acts), then the ok and failed
    # rows of a localize run: each row of the columns has the bits of
    # rotation_error and position_error of its pair, and a failed row NaN.
    rng = np.random.default_rng(3)
    n = 10_000
    R_gt = np.array([random_rotation(rng) for _ in range(n)])
    R_est = np.array([random_rotation(rng) if k % 2 else
                      axis_angle_to_matrix(rng.normal(size=3) * 1e-6) @ R_gt[k]
                      for k in range(n)])
    t_gt, t_est = rng.normal(size=(n, 3)) * 3, rng.normal(size=(n, 3)) * 3
    images = ImageSet(range(n), [1] * n, R_gt, t_gt, [f"{k}.png" for k in range(n)])
    rot, pos = _pose_errors(PoseTable(range(n), ["ok"] * n, R_est, t_est, [0] * n, [0.0] * n),
                            images)
    for k in range(n):
        est, gt = Pose(R_est[k], t_est[k]), images.pose(k)
        assert rot[k] == rotation_error(est.R, gt.R) and pos[k] == position_error(est, gt)

    model, K = scene.model, scene.model.intrinsics[1]
    dets, _ = simulate_detections_labeled(
        model, scene.gt_landmarks, scene.gt_visibility, 1.0, 0.3, seed=8)
    estimates = {}
    for iid, ds in sorted(dets.items()):
        if iid % 3 == 0:  # three detections: an insufficient image
            ds = DetectionSet(iid, ds.landmark_ids[:3], ds.uv[:3], ds.confidence[:3])
        estimates[iid] = localize(ds, scene.gt_landmarks, K, SolverConfig(), seed=iid)
    rot, pos = _pose_errors(PoseTable.of(estimates), model.images)
    for k, (iid, est) in enumerate(sorted(estimates.items())):
        if est.status != "ok":
            assert math.isnan(rot[k]) and math.isnan(pos[k])
            continue
        gt = model.images.pose(iid)
        assert rot[k] == rotation_error(est.pose.R, gt.R)
        assert pos[k] == position_error(est.pose, gt)
    statuses = {est.status for est in estimates.values()}
    assert "ok" in statuses and len(statuses) > 1


def test_saliencies_match_one_point(scene):
    model = scene.model
    points = model.points
    tracks = [track(points, k)[0] for k in range(len(points))]
    ref = [saliency_ref(xyz, images, model) for xyz, images in zip(points.xyz, tracks)]
    assert _saliencies(points.xyz, *_distinct_images(points), model) == ref
    assert [score_saliency(xyz, images, model) for xyz, images in zip(points.xyz, tracks)] == ref
    assert scene.gt_landmarks.saliency.tolist() == ref


def test_synth_observations_match_project(scene):
    model = scene.model
    K = model.intrinsics[1]
    points = model.points
    for xyz, iid, uv in zip(points.xyz[points.owner], points.image_ids.tolist(), points.uv):
        assert tuple(uv) == project_ref(K, model.images.pose(iid), xyz)


def reference_normals_ref(mesh, ls, max_dist):
    normals, excluded = np.zeros((len(ls), 3)), []
    for i, xyz in enumerate(ls.xyz):
        dist, _, tri = nearest_surface_point(mesh, xyz)
        if dist > max_dist:
            excluded.append(i)
        else:
            normals[i] = mesh.face_normals()[tri]
    return normals, excluded


def test_reference_normals_match_one_landmark():
    # 84 triangles, sites on the walls and occluders, and points off the mesh;
    # 4096 rows per step is 48 landmarks, so the last step is a partial one.
    scene = generate_scene(SynthConfig(num_landmark_sites=200, num_occluders=6, seed=3))
    rng = np.random.default_rng(2)
    xyz = np.vstack([scene.gt_landmarks.xyz, rng.uniform([0, 0, 0], [6, 4, 3], size=(100, 3))])
    ls = landmark_set(xyz)
    for max_dist in (0.2, 0.05, 0.0):
        normals, excluded = landmark_reference_normals(scene.mesh, ls, max_dist)
        ref_normals, ref_excluded = reference_normals_ref(scene.mesh, ls, max_dist)
        assert (normals == ref_normals).all()
        assert excluded == ref_excluded
        assert 0 < len(excluded) < len(ls)


def detection_rows(dets, outliers):
    """simulate_ref's rows of a simulated table and its outlier_ids."""
    return [(iid, lid, u, v, conf, lid in outliers[iid]) for iid in sorted(dets)
            for lid, (u, v), conf in zip(dets[iid].landmark_ids.tolist(), dets[iid].uv.tolist(),
                                         dets[iid].confidence.tolist())]


def planted_ref(model, rows):
    """outlier_ids of simulate_ref's rows: every image id of the model -> the
    ids of the landmarks planted as outliers in it."""
    planted = {iid: set() for iid in model.images.ids.tolist()}
    for iid, lid, *_, outlier in rows:
        if outlier:
            planted[iid].add(lid)
    return planted


def two_camera_scene(scene, blind):
    """scene's model with its images alternating between two cameras of
    different width and height, and its visibility with image blind seeing
    no landmark."""
    model, images, vt = scene.model, scene.model.images, scene.gt_visibility
    cameras = {1: model.intrinsics[1], 2: Intrinsics(620.0, 610.0, 300.5, 250.25, 600, 500)}
    two = SceneModel(cameras, ImageSet(images.ids, 1 + images.ids % 2, images.R, images.t,
                                       images.names), model.points)
    mask = vt.mask.copy()
    mask[:, vt.column(blind)] = False
    return two, VisibilityTable(vt.image_ids, mask, vt.tolerances, vt.excluded)


@pytest.mark.parametrize("block", [None, 37], ids=["one-block", "blocks-of-37"])
def test_pair_pixels_match_one_pair(scene, monkeypatch, block):
    # Every (image, landmark) pair of a model whose images alternate between
    # two cameras, in view, outside the image or behind the camera: the bits
    # of _pixel on the pair's _camera_frame row, whether the pairs fit one
    # block or each block mixes both cameras.
    if block is not None:
        monkeypatch.setattr(scene_model, "_PAIR_BLOCK", block)
    two, _ = two_camera_scene(scene, scene.model.images.ids[2].item())
    images, xyz = two.images, scene.gt_landmarks.xyz
    img, pt = np.divmod(np.arange(len(images) * len(xyz)), len(xyz))
    uv, inside = _pair_pixels(images, two.intrinsics, xyz, img, pt)
    ref_uv, ref_inside = np.empty_like(uv), np.empty_like(inside)
    for k, (iid, p) in enumerate(zip(images.ids[img].tolist(), pt.tolist())):
        cam = _camera_frame(images.pose(iid), xyz[p:p + 1])
        (ref_uv[k, 0],), (ref_uv[k, 1],), (ref_inside[k],) = _pixel(two.camera(iid), *cam.T)
    assert uv.tobytes() == ref_uv.tobytes() and np.array_equal(inside, ref_inside)
    assert inside.any() and not inside.all() and np.isnan(uv).any()


@pytest.mark.parametrize("sigma, outlier_rate", [(1.0, 0.3), (0.0, 0.0), (1.0, 0.0), (0.0, 0.3),
                                                 (2.5, 1.0)])
def test_simulate_matches_one_row(scene, sigma, outlier_rate):
    dets, outliers = simulate_detections_labeled(
        scene.model, scene.gt_landmarks, scene.gt_visibility, sigma, outlier_rate, seed=6)
    got = [(iid, lid, u, v, conf, lid in outliers[iid]) for iid in sorted(dets)
           for lid, (u, v), conf in zip(dets[iid].landmark_ids.tolist(), dets[iid].uv.tolist(),
                                        dets[iid].confidence.tolist())]
    ref = simulate_ref(scene.model, scene.gt_landmarks, scene.gt_visibility, sigma,
                       outlier_rate, seed=6)
    assert got == ref
    assert any(row[5] for row in ref) == (outlier_rate > 0)
    assert outliers == planted_ref(scene.model, ref)
    # Two cameras of different extent, some visible pairs outside the second
    # one's narrower view, and an image that sees no landmark but still has
    # its (empty) outlier set.
    blind = scene.model.images.ids[2].item()
    two, vt = two_camera_scene(scene, blind)
    dets, outliers = simulate_detections_labeled(two, scene.gt_landmarks, vt, sigma, outlier_rate,
                                                 seed=6)
    ref = simulate_ref(two, scene.gt_landmarks, vt, sigma, outlier_rate, seed=6)
    assert detection_rows(dets, outliers) == ref
    assert outliers == planted_ref(two, ref)
    assert blind not in dets and outliers[blind] == set()
    assert {two.images.camera_ids[two.images.row(iid)].item() for iid in dets} == {1, 2}
    assert len(ref) < vt.mask.sum()


@needs_haswell
@pytest.mark.parametrize("setting, shown", OTHER_SETTINGS)
def test_simulate_agrees_under_haswell_and_without_avx512(setting, shown):
    # The simulator's stacked projection and scalar draws keep the referee's
    # bits under another BLAS kernel, and under numpy's AVX2 loops.
    env = subprocess_env(**setting)
    index, value = shown
    assert runtime_under(env)[index] == value
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_simulate_matches_one_row"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("5 passed"), (
        proc.stdout[-3000:] + proc.stderr[-3000:])


# sha256 of the outputs of a small fixed-seed CLI run, as written by the
# point-by-point code (numpy 2.4, OpenBLAS, x86-64). report.csv is written
# after the wall-time line of poses.txt is set to a constant. The synth's
# visibility.txt and mesh.ply, and the run with two occluders (synth_occ),
# were pinned from the per-image observation loop (tests/synth_reference.py).
PINNED = {
    "synth/landmarks.txt": "b99f1a00f8f836c5aa78283486553f490f74126671ff1d3ab96f8d64c07925ec",
    "synth/visibility.txt": "0aa3721eb8c8ddc741e3806913fdc9ca6b66ec208e2a9501765b7d5feaa45350",
    "synth/mesh.ply": "5492b22e2d5f90ee71285c268d2731c2ffdf83731e2048b834167c3f983ace98",
    "synth/scene/cameras.txt": "e01f204013c99352da1a37ece8efe77cda27a2a53697c5e756d8c7afa28338b7",
    "synth/scene/images.txt": "0edbbb2b0118eda4d8f25ad8ee2ac489faaa7706ffe32e5d1d2f9777bc030860",
    "synth/scene/points3D.txt": "5e68baf41b273f8dd2757abf38f2db2b2502b322130990d68c2c51d491842838",
    "synth_occ/landmarks.txt": "0491ad8a44e23e2af187eaaae01fd3ef00cac654227f1cd55fa2064a792b61cc",
    "synth_occ/visibility.txt": "f5b3abf70e5548e9b44171767793286a9729906a8897ab231a85c4b49c56b0ea",
    "synth_occ/mesh.ply": "ec9f1235f5e1bf66f00139c935f1faaf4162a724d8d640586669ffb4ba170725",
    "synth_occ/scene/cameras.txt": "e01f204013c99352da1a37ece8efe77cda27a2a53697c5e756d8c7afa28338b7",
    "synth_occ/scene/images.txt": "b0af4f7628fa4785090903fcf7ff038625a97b54ab93ee6baef5c47ea5e2dd1d",
    "synth_occ/scene/points3D.txt": "dae2119afc06613646291c4c88da6d5bfa07a45f490ab4b26996be19f0a470c2",
    "sel.txt": "0e08b70dd5feccf6b8630dffabf776b739e563f10b2ec53e147e0137e1f34816",
    "vis.txt": "49f6dd4698f3836db258be8e4f6084543fa249bd7cf434c96ac1e0a4b0ca871a",
    "part_default.txt": "bfc9678f4d60ba21d2e495d73b8bcd01f598e8d8ecd666faed1e92e33d82be93",
    "part_random.txt": "44e6fd0258796b1a128bf3b1ab39c7344576c28483b09a8fe7ee870317676fd3",
    "part_kmeans.txt": "797840c06233b0ce07b69cd30128ad6089431501a6e8b200685477624e886025",
    "part_fps.txt": "f929d70df64ed3c0d4c09e3ec98f552e8cd82edfbe2fda4e3008c4d5b76b74da",
    "dets.csv": "c3943d3bca9ea8cc2082789c5e2551e1f944250d39042890f3f128908af0229a",
    "report.csv": "dd3e8413c34b9b070e22afe66f978214f27399e27c1f58b5033a258417bea20b",
}


def test_cli_outputs_pinned(tmp_path):
    d, s = tmp_path, tmp_path / "synth"
    synth = ["--seed", "3", "--sites", "250", "--cameras", "20", "--width", "320",
             "--height", "240", "--focal", "200", "--margin", "1.4", "--min-target-dist", "3.0"]
    stages = [
        ["synth", "--out", str(s), *synth],
        ["synth", "--out", str(d / "synth_occ"), *synth, "--occluders", "2"],
        ["select", "--scene", str(s / "scene"), "--count", "80", "--min-track", "3",
         "--out", str(d / "sel.txt")],
        ["visibility", "--scene", str(s / "scene"), "--mesh", str(s / "mesh.ply"),
         "--landmarks", str(d / "sel.txt"), "--out", str(d / "vis.txt")],
        ["simulate", "--scene", str(s / "scene"), "--landmarks", str(d / "sel.txt"),
         "--visibility", str(d / "vis.txt"), "--noise-sigma", "1", "--outlier-rate", "0.2",
         "--seed", "5", "--out", str(d / "dets.csv")],
        ["localize", "--scene", str(s / "scene"), "--landmarks", str(d / "sel.txt"),
         "--detections", str(d / "dets.csv"), "--seed", "9", "--out", str(d / "poses.txt")],
    ] + [["partition", "--landmarks", str(d / "sel.txt"), "--criterion", criterion,
          "--groups", "8", *seed, "--out", str(d / f"part_{criterion}.txt")]
         for criterion, seed in (("default", []), ("random", ["--seed", "4"]),
                                 ("kmeans", ["--seed", "4"]), ("fps", []))]
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
        samples.append(correspondences(uv, world))
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
    return [correspondences([project(K, eye, pts[i]) for i in order], pts[list(order)], ids=order)
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
    # Blocks of 8, the size localize starts with, on the first 1000 samples.
    got8 = p3p_in_blocks(samples[:1000], K, size=8)
    assert [r is None for r in ref[:1000]] == [g is None for g in got8]
    assert all(r is None or same_poses(r, g) for r, g in zip(ref, got8))
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


def test_choice_matches_generator_choice():
    # 10^4 call sequences, each decoded from a PCG64 and drawn by numpy's
    # Generator.choice on the same seed. Pops 3 and 4 make Floyd take j for a
    # taken v often; pops near 2^31 + 1 make Lemire reject about half of all
    # draws; 2^32 - 2 is the largest pop decoded.
    pick = random.Random(31)
    pops = [3, 4, 5, 40, 400, 2**31 - 1, 2**31, 2**31 + 1, 2**31 + 2, 2**32 - 2]
    drawn = needed = 0

    def counted(halves):
        nonlocal drawn
        for half in halves:
            drawn += 1
            yield half

    for _ in range(10_000):
        seed = pick.randrange(2**64)
        rng = np.random.default_rng(seed)
        u32 = counted(pose_module._uint32s(np.random.PCG64(seed)))
        for _ in range(pick.randint(1, 6)):
            pop = pick.choice(pops) if pick.random() < 0.7 else pick.randint(3, 10_000)
            k = pick.randint(0, 3)
            assert pose_module._choice(pop, k, u32) == rng.choice(pop, size=k,
                                                                  replace=False).tolist()
            needed += sum(1 for j in range(pop - k, pop) if j) + max(k - 1, 0)
    assert drawn - needed > 4000  # rejected draws


@pytest.mark.parametrize("pop, k", [(2**32 - 1, 3), (2**32, 1), (5, 4), (2, 3), (5, -1)])
def test_choice_refuses_what_it_does_not_decode(pop, k):
    with pytest.raises(ValueError):
        pose_module._choice(pop, k, iter(range(10**6)))


@pytest.mark.parametrize("sampler", ["prosac", "ransac"])
def test_prosac_samples_match_choice_loop(sampler):
    # The first 300 samples of 200 plans: n from 4 to 2000 correspondences,
    # budgets from 1 to 10^5, so the subset grows from the first sample on
    # or only late.
    pick = random.Random(32)
    for _ in range(200):
        seed, n = pick.randrange(2**32), pick.randint(4, 2000)
        cfg = SolverConfig(max_iterations=pick.choice([1, 10, 2000, 10**5]), sampler=sampler)
        got = pose_module._prosac_samples(n, cfg, np.random.PCG64(seed))
        ref = prosac_samples_ref(n, cfg, np.random.default_rng(seed))
        assert list(itertools.islice(got, 300)) == list(itertools.islice(ref, 300))


@pytest.mark.parametrize("seed, flat", [
    (0, [1, 2, 3, 1, 0, 4, 3, 0, 4, 3, 4, 5, 2, 3, 5, 2, 3, 5, 5, 2, 6, 5, 4, 6, 1, 5, 6, 0, 4, 6,
         1, 5, 7, 5, 0, 7, 2, 0, 7, 6, 2, 7, 6, 0, 7, 4, 7, 8, 1, 4, 8, 2, 3, 8, 7, 5, 8, 4, 7, 8]),
    (1, [0, 1, 3, 0, 2, 4, 3, 2, 4, 4, 1, 5, 4, 1, 5, 1, 3, 5, 0, 5, 6, 3, 5, 6, 1, 4, 6, 0, 3, 6,
         0, 3, 7, 2, 0, 7, 5, 1, 7, 1, 0, 7, 1, 0, 7, 3, 0, 8, 7, 5, 8, 5, 2, 8, 6, 2, 8, 1, 2, 8]),
    (2, [0, 1, 3, 0, 1, 4, 0, 1, 4, 2, 4, 5, 3, 0, 5, 2, 0, 5, 3, 1, 6, 1, 2, 6, 3, 2, 6, 5, 3, 6,
         1, 4, 7, 5, 6, 7, 6, 2, 7, 2, 1, 7, 3, 6, 7, 6, 7, 8, 6, 2, 8, 1, 6, 8, 3, 5, 8, 3, 0, 8]),
])
def test_prosac_samples_pinned(seed, flat):
    # The first 20 samples over 40 correspondences, tied to PCG64's raw
    # stream (NEP 19), not to a numpy release's Generator.choice.
    samples = pose_module._prosac_samples(40, SolverConfig(), np.random.PCG64(seed))
    assert list(itertools.islice(samples, 20)) == [flat[i:i + 3] for i in range(0, 60, 3)]


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
    refs = [localize(dets[iid], scene.gt_landmarks, K, cfg, seed=iid)
            for cfg in cfgs for iid in sorted(dets)]
    for est, ref in zip(runs, refs):
        same_estimate(est, ref)
        assert (est.refine is None) == (ref.refine is None)
    assert sum(est.status == "ok" for est in runs) >= len(runs) - 2


@pytest.fixture(scope="module")
def two_camera_run(scene, tmp_path_factory):
    """The files of a localize run on the scene's model with its images
    alternating between two cameras (two_camera_scene): a 15%-outlier draw, in
    which one image keeps only its first 3 detections and another sees no
    landmark. Returns their directory."""
    d = tmp_path_factory.mktemp("two_cameras")
    two, vt = two_camera_scene(scene, scene.model.images.ids[2].item())
    dets, _ = simulate_detections_labeled(two, scene.gt_landmarks, vt, 1.0, 0.15, seed=8)
    cut = dets.images[3]
    keep = (dets.image_ids != cut) | (np.arange(len(dets.image_ids)) < dets.offsets[3] + 3)
    save_detections(DetectionTable(dets.image_ids[keep], dets.landmark_ids[keep], dets.uv[keep],
                                   dets.confidence[keep]), d / "dets.csv")
    save_scene(two, d / "scene")
    save_landmarks(scene.gt_landmarks, d / "landmarks.txt")
    return d


@pytest.mark.parametrize("budget", [2000, 5])
def test_localize_stage_matches_one_image_calls(two_camera_run, tmp_path, monkeypatch, budget):
    # The localize stage solves the first PROSAC block of every image of a
    # camera together, here 19 samples to a P3P call, so calls end inside an
    # image's block and inside each camera's list of images. Each image's
    # estimate, and the poses file but for its timing line, have the bits of
    # one-image localize calls, which solve their own first block.
    d, seen, calls = two_camera_run, {}, []
    localize_image, p3p_block = cli.localize, pose_module._p3p_block

    def spy(ds, *args, **kwargs):
        calls.append(None)
        seen[ds.image_id] = est = localize_image(ds, *args, **kwargs)
        return est

    def counting(P, *args):
        calls.append(len(P))
        return p3p_block(P, *args)

    monkeypatch.setattr(pose_module, "_LANES", 19)
    monkeypatch.setattr(pose_module, "_p3p_block", counting)
    monkeypatch.setattr(cli, "localize", spy)
    with redirect_stdout(io.StringIO()):
        assert main(["localize", "--scene", str(d / "scene"),
                     "--landmarks", str(d / "landmarks.txt"), "--detections", str(d / "dets.csv"),
                     "--max-iters", str(budget), "--seed", "11",
                     "--out", str(tmp_path / "poses.txt")]) == 0
    monkeypatch.undo()
    model, ls = load_scene(d / "scene"), load_landmarks(d / "landmarks.txt")
    dets = load_detections(d / "dets.csv")
    cfg = SolverConfig(max_iterations=budget)
    refs = {iid: localize(dets[iid], ls, model.camera(iid), cfg, seed=11 ^ iid) for iid in dets}
    assert list(seen) == list(refs) == sorted(refs)
    for iid, ref in refs.items():
        est = seen[iid]
        same_estimate(est, ref)
        assert (est.refine is None) == (ref.refine is None)
        if ref.refine is not None:
            assert (est.refine.converged, est.refine.iterations, est.refine.cost_trace) == (
                ref.refine.converged, ref.refine.iterations, ref.refine.cost_trace)
    save_poses(PoseTable.of(refs), tmp_path / "ref.txt")
    got = "".join(line for line in (tmp_path / "poses.txt").read_text().splitlines(keepends=True)
                  if not line.startswith("# sec_per_image="))
    assert got == (tmp_path / "ref.txt").read_text()
    # Both cameras, an image with 3 detections, and images that stop inside
    # the first block and after it, or run the whole budget of 5.
    images = model.images
    assert {images.camera_ids[images.row(iid)].item() for iid in refs} == {1, 2}
    stops = [(est.status, est.num_iterations) for est in refs.values()]
    assert ("insufficient", 0) in stops and "no_consensus" in dict(stops)
    ok = [n for status, n in stops if status == "ok"]
    assert len(ok) >= 15
    if budget == 5:
        assert {n for status, n in stops if status != "insufficient"} == {5}
    else:
        assert min(ok) <= 8 < max(ok)
    # The shared round came first, in calls of 19 samples but the last per camera.
    round_lanes = calls[:calls.index(None)]
    lanes = min(budget, 8) * (len(refs) - 1)
    assert sum(round_lanes) == lanes and round_lanes.count(19) >= lanes // 19 - 1


@needs_haswell
@pytest.mark.parametrize("setting, shown", OTHER_SETTINGS)
def test_localize_stage_agrees_under_haswell_and_without_avx512(setting, shown):
    # The localize stage's shared first blocks keep the bits of one-image
    # calls under another BLAS kernel, and under numpy's AVX2 loops.
    env = subprocess_env(**setting)
    index, value = shown
    assert runtime_under(env)[index] == value
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_localize_stage_matches_one_image_calls"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("2 passed"), (
        proc.stdout[-3000:] + proc.stderr[-3000:])


def test_squares_match_python_pow():
    # Positive and negative values from 1e-300 to 1e153, whose squares are
    # finite, and the values where the last bit is most often at stake.
    rng = np.random.default_rng(15)
    mags = 10.0 ** rng.uniform(-300.0, 153.0, 60_000)
    x = np.concatenate([mags, -mags[:20_000], rng.normal(size=20_000),
                        [0.0, -0.0, 1.0, -1.0, 5e-324, 1.3e154]])
    ref = [v ** 2 for v in x.tolist()]
    assert _squares(x).tolist() == ref
    assert _squares(x.reshape(2, -1)).tolist() == np.array(ref).reshape(2, -1).tolist()


def test_square_that_overflows_is_inf():
    # The one departure from **: a finite value whose square overflows.
    with pytest.raises(OverflowError):
        1e200 ** 2
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert _squares(np.array([1e200, -1e200])).tolist() == [math.inf, math.inf]


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0, 2.0, 3, 3.7, 10.0])
def test_weights_match_python_pow(e):
    # 20,000 confidences in (0, 1], from 1e-300 to 1, per exponent.
    rng = np.random.default_rng(16)
    n = 20_000
    conf = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, n - 2000),
                           rng.uniform(0.0, 1.0, 1999), [1.0]])
    ls = landmark_set([(0.0, 0.0, float(i)) for i in range(n)])
    dets = DetectionSet(1, np.arange(n), np.zeros((n, 2)), conf)
    w = compute_weights(dets, ls, e).w
    assert w.tolist() == [v ** e for v in dets.confidence.tolist()]
