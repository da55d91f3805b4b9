"""The batched kernels give the bits of the one-row computations they replace.

Every comparison here is ==, never a tolerance: fixed-seed outputs
(dets.csv, sel.txt, report.csv, the synthetic scene) must stay byte for byte
what the point-by-point code wrote. The *_ref functions are that code, one
row at a time.
"""

import hashlib
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from landmarkloc.cli import main
from landmarkloc.detection import Detection, simulate_detections_labeled
from landmarkloc.evaluation import _angular_errors, detection_angular_error
from landmarkloc.landmarks import _saliencies, score_saliency
from landmarkloc.scene_model import Intrinsics, Pose, _camera_frame, bearing, project
from landmarkloc.synth import SynthConfig, generate_scene

from conftest import random_rotation


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


def saliency_ref(point, model):
    image_ids = sorted({iid for iid, _ in point.observations})
    n = len(image_ids)
    if n == 1:
        return 1.0
    dirs = np.empty((n, 3))
    for i, iid in enumerate(image_ids):
        d = point.xyz - model.images[iid].pose.center
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
    points = list(model.points.values())
    ref = [saliency_ref(p, model) for p in points]
    assert _saliencies(points, model) == ref
    assert [score_saliency(p, model) for p in points] == ref
    assert [lm.saliency for lm in scene.gt_landmarks] == ref


def test_synth_observations_match_project(scene):
    model = scene.model
    K = model.intrinsics[1]
    for pt in model.points.values():
        for iid, uv in pt.observations:
            assert tuple(uv) == project_ref(K, model.images[iid].pose, pt.xyz)


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
    "synth/scene/images.txt": "0edbbb2b0118eda4d8f25ad8ee2ac489faaa7706ffe32e5d1d2f9777bc030860",
    "sel.txt": "0e08b70dd5feccf6b8630dffabf776b739e563f10b2ec53e147e0137e1f34816",
    "dets.csv": "c3943d3bca9ea8cc2082789c5e2551e1f944250d39042890f3f128908af0229a",
    "report.csv": "807870a85b090bbcbde74df20c68fd8acbc6097811e21392b2eb8df543a3b400",
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
