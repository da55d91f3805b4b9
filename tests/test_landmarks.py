import math
import subprocess
import sys

import numpy as np
import pytest

from landmarkloc import landmarks
from landmarkloc.errors import InsufficientCandidatesError
from landmarkloc.landmarks import (
    LandmarkSet,
    _distinct_images,
    _saliencies,
    load_landmarks,
    save_landmarks,
    score_saliency,
    select_landmarks,
)
from landmarkloc.scene_model import Intrinsics, PointSet, Pose, SceneModel, _diameter
from landmarkloc.synth import SynthConfig, generate_scene

import select_reference
from conftest import (
    WITHOUT_AVX512,
    image_set,
    loads_both_ways,
    make_intrinsics,
    needs_haswell,
    points_from_pairs,
    random_rotation,
    runtime_under,
    same_landmarks,
    subprocess_env,
    track,
)


def copy_of(path):
    """Where save_landmarks keeps the columns of the file at path."""
    return landmarks._sidecar(path).path


@pytest.fixture(autouse=True)
def load_both_ways(monkeypatch, tmp_path_factory):
    """Makes each load_landmarks of a test in this module load the file as
    text and from a copy (conftest.loads_both_ways): the same set, bit for
    bit, or the same error."""
    other = tmp_path_factory.mktemp("other") / "sel.txt"
    save_landmarks(LandmarkSet([1], [[1.0, 2.0, 3.0]], [4.0], {"count": 1}), other)
    load = loads_both_ways(lambda path: landmarks.load_landmarks(path), copy_of,
                           copy_of(other).read_bytes(), same_landmarks)
    monkeypatch.setitem(globals(), "load_landmarks", load)


def make_cloud_model(rng, n_points=100, n_images=12, track_range=(3, 12)):
    """Random point cloud observed by cameras at random centers."""
    K = make_intrinsics()
    poses = {}
    for iid in range(n_images):
        R = random_rotation(rng)
        center = rng.uniform(-5, 5, size=3)
        poses[iid] = Pose(R, -R @ center)
    points = {}
    for pid in range(n_points):
        n_obs = int(rng.integers(track_range[0], track_range[1] + 1))
        obs_ids = rng.choice(n_images, size=n_obs, replace=False)
        obs = [(int(i), rng.uniform(0, 100, size=2)) for i in sorted(obs_ids)]
        points[pid] = (rng.uniform(-10, 10, size=3), obs)
    return SceneModel({1: K}, image_set(poses), points_from_pairs(points))


def make_two_camera_model(centers, point_xyz):
    K = make_intrinsics()
    poses = {iid: Pose(np.eye(3), -np.asarray(c, dtype=float)) for iid, c in enumerate(centers)}
    obs = [(iid, np.array([50.0, 50.0])) for iid in poses]
    return SceneModel({1: K}, image_set(poses), points_from_pairs({0: (point_xyz, obs)}))


def saliency(model, k):
    """score_saliency of the model's point k."""
    return score_saliency(model.points.xyz[k], track(model.points, k)[0], model)


def track_length(model, k):
    return len(set(track(model.points, k)[0].tolist()))


def saliency_oracle(model, k):
    """Brute-force re-implementation of the saliency formula."""
    xyz = model.points.xyz[k]
    iids = sorted(set(track(model.points, k)[0].tolist()))
    if len(iids) == 1:
        return 1.0
    angles = []
    for a in range(len(iids)):
        for b in range(a + 1, len(iids)):
            da = xyz - model.images.pose(iids[a]).center
            db = xyz - model.images.pose(iids[b]).center
            da, db = da / np.linalg.norm(da), db / np.linalg.norm(db)
            angles.append(math.acos(max(-1.0, min(1.0, float(np.dot(da, db))))))
    spread = min(sum(angles) / len(angles), math.pi / 2)
    return len(iids) * (1.0 + spread)


class TestSaliency:
    def test_single_view(self):
        model = make_two_camera_model([[1, 0, 0]], np.zeros(3))
        assert saliency(model, 0) == 1.0

    def test_two_views_90_degrees(self):
        model = make_two_camera_model([[1, 0, 0], [0, 1, 0]], np.zeros(3))
        expected = 2 * (1 + math.pi / 2)
        assert abs(saliency(model, 0) - expected) < 1e-12

    def test_spread_capped_at_right_angle(self):
        # Nearly opposite viewing directions: the mean pairwise angle is far
        # beyond pi/2 and must be capped there.
        model = make_two_camera_model([[1, 0, 0], [-1, 0.01, 0]], np.zeros(3))
        expected = 2 * (1 + math.pi / 2)
        assert abs(saliency(model, 0) - expected) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        model = make_cloud_model(rng, n_points=40)
        for k in range(len(model.points)):
            assert abs(saliency(model, k) - saliency_oracle(model, k)) < 1e-12


def saliencies_per_point(xyz, image_ids, counts, model):
    """The per-point loop _saliencies replaced: one product, clip, arccos and
    mean per point."""
    images, at = np.unique(image_ids, return_inverse=True)
    centers = np.array([model.images.pose(iid).center for iid in images.tolist()])
    d = np.repeat(xyz, counts, axis=0) - centers.reshape(-1, 3)[at]
    dirs = d / np.sqrt(np.vecdot(d, d))[:, None]
    scores = []
    for end, n in zip(np.cumsum(counts).tolist(), np.asarray(counts).tolist()):
        if n == 0:
            raise ValueError("point has no observations")
        if n == 1:
            scores.append(1.0)
            continue
        cosines = np.clip(dirs[end - n:end] @ dirs[end - n:end].T, -1.0, 1.0)
        spread = min(float(np.mean(np.arccos(cosines[np.triu_indices(n, k=1)]))), math.pi / 2)
        scores.append(n * (1.0 + spread))
    return scores


class TestSaliencyReferee:
    """_saliencies, by track length, against the per-point loop, bit for bit."""

    @pytest.mark.parametrize("sites", [250, 1400], ids=["demo", "ensemble1000"])
    @pytest.mark.parametrize("block", [None, 1, 200])
    def test_equals_per_point_loop(self, monkeypatch, sites, block):
        model = generate_scene(SynthConfig(
            num_landmark_sites=sites, num_cameras=100, camera_margin=1.4, min_target_dist=3.0,
            intrinsics=Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480), seed=7)).model
        if block is not None:  # one point per block, or a few
            monkeypatch.setattr(landmarks, "_SALIENCY_BLOCK", block)
        image_ids, counts = _distinct_images(model.points)
        args = (model.points.xyz, image_ids, counts, model)
        got = _saliencies(*args)
        assert got == saliencies_per_point(*args)
        assert all(type(x) is float for x in got) and len(set(counts.tolist())) > 5

    def test_untracked_point_raises(self):
        model = make_cloud_model(np.random.default_rng(2), n_points=5)
        image_ids, counts = _distinct_images(model.points)
        counts[2] = 0
        with pytest.raises(ValueError, match="point has no observations"):
            _saliencies(model.points.xyz, image_ids[:counts.sum()], counts, model)


class TestSelection:
    def test_k1_is_argmax(self):
        rng = np.random.default_rng(11)
        model = make_cloud_model(rng)
        ls = select_landmarks(model, 1, r_init=1.0, min_track=3)
        scores = {pid: saliency(model, k) for k, pid in enumerate(model.points.ids.tolist())}
        best = min(scores, key=lambda pid: (-scores[pid], pid))
        assert ls.source_point_ids[0] == best

    def test_all_eligible_tiny_radius_is_saliency_order(self):
        rng = np.random.default_rng(12)
        model = make_cloud_model(rng, n_points=30)
        ls = select_landmarks(model, 30, r_init=1e-9, min_track=3)
        sals = ls.saliency
        assert (np.diff(sals) <= 1e-12).all()
        assert len(ls) == 30

    def test_greedy_replay(self):
        rng = np.random.default_rng(13)
        model = make_cloud_model(rng, n_points=100)
        xyz_all = model.points.xyz
        diameter = np.linalg.norm(xyz_all.max(0) - xyz_all.min(0))
        r_init = diameter / 4
        ls = select_landmarks(model, 10, r_init=r_init, min_track=3)

        # Independent replay of the greedy schedule.
        # Point ids are the indices 0..99 in this model.
        scores = {pid: saliency(model, pid) for pid in range(100)}
        eligible = {pid for pid in range(100) if track_length(model, pid) >= 3}
        chosen = []
        r = r_init
        while len(chosen) < 10:
            cands = []
            for pid in eligible:
                if pid in (c for c, _ in chosen):
                    continue
                dmin = min(
                    (np.linalg.norm(xyz_all[pid] - xyz_all[c])
                     for c, _ in chosen),
                    default=np.inf,
                )
                if dmin > r:
                    cands.append(pid)
            if not cands:
                r /= 2
                continue
            best = min(cands, key=lambda pid: (-scores[pid], pid))
            chosen.append((best, r))
        assert ls.source_point_ids.tolist() == [c for c, _ in chosen]
        # Pairwise separation under the radius in force at acceptance time.
        for k, (pid, r_k) in enumerate(chosen):
            for j in range(k):
                d = np.linalg.norm(xyz_all[pid] - xyz_all[chosen[j][0]])
                assert d > r_k

    def test_prefix_property(self):
        rng = np.random.default_rng(14)
        model = make_cloud_model(rng)
        full = select_landmarks(model, 20, r_init=3.0, min_track=3)
        for k in (1, 5, 13, 20):
            part = select_landmarks(model, k, r_init=3.0, min_track=3)
            assert part.source_point_ids.tolist() == full.source_point_ids.tolist()[:k]

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        model = make_cloud_model(rng)
        a = select_landmarks(model, 15, r_init=2.0, min_track=3)
        b = select_landmarks(model, 15, r_init=2.0, min_track=3)
        assert a.source_point_ids.tolist() == b.source_point_ids.tolist()
        assert np.array_equal(a.xyz, b.xyz)

    def test_insufficient_candidates(self):
        rng = np.random.default_rng(16)
        model = make_cloud_model(rng, n_points=5, track_range=(3, 5))
        with pytest.raises(InsufficientCandidatesError) as err:
            select_landmarks(model, 10, r_init=1.0, min_track=3)
        assert err.value.achievable == 5

    def test_repeated_image_counts_once(self):
        # Point 5 is seen twice in image 0: its track length is 2, not 3.
        model = make_two_camera_model([[1, 0, 0], [0, 1, 0]], np.zeros(3))
        uv = np.array([50.0, 50.0])
        model = SceneModel(model.intrinsics, model.images, points_from_pairs(
            {5: (np.zeros(3), [(0, uv), (1, uv), (0, uv)])}))
        with pytest.raises(InsufficientCandidatesError):
            select_landmarks(model, 1, r_init=1.0, min_track=3)
        ls = select_landmarks(model, 1, r_init=1.0, min_track=2)
        assert ls.saliency[0] == saliency(model, 0)
        assert abs(ls.saliency[0] - 2 * (1 + math.pi / 2)) < 1e-12

    def test_min_track_filters(self):
        rng = np.random.default_rng(17)
        model = make_cloud_model(rng, n_points=50, track_range=(3, 12))
        ls = select_landmarks(model, 5, r_init=0.5, min_track=8)
        for pid in ls.source_point_ids.tolist():
            assert track_length(model, pid) >= 8  # ids are indices here


def bench_model(sites, occluders=0):
    """The scene synth writes with the bench flags (perfbench/worker.py)."""
    return generate_scene(SynthConfig(
        num_landmark_sites=sites, num_occluders=occluders, num_cameras=100, camera_margin=1.4,
        min_target_dist=3.0, intrinsics=Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480),
        seed=7)).model


def model_at(xyz, seed=0):
    """Points at the rows of xyz, each seen from 3 to 8 of 12 random cameras."""
    rng = np.random.default_rng(seed)
    model = make_cloud_model(rng, n_points=len(xyz), track_range=(3, 8))
    points = model.points
    return SceneModel(model.intrinsics, model.images, PointSet(
        points.ids, xyz, points.rgb, np.diff(points.offsets), points.image_ids, points.uv))


def select_both(model, count, r_init, min_track):
    """select_landmarks and the referee's loop on the same arguments, as
    (set, None) or (None, InsufficientCandidatesError) each."""
    outcomes = []
    for select in (select_landmarks, select_reference.select_landmarks):
        try:
            outcomes.append((select(model, count, r_init, min_track), None))
        except InsufficientCandidatesError as exc:
            outcomes.append((None, exc))
    (got, err), (want, want_err) = outcomes
    if want_err is not None:
        assert err is not None and (err.requested, err.achievable) == (
            want_err.requested, want_err.achievable)
        return None
    assert err is None
    same_landmarks(got, want)
    return got


class TestSelectReferee:
    """select_landmarks against the per-step norm loop it replaced
    (tests/select_reference.py): the same ids, positions, saliencies and
    provenance, bit for bit. test_agrees_without_avx512_and_under_haswell
    runs this class under a second BLAS kernel and numpy's AVX2 loops."""

    @pytest.mark.parametrize("sites, occluders, count, min_track", [
        (250, 0, 200, 8), (1000, 6, 250, 5), (1400, 0, 1000, 8),
    ], ids=["demo", "occluders", "ensemble1000"])
    def test_bench_scenes(self, sites, occluders, count, min_track):
        model = bench_model(sites, occluders)
        r_init = _diameter(model.points.xyz) / 4.0  # select's default radius
        ls = select_both(model, count, r_init, min_track)
        assert ls.provenance["r_final"] < r_init / 2  # the radius halved, and the scan restarted
        assert ls.provenance["r_final"] > 0

    def test_duplicate_points(self):
        # 6 places, each held by 3 points with their own saliencies.
        rng = np.random.default_rng(30)
        xyz = np.repeat(rng.uniform(-3, 3, size=(6, 3)), 3, axis=0)
        model = model_at(xyz, seed=31)
        for count in (1, 4, 6):
            ls = select_both(model, count, 2.0, 3)
            assert len(np.unique(ls.xyz, axis=0)) == count
        # A seventh landmark needs radius 0, where duplicates stay excluded.
        assert select_both(model, 7, 2.0, 3) is None

    def test_radius_that_falls_to_zero(self):
        # Points 1e-13 apart are told apart only once the radius is 0.
        xyz = np.array([[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [0.0, 2e-13, 0.0],
                        [5.0, 5.0, 5.0], [5.0, 5.0, 5.0 + 1e-13]])
        model = model_at(xyz, seed=32)
        ls = select_both(model, 5, 1.0, 3)
        assert ls.provenance["r_final"] == 0.0
        assert select_both(model, 2, 1.0, 3).provenance["r_final"] > 0

    @pytest.mark.parametrize("count, min_track", [(6, 3), (40, 3), (1, 20)],
                             ids=["at-radius-zero", "too-few-eligible", "none-eligible"])
    def test_insufficient_candidates(self, count, min_track):
        xyz = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert select_both(model_at(xyz, seed=33), count, 0.5, min_track) is None


@needs_haswell
def test_agrees_without_avx512_and_under_haswell():
    env = subprocess_env(OPENBLAS_CORETYPE="Haswell", NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512)
    assert runtime_under(env) == ["Haswell", "False"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestSelectReferee"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


class TestLandmarkSet:
    def test_duplicate_sources_rejected(self):
        with pytest.raises(ValueError):
            LandmarkSet([5, 5], [np.zeros(3), np.ones(3)], [1.0, 1.0])

    @pytest.mark.parametrize("xyz, saliency", [
        ([np.zeros(3)], [1.0, 1.0]),                          # one position short
        ([np.zeros(3), np.ones(3)], [1.0]),                   # one saliency short
        ([np.zeros(3), np.ones(3), np.ones(3)], [1.0, 1.0]),  # one position too many
    ])
    def test_unequal_columns_rejected(self, xyz, saliency):
        with pytest.raises(ValueError, match="landmark columns differ in length"):
            LandmarkSet([5, 6], xyz, saliency)

    def test_columns_are_read_only(self):
        ls = LandmarkSet([5, 6], [np.zeros(3), np.ones(3)], [1.0, 2.0])
        for column in (ls.source_point_ids, ls.xyz, ls.saliency):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        model = make_cloud_model(rng)
        ls = select_landmarks(model, 12, r_init=2.0, min_track=3)
        path = tmp_path / "landmarks.txt"
        save_landmarks(ls, path)
        loaded = load_landmarks(path)
        assert len(loaded) == len(ls)
        assert np.array_equal(loaded.source_point_ids, ls.source_point_ids)
        assert np.array_equal(loaded.xyz, ls.xyz)
        assert np.array_equal(loaded.saliency, ls.saliency)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(19)
        model = make_cloud_model(rng)
        ls = select_landmarks(model, 8, r_init=2.0, min_track=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_landmarks(ls, p1)
        save_landmarks(ls, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMalformedFiles:
    def test_wrong_field_count(self, tmp_path):
        from landmarkloc.errors import MalformedFileError

        path = tmp_path / "bad.txt"
        path.write_text("0 100 1.0 2.0 3.0\n")  # missing saliency
        with pytest.raises(MalformedFileError) as err:
            load_landmarks(path)
        assert "bad.txt:1" in str(err.value)

    def test_non_numeric_field(self, tmp_path):
        from landmarkloc.errors import MalformedFileError

        path = tmp_path / "bad.txt"
        path.write_text("0 100 1.0 x 3.0 2.5\n")
        with pytest.raises(MalformedFileError):
            load_landmarks(path)

    @pytest.mark.parametrize("second", [
        "2 101 1.0 2.0 3.0 2.5",   # id 2 after id 0
        "1 100 1.0 2.0 3.0 2.5",   # source point 100 again
        "1 9223372036854775808 1.0 2.0 3.0 2.5",   # source point past int64
    ])
    def test_set_invariants_report_location(self, tmp_path, second):
        from landmarkloc.errors import MalformedFileError

        path = tmp_path / "bad.txt"
        path.write_text("# id source_point_id x y z saliency\n0 100 0.0 0.0 0.0 3.0\n" + second + "\n")
        with pytest.raises(MalformedFileError, match=r"bad\.txt:3: "):
            load_landmarks(path)
