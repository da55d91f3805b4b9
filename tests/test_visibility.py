import numpy as np
import pytest

from landmarkloc.errors import DegeneracyError, MalformedFileError
from landmarkloc.landmarks import Landmark, LandmarkSet
from landmarkloc.mesh import TriangleMesh, box_mesh, ray_cast
from landmarkloc.scene_model import (
    ImageRecord,
    Intrinsics,
    Pose,
    SceneModel,
    look_at_pose,
    project,
    project_many,
)
from landmarkloc.visibility import (
    VisibilityConfig,
    _first_hits,
    _visible,
    compute_visibility,
    estimate_affine_alignment,
    is_visible,
    landmark_reference_normals,
    load_visibility,
    rasterize_depth,
    save_visibility,
)

from conftest import make_intrinsics, points_from_pairs


def facing_square(z=2.0, half=10.0):
    """Two triangles spanning x,y in [-half, half] at depth z, normal -z."""
    verts = np.array(
        [[-half, -half, z], [half, -half, z], [half, half, z], [-half, half, z]]
    )
    # Wind so cross(v1-v0, v2-v0) points toward -z (at the camera).
    tris = np.array([[0, 2, 1], [0, 3, 2]])
    return TriangleMesh(verts, tris)


def raster_ray_oracle(mesh, K, T, px, py):
    """Depth at a pixel center via first-hit ray casting."""
    dir_cam = np.array([(px - K.cx) / K.fx, (py - K.cy) / K.fy, 1.0])
    origin = T.center
    direction = T.R.T @ dir_cam
    t, _ = ray_cast(mesh, origin, direction)
    return t[0]  # dir_cam has unit z, so t equals camera-frame depth


class TestRasterize:
    def test_fronto_parallel_plane(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        dm = rasterize_depth(facing_square(z=2.0), K, T)
        assert np.abs(dm.depth - 2.0).max() < 1e-6
        assert np.abs(dm.normal - np.array([0.0, 0.0, -1.0])).max() < 1e-12

    def test_empty_region_is_inf(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        mesh = TriangleMesh(
            np.array([[-0.1, -0.1, 2.0], [0.1, -0.1, 2.0], [0.0, 0.1, 2.0]]),
            np.array([[0, 2, 1]]),
        )
        dm = rasterize_depth(mesh, K, T)
        assert np.isinf(dm.depth[0, 0])
        assert np.isfinite(dm.depth[50, 50])

    def test_against_ray_cast(self):
        rng = np.random.default_rng(30)
        K = Intrinsics(120.0, 120.0, 64.0, 48.0, 128, 96)
        verts = rng.uniform(-3, 3, size=(24, 3)) + np.array([0, 0, 5.0])
        tris = rng.integers(0, 24, size=(30, 3))
        mesh = TriangleMesh(verts, tris).drop_degenerate()
        T = Pose(np.eye(3), np.zeros(3))
        dm = rasterize_depth(mesh, K, T)
        pixels = np.column_stack(
            [rng.integers(0, K.width, 1000), rng.integers(0, K.height, 1000)]
        )
        mismatches = 0
        for px, py in pixels:
            expected = raster_ray_oracle(mesh, K, T, px, py)
            got = dm.depth[py, px]
            if np.isinf(expected) and np.isinf(got):
                continue
            if np.isinf(expected) != np.isinf(got) or abs(got - expected) > 1e-6:
                mismatches += 1  # edge-inclusion differences only
        assert mismatches <= 10

    def test_camera_inside_box_with_near_clipping(self):
        # Walls span behind the camera; clipping must keep the rasterization
        # consistent with ray casting.
        K = Intrinsics(100.0, 100.0, 60.0, 45.0, 120, 90)
        room = box_mesh([0, 0, 0], [6, 4, 3], inward=True)
        T = look_at_pose([3.0, 2.0, 1.5], [6.0, 2.0, 1.5])
        dm = rasterize_depth(room, K, T)
        assert np.isfinite(dm.depth).all()
        rng = np.random.default_rng(31)
        for _ in range(300):
            px = int(rng.integers(0, K.width))
            py = int(rng.integers(0, K.height))
            expected = raster_ray_oracle(room, K, T, px, py)
            assert abs(dm.depth[py, px] - expected) < 1e-6

    def test_resolution_consistency_on_smooth_plane(self):
        # Tilted plane: depth varies smoothly; halving resolution must track
        # the full-resolution depths within one pixel's depth footprint.
        K = Intrinsics(200.0, 200.0, 100.0, 75.0, 200, 150)
        verts = np.array(
            [[-20, -20, 2.0], [20, -20, 6.0], [20, 20, 6.0], [-20, 20, 2.0]]
        )
        mesh = TriangleMesh(verts, np.array([[0, 2, 1], [0, 3, 2]]))
        T = Pose(np.eye(3), np.zeros(3))
        full = rasterize_depth(mesh, K, T, decimation=1)
        half = rasterize_depth(mesh, K, T, decimation=2)
        grad = np.abs(np.diff(full.depth, axis=1)).max()
        for j in range(5, half.height - 5):
            for i in range(5, half.width - 5):
                d_full = full.depth[2 * j, 2 * i]
                assert abs(half.depth[j, i] - d_full) <= 2 * grad + 1e-9


class TestAffineAlignment:
    def make_data(self, rng, n=60, outlier_rate=0.0, offset=1.0):
        A = rng.normal(size=(3, 3)) + np.eye(3) * 2
        b = rng.normal(size=3)
        src = rng.uniform(-5, 5, size=(n, 3))
        dst = src @ A.T + b
        n_out = int(round(outlier_rate * n))
        outliers = rng.choice(n, size=n_out, replace=False)
        for i in outliers:
            off = rng.normal(size=3)
            dst[i] += off / np.linalg.norm(off) * offset
        return A, b, src, dst, set(outliers.tolist())

    def test_exact_recovery(self):
        rng = np.random.default_rng(32)
        A, b, src, dst, _ = self.make_data(rng)
        tf, mask = estimate_affine_alignment(src, dst, threshold=0.05, seed=0)
        assert np.abs(tf.A - A).max() < 1e-9
        assert np.abs(tf.b - b).max() < 1e-9
        assert mask.all()

    def test_identity(self):
        rng = np.random.default_rng(33)
        src = rng.uniform(-2, 2, size=(20, 3))
        tf, mask = estimate_affine_alignment(src, src.copy(), threshold=0.01, seed=0)
        assert np.abs(tf.A - np.eye(3)).max() < 1e-9
        assert np.abs(tf.b).max() < 1e-9

    def test_planted_outliers_flagged(self):
        rng = np.random.default_rng(34)
        A, b, src, dst, outliers = self.make_data(rng, outlier_rate=0.2, offset=1.0)
        tf, mask = estimate_affine_alignment(src, dst, threshold=0.05, seed=3)
        flagged = set(np.flatnonzero(~mask).tolist())
        assert flagged == outliers
        assert np.abs(tf.A - A).max() < 1e-9

    def test_coplanar_degeneracy(self):
        rng = np.random.default_rng(35)
        src = rng.uniform(-5, 5, size=(20, 3))
        src[:, 2] = 1.0
        with pytest.raises(DegeneracyError):
            estimate_affine_alignment(src, src, threshold=0.05)

    def test_too_few_matches(self):
        with pytest.raises(DegeneracyError):
            estimate_affine_alignment(np.zeros((3, 3)), np.zeros((3, 3)), 0.05)


class TestIsVisible:
    def setup_method(self):
        self.K = make_intrinsics()
        self.T = Pose(np.eye(3), np.zeros(3))
        self.wall = facing_square(z=2.0)
        self.normal = np.array([0.0, 0.0, -1.0])

    def test_behind_camera(self):
        dm = rasterize_depth(self.wall, self.K, self.T)
        assert not is_visible(np.array([0, 0, -1.0]), self.K, self.T, dm, self.normal)

    def test_unobstructed_wall_point(self):
        dm = rasterize_depth(self.wall, self.K, self.T)
        assert is_visible(np.array([0.1, -0.2, 2.0]), self.K, self.T, dm, self.normal)

    def test_occluding_box_blocks(self):
        box = box_mesh([-0.5, -0.5, 0.9], [0.5, 0.5, 1.1])
        combined = TriangleMesh(
            np.vstack([self.wall.vertices, box.vertices]),
            np.vstack([self.wall.triangles, box.triangles + len(self.wall.vertices)]),
        )
        dm = rasterize_depth(combined, self.K, self.T)
        # First hit along the axis is the box front face at z = 0.9.
        t, _ = ray_cast(combined, np.zeros(3), np.array([0, 0, 1.0]))
        assert abs(t[0] - 0.9) < 1e-9
        assert not is_visible(np.array([0, 0, 2.0]), self.K, self.T, dm, self.normal)

    def test_normal_condition_rejects(self):
        dm = rasterize_depth(self.wall, self.K, self.T)
        sideways = np.array([1.0, 0.0, 0.0])
        assert not is_visible(np.array([0, 0, 2.0]), self.K, self.T, dm, sideways)

    def test_reference_normal_need_not_be_unit(self):
        dm = rasterize_depth(self.wall, self.K, self.T)
        p = np.array([0.1, -0.2, 2.0])
        assert is_visible(p, self.K, self.T, dm, 5.0 * self.normal)
        assert is_visible(p, self.K, self.T, dm, 0.2 * self.normal)

    def test_agrees_with_compute_visibility(self):
        model, mesh, ls = room_scene(n_landmarks=25, n_images=5,
                                     occluders=[([2.5, 1.5, 0.5], [3.5, 2.5, 2.0])])
        vt = compute_visibility(model, mesh, ls)
        normals, _ = landmark_reference_normals(mesh, ls, 0.2)
        for j, iid in enumerate(vt.image_ids):
            img = model.images[iid]
            K = model.intrinsics[img.camera_id]
            dm = rasterize_depth(mesh, K, img.pose)
            for i, lm in enumerate(ls):
                assert is_visible(lm.xyz, K, img.pose, dm, normals[i]) == vt.mask[i, j]


def room_scene(n_landmarks=40, n_images=8, occluders=(), seed=40):
    """Room box with wall landmarks and cameras looking at the walls."""
    rng = np.random.default_rng(seed)
    lo, hi = np.zeros(3), np.array([6.0, 4.0, 3.0])
    mesh = box_mesh(lo, hi, inward=True)
    verts = [mesh.vertices]
    tris = [mesh.triangles]
    offset = len(mesh.vertices)
    for blo, bhi in occluders:
        b = box_mesh(blo, bhi)
        verts.append(b.vertices)
        tris.append(b.triangles + offset)
        offset += len(b.vertices)
    mesh = TriangleMesh(np.vstack(verts), np.vstack(tris))

    K = Intrinsics(150.0, 150.0, 80.0, 60.0, 160, 120)
    walls = []
    for _ in range(n_landmarks):
        axis = int(rng.integers(0, 4))
        u, v = rng.uniform(0.3, 0.7, size=2)
        if axis == 0:
            p = [0.0, 0.5 + 3 * u, 0.5 + 2 * v]
        elif axis == 1:
            p = [6.0, 0.5 + 3 * u, 0.5 + 2 * v]
        elif axis == 2:
            p = [0.5 + 5 * u, 0.0, 0.5 + 2 * v]
        else:
            p = [0.5 + 5 * u, 4.0, 0.5 + 2 * v]
        walls.append(p)
    landmarks = LandmarkSet(
        [Landmark(i, i, np.array(p), 1.0) for i, p in enumerate(walls)]
    )

    images = {}
    for iid in range(n_images):
        eye = np.array([rng.uniform(2, 4), rng.uniform(1.5, 2.5), rng.uniform(1, 2)])
        target = walls[int(rng.integers(0, len(walls)))]
        images[iid] = ImageRecord(iid, look_at_pose(eye, target), 1, f"r{iid}.png")
    model = SceneModel({1: K}, images, points_from_pairs({}))
    return model, mesh, landmarks


def visibility_oracle(model, mesh, lm_xyz, image_id):
    img = model.images[image_id]
    K = model.intrinsics[img.camera_id]
    if project(K, img.pose, lm_xyz) is None:
        return False
    origin = img.pose.center
    direction = lm_xyz - origin
    dist = np.linalg.norm(direction)
    t, _ = ray_cast(mesh, origin, direction / dist)
    return abs(t[0] - dist) < 1e-6


class TestComputeVisibility:
    def test_empty_landmark_set(self):
        model, mesh, _ = room_scene(n_landmarks=1, n_images=2)
        vt = compute_visibility(model, mesh, LandmarkSet([]))
        assert vt.mask.shape == (0, 2)

    def test_matches_raycast_oracle(self):
        occ = [((2.5, 1.8, 0.0), (3.5, 2.2, 1.8))]
        model, mesh, ls = room_scene(n_landmarks=40, n_images=8, occluders=occ)
        vt = compute_visibility(model, mesh, ls)
        agree = total = 0
        for lm in ls:
            for iid in model.images:
                expected = visibility_oracle(model, mesh, lm.xyz, iid)
                total += 1
                agree += vt.visible(lm.id, iid) == expected
        assert agree / total >= 0.995

    def test_monotone_in_depth_tolerance(self):
        model, mesh, ls = room_scene(n_landmarks=30, n_images=6)
        tight = compute_visibility(model, mesh, ls, VisibilityConfig(tol_depth=0.05))
        loose = compute_visibility(model, mesh, ls, VisibilityConfig(tol_depth=0.10))
        assert (loose.mask | tight.mask).sum() == loose.mask.sum()

    def test_far_landmark_excluded(self):
        model, mesh, _ = room_scene(n_landmarks=2, n_images=2)
        floating = LandmarkSet([Landmark(0, 0, np.array([3.0, 2.0, 1.5]), 1.0)])
        vt = compute_visibility(model, mesh, floating)
        assert vt.excluded == [0]
        assert not vt.mask.any()

    def test_reference_normals_on_walls(self):
        _, mesh, ls = room_scene(n_landmarks=10, n_images=1)
        normals, excluded = landmark_reference_normals(mesh, ls, 0.2)
        assert excluded == []
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def with_edge_landmarks(model, mesh, ls):
    """ls plus, per image, landmarks on the mesh surface seen at pixels of the
    last column and row, where the snapped pixel of a decimated grid is
    clipped."""
    landmarks = list(ls)
    for iid in sorted(model.images):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        for u, v in [(K.width - 0.3, K.height / 2), (K.width / 2, K.height - 0.3),
                     (K.width - 0.3, K.height - 0.3), (K.width - 1.2, K.height - 1.2)]:
            direction = img.pose.R.T @ np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
            t, _ = ray_cast(mesh, img.pose.center, direction)
            n = len(landmarks)
            landmarks.append(Landmark(n, 1000 + n, img.pose.center + t[0] * direction, 1.0))
    return LandmarkSet(landmarks)


class TestRayCastSampling:
    """compute_visibility reads the mesh with one ray per landmark; the
    rasterized depth map, read at the same pixels, must give the same table."""

    def scene(self):
        occ = [([2.5, 1.5, 0.5], [3.5, 2.5, 2.0])]
        model, mesh, ls = room_scene(n_landmarks=40, n_images=8, occluders=occ)
        return model, mesh, with_edge_landmarks(model, mesh, ls)

    @pytest.mark.parametrize("decimation", [1, 2, 3])
    def test_mask_equals_rasterized_path(self, decimation):
        model, mesh, ls = self.scene()
        cfg = VisibilityConfig(decimation=decimation)
        vt = compute_visibility(model, mesh, ls, cfg)
        normals, excluded = landmark_reference_normals(mesh, ls, cfg.max_surface_dist)
        active = np.array([lm.id not in excluded for lm in ls])
        clipped = 0
        for j, iid in enumerate(vt.image_ids):
            img = model.images[iid]
            K = model.intrinsics[img.camera_id]
            dm = rasterize_depth(mesh, K, img.pose, decimation)
            expected = _visible(K, img.pose, dm.lookup, ls.xyz, normals, cfg, active)
            assert np.array_equal(vt.mask[:, j], expected)
            uv, valid = project_many(K, img.pose, ls.xyz)
            snapped = np.rint(uv[valid & expected] / decimation)
            clipped += ((snapped[:, 0] >= dm.width) | (snapped[:, 1] >= dm.height)).sum()
        assert clipped > 0
        assert 0 < vt.mask.sum() < vt.mask.size

    @pytest.mark.parametrize("decimation", [1, 2, 3])
    def test_samples_equal_depth_map(self, decimation):
        model, mesh, ls = self.scene()
        face_normals = mesh.face_normals()
        for img in model.images.values():
            K = model.intrinsics[img.camera_id]
            uv, valid = project_many(K, img.pose, ls.xyz)
            depth, normal = _first_hits(mesh, face_normals, K, img.pose, decimation)(uv[valid])
            d_ref, n_ref = rasterize_depth(mesh, K, img.pose, decimation).lookup(uv[valid])
            assert np.isfinite(depth).all() and np.isfinite(d_ref).all()
            assert np.abs(depth - d_ref).max() <= 1e-9 * depth.max()
            assert np.abs(normal - n_ref).max() <= 1e-12

    def test_miss_gives_inf_depth_and_zero_normal(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        wall = facing_square(z=2.0, half=0.5)
        sample = _first_hits(wall, wall.face_normals(), K, T, 1)
        depth, normal = sample(np.array([[K.cx, K.cy], [0.0, 0.0]]))
        assert abs(depth[0] - 2.0) < 1e-12 and np.array_equal(normal[0], [0, 0, -1.0])
        assert np.isinf(depth[1]) and not normal[1].any()


class TestVisibilityIO:
    def test_roundtrip(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=12, n_images=5)
        vt = compute_visibility(model, mesh, ls)
        path = tmp_path / "vis.txt"
        save_visibility(vt, path)
        loaded = load_visibility(path)
        assert loaded.landmark_ids == vt.landmark_ids
        assert loaded.image_ids == vt.image_ids
        assert np.array_equal(loaded.mask, vt.mask)
        assert loaded.tolerances["tol_depth"] == 0.05

    def test_header_contains_dimensions(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=3, n_images=2)
        vt = compute_visibility(model, mesh, ls)
        path = tmp_path / "vis.txt"
        save_visibility(vt, path)
        head = path.read_text().splitlines()[0]
        assert "landmarks=3" in head and "images=2" in head

    def test_non_integer_id_reports_line(self, tmp_path):
        path = tmp_path / "vis.txt"
        path.write_text("# image_ids 1 2\n0 1\n1 2.5\n")
        with pytest.raises(MalformedFileError, match=r"vis\.txt:3:"):
            load_visibility(path)

    def test_unknown_image_reports_line(self, tmp_path):
        path = tmp_path / "vis.txt"
        path.write_text("# image_ids 1 2\n\n0 1 2\n1 7\n")
        with pytest.raises(MalformedFileError, match=r"vis\.txt:4: unknown image id 7"):
            load_visibility(path)


class TestDecimation:
    def test_decimated_table_close_to_full(self):
        model, mesh, ls = room_scene(n_landmarks=30, n_images=6)
        full = compute_visibility(model, mesh, ls, VisibilityConfig(decimation=1))
        half = compute_visibility(model, mesh, ls, VisibilityConfig(decimation=2))
        agreement = (full.mask == half.mask).mean()
        assert agreement >= 0.97
        assert half.tolerances["decimation"] == 2

    def test_depth_map_dimensions(self):
        model, mesh, _ = room_scene(n_landmarks=2, n_images=1)
        img = model.images[0]
        K = model.intrinsics[img.camera_id]
        dm = rasterize_depth(mesh, K, img.pose, decimation=2)
        assert dm.width == -(-K.width // 2)
        assert dm.height == -(-K.height // 2)
