import dataclasses
import tracemalloc

import numpy as np
import pytest

import landmarkloc.mesh as mesh_module
import landmarkloc.visibility as visibility
from landmarkloc.errors import DegeneracyError, MalformedFileError
from landmarkloc.mesh import _RAY_BLOCK, TriangleMesh, box_mesh, ray_cast
from landmarkloc.scene_model import (
    Intrinsics,
    Pose,
    SceneModel,
    look_at_pose,
    project_many,
)
from landmarkloc.visibility import (
    VisibilityConfig,
    VisibilityTable,
    _decimated,
    _first_hits,
    _visible,
    compute_visibility,
    estimate_affine_alignment,
    landmark_reference_normals,
    load_visibility,
    rasterize_depth,
    save_visibility,
)

import visibility_reference
from conftest import (
    image_set,
    landmark_set,
    loads_both_ways,
    make_intrinsics,
    points_from_pairs,
    project,
    random_rotation,
    record_ray_casts,
    record_ray_steps,
    same_table,
    sorted_rows,
)
from visibility_reference import is_visible


def copy_of(path):
    """Where save_visibility keeps the columns of the file at path."""
    return visibility._sidecar(path).path


@pytest.fixture(autouse=True)
def load_both_ways(monkeypatch, tmp_path_factory):
    """Makes each load_visibility of a test in this module load the file as
    text and from a copy (conftest.loads_both_ways): the same table, bit for
    bit, or the same error."""
    other = tmp_path_factory.mktemp("other") / "vis.txt"
    save_visibility(VisibilityTable([1], [[True]], {"tol_depth": 0.5}), other)
    load = loads_both_ways(lambda path: visibility.load_visibility(path), copy_of,
                           copy_of(other).read_bytes(), same_table)
    monkeypatch.setitem(globals(), "load_visibility", load)


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
            T, K = model.images.pose(iid), model.camera(iid)
            dm = rasterize_depth(mesh, K, T)
            for i, xyz in enumerate(ls.xyz):
                assert is_visible(xyz, K, T, dm, normals[i]) == vt.mask[i, j]


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
    landmarks = landmark_set(walls)

    poses = {}
    for iid in range(n_images):
        eye = np.array([rng.uniform(2, 4), rng.uniform(1.5, 2.5), rng.uniform(1, 2)])
        target = walls[int(rng.integers(0, len(walls)))]
        poses[iid] = look_at_pose(eye, target)
    model = SceneModel({1: K}, image_set(poses, names=[f"r{iid}.png" for iid in poses]),
                       points_from_pairs({}))
    return model, mesh, landmarks


def visibility_oracle(model, mesh, lm_xyz, image_id):
    T, K = model.images.pose(image_id), model.camera(image_id)
    if project(K, T, lm_xyz) is None:
        return False
    origin = T.center
    direction = lm_xyz - origin
    dist = np.linalg.norm(direction)
    t, _ = ray_cast(mesh, origin, direction / dist)
    return abs(t[0] - dist) < 1e-6


class TestComputeVisibility:
    def test_empty_landmark_set(self):
        model, mesh, _ = room_scene(n_landmarks=1, n_images=2)
        vt = compute_visibility(model, mesh, landmark_set([]))
        assert vt.mask.shape == (0, 2)

    def test_matches_raycast_oracle(self):
        occ = [((2.5, 1.8, 0.0), (3.5, 2.2, 1.8))]
        model, mesh, ls = room_scene(n_landmarks=40, n_images=8, occluders=occ)
        vt = compute_visibility(model, mesh, ls)
        agree = total = 0
        for lid, xyz in enumerate(ls.xyz):
            for iid in model.images.ids.tolist():
                expected = visibility_oracle(model, mesh, xyz, iid)
                total += 1
                agree += vt.visible(lid, iid) == expected
        assert agree / total >= 0.995

    def test_monotone_in_depth_tolerance(self):
        model, mesh, ls = room_scene(n_landmarks=30, n_images=6)
        tight = compute_visibility(model, mesh, ls, VisibilityConfig(tol_depth=0.05))
        loose = compute_visibility(model, mesh, ls, VisibilityConfig(tol_depth=0.10))
        assert (loose.mask | tight.mask).sum() == loose.mask.sum()

    def test_far_landmark_excluded(self):
        model, mesh, _ = room_scene(n_landmarks=2, n_images=2)
        floating = landmark_set([3.0, 2.0, 1.5])
        vt = compute_visibility(model, mesh, floating)
        assert vt.excluded.tolist() == [0]
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
    landmarks = list(ls.xyz)
    for iid in model.images.ids.tolist():
        T, K = model.images.pose(iid), model.camera(iid)
        for u, v in [(K.width - 0.3, K.height / 2), (K.width / 2, K.height - 0.3),
                     (K.width - 0.3, K.height - 0.3), (K.width - 1.2, K.height - 1.2)]:
            direction = T.R.T @ np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
            t, _ = ray_cast(mesh, T.center, direction)
            landmarks.append(T.center + t[0] * direction)
    return landmark_set(landmarks)


def first_hits_in_image(mesh, face_normals, K, T, decimation, uv):
    """_first_hits over pixels uv (M, 2) of one image with pose T."""
    R = T.R[None]
    return _first_hits(mesh, face_normals, _decimated(K, decimation), decimation, uv,
                       np.zeros(len(uv), dtype=np.int64), R,
                       np.ascontiguousarray(R.transpose(0, 2, 1)), T.center[None])


def lookup_visible(K, T, lookup, xyz, ref_normals, cfg, candidates):
    """_visible over the candidate landmarks xyz (N, 3) in view of one image,
    reading the mesh with lookup (DepthMap.lookup); False for the rest."""
    uv, valid = project_many(K, T, xyz)
    valid &= candidates
    out = np.zeros(len(xyz), dtype=bool)
    depth, normal = lookup(uv[valid])
    out[valid] = _visible(T.apply(xyz)[valid, 2], depth, normal, ref_normals[valid] @ T.R.T, cfg)
    return out


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
        active = np.array([lid not in excluded for lid in range(len(ls))])
        clipped = 0
        for j, iid in enumerate(vt.image_ids):
            T, K = model.images.pose(iid), model.camera(iid)
            dm = rasterize_depth(mesh, K, T, decimation)
            expected = lookup_visible(K, T, dm.lookup, ls.xyz, normals, cfg, active)
            assert np.array_equal(vt.mask[:, j], expected)
            uv, valid = project_many(K, T, ls.xyz)
            snapped = np.rint(uv[valid & expected] / decimation)
            clipped += ((snapped[:, 0] >= dm.width) | (snapped[:, 1] >= dm.height)).sum()
        assert clipped > 0
        assert 0 < vt.mask.sum() < vt.mask.size

    @pytest.mark.parametrize("decimation", [1, 2, 3])
    def test_samples_equal_depth_map(self, decimation):
        model, mesh, ls = self.scene()
        face_normals = mesh.face_normals()
        for iid in model.images.ids.tolist():
            T, K = model.images.pose(iid), model.camera(iid)
            uv, valid = project_many(K, T, ls.xyz)
            depth, normal = first_hits_in_image(mesh, face_normals, K, T, decimation,
                                                uv[valid])
            d_ref, n_ref = rasterize_depth(mesh, K, T, decimation).lookup(uv[valid])
            assert np.isfinite(depth).all() and np.isfinite(d_ref).all()
            assert np.abs(depth - d_ref).max() <= 1e-9 * depth.max()
            assert np.abs(normal - n_ref).max() <= 1e-12

    def test_miss_gives_inf_depth_and_zero_normal(self):
        K = make_intrinsics()
        T = Pose(np.eye(3), np.zeros(3))
        wall = facing_square(z=2.0, half=0.5)
        depth, normal = first_hits_in_image(wall, wall.face_normals(), K, T, 1,
                                            np.array([[K.cx, K.cy], [0.0, 0.0]]))
        assert abs(depth[0] - 2.0) < 1e-12 and np.array_equal(normal[0], [0, 0, -1.0])
        assert np.isinf(depth[1]) and not normal[1].any()


class TestTableEquality:
    def test_equal_tables_compare_equal(self):
        mask = np.array([[True, False], [False, True], [True, True]])
        a = VisibilityTable([4, 5], mask, {"tol": 0.5}, [1])
        assert a == VisibilityTable([4, 5], mask.copy(), {"tol": 0.5}, [1])
        assert a != VisibilityTable([4, 5], ~mask, {"tol": 0.5}, [1])
        assert a != VisibilityTable([4, 6], mask, {"tol": 0.5}, [1])
        assert a != VisibilityTable([4, 5], mask, {"tol": 0.25}, [1])
        assert a != VisibilityTable([4, 5], mask, {"tol": 0.5}, [])
        assert a != VisibilityTable([4, 5], mask[:2], {"tol": 0.5}, [1])
        assert a != "a table"


class TestVisibilityIO:
    def test_roundtrip(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=12, n_images=5)
        vt = compute_visibility(model, mesh, ls)
        path = tmp_path / "vis.txt"
        save_visibility(vt, path)
        loaded = load_visibility(path)
        assert loaded.image_ids.tolist() == vt.image_ids.tolist()
        assert np.array_equal(loaded.mask, vt.mask)
        assert loaded.tolerances["tol_depth"] == 0.05

    def test_header_contains_dimensions(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=3, n_images=2)
        vt = compute_visibility(model, mesh, ls)
        path = tmp_path / "vis.txt"
        save_visibility(vt, path)
        head = path.read_text().splitlines()[0]
        assert "landmarks=3" in head and "images=2" in head

    def test_cut_file_is_refused_at_its_header(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=60, n_images=5)
        path = tmp_path / "vis.txt"
        save_visibility(compute_visibility(model, mesh, ls), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-5]))
        with pytest.raises(MalformedFileError, match=r"vis\.txt:1: header counts 60 landmarks "
                                                     r"and 5 images, the file lists 55 and 5"):
            load_visibility(path)
        path.write_text("".join(lines[1:]))
        with pytest.raises(MalformedFileError, match=rf"vis\.txt:{len(lines) - 1}: missing "
                                                     r"`# visibility landmarks=L images=N`"):
            load_visibility(path)

    def test_non_integer_id_reports_line(self, tmp_path):
        path = tmp_path / "vis.txt"
        path.write_text("# visibility landmarks=2 images=2\n# image_ids 1 2\n0 1\n1 2.5\n")
        with pytest.raises(MalformedFileError, match=r"vis\.txt:4:"):
            load_visibility(path)

    def test_roundtrip_equals(self, tmp_path):
        model, mesh, ls = room_scene(n_landmarks=12, n_images=5)
        vt = compute_visibility(model, mesh, ls)
        save_visibility(vt, tmp_path / "vis.txt")
        assert load_visibility(tmp_path / "vis.txt") == vt

    def test_table_cannot_go_stale(self):
        # No field can be reassigned and no column written, so the image id
        # -> column lookup made by the constructor holds. The caller's mask
        # stays writable: the table keeps a copy.
        mask = np.array([[True, False], [False, True]])
        vt = VisibilityTable([1, 2], mask, {}, [1])
        for name, value in (("image_ids", [2]), ("mask", mask[:, [1]]), ("excluded", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vt, name, value)
        for column in (vt.image_ids, vt.mask, vt.excluded):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert vt.image_ids.dtype == vt.excluded.dtype == np.int64 and vt.mask.dtype == bool
        mask[0, 0] = False
        assert vt.visible(0, 1) and not vt.visible(0, 2) and vt.visible(1, 2)

    @pytest.mark.parametrize("excluded, message", [
        ([3], r"excluded landmark id 3 outside \[0, 3\)"),
        ([-1], r"excluded landmark id -1 outside \[0, 3\)"),
        ([2, 0, 2], r"excluded landmark id 2 repeated"),
    ])
    def test_excluded_ids_name_rows(self, tmp_path, excluded, message):
        mask = np.ones((3, 2), dtype=bool)
        with pytest.raises(ValueError, match=message):
            VisibilityTable([4, 5], mask, {}, excluded)
        path = tmp_path / "vis.txt"
        save_visibility(VisibilityTable([4, 5], mask, {}, [0]), path)
        path.write_text(path.read_text().replace("# excluded 0",
                                                 "# excluded " + " ".join(map(str, excluded))))
        with pytest.raises(MalformedFileError, match=r"vis\.txt:4: " + message):
            load_visibility(path)

    def test_unknown_image_reports_line(self, tmp_path):
        path = tmp_path / "vis.txt"
        path.write_text("# visibility landmarks=2 images=2\n# image_ids 1 2\n\n0 1 2\n1 7\n")
        with pytest.raises(MalformedFileError, match=r"vis\.txt:5: unknown image id 7"):
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
        T, K = model.images.pose(0), model.camera(0)
        dm = rasterize_depth(mesh, K, T, decimation=2)
        assert dm.width == -(-K.width // 2)
        assert dm.height == -(-K.height // 2)


def moved(model, mesh, ls, Q, s):
    """The scene with every point p moved to Q @ p + s (Q a rotation)."""
    images = model.images
    poses = {iid: images.pose(iid) for iid in images.ids.tolist()}
    images = image_set({iid: Pose(T.R @ Q.T, T.t - T.R @ Q.T @ s) for iid, T in poses.items()},
                       images.camera_ids, images.names)
    return (SceneModel(model.intrinsics, images, model.points),
            TriangleMesh(mesh.vertices @ Q.T + s, mesh.triangles), landmark_set(ls.xyz @ Q.T + s))


def two_camera_scene():
    """An occluded room, turned off the axes so that no product in the test
    is exact, whose images alternate between two cameras with different
    intrinsics, with landmarks at the edges of every image, two landmarks off
    the mesh, and two images above the room looking away from it, which see
    no landmark."""
    occ = [([2.5, 1.5, 0.5], [3.5, 2.5, 2.0])]
    model, mesh, ls = room_scene(n_landmarks=40, n_images=10, occluders=occ, seed=41)
    Q, s = random_rotation(np.random.default_rng(42)), np.array([0.3, -1.7, 2.2])
    model, mesh, ls = moved(model, mesh, ls, Q, s)
    intrinsics = {1: model.intrinsics[1], 2: Intrinsics(120.0, 110.0, 97.3, 51.1, 200, 100)}
    poses = {iid: model.images.pose(iid) for iid in model.images.ids.tolist()}
    names = list(model.images.names)
    images = image_set(poses, [1 + iid % 2 for iid in poses], names)
    ls = with_edge_landmarks(SceneModel(intrinsics, images, points_from_pairs({})), mesh, ls)
    for iid in (10, 11):
        eye, target = Q @ [3.0, 2.0, 10.0] + s, Q @ [3.1, 2.0, 20.0] + s
        poses[iid] = look_at_pose(eye, target)
        names.append(f"up{iid}.png")
    images = image_set(poses, [1 + iid % 2 for iid in poses], names)
    off_mesh = np.array([[3.0, 2.0, 1.5], [1.0, 1.0, 1.0]]) @ Q.T + s
    return (SceneModel(intrinsics, images, points_from_pairs({})), mesh,
            landmark_set(np.vstack([ls.xyz, off_mesh])))


class TestPerImageReferee:
    """compute_visibility against the per-image pass it replaced
    (tests/visibility_reference.py), bit for bit."""

    @pytest.mark.parametrize("decimation", [1, 2, 3])
    @pytest.mark.parametrize("sizes", ["default", "small", "large"])
    def test_equals_per_image_loop(self, monkeypatch, decimation, sizes):
        model, mesh, ls = two_camera_scene()
        cfg = VisibilityConfig(decimation=decimation)
        # The per-image pass first, with ray_cast's default steps.
        ref_calls = record_ray_casts(monkeypatch, visibility_reference)
        expected = visibility_reference.compute_visibility_per_image(model, mesh, ls, cfg)
        per_image = [len(c[0]) for c in ref_calls]
        ref_rays = sorted_rows(ref_calls)
        normals, _ = landmark_reference_normals(mesh, ls, cfg.max_surface_dist)
        terms = []
        for iid in model.images.ids.tolist():
            T, K = model.images.pose(iid), model.camera(iid)
            sample = visibility_reference.first_hits(mesh, mesh.face_normals(), K, T,
                                                     decimation)
            valid, pair = visibility_reference.pair_terms(K, T, sample, ls.xyz, normals,
                                                          ~np.isin(np.arange(len(ls)),
                                                                   expected.excluded))
            terms += [pair] if valid.any() else []

        n_tri = min(len(mesh), _RAY_BLOCK)
        if sizes == "small":  # one image per block, one ray per ray_cast step
            monkeypatch.setattr(visibility, "_PAIR_BLOCK", len(ls))
            monkeypatch.setattr(mesh_module, "_RAY_ROWS", n_tri)
        elif sizes == "large":  # five images per block, each block's rays in one step
            monkeypatch.setattr(visibility, "_PAIR_BLOCK", 5 * len(ls))
            monkeypatch.setattr(mesh_module, "_RAY_ROWS", 10**6)
        calls = record_ray_casts(monkeypatch, visibility)
        steps = record_ray_steps(monkeypatch)
        tested = []

        def recorded(*args):
            tested.append(args[:4])
            return _visible(*args)

        monkeypatch.setattr(visibility, "_visible", recorded)
        vt = compute_visibility(model, mesh, ls, cfg)

        assert vt.image_ids.tolist() == expected.image_ids.tolist() == list(range(12))
        assert vt.excluded.tolist() == expected.excluded.tolist() == [len(ls) - 2, len(ls) - 1]
        assert np.array_equal(vt.mask, expected.mask)
        assert 0 < vt.mask.sum() < vt.mask.size
        # Every ray cast, its origin, direction, depth and triangle, and every
        # pair's depths and normals tested have the bits of the per-image
        # pass. (One pair in view would take one-row products on a transposed
        # view there, which round otherwise; no image has one.)
        assert 1 not in per_image and len(per_image) == 10  # the two above see none
        assert np.array_equal(sorted_rows(calls), ref_rays)
        assert np.array_equal(sorted_rows(tested), sorted_rows(terms))
        rays = [len(c[0]) for c in calls]  # one call per block with a pair in view
        assert 0 not in rays
        if sizes == "small":  # per image, its pairs in view, cast one at a time
            assert sorted(rays) == sorted(per_image) and max(steps) == 1
        elif sizes == "large":  # per camera, its five images that see landmarks
            assert len(rays) == 2 and min(rays) > 2 * max(per_image) and steps == rays

    def test_save_matches_per_landmark_writer(self, tmp_path):
        model, mesh, ls = two_camera_scene()
        vt = compute_visibility(model, mesh, ls)
        save_visibility(vt, tmp_path / "a.txt")
        visibility_reference.save_visibility_per_landmark(vt, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestBounds:
    def test_ray_casts_hold_the_row_budget(self, monkeypatch):
        # 100 images of 200 landmarks in three image blocks: one ray_cast
        # call per block, whose steps hold no more (ray x triangle) rows than
        # the budget.
        model, mesh, ls = room_scene(n_landmarks=200, n_images=100)
        calls = record_ray_casts(monkeypatch, visibility)
        steps = record_ray_steps(monkeypatch)
        vt = compute_visibility(model, mesh, ls)
        rays = [len(c[0]) for c in calls]
        assert len(calls) == len(visibility._pair_blocks(100, len(ls))) == 3
        assert max(steps) * min(len(mesh), _RAY_BLOCK) <= mesh_module._RAY_ROWS
        assert max(rays) > max(steps)
        assert sum(steps) == sum(rays) >= vt.mask.sum() > 0

    def test_peak_memory_is_bounded(self, monkeypatch):
        # 400 images of 200 landmarks: the image blocks keep the peak near
        # that of the reference normals (about 1.1 MB); all images in one
        # block would stack 80,000 camera frames (about 4.4 MB).
        model, mesh, ls = room_scene(n_landmarks=200, n_images=400)

        def peak():
            tracemalloc.start()
            try:
                compute_visibility(model, mesh, ls)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 1.5e6
        monkeypatch.setattr(visibility, "_PAIR_BLOCK", 10**9)
        assert peak() > 1.5e6
