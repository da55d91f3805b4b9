import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import landmarkloc.mesh as mesh_module
import landmarkloc.synth as synth
import landmarkloc.visibility as visibility
from landmarkloc.errors import MalformedFileError
from landmarkloc.mesh import (
    _RAY_BLOCK,
    TriangleMesh,
    box_mesh,
    closest_point_on_triangles,
    load_mesh,
    nearest_surface_point,
    ray_cast,
    save_mesh_ply,
)
from landmarkloc.visibility import VisibilityConfig, compute_visibility

from conftest import (
    OTHER_SETTINGS,
    needs_haswell,
    random_rotation,
    record_ray_casts,
    runtime_under,
    subprocess_env,
)
from test_synth import small_cfg
from test_visibility import two_camera_scene


def ray_cast_oracle(mesh, origin, direction):
    """Independent first-hit: plane intersection + barycentric inside test."""
    best = np.inf
    v0s, v1s, v2s = mesh.corners
    for v0, v1, v2 in zip(v0s, v1s, v2s):
        n = np.cross(v1 - v0, v2 - v0)
        denom = np.dot(n, direction)
        if abs(denom) < 1e-14:
            continue
        t = np.dot(n, v0 - origin) / denom
        if t <= 1e-9 or t >= best:
            continue
        x = origin + t * direction
        # Barycentric coordinates via the normal-projected areas.
        area2 = np.dot(n, n)
        w0 = np.dot(np.cross(v1 - x, v2 - x), n) / area2
        w1 = np.dot(np.cross(v2 - x, v0 - x), n) / area2
        w2 = np.dot(np.cross(v0 - x, v1 - x), n) / area2
        if w0 >= -1e-10 and w1 >= -1e-10 and w2 >= -1e-10:
            best = t
    return best


def ray_cast_per_triangle(mesh, origins, dirs):
    """ray_cast one triangle at a time: the same Moller-Trumbore arithmetic,
    with the running best distance replaced only by a strictly nearer hit."""
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = len(origins)
    t_best = np.full(n, np.inf)
    idx_best = np.full(n, -1, dtype=np.int64)
    v0, v1, v2 = mesh.corners
    for k in range(len(mesh)):
        e1 = v1[k] - v0[k]
        e2 = v2[k] - v0[k]
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        ok = np.abs(det) > 1e-12
        inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origins - v0[k]
        u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.einsum("ij,ij->i", dirs, qvec) * inv_det
        t = (qvec @ e2) * inv_det
        hit = (
            ok
            & (u >= -1e-12)
            & (v >= -1e-12)
            & (u + v <= 1.0 + 1e-12)
            & (t > 1e-9)
            & (t < t_best)
        )
        t_best[hit] = t[hit]
        idx_best[hit] = k
    return t_best, idx_best


class TestTriangleMesh:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # What both mesh loaders refuse, with their message.
        with pytest.raises(ValueError, match="^non-finite vertex$"):
            TriangleMesh([[bad, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    def test_degenerate_filtering(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
        tris = np.array([[0, 1, 2], [0, 1, 3]])  # second is collinear
        mesh = TriangleMesh(verts, tris).drop_degenerate()
        assert len(mesh) == 1

    def test_box_normals(self):
        box = box_mesh([0, 0, 0], [1, 2, 3])
        normals = box.face_normals()
        centers = box.vertices[box.triangles].mean(axis=1)
        mid = np.array([0.5, 1.0, 1.5])
        # Outward winding: normals point away from the box center.
        assert (np.einsum("ij,ij->i", normals, centers - mid) > 0).all()
        inward = box_mesh([0, 0, 0], [1, 2, 3], inward=True)
        assert (np.einsum("ij,ij->i", inward.face_normals(), centers - mid) < 0).all()


class TestRayCast:
    def test_single_triangle_hit(self):
        mesh = TriangleMesh(
            np.array([[-1, -1, 2], [1, -1, 2], [0, 1, 2]], dtype=float),
            np.array([[0, 1, 2]]),
        )
        t, idx = ray_cast(mesh, np.zeros(3), np.array([0, 0, 1.0]))
        assert abs(t[0] - 2.0) < 1e-12
        assert idx[0] == 0

    def test_miss(self):
        mesh = TriangleMesh(
            np.array([[-1, -1, 2], [1, -1, 2], [0, 1, 2]], dtype=float),
            np.array([[0, 1, 2]]),
        )
        t, idx = ray_cast(mesh, np.zeros(3), np.array([0, 0, -1.0]))
        assert np.isinf(t[0]) and idx[0] == -1

    def test_first_hit_of_two_walls(self):
        mesh = box_mesh([-1, -1, 1], [1, 1, 3])
        t, _ = ray_cast(mesh, np.zeros(3), np.array([0, 0, 1.0]))
        assert abs(t[0] - 1.0) < 1e-12

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(20)
        mesh = TriangleMesh(rng.uniform(-2, 2, size=(30, 3)),
                            rng.integers(0, 30, size=(40, 3)))
        mesh = mesh.drop_degenerate()
        origins = rng.uniform(-3, 3, size=(200, 3))
        dirs = rng.normal(size=(200, 3))
        t, _ = ray_cast(mesh, origins, dirs)
        for i in range(200):
            expected = ray_cast_oracle(mesh, origins[i], dirs[i])
            if np.isinf(expected):
                assert np.isinf(t[i])
            else:
                assert abs(t[i] - expected) < 1e-9

    def test_zero_rays(self):
        for mesh in (box_mesh([0, 0, 0], [1, 1, 1]), TriangleMesh(np.zeros((0, 3)), [])):
            t, idx = ray_cast(mesh, np.empty((0, 3)), np.empty((0, 3)))
            assert t.shape == idx.shape == (0,) and idx.dtype == np.int64

    def test_mesh_without_triangles(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3)))
        t, idx = ray_cast(mesh, np.zeros((5, 3)), np.ones((5, 3)))
        assert np.isinf(t).all() and (idx == -1).all()

    def test_peak_memory_is_bounded(self, monkeypatch):
        # 3,000 rays on the 12-triangle room: steps of 341 rays keep the
        # peak near 0.6 MB; all of them in one step would hold about 4.7 MB.
        rng = np.random.default_rng(23)
        room = box_mesh([0, 0, 0], [6, 4, 3], inward=True)
        origins = rng.uniform([1, 1, 1], [5, 3, 2], size=(3000, 3))
        dirs = rng.normal(size=(3000, 3))

        def peak():
            tracemalloc.start()
            try:
                ray_cast(room, origins, dirs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 1e6
        monkeypatch.setattr(mesh_module, "_RAY_ROWS", 10**9)
        assert peak() > 1e6


class TestRayCastPerTriangle:
    """ray_cast works on blocks of triangles and steps of rays at once; it
    must give the bits of the one-triangle-at-a-time loop, including its
    tie-break."""

    def assert_same(self, mesh, origins, dirs):
        """ray_cast in steps of one ray, of two rays and of the default size
        against the loop over the same stack. A lone ray is compared with the
        loop over two copies of it, as ray_cast casts it."""
        origins, dirs = np.atleast_2d(origins), np.atleast_2d(dirs)
        copies = 2 if len(origins) == 1 else 1
        t_ref, idx_ref = (a[::copies] for a in ray_cast_per_triangle(
            mesh, origins.repeat(copies, axis=0), dirs.repeat(copies, axis=0)))
        per_ray = min(len(mesh), _RAY_BLOCK)
        for rows in (per_ray, 2 * per_ray, mesh_module._RAY_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mesh_module, "_RAY_ROWS", rows)
                t, idx = ray_cast(mesh, origins, dirs)
            assert np.array_equal(t, t_ref)
            assert np.array_equal(idx, idx_ref)
        return t, idx

    @pytest.mark.parametrize("n_tri, n_rays", [(1, 1), (7, 1), (_RAY_BLOCK, 40),
                                               (3 * _RAY_BLOCK + 5, 300)])
    def test_random_meshes(self, n_tri, n_rays):
        rng = np.random.default_rng(21 + n_tri)
        verts = rng.uniform(-2, 2, size=(n_tri + 2, 3))
        tris = np.column_stack([np.arange(n_tri), np.arange(n_tri) + 1, np.arange(n_tri) + 2])
        mesh = TriangleMesh(verts, rng.permuted(tris, axis=1))
        origins = rng.uniform(-3, 3, size=(n_rays, 3))
        dirs = rng.normal(size=(n_rays, 3)) * rng.uniform(0.1, 10, size=(n_rays, 1))
        t, idx = self.assert_same(mesh, origins, dirs)
        if n_tri > _RAY_BLOCK:
            assert (idx >= _RAY_BLOCK).any() and (idx < 0).any()
        for i in range(min(n_rays, 20)):  # one ray at a time gives the stack's bits
            t_i, idx_i = self.assert_same(mesh, origins[i], dirs[i])
            assert np.array_equal(t_i, t[i:i + 1]) and np.array_equal(idx_i, idx[i:i + 1])

    def test_duplicated_triangle_lowest_index_wins(self):
        tri = np.array([[-1, -1, 2], [1, -1, 2], [0, 1, 2]], dtype=float)
        rng = np.random.default_rng(22)
        others = rng.uniform(5, 6, size=(3 * _RAY_BLOCK, 3))  # behind the triangle
        verts = np.vstack([tri, others])
        tris = [[0, 1, 2], [0, 1, 2]]
        tris += [[3 + i, 3 + (i + 1) % len(others), 3 + (i + 2) % len(others)]
                 for i in range(_RAY_BLOCK)]
        tris += [[0, 1, 2]]  # a third copy in the next block
        mesh = TriangleMesh(verts, np.array(tris))
        origins = np.column_stack([rng.uniform(-0.3, 0.3, size=(50, 2)), np.zeros(50)])
        t, idx = self.assert_same(mesh, origins, np.tile([0, 0, 1.0], (50, 1)))
        assert (t == 2.0).all() and (idx == 0).all()

    @pytest.mark.parametrize("rotated", [False, True], ids=["axis-aligned", "rotated"])
    def test_rays_at_vertices_and_edges(self, rotated):
        # Rays aimed at the room's corners and at the midpoints of its
        # triangles' edges (the box's edges and each face's shared diagonal),
        # rays run along those edges and diagonals from one such point to
        # another, and rays aimed just outside the middle of each triangle's
        # edges, at u or v of about -1e-12 or u + v of about 1 + 1e-12, where
        # the hit decisions hang on the last bit of u and v. Those last are
        # also cast from outside the room, where a hit just past a box edge
        # is not hidden behind the next wall.
        room = box_mesh([0, 0, 0], [6, 4, 3], inward=True)
        edges = {tuple(sorted(e)) for tri in room.triangles.tolist()
                 for e in zip(tri, tri[1:] + tri[:1])}
        assert len(edges) == 18
        v = room.vertices
        aims = np.vstack([v, [(v[a] + v[b]) / 2 for a, b in sorted(edges)]])
        rng = np.random.default_rng(25)
        inside = np.vstack([[[3, 2, 1.5]], rng.uniform([0.5, 0.5, 0.5], [5.5, 3.5, 2.5], (3, 3))])
        outside = np.array([[-2, -1, 4], [9, 7, -1]])
        starts = np.vstack([inside, outside, aims])
        o, a = (x.reshape(-1, 3) for x in np.broadcast_arrays(starts[:, None], aims[None]))
        keep = (o != a).any(axis=1)
        origins, dirs = o[keep], a[keep] - o[keep]
        near_from = np.vstack([inside[:1], outside])
        if rotated:
            R, shift = random_rotation(rng), np.array([0.3, -1.2, 0.7])
            room = TriangleMesh(v @ R.T + shift, room.triangles)
            origins, dirs, near_from = origins @ R.T + shift, dirs @ R.T, near_from @ R.T + shift
        out = 1e-12 * (1 + 2e-5 * np.arange(-10, 11))
        uv = np.vstack([np.column_stack([-out, np.full(21, 0.5)]),
                        np.column_stack([np.full(21, 0.5), -out]),
                        np.column_stack([0.5 + out / 2] * 2)])
        v0, v1, v2 = room.corners
        near = (v0[:, None] + uv[:, :1] * (v1 - v0)[:, None]
                + uv[:, 1:] * (v2 - v0)[:, None]).reshape(-1, 3)
        o, a = (x.reshape(-1, 3) for x in np.broadcast_arrays(near_from[:, None], near[None]))
        t, idx = self.assert_same(room, np.vstack([origins, o]), np.vstack([dirs, a - o]))
        assert len(t) == 806 + 3 * 12 * 63 and (idx >= 0).mean() > 0.9

    def test_rays_parallel_to_a_face(self):
        square = TriangleMesh(
            np.array([[-1, -1, 2], [1, -1, 2], [1, 1, 2], [-1, 1, 2]], dtype=float),
            np.array([[0, 2, 1], [0, 3, 2]]),
        )
        origins = np.array([[0, 0, 2.0], [-5, 0.5, 2.0], [0, 0, 1.0], [0, 0, 0]])
        dirs = np.array([[1, 0, 0.0], [1, 0, 0.0], [0, 1, 0.0], [0.1, 0.2, 1]])
        t, idx = self.assert_same(square, origins, dirs)
        assert np.isinf(t[:3]).all() and (idx[:3] == -1).all()
        assert t[3] == 2.0 and idx[3] >= 0


def recorded_casts(monkeypatch):
    """The ray_cast calls, as [(mesh, origins, dirs, depth, tri)], that synth
    makes for a small scene with two occluders and compute_visibility makes
    at decimations 1 and 2 for a room turned off the axes (so that no
    product is exact)."""
    synth_calls = record_ray_casts(monkeypatch, synth)
    visibility_calls = record_ray_casts(monkeypatch, visibility)
    scene = synth.generate_scene(small_cfg(num_occluders=2, num_landmark_sites=40,
                                           num_cameras=7, seed=9))
    model, mesh, ls = two_camera_scene()
    for decimation in (1, 2):
        compute_visibility(model, mesh, ls, VisibilityConfig(decimation=decimation))
    return ([(scene.mesh, *c) for c in synth_calls]
            + [(mesh, *c) for c in visibility_calls])


class TestRayCastBatches:
    """A ray gets the same bits from ray_cast alone, in one stack and in any
    split of a stack. test_ray_cast_agrees_under_haswell_and_without_avx512
    runs this class under a second BLAS kernel and without AVX-512."""

    def test_alone_stacked_and_split(self, monkeypatch):
        casts = recorded_casts(monkeypatch)
        monkeypatch.setattr(mesh_module, "_RAY_ROWS", 10**9)  # each call in one step
        rng = np.random.default_rng(24)
        n_rays = 0
        for mesh, origins, dirs, depth, tri in casts:
            n = len(origins)
            n_rays += n
            stacked = ray_cast(mesh, origins, dirs)
            alone = [ray_cast(mesh, o, d) for o, d in zip(origins, dirs)]
            splits = []
            for _ in range(5):
                cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=False))
                parts = [ray_cast(mesh, o, d)
                         for o, d in zip(np.split(origins, cuts), np.split(dirs, cuts))]
                splits.append(tuple(np.concatenate(a) for a in zip(*parts)))
            for t, k in [stacked, *splits, tuple(np.concatenate(a) for a in zip(*alone))]:
                assert np.array_equal(t, depth) and np.array_equal(k, tri)
        assert n_rays > 400


@needs_haswell
@pytest.mark.parametrize("setting, shown", OTHER_SETTINGS)
def test_ray_cast_agrees_under_haswell_and_without_avx512(setting, shown):
    # ray_cast keeps its own bits and the referee's under another BLAS
    # kernel, and under numpy's AVX2 loops.
    env = subprocess_env(**setting)
    index, value = shown
    assert runtime_under(env)[index] == value
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestRayCastBatches", f"{__file__}::TestRayCastPerTriangle"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


class TestClosestPoint:
    def brute_force(self, p, v0, v1, v2, steps=200):
        """Dense barycentric sampling oracle."""
        best = np.inf
        u = np.linspace(0, 1, steps)
        for a in u:
            for b in np.linspace(0, 1 - a, max(2, int(steps * (1 - a)) + 1)):
                q = v0 + a * (v1 - v0) + b * (v2 - v0)
                best = min(best, np.linalg.norm(q - p))
        return best

    def test_against_sampling(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = rng.uniform(-1, 1, size=(3, 3))
            p = rng.uniform(-2, 2, size=3)
            got = closest_point_on_triangles(
                p, v[0][None], v[1][None], v[2][None]
            )[0]
            d_got = np.linalg.norm(got - p)
            d_ref = self.brute_force(p, v[0], v[1], v[2])
            assert d_got <= d_ref + 1e-3  # sampling resolution slack
            assert d_got >= d_ref - 1e-3

    def test_interior_projection(self):
        v0 = np.array([[0.0, 0, 0]])
        v1 = np.array([[4.0, 0, 0]])
        v2 = np.array([[0.0, 4, 0]])
        got = closest_point_on_triangles(np.array([1.0, 1.0, 5.0]), v0, v1, v2)[0]
        assert np.allclose(got, [1, 1, 0])

    def test_vertex_region(self):
        v0 = np.array([[0.0, 0, 0]])
        v1 = np.array([[1.0, 0, 0]])
        v2 = np.array([[0.0, 1, 0]])
        got = closest_point_on_triangles(np.array([-1.0, -1.0, 0.0]), v0, v1, v2)[0]
        assert np.allclose(got, [0, 0, 0])

    def test_nearest_surface_point_on_box(self):
        box = box_mesh([0, 0, 0], [2, 2, 2])
        d, q, k = nearest_surface_point(box, np.array([1.0, 1.0, 2.5]))
        assert abs(d - 0.5) < 1e-12
        assert np.allclose(q, [1, 1, 2])


class TestMeshIO:
    def test_ply_roundtrip(self, tmp_path):
        mesh = box_mesh([0, 0, 0], [1, 1, 1])
        path = tmp_path / "box.ply"
        save_mesh_ply(mesh, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.triangles, mesh.triangles)

    def test_obj_load(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_mesh(path)
        assert len(mesh) == 1
        assert np.allclose(mesh.vertices[1], [1, 0, 0])

    def test_obj_with_slashes(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        assert len(load_mesh(path)) == 1

    def test_quad_rejected(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MalformedFileError):
            load_mesh(path)

    @pytest.mark.parametrize("bad", ["nan 0 0", "1 0"])
    def test_bad_ply_vertex_reports_line(self, tmp_path, bad):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        path = tmp_path / "tri.ply"
        save_mesh_ply(mesh, path)
        lines = path.read_text().splitlines()
        vertex_line = lines.index("end_header") + 3  # 1-based number of vertex 1
        lines[vertex_line - 1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFileError, match=rf"tri\.ply:{vertex_line}:"):
            load_mesh(path)

    @pytest.mark.parametrize("bad", ["v 1 inf 0", "v 1 abc 0", "v 1 0", "f 1 1 x", "f 1 1 9"])
    def test_bad_obj_vertex_reports_line(self, tmp_path, bad):
        path = tmp_path / "tri.obj"
        path.write_text(f"v 0 0 0\n{bad}\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(MalformedFileError, match=r"tri\.obj:2:"):
            load_mesh(path)

    def test_only_degenerate_faces_rejected(self, tmp_path):
        path = tmp_path / "flat.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        with pytest.raises(MalformedFileError, match="no non-degenerate triangle"):
            load_mesh(path)

    def test_binary_ply_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(MalformedFileError):
            load_mesh(path)
