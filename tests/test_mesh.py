import numpy as np
import pytest

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


class TestRayCastPerTriangle:
    """ray_cast works on blocks of triangles at once; it must give the bits of
    the one-triangle-at-a-time loop, including its tie-break."""

    def assert_same(self, mesh, origins, dirs):
        t, idx = ray_cast(mesh, origins, dirs)
        t_ref, idx_ref = ray_cast_per_triangle(mesh, origins, dirs)
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
        for i in range(min(n_rays, 20)):  # one ray at a time gives the same bits
            self.assert_same(mesh, origins[i], dirs[i])

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

    @pytest.mark.parametrize("bad", ["v 1 inf 0", "v 1 abc 0", "v 1 0"])
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
