"""Triangle meshes: ASCII PLY/OBJ ingestion, ray casting, surface queries."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedFileError

_DEGENERATE_AREA = 1e-12
_RAY_EPS = 1e-12
# Triangles per ray_cast step: its temporaries are O(rays x block).
_RAY_BLOCK = 64


@dataclass
class TriangleMesh:
    vertices: np.ndarray   # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64, indices into vertices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle index out of range")

    def __len__(self):
        return len(self.triangles)

    @property
    def corners(self):
        """Triangle corner arrays (v0, v1, v2), each (T, 3)."""
        v = self.vertices
        t = self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def face_normals(self) -> np.ndarray:
        """Unit normals following the stored winding (right-hand rule)."""
        v0, v1, v2 = self.corners
        n = np.cross(v1 - v0, v2 - v0)
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        return n / norms

    def drop_degenerate(self) -> "TriangleMesh":
        v0, v1, v2 = self.corners
        areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        return TriangleMesh(self.vertices, self.triangles[areas > _DEGENERATE_AREA])


def ray_cast(mesh: TriangleMesh, origins: np.ndarray, dirs: np.ndarray):
    """First-hit ray casting (Moller-Trumbore), batched over rays and triangles.

    origins/dirs are (N, 3); dirs need not be unit length. Returns
    (t_hit, tri_index): parametric distances along dirs (inf for no hit) and
    the index of the winning triangle (-1 for no hit). On equal distances the
    lowest triangle index wins.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = len(origins)
    t_best = np.full(n, np.inf)
    idx_best = np.full(n, -1, dtype=np.int64)
    v0, v1, v2 = mesh.corners
    for start in range(0, len(mesh), _RAY_BLOCK):
        blk = slice(start, start + _RAY_BLOCK)
        # Every array below is (B, N) or (B, N, 3): one row per triangle of
        # the block. det and t are stacked (N, 3) @ (3, 1) products, which
        # numpy hands to the BLAS matrix-vector kernel once per triangle, so
        # they round as a single triangle's (N, 3) @ (3,) product does; an
        # einsum would round differently where BLAS fuses multiply and add.
        e1 = (v1[blk] - v0[blk])[:, None]
        e2 = (v2[blk] - v0[blk])[:, None]
        pvec = np.cross(dirs, e2)
        det = (pvec @ e1.transpose(0, 2, 1))[..., 0]
        ok = np.abs(det) > _RAY_EPS
        inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origins - v0[blk][:, None]
        u = np.einsum("bij,bij->bi", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1)
        v = np.einsum("bij,bij->bi", np.broadcast_to(dirs, qvec.shape), qvec) * inv_det
        t = (qvec @ e2.transpose(0, 2, 1))[..., 0] * inv_det
        hit = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > 1e-9)
        t = np.where(hit, t, np.inf)
        k = np.argmin(t, axis=0)  # first occurrence: the lowest index wins a tie
        t_k = t.min(axis=0)
        win = t_k < t_best
        t_best[win] = t_k[win]
        idx_best[win] = start + k[win]
    return t_best, idx_best


def closest_point_on_triangles(p: np.ndarray, v0, v1, v2) -> np.ndarray:
    """Closest point to p on each of T triangles; vectorized over triangles."""
    p = np.asarray(p, dtype=np.float64)
    ab = v1 - v0
    ac = v2 - v0
    ap = p - v0
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - v1
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - v2
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    out = np.empty_like(v0)
    done = np.zeros(len(v0), dtype=bool)

    def take(mask, value):
        nonlocal done
        mask = mask & ~done
        out[mask] = value[mask]
        done = done | mask

    take((d1 <= 0) & (d2 <= 0), v0)
    take((d3 >= 0) & (d4 <= d3), v1)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
        take((vc <= 0) & (d1 >= 0) & (d3 <= 0), v0 + v_ab[:, None] * ab)
        take((d6 >= 0) & (d5 <= d6), v2)
        w_ac = d2 / (d2 - d6)
        take((vb <= 0) & (d2 >= 0) & (d6 <= 0), v0 + w_ac[:, None] * ac)
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        take(
            (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0),
            v1 + w_bc[:, None] * (v2 - v1),
        )
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom
        take(~done, v0 + v_in[:, None] * ab + w_in[:, None] * ac)
    return out


def nearest_surface_point(mesh: TriangleMesh, p: np.ndarray):
    """Nearest point on the mesh surface to p.

    Returns (distance, surface point, triangle index).
    """
    v0, v1, v2 = mesh.corners
    candidates = closest_point_on_triangles(p, v0, v1, v2)
    d = np.linalg.norm(candidates - p, axis=1)
    k = int(np.argmin(d))
    return float(d[k]), candidates[k], k


def load_mesh(path) -> TriangleMesh:
    """Load an ASCII PLY or OBJ triangle mesh; degenerate faces are dropped."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ply":
        mesh = _load_ply(path)
    elif suffix == ".obj":
        mesh = _load_obj(path)
    else:
        raise MalformedFileError(path, 0, f"unsupported mesh format {suffix!r}")
    mesh = mesh.drop_degenerate()
    if len(mesh) == 0:
        raise MalformedFileError(path, 0, "no non-degenerate triangle")
    return mesh


def _vertex(tokens, path, line_no) -> list:
    """Three finite coordinates parsed from tokens, or a path:line error."""
    try:
        xyz = [float(t) for t in tokens]
    except ValueError as exc:
        raise MalformedFileError(path, line_no, f"expected number: {exc}") from None
    if len(xyz) != 3 or not np.isfinite(xyz).all():
        raise MalformedFileError(path, line_no, "vertex needs 3 finite coordinates")
    return xyz


def _load_ply(path) -> TriangleMesh:
    with open(path, "r", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedFileError(path, 1, "not a PLY file")
    n_vertex = n_face = 0
    prop_names = []
    current = None
    body_start = None
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise MalformedFileError(path, i, "binary PLY not supported")
        elif tokens[0] == "element":
            current = tokens[1]
            if current == "vertex":
                n_vertex = int(tokens[2])
            elif current == "face":
                n_face = int(tokens[2])
        elif tokens[0] == "property" and current == "vertex" and tokens[1] != "list":
            prop_names.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = i
            break
    if body_start is None:
        raise MalformedFileError(path, len(lines), "missing end_header")
    try:
        ix, iy, iz = prop_names.index("x"), prop_names.index("y"), prop_names.index("z")
    except ValueError:
        raise MalformedFileError(path, body_start, "vertex element lacks x/y/z") from None

    body = [(no, l) for no, l in enumerate(lines[body_start:], start=body_start + 1)
            if l.strip()]
    if len(body) < n_vertex + n_face:
        raise MalformedFileError(path, len(lines), "truncated PLY body")
    vertices = np.empty((n_vertex, 3))
    for r in range(n_vertex):
        line_no, line = body[r]
        tokens = line.split()
        vertices[r] = _vertex([tokens[k] for k in (ix, iy, iz) if k < len(tokens)],
                              path, line_no)
    triangles = np.empty((n_face, 3), dtype=np.int64)
    for r in range(n_face):
        line_no, line = body[n_vertex + r]
        tokens = line.split()
        cnt = int(tokens[0])
        if cnt != 3:
            raise MalformedFileError(path, line_no, f"non-triangular face ({cnt} vertices)")
        triangles[r] = [int(t) for t in tokens[1:4]]
    return TriangleMesh(vertices, triangles)


def _load_obj(path) -> TriangleMesh:
    vertices = []
    triangles = []
    with open(path, "r", errors="replace") as fh:
        for line_no, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "v":
                vertices.append(_vertex(tokens[1:4], path, line_no))
            elif tokens[0] == "f":
                refs = tokens[1:]
                if len(refs) != 3:
                    raise MalformedFileError(path, line_no,
                                             f"non-triangular face ({len(refs)} vertices)")
                idx = []
                for ref in refs:
                    v_idx = int(ref.split("/")[0])
                    if v_idx < 0:
                        v_idx = len(vertices) + 1 + v_idx
                    idx.append(v_idx - 1)
                triangles.append(idx)
    if not vertices:
        raise MalformedFileError(path, 0, "OBJ file has no vertices")
    return TriangleMesh(np.array(vertices), np.array(triangles, dtype=np.int64))


def save_mesh_ply(mesh: TriangleMesh, path) -> None:
    f = lambda x: format(float(x), ".17g")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(mesh.vertices)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {len(mesh.triangles)}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        for v in mesh.vertices:
            fh.write(f"{f(v[0])} {f(v[1])} {f(v[2])}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def box_mesh(lo, hi, inward: bool = False) -> TriangleMesh:
    """Axis-aligned box between corners lo and hi (12 triangles).

    Outward-facing winding by default; inward=True flips every face (used for
    rooms viewed from inside).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    v = np.array(
        [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ]
    )
    quads = [
        (0, 3, 2, 1),  # bottom (z = z0), normal -z
        (4, 5, 6, 7),  # top (z = z1), normal +z
        (0, 1, 5, 4),  # y = y0, normal -y
        (2, 3, 7, 6),  # y = y1, normal +y
        (0, 4, 7, 3),  # x = x0, normal -x
        (1, 2, 6, 5),  # x = x1, normal +x
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    tris = np.array(tris, dtype=np.int64)
    if inward:
        tris = tris[:, ::-1]
    return TriangleMesh(v, tris)
