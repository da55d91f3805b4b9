"""Triangle meshes: ASCII PLY/OBJ ingestion, ray casting, surface queries."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _io
from .errors import MalformedFileError

_DEGENERATE_AREA = 1e-12
_RAY_EPS = 1e-12
# Triangles per block of a ray_cast step, and (ray x triangle) rows per step:
# its temporaries are O(rows), whatever the number of rays.
_RAY_BLOCK = 64
_RAY_ROWS = 4096


@dataclass
class TriangleMesh:
    vertices: np.ndarray   # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64, indices into vertices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = _io.int64_column("triangle index", self.triangles).reshape(-1, 3)
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
        # An area that overflows is inf and kept, or NaN and dropped; the
        # visibility command rejects such coordinates.
        with np.errstate(over="ignore", invalid="ignore"):
            areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        return TriangleMesh(self.vertices, self.triangles[areas > _DEGENERATE_AREA])


def ray_cast(mesh: TriangleMesh, origins: np.ndarray, dirs: np.ndarray):
    """First-hit ray casting (Moller-Trumbore), batched over rays and triangles.

    origins/dirs are (N, 3); dirs need not be unit length. Returns
    (t_hit, tri_index): parametric distances along dirs (inf for no hit) and
    the index of the winning triangle (-1 for no hit). On equal distances the
    lowest triangle index wins. The rays are cast in steps of at most
    _RAY_ROWS (ray x triangle) rows, whatever N, and a ray gets the same bits
    alone, in a step or in any stack.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    t_hit = np.full(len(origins), np.inf)
    tri = np.full(len(origins), -1, dtype=np.int64)
    corners = mesh.corners
    step = max(1, _RAY_ROWS // max(1, min(len(mesh), _RAY_BLOCK)))
    for start in range(0, len(origins), step):
        rays = slice(start, start + step)
        t_hit[rays], tri[rays] = _cast_step(corners, origins[rays], dirs[rays])
    return t_hit, tri


def _cast_step(corners, origins: np.ndarray, dirs: np.ndarray):
    """ray_cast of one step of rays, origins/dirs (N, 3), against the mesh's
    corners (v0, v1, v2), _RAY_BLOCK triangles at a time. A lone ray is cast
    as a pair of copies: numpy hands a one-row (1, 3) @ (3, 1) product to
    another BLAS kernel than a stack's, which may round it otherwise."""
    n = len(origins)
    if n == 1:
        origins, dirs = np.repeat(origins, 2, axis=0), np.repeat(dirs, 2, axis=0)
    v0, v1, v2 = corners
    t_best = np.full(len(origins), np.inf)
    idx_best = np.full(len(origins), -1, dtype=np.int64)
    for start in range(0, len(v0), _RAY_BLOCK):
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
    return t_best[:n], idx_best[:n]


def closest_point_on_triangles(p: np.ndarray, v0, v1, v2) -> np.ndarray:
    """Closest point to p on each of T triangles; vectorized over triangles.
    p is one point (3,) or one point per triangle (T, 3)."""
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


def _load_ply(path) -> TriangleMesh:
    counts = {}  # element name -> count
    props = []   # vertex property names, in column order
    element = None
    vertices, triangles = [], []
    with _io.lines(path, errors="replace") as src:
        rows = iter(src)
        if next(rows, None) != ["ply"]:
            raise ValueError("not a PLY file")
        for tokens in rows:
            key = tokens[0]
            if key == "format" and tokens[1:] != ["ascii", "1.0"]:
                raise ValueError("only `format ascii 1.0` is supported")
            elif key == "element":
                if len(tokens) != 3:
                    raise ValueError("expected `element NAME COUNT`")
                element = tokens[1]
                counts[element] = int(tokens[2])
            elif key == "property" and element == "vertex" and tokens[1:2] != ["list"]:
                props.append(tokens[-1])
            elif key == "end_header":
                break
        else:
            raise ValueError("missing end_header")
        if not {"x", "y", "z"} <= set(props):
            raise ValueError("vertex element lacks x/y/z")
        ixyz = [props.index(k) for k in "xyz"]
        n_vertex, n_face = counts.get("vertex", 0), counts.get("face", 0)
        for tokens in rows:
            if len(vertices) < n_vertex:
                x, y, z = _io.finite("vertex",
                                     *(float(tokens[k]) for k in ixyz if k < len(tokens)))
                vertices.append((x, y, z))
            elif len(triangles) < n_face:
                cnt, idx = int(tokens[0]), [int(t) for t in tokens[1:4]]
                if cnt != 3 or len(idx) != 3:
                    raise ValueError("expected a triangle, `3 i j k`")
                if not all(0 <= i < n_vertex for i in idx):
                    raise ValueError("face index out of range")
                triangles.append(idx)
            else:
                break
        if len(vertices) < n_vertex or len(triangles) < n_face:
            raise ValueError("truncated PLY body")
    return TriangleMesh(vertices, triangles)


def _load_obj(path) -> TriangleMesh:
    vertices, triangles = [], []
    with _io.lines(path, errors="replace") as src:
        for tokens in src:
            if tokens[0] == "v":
                x, y, z = _io.finite("vertex", *map(float, tokens[1:4]))
                vertices.append((x, y, z))
            elif tokens[0] == "f":
                if len(tokens) != 4:
                    raise ValueError(f"non-triangular face ({len(tokens) - 1} vertices)")
                # 1-based; a negative index counts back from the last vertex read.
                idx = [int(ref.split("/")[0]) for ref in tokens[1:]]
                idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                if not all(0 <= i < len(vertices) for i in idx):
                    raise ValueError("face index out of range")
                triangles.append(idx)
    if not vertices:
        raise MalformedFileError(path, 0, "OBJ file has no vertices")
    return TriangleMesh(vertices, triangles)


def save_mesh_ply(mesh: TriangleMesh, path) -> None:
    """The mesh as ASCII PLY; written through a temp file and a rename."""
    _io.write_text(path, [
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\nend_header\n",
        *(f"{_io.fmt(v[0])} {_io.fmt(v[1])} {_io.fmt(v[2])}\n" for v in mesh.vertices),
        *(f"3 {t[0]} {t[1]} {t[2]}\n" for t in mesh.triangles)])


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
