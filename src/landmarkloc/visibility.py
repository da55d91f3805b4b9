"""Mesh-based landmark visibility: the per-(landmark, image) occlusion test,
depth rasterization, and robust affine registration of dense geometry to the
SfM frame.

A landmark is visible in an image when (a) it is in front of the camera and
projects inside the extent, (b) its camera-frame depth matches the mesh depth
at its pixel within tolerance, and (c) its reference surface normal agrees
with the mesh normal seen at that pixel. Its pixel is the nearest pixel
centre of the image grid at 1/decimation resolution. compute_visibility reads
the mesh there with one first-hit ray per landmark; rasterize_depth renders
the same depth and normal for every pixel of an image, and is_visible tests a
landmark against such a map.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _io
from .errors import DegeneracyError, RobustFitError
from .landmarks import LandmarkSet
# nearest_surface_point is not called here; perfbench's tracer wraps
# visibility.nearest_surface_point by name.
from .mesh import TriangleMesh, closest_point_on_triangles, nearest_surface_point, ray_cast  # noqa: F401
from .scene_model import Intrinsics, Pose, SceneModel, project_many

# (landmark x triangle) rows per step of landmark_reference_normals: its
# temporaries are O(rows).
_NEAREST_ROWS = 4096


@dataclass
class VisibilityConfig:
    tol_depth: float = 0.05        # meters, absolute depth tolerance floor
    rel_frac: float = 0.01         # relative depth tolerance, fraction of depth
    tol_normal_deg: float = 30.0
    max_surface_dist: float = 0.2  # landmarks farther from the mesh are excluded
    decimation: int = 1            # depth-map downsampling factor

    def __post_init__(self):
        if self.decimation < 1:
            raise ValueError("decimation must be at least 1")
        for name in ("tol_depth", "rel_frac", "max_surface_dist"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= self.tol_normal_deg <= 180:
            raise ValueError("tol_normal_deg must lie in [0, 180]")


@dataclass
class DepthMap:
    width: int
    height: int
    depth: np.ndarray    # (H, W), camera-frame z, +inf where no triangle
    normal: np.ndarray   # (H, W, 3), unit camera-frame normals (0 where no hit)
    decimation: int = 1

    def lookup(self, uv: np.ndarray):
        """Nearest-pixel depth and normal for full-resolution pixels (N, 2)."""
        px, py = _snap(np.atleast_2d(uv), self.decimation, self.width, self.height)
        return self.depth[py, px], self.normal[py, px]


def _decimated(K: Intrinsics, decimation: int) -> Intrinsics:
    """The pixel grid at 1/decimation resolution: ceil(W/d) x ceil(H/d)
    pixels, with focal lengths and principal point divided by d."""
    d = decimation
    return Intrinsics(K.fx / d, K.fy / d, K.cx / d, K.cy / d,
                      -(-K.width // d), -(-K.height // d))


def _snap(uv: np.ndarray, decimation: int, width: int, height: int):
    """The pixel (px, py) of a width x height grid at 1/decimation resolution
    whose centre is nearest each full-resolution point of uv (N, 2), clipped
    to the grid."""
    px = np.clip(np.rint(uv[:, 0] / decimation).astype(int), 0, width - 1)
    py = np.clip(np.rint(uv[:, 1] / decimation).astype(int), 0, height - 1)
    return px, py


def _first_hits(mesh: TriangleMesh, face_normals: np.ndarray, K: Intrinsics,
                T: Pose, decimation: int):
    """DepthMap.lookup for the map rasterize_depth would render, without
    rendering it: the returned sampler casts one ray per point through the
    centre of the same pixel. It gives the camera-frame depth of the first hit
    (inf on a miss) and the camera-frame unit normal of the triangle hit (0 on
    a miss)."""
    G = _decimated(K, decimation)

    def sample(uv):
        px, py = _snap(uv, decimation, G.width, G.height)
        # Unit camera-frame z, so the hit distance along the ray is the depth.
        rays = np.column_stack([(px - G.cx) / G.fx, (py - G.cy) / G.fy, np.ones(len(px))])
        depth, tri = ray_cast(mesh, np.broadcast_to(T.center, rays.shape), rays @ T.R)
        normal = np.zeros((len(tri), 3))
        hit = tri >= 0
        normal[hit] = face_normals[tri[hit]] @ T.R.T
        return depth, normal

    return sample


@dataclass(frozen=True)
class AffineTransform:
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64).reshape(3))
        if abs(np.linalg.det(self.A)) < 1e-12:
            raise ValueError("affine transform is singular")

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            return self.A @ pts + self.b
        return pts @ self.A.T + self.b


@dataclass
class VisibilityTable:
    landmark_ids: list
    image_ids: list
    mask: np.ndarray            # (L, N) bool
    tolerances: dict = field(default_factory=dict)
    excluded: list = field(default_factory=list)  # landmark ids off the mesh

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (len(self.landmark_ids), len(self.image_ids)):
            raise ValueError("mask shape does not match id lists")
        self._lrow = {lid: i for i, lid in enumerate(self.landmark_ids)}
        self._icol = {iid: j for j, iid in enumerate(self.image_ids)}

    def visible(self, landmark_id: int, image_id: int) -> bool:
        return bool(self.mask[self._lrow[landmark_id], self._icol[image_id]])


def _clip_near(poly: np.ndarray, znear: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a camera-frame polygon against z >= znear."""
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        a_in, b_in = a[2] >= znear, b[2] >= znear
        if a_in:
            out.append(a)
        if a_in != b_in:
            s = (znear - a[2]) / (b[2] - a[2])
            out.append(a + s * (b - a))
    return np.array(out) if out else np.empty((0, 3))


def rasterize_depth(
    mesh: TriangleMesh,
    K: Intrinsics,
    T: Pose,
    decimation: int = 1,
    znear: float = 1e-6,
) -> DepthMap:
    """Z-buffer rasterization with perspective-correct depth.

    Triangles are clipped against the near plane in camera space, projected,
    and scan-converted with screen-space barycentric weights; depth at a pixel
    interpolates 1/z linearly as perspective requires. The per-pixel normal is
    the winning triangle's unit plane normal rotated into the camera frame.
    """
    G = _decimated(K, decimation)
    depth = np.full((G.height, G.width), np.inf)
    normal = np.zeros((G.height, G.width, 3))

    cam_verts = T.apply(mesh.vertices)
    world_normals = mesh.face_normals()
    for k in range(len(mesh)):
        tri_cam = cam_verts[mesh.triangles[k]]
        if (tri_cam[:, 2] < znear).all():
            continue
        poly = _clip_near(tri_cam, znear) if (tri_cam[:, 2] < znear).any() else tri_cam
        if len(poly) < 3:
            continue
        n_cam = T.R @ world_normals[k]
        for j in range(1, len(poly) - 1):
            _raster_triangle(
                poly[0], poly[j], poly[j + 1], G.fx, G.fy, G.cx, G.cy, depth, normal, n_cam
            )
    return DepthMap(G.width, G.height, depth, normal, decimation)


def _raster_triangle(c0, c1, c2, fx, fy, cx, cy, depth, normal, n_cam):
    H, W = depth.shape
    zs = np.array([c0[2], c1[2], c2[2]])
    us = np.array([c0[0], c1[0], c2[0]]) / zs * fx + cx
    vs = np.array([c0[1], c1[1], c2[1]]) / zs * fy + cy

    area2 = (us[1] - us[0]) * (vs[2] - vs[0]) - (vs[1] - vs[0]) * (us[2] - us[0])
    if abs(area2) < 1e-12:
        return
    x0 = max(0, int(math.ceil(us.min() - 1e-9)))
    x1 = min(W - 1, int(math.floor(us.max() + 1e-9)))
    y0 = max(0, int(math.ceil(vs.min() - 1e-9)))
    y1 = min(H - 1, int(math.floor(vs.max() + 1e-9)))
    if x0 > x1 or y0 > y1:
        return

    px = np.arange(x0, x1 + 1)
    py = np.arange(y0, y1 + 1)
    PX, PY = np.meshgrid(px, py)

    def edge(ax, ay, bx, by):
        return (bx - ax) * (PY - ay) - (by - ay) * (PX - ax)

    l0 = edge(us[1], vs[1], us[2], vs[2]) / area2
    l1 = edge(us[2], vs[2], us[0], vs[0]) / area2
    l2 = edge(us[0], vs[0], us[1], vs[1]) / area2
    inside = (l0 >= 0) & (l1 >= 0) & (l2 >= 0)
    if not inside.any():
        return
    inv_z = l0 / zs[0] + l1 / zs[1] + l2 / zs[2]
    with np.errstate(divide="ignore"):
        z = 1.0 / inv_z
    sub = depth[y0 : y1 + 1, x0 : x1 + 1]
    win = inside & (z > 0) & (z < sub)
    sub[win] = z[win]
    normal[y0 : y1 + 1, x0 : x1 + 1][win] = n_cam


def estimate_affine_alignment(
    src: np.ndarray,
    dst: np.ndarray,
    threshold: float,
    max_iter: int = 500,
    seed: int = 0,
):
    """RANSAC fit of dst ~ A @ src + b from 3D point matches.

    Minimal samples of 4 non-coplanar matches solve the 12-parameter linear
    system exactly; the consensus transform is re-fit by least squares on the
    best inlier set. Returns (AffineTransform, inlier mask).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    n = len(src)
    if n < 4 or len(dst) != n:
        raise DegeneracyError("need at least 4 matches")
    if _coplanar(src):
        raise DegeneracyError("source points are coplanar")

    rng = np.random.default_rng(seed)
    design = np.hstack([src, np.ones((n, 1))])
    best_count = 0
    best_err = np.inf
    best_mask = None
    for _ in range(max_iter):
        sample = rng.choice(n, size=4, replace=False)
        if _coplanar(src[sample]):
            continue
        try:
            X = np.linalg.solve(design[sample], dst[sample])
        except np.linalg.LinAlgError:
            continue
        res = np.linalg.norm(design @ X - dst, axis=1)
        mask = res <= threshold
        count = int(mask.sum())
        err = float(res[mask].mean()) if count else np.inf
        if count > best_count or (count == best_count and err < best_err):
            best_count, best_err, best_mask = count, err, mask
            if count == n:
                break
    if best_mask is None or best_count < 4:
        raise RobustFitError("no affine model with >= 4 inliers")

    X, *_ = np.linalg.lstsq(design[best_mask], dst[best_mask], rcond=None)
    transform = AffineTransform(X[:3].T, X[3])
    res = np.linalg.norm(transform.apply(src) - dst, axis=1)
    return transform, res <= threshold


def _coplanar(pts: np.ndarray, tol: float = 1e-9) -> bool:
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    scale = s[0] if s[0] > 0 else 1.0
    return s[-1] / scale < tol


def _visible(K: Intrinsics, T: Pose, sample, xyz: np.ndarray,
             ref_normals: np.ndarray, cfg: VisibilityConfig, candidates=True) -> np.ndarray:
    """The occlusion test of world points (N,3) in one image.

    sample maps full-resolution pixels (M,2) to the mesh's camera-frame depth
    (M,) and unit normal (M,3) there, as DepthMap.lookup does. A point passes
    when it is a candidate, projects into view, its depth matches the sampled
    depth within tolerance, and its unit reference normal (world frame) makes
    an angle of at most cfg.tol_normal_deg with the sampled normal.
    """
    uv, valid = project_many(K, T, xyz)
    valid &= candidates
    out = np.zeros(len(xyz), dtype=bool)
    if not valid.any():
        return out
    z = (xyz @ T.R.T + T.t)[valid, 2]
    d, n_pix = sample(uv[valid])
    tol = np.maximum(cfg.tol_depth, cfg.rel_frac * z)
    ok_depth = np.isfinite(d) & (np.abs(d - z) <= tol)
    cosang = np.einsum("ij,ij->i", n_pix, ref_normals[valid] @ T.R.T)
    out[valid] = ok_depth & (cosang >= math.cos(math.radians(cfg.tol_normal_deg)))
    return out


def is_visible(
    p: np.ndarray,
    K: Intrinsics,
    T: Pose,
    dm: DepthMap,
    ref_normal: np.ndarray,
    cfg: VisibilityConfig = VisibilityConfig(),
) -> bool:
    """Occlusion test for a single landmark against a rasterized depth map.

    ref_normal is the landmark's world-frame reference surface normal,
    assigned at table-build time from the mesh; it need not be unit length.
    """
    n = np.asarray(ref_normal, dtype=np.float64)
    n = n / max(np.linalg.norm(n), 1e-12)
    p = np.asarray(p, dtype=np.float64).reshape(1, 3)
    return bool(_visible(K, T, dm.lookup, p, n[None], cfg)[0])


def landmark_reference_normals(mesh: TriangleMesh, ls: LandmarkSet, max_dist: float):
    """World-frame mesh normal at each landmark's nearest surface point.

    Returns (normals (L,3), excluded landmark ids): row k of normals is
    landmark k's, and the excluded landmarks, ascending, are those farther
    than max_dist from the surface, whose rows are 0. The closest points are
    taken over (landmark x triangle) rows, _NEAREST_ROWS at a time; each
    landmark gets the distance and triangle nearest_surface_point gives it.
    """
    v0, v1, v2 = mesh.corners
    n_tri = len(v0)
    step = max(1, _NEAREST_ROWS // max(n_tri, 1))
    dist, tri = np.empty(len(ls)), np.empty(len(ls), dtype=np.int64)
    for start in range(0, len(ls), step):
        block = ls.xyz[start:start + step]
        k = len(block)
        p = np.repeat(block, n_tri, axis=0)
        near = closest_point_on_triangles(p, *(np.tile(v, (k, 1)) for v in (v0, v1, v2)))
        d = np.linalg.norm(near - p, axis=1).reshape(k, n_tri)
        tri[start:start + k] = np.argmin(d, axis=1)
        dist[start:start + k] = d[np.arange(k), tri[start:start + k]]
    far = dist > max_dist
    normals = np.where(far[:, None], 0.0, mesh.face_normals()[tri])
    return normals, np.flatnonzero(far).tolist()


def compute_visibility(
    model: SceneModel,
    mesh: TriangleMesh,
    ls: LandmarkSet,
    cfg: VisibilityConfig = VisibilityConfig(),
) -> VisibilityTable:
    """Visibility of every landmark in every image of the model.

    Per image, one batched ray cast reads the mesh depth and normal at the
    pixels the landmarks in view fall on (see _first_hits), and the occlusion
    test runs over all landmarks in one vectorized pass. Row k of the table
    is landmark k, the row of the set's columns. Landmarks farther than
    cfg.max_surface_dist from the mesh are excluded (all-false row) and
    reported in the table's diagnostics.
    """
    landmark_ids = list(range(len(ls)))
    image_ids = sorted(model.images)
    mask = np.zeros((len(ls), len(image_ids)), dtype=bool)
    if len(ls) == 0:
        return VisibilityTable(landmark_ids, image_ids, mask, asdict(cfg), [])

    ref_normals, excluded = landmark_reference_normals(mesh, ls, cfg.max_surface_dist)
    active = np.ones(len(ls), dtype=bool)
    active[excluded] = False
    xyz = ls.xyz
    face_normals = mesh.face_normals()

    for j, iid in enumerate(image_ids):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        sample = _first_hits(mesh, face_normals, K, img.pose, cfg.decimation)
        mask[:, j] = _visible(K, img.pose, sample, xyz, ref_normals, cfg, active)
    return VisibilityTable(landmark_ids, image_ids, mask, asdict(cfg), excluded)


def save_visibility(vt: VisibilityTable, path) -> None:
    """Header (dimensions, tolerances) + one line per landmark with its
    visible image ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# visibility landmarks={len(vt.landmark_ids)} images={len(vt.image_ids)}\n")
        tol = " ".join(f"{k}={v}" for k, v in sorted(vt.tolerances.items()))
        fh.write(f"# tolerances {tol}\n")
        fh.write("# image_ids " + " ".join(str(i) for i in vt.image_ids) + "\n")
        if vt.excluded:
            fh.write("# excluded " + " ".join(str(i) for i in vt.excluded) + "\n")
        for i, lid in enumerate(vt.landmark_ids):
            vis = [str(vt.image_ids[j]) for j in np.flatnonzero(vt.mask[i])]
            fh.write(" ".join([str(lid)] + vis) + "\n")


def load_visibility(path) -> VisibilityTable:
    image_ids = col = None
    tolerances = {}
    excluded = []
    rows = {}  # landmark id -> columns of its visible images, in file order
    with _io.lines(path) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                key = tokens[1:2]
                if key == ["image_ids"]:
                    if image_ids is not None:
                        raise ValueError("second image_ids header")
                    image_ids = list(map(int, tokens[2:]))
                    col = {}
                    for j, iid in enumerate(image_ids):
                        if col.setdefault(iid, j) != j:
                            raise ValueError(f"repeated image id {iid}")
                elif key == ["tolerances"]:
                    for tok in tokens[2:]:
                        k, _, v = tok.partition("=")
                        try:
                            tolerances[k] = float(v)
                        except ValueError:
                            tolerances[k] = v
                elif key == ["excluded"]:
                    excluded = list(map(int, tokens[2:]))
                continue
            lid, *vis = map(int, tokens)
            if col is None:
                raise ValueError("landmark line before the image_ids header")
            if lid in rows:
                raise ValueError(f"landmark {lid} listed twice")
            for iid in vis:
                if iid not in col:
                    raise ValueError(f"unknown image id {iid}")
            rows[lid] = [col[iid] for iid in vis]
        if image_ids is None:
            raise ValueError("missing image_ids header")
    mask = np.zeros((len(rows), len(image_ids)), dtype=bool)
    for i, cols in enumerate(rows.values()):
        mask[i, cols] = True
    return VisibilityTable(list(rows), image_ids, mask, tolerances, excluded)
