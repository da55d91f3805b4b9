"""Mesh-based landmark visibility: the per-(landmark, image) occlusion test,
depth rasterization, and robust affine registration of dense geometry to the
SfM frame.

A landmark is visible in an image when (a) it is in front of the camera and
projects inside the extent, (b) its camera-frame depth matches the mesh depth
at its pixel within tolerance, and (c) its reference surface normal agrees
with the mesh normal seen at that pixel. Its pixel is the nearest pixel
centre of the image grid at 1/decimation resolution. compute_visibility
works on the (landmark, image) pairs in view, a block of images at a time,
and reads the mesh there with one first-hit ray per pair, a block's rays to
one ray cast, and _visible, the one occlusion test, compares them.
rasterize_depth renders the same depth and normal for every pixel of an
image; no stage calls it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _io
from .errors import DegeneracyError, MalformedFileError, RobustFitError
from .landmarks import LandmarkSet
# nearest_surface_point is not called here; perfbench's tracer wraps
# visibility.nearest_surface_point by name.
from .mesh import TriangleMesh, closest_point_on_triangles, nearest_surface_point, ray_cast  # noqa: F401
from .scene_model import Intrinsics, Pose, SceneModel, _by_camera, _pair_blocks, _pairs_in_view

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


def _by_row(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row k of v (N, 3) times the matrix M[k] (N, 3, 3), one (1, 3) @ (3, 3)
    product each. Whether such a row has the bits of the same row in a
    stacked product X @ M[k] is decided by M's layout and the BLAS kernel,
    not by the row count. Over 3,000 random rows, with OpenBLAS's SkylakeX
    kernel none differs for a C-contiguous M but 1,611 do for a transposed
    view; with Haswell 2,079 differ even for a C-contiguous M; with
    Sandybridge none does. So M is passed C-contiguous."""
    return np.matmul(v[:, None, :], M)[:, 0]


def _first_hits(mesh: TriangleMesh, face_normals: np.ndarray, G: Intrinsics,
                decimation: int, uv: np.ndarray, image: np.ndarray, R: np.ndarray,
                RT: np.ndarray, center: np.ndarray):
    """DepthMap.lookup for the maps rasterize_depth would render, without
    rendering them, over (landmark, image) pairs: pair k is the
    full-resolution pixel uv[k] (2,) of image image[k], whose pose has
    rotation R[image[k]] and camera centre center[image[k]]; RT[j] is R[j].T,
    and both stacks are C-contiguous (see _by_row). G is the image grid at
    1/decimation resolution (_decimated). One ray per pair through the centre
    of the same pixel gives the camera-frame depth of the first hit (inf on a
    miss) and the camera-frame unit normal of the triangle hit (0 on a miss)."""
    px, py = _snap(uv, decimation, G.width, G.height)
    # Unit camera-frame z, so the hit distance along the ray is the depth.
    rays = np.column_stack([(px - G.cx) / G.fx, (py - G.cy) / G.fy, np.ones(len(px))])
    depth, tri = ray_cast(mesh, center[image], _by_row(rays, R[image]))
    normal = np.zeros((len(tri), 3))
    hit = tri >= 0
    normal[hit] = _by_row(face_normals[tri[hit]], RT[image[hit]])
    return depth, normal


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


@dataclass(frozen=True)
class VisibilityTable:
    """Which landmarks each image sees: row k of mask (L, N) is landmark k,
    and column j the image image_ids[j]. Frozen, with image_ids (N,) and the
    excluded landmarks as read-only int64 columns and mask read-only, checked
    as load_visibility checks them: int64 (no bools), each image once, and
    each excluded landmark a row of mask, once."""
    image_ids: np.ndarray
    mask: np.ndarray            # (L, N) bool
    tolerances: dict = field(default_factory=dict)
    excluded: np.ndarray = ()   # landmark ids off the mesh

    def __post_init__(self):
        image_ids = _io.int64_column("image id", self.image_ids)
        _io.refuse_repeats(image_ids, "repeated image id {}")
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[1] != len(image_ids):
            raise ValueError("mask shape does not match the image ids")
        excluded = _io.int64_column("excluded landmark id", self.excluded)
        outside = (excluded < 0) | (excluded >= len(mask))
        if outside.any():
            raise ValueError(f"excluded landmark id {excluded[np.argmax(outside)]} outside "
                             f"[0, {len(mask)})")
        _io.refuse_repeats(excluded, "excluded landmark id {} repeated")
        for name, column in (("image_ids", image_ids), ("mask", mask), ("excluded", excluded)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_columns", dict(zip(image_ids.tolist(), range(len(image_ids)))))

    def __eq__(self, other):
        if not isinstance(other, VisibilityTable):
            return NotImplemented
        return (np.array_equal(self.image_ids, other.image_ids)
                and np.array_equal(self.mask, other.mask)
                and self.tolerances == other.tolerances
                and np.array_equal(self.excluded, other.excluded))

    def column(self, image_id) -> int:
        """The column of image image_id; a KeyError when the table lacks it."""
        return self._columns[image_id]

    def visible(self, landmark_id: int, image_id: int) -> bool:
        if not 0 <= landmark_id < len(self.mask):
            raise IndexError(f"landmark id {landmark_id} outside [0, {len(self.mask)})")
        return bool(self.mask[landmark_id, self.column(image_id)])


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


def _visible(z: np.ndarray, depth: np.ndarray, normal: np.ndarray,
             ref_normal: np.ndarray, cfg: VisibilityConfig) -> np.ndarray:
    """The occlusion test of (landmark, image) pairs in view.

    Pair k's landmark has camera-frame depth z[k] and unit reference normal
    ref_normal[k] (3,), rotated into the camera frame; depth[k] and normal[k]
    are the mesh's camera-frame depth (inf where none) and unit normal at its
    pixel, as DepthMap.lookup gives them. A pair passes when the depths agree
    within max(cfg.tol_depth, cfg.rel_frac * z) and the normals make an angle
    of at most cfg.tol_normal_deg.
    """
    # A tolerance past the largest float is inf: every finite depth agrees.
    with np.errstate(over="ignore"):
        tol = np.maximum(cfg.tol_depth, cfg.rel_frac * z)
    ok_depth = np.isfinite(depth) & (np.abs(depth - z) <= tol)
    cosang = np.einsum("ij,ij->i", normal, ref_normal)
    return ok_depth & (cosang >= math.cos(math.radians(cfg.tol_normal_deg)))


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

    Images are taken per camera (scene_model._by_camera), in blocks of at
    most scene_model._PAIR_BLOCK (landmark, image) pairs. Per block, one
    stacked product gives every landmark's camera frame in each image, and
    the pairs in view are listed image by image (_pairs_in_view). The mesh
    depth and normal at their pixels are read with one ray per pair (see
    _first_hits), the block's pairs to one ray_cast call (none for a block
    without a pair in view), and _visible tests them. Every pair gets the
    bits of a per-image pass over the landmarks, except where that pass took
    a one-row product on a transposed view: in an image with one pair in
    view, or one ray hit, a camera-frame normal may differ in the last bit
    (see _by_row). Row k of the table is landmark k, the row of the
    set's columns. Landmarks farther than cfg.max_surface_dist from the mesh
    are excluded (all-false row) and reported in the table's diagnostics.
    """
    images = model.images
    image_ids = images.ids.tolist()
    mask = np.zeros((len(ls), len(image_ids)), dtype=bool)
    if len(ls) == 0:
        return VisibilityTable(image_ids, mask, asdict(cfg), [])

    ref_normals, excluded = landmark_reference_normals(mesh, ls, cfg.max_surface_dist)
    active = np.ones(len(ls), dtype=bool)
    active[excluded] = False
    xyz = ls.xyz
    face_normals = mesh.face_normals()

    for camera_id, rows in _by_camera(images.camera_ids):
        K = model.intrinsics[camera_id]
        G = _decimated(K, cfg.decimation)
        cols = np.arange(len(image_ids))[rows]  # the table columns of its images
        R, t, center = images.R[cols], images.t[cols], images.center[cols]
        # Transposed views of the C-contiguous stack R have the layout of
        # Pose.R.T, so products with them have the bits of the per-image
        # ones; _by_row takes the C-contiguous copy RTc.
        RT = R.transpose(0, 2, 1)
        RTc = np.ascontiguousarray(RT)
        for blk in _pair_blocks(len(cols), len(ls)):
            img, lm, uv, z = _pairs_in_view(K, xyz, RT[blk], t[blk], active)
            if not len(img):
                continue
            img += blk.start
            depth, normal = _first_hits(mesh, face_normals, G, cfg.decimation,
                                        uv, img, R, RTc, center)
            ref = _by_row(ref_normals[lm], RTc[img])
            mask[lm, cols[img]] = _visible(z, depth, normal, ref, cfg)
    return VisibilityTable(image_ids, mask, asdict(cfg), excluded)


# The columns of a visibility file: dtype, and the shape of one row. shape is
# (landmarks, images) and mask the table's rows back to back; tolerances is the
# UTF-8 of the tokens of the `# tolerances` line, one per line.
_COLUMNS = {"image_ids": (np.int64, ()), "shape": (np.int64, ()), "mask": (np.bool_, ()),
            "tolerances": (np.uint8, ()), "excluded": (np.int64, ())}


def _sidecar(path: Path) -> _io.Sidecar:
    return _io.Sidecar.beside(path, __file__, _COLUMNS)


def _tolerances(tokens) -> dict:
    """The tolerances that `k=v` tokens give: v as a float where float()
    reads it, as text elsewhere."""
    tolerances = {}
    for tok in tokens:
        k, _, v = tok.partition("=")
        try:
            tolerances[k] = float(v)
        except ValueError:
            tolerances[k] = v
    return tolerances


def save_visibility(vt: VisibilityTable, path) -> None:
    """Header (dimensions, tolerances) + one line per landmark, 0, 1, 2, ...,
    with its visible image ids.

    The columns a load of the file gives are kept beside it (see
    load_visibility), unless the tolerances hold a line break, which the text
    cannot carry.
    """
    names = [str(i) for i in vt.image_ids.tolist()]
    rows, cols = np.nonzero(vt.mask)  # row-major: each landmark's images in order
    visible = [names[j] for j in cols.tolist()]
    ends = np.searchsorted(rows, np.arange(1, len(vt.mask) + 1)).tolist()
    tol = " ".join(f"{k}={v}" for k, v in sorted(vt.tolerances.items()))
    head = (f"# visibility landmarks={len(vt.mask)} images={len(vt.image_ids)}\n"
            f"# tolerances {tol}\n# image_ids {' '.join(names)}\n")
    if len(vt.excluded):
        head += "# excluded " + " ".join(map(str, vt.excluded.tolist())) + "\n"
    bounds = [0, *ends]
    body = "".join(" ".join([str(lid), *visible[lo:hi]]) + "\n"
                   for lid, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
    _sidecar(Path(path)).write([[head.encode(), body.encode()]], {
        "image_ids": vt.image_ids,
        "shape": np.array(vt.mask.shape, np.int64), "mask": vt.mask.reshape(-1),
        "tolerances": np.frombuffer("\n".join(tol.split()).encode(), np.uint8),
        "excluded": vt.excluded,
    } if "\n" not in tol and "\r" not in tol else None)


def load_visibility(path) -> VisibilityTable:
    """Inverse of save_visibility. The `# visibility landmarks=L images=N`
    header must give the counts of the landmark lines, which run 0, 1, 2, ...,
    and of the image ids. Each of the four header lines may appear once, and
    the last line ends with a line end.

    When save_visibility left the columns of these bytes beside the file, in
    .<name>.landmarkloc (an _io.Sidecar), the table is made from that
    copy instead, through the constructor, which holds the same value rules.
    """
    path = Path(path)
    return _sidecar(path).read(lambda: _parse(path), _from_columns)


def _from_columns(c) -> VisibilityTable:
    return VisibilityTable(c["image_ids"], c["mask"].reshape(c["shape"].tolist()),
                           _tolerances(bytes(c["tolerances"]).decode().split()), c["excluded"])


def _parse(path: Path) -> VisibilityTable:
    dims = image_ids = col = None
    tolerances = {}
    excluded = []
    seen = set()  # header lines read
    rows = []  # landmark k -> columns of its visible images, in file order
    with _io.lines(path) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                key = tokens[1:2]
                if key in (["visibility"], ["image_ids"], ["tolerances"], ["excluded"]):
                    if key[0] in seen:
                        raise ValueError(f"second `# {key[0]}` line")
                    seen.add(key[0])
                if key == ["visibility"]:
                    counts = dict(tok.partition("=")[::2] for tok in tokens[2:])
                    if sorted(counts) != ["images", "landmarks"]:
                        raise ValueError("expected `# visibility landmarks=L images=N`")
                    dims = src.no, int(counts["landmarks"]), int(counts["images"])
                elif key == ["image_ids"]:
                    # The table's own check of the ids, which names this line.
                    image_ids = list(map(int, tokens[2:]))
                    col = VisibilityTable(image_ids, np.zeros((0, len(image_ids))))._columns
                elif key == ["tolerances"]:
                    tolerances = _tolerances(tokens[2:])
                elif key == ["excluded"]:
                    excluded, excluded_no = list(map(int, tokens[2:])), src.no
                continue
            lid, *vis = map(int, tokens)
            if col is None:
                raise ValueError("landmark line before the image_ids header")
            if lid != len(rows):
                raise ValueError(f"landmark id {lid} where {len(rows)} was expected")
            for iid in vis:
                if iid not in col:
                    raise ValueError(f"unknown image id {iid}")
            rows.append([col[iid] for iid in vis])
        src.refuse_cut()
        if dims is None:
            raise ValueError("missing `# visibility landmarks=L images=N` header")
        if image_ids is None:
            raise ValueError("missing image_ids header")
    no, landmarks, images = dims
    if (landmarks, images) != (len(rows), len(image_ids)):
        raise MalformedFileError(path, no, f"header counts {landmarks} landmarks and {images} "
                                 f"images, the file lists {len(rows)} and {len(image_ids)}")
    mask = np.zeros((len(rows), len(image_ids)), dtype=bool)
    for i, cols in enumerate(rows):
        mask[i, cols] = True
    try:
        return VisibilityTable(image_ids, mask, tolerances, excluded)
    except ValueError as exc:  # the one rule left, on the excluded ids
        raise MalformedFileError(path, excluded_no, str(exc)) from None
