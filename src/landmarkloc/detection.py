"""Heatmap-based landmark detections: ground-truth rendering, peak extraction
with confidence pruning and 17x17 weighted-mean subpixel refinement, a
detector simulator for end-to-end testing, and ensemble merging.

Heatmaps live on a grid downsampled 8x from image pixels; detections are
reported in full-resolution pixel coordinates with a confidence in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _io
from .errors import DuplicateLandmarkError
from .landmarks import LandmarkSet
from .scene_model import Intrinsics, SceneModel, _camera_frame, _pixel
from .visibility import VisibilityTable

DOWNSAMPLE = 8
PRUNE_THRESHOLD = 0.3  # detections with peak value <= this are dropped
PATCH_HALF = 8         # 17x17 refinement patch


@dataclass
class Heatmap:
    landmark_id: int
    grid: np.ndarray             # (H/8, W/8) values in [0, 1]
    downsample: int = DOWNSAMPLE

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.min() < 0 or self.grid.max() > 1 + 1e-12:
            raise ValueError("heatmap values must lie in [0, 1]")


@dataclass(frozen=True)
class Detection:
    landmark_id: int
    uv: np.ndarray       # full-resolution pixel coordinates
    confidence: float    # peak heatmap value v in (0, 1]

    def __post_init__(self):
        object.__setattr__(self, "uv", np.asarray(self.uv, dtype=np.float64).reshape(2))
        if not (0 < self.confidence <= 1):
            raise ValueError("confidence must be in (0, 1]")


class DetectionSet:
    """One image's detections as three columns in landmark-id order:
    landmark_ids (N,), uv (N, 2) in full-resolution pixels and confidence (N,).
    DetectionSet(image_id, [Detection, ...]) builds them from rows, and
    iterating yields the rows back; from_columns takes the columns, in any
    order. A landmark may appear once."""

    def __init__(self, image_id: int, detections=()):
        rows = list(detections)
        self._set(image_id, [d.landmark_id for d in rows], [d.uv for d in rows],
                  [d.confidence for d in rows])

    @classmethod
    def from_columns(cls, image_id: int, landmark_ids, uv, confidence) -> DetectionSet:
        ds = cls.__new__(cls)
        ds._set(image_id, landmark_ids, uv, confidence)
        return ds

    @classmethod
    def _in_order(cls, image_id: int, landmark_ids, uv, confidence) -> DetectionSet:
        """from_columns for int64 and float64 columns already in increasing
        landmark-id order, taken as they are."""
        ds = cls.__new__(cls)
        ds.image_id, ds.landmark_ids, ds.uv, ds.confidence = image_id, landmark_ids, uv, confidence
        return ds

    def _set(self, image_id, landmark_ids, uv, confidence):
        ids = np.asarray(landmark_ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        self.image_id, self.landmark_ids = image_id, ids[order]
        self.uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)[order]
        self.confidence = np.asarray(confidence, dtype=np.float64).reshape(-1)[order]
        repeated = self.landmark_ids[1:][np.diff(self.landmark_ids) == 0]
        if len(repeated):
            raise DuplicateLandmarkError(
                f"landmark {repeated[0]} appears more than once in image {image_id}")

    def __len__(self):
        return len(self.landmark_ids)

    def __iter__(self):
        return map(Detection, self.landmark_ids.tolist(), self.uv, self.confidence.tolist())


def grid_shape(extent) -> tuple:
    """Heatmap grid dims for an image extent (Intrinsics or (width, height))."""
    if isinstance(extent, Intrinsics):
        w, h = extent.width, extent.height
    else:
        w, h = extent
    return (-(-h // DOWNSAMPLE), -(-w // DOWNSAMPLE))


def render_gt_heatmap(uv, extent, sigma: float = 1.5, landmark_id: int = 0) -> Heatmap:
    """Peak-normalized Gaussian heatmap around uv (full-res pixels).

    sigma is in low-resolution (grid) pixels. uv=None renders the all-zero
    heatmap used for landmarks that are not visible in the image.
    """
    h, w = grid_shape(extent)
    if uv is None:
        return Heatmap(landmark_id, np.zeros((h, w)))
    u, v = np.asarray(uv, dtype=np.float64)
    gu, gv = u / DOWNSAMPLE, v / DOWNSAMPLE
    cols = np.arange(w)
    rows = np.arange(h)
    d2 = (cols[None, :] - gu) ** 2 + (rows[:, None] - gv) ** 2
    return Heatmap(landmark_id, np.exp(-d2 / (2.0 * sigma * sigma)))


def extract_detection(hm: Heatmap):
    """Peak extraction with confidence pruning and subpixel refinement.

    The global argmax (ties resolved to the smallest row, then column) gives
    the peak value v; detections with v <= 0.3 are pruned. The subpixel
    location is the heatmap-weighted mean over the 17x17 patch centered at
    the peak, clipped at grid borders, mapped back to image pixels.
    """
    grid = hm.grid
    flat = int(np.argmax(grid))               # row-major: smallest row, then column
    r0, c0 = np.unravel_index(flat, grid.shape)
    v = float(grid[r0, c0])
    if v <= PRUNE_THRESHOLD:
        return None
    r_lo, r_hi = max(0, r0 - PATCH_HALF), min(grid.shape[0], r0 + PATCH_HALF + 1)
    c_lo, c_hi = max(0, c0 - PATCH_HALF), min(grid.shape[1], c0 + PATCH_HALF + 1)
    patch = grid[r_lo:r_hi, c_lo:c_hi]
    total = patch.sum()
    rows = np.arange(r_lo, r_hi, dtype=np.float64)
    cols = np.arange(c_lo, c_hi, dtype=np.float64)
    r_mean = float((patch.sum(axis=1) @ rows) / total)
    c_mean = float((patch.sum(axis=0) @ cols) / total)
    uv = np.array([c_mean, r_mean]) * hm.downsample
    return Detection(hm.landmark_id, uv, v)


def simulate_detections_labeled(
    model: SceneModel,
    ls: LandmarkSet,
    vt: VisibilityTable,
    noise_sigma_px: float = 1.0,
    outlier_rate: float = 0.0,
    seed: int = 0,
):
    """Stand-in detector: noisy projections of visible landmarks.

    For each visible (landmark, image) pair an outlier is emitted with
    probability outlier_rate at a uniform random in-image location; otherwise
    the true projection plus isotropic Gaussian noise, clipped to the image.
    Per-image rng streams are derived as seed XOR image id so scheduling
    cannot change results. An inlier's confidence is
    v = clamp(1 - |noise| / (4 sigma), 0.31, 1), exactly 1 when the simulator
    runs noiseless; an outlier's is v ~ Uniform(0.31, 0.7).

    Returns (detections, outlier_ids): a dict image id -> DetectionSet and a
    dict image id -> set of landmark ids planted as outliers.
    """
    if not (0 <= outlier_rate <= 1):
        raise ValueError("outlier_rate must be in [0, 1]")
    if noise_sigma_px < 0:
        raise ValueError("noise_sigma_px must be >= 0")

    # Landmark ids are positions in ls; mask holds their visibility rows.
    mask = vt.mask[[vt._lrow[lm.id] for lm in ls]]
    detections, outlier_ids = {}, {}
    for iid in sorted(model.images):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        rng = np.random.default_rng(seed ^ iid)
        ids = np.flatnonzero(mask[:, vt._icol[iid]])
        u, v, valid = _pixel(K, *_camera_frame(img.pose, ls.xyz[ids]).T)
        ids, truth = ids[valid], np.column_stack([u, v])[valid]
        # The rng draws, in landmark order: an outlier's pixel and confidence,
        # or an inlier's noise.
        outlier = np.zeros(len(ids), dtype=bool)
        draws = np.zeros((len(ids), 3))
        for k in range(len(ids)):
            if rng.random() < outlier_rate:
                outlier[k] = True
                draws[k] = rng.uniform(0, K.width), rng.uniform(0, K.height), rng.uniform(0.31, 0.7)
            elif noise_sigma_px > 0:
                draws[k, :2] = rng.normal(0.0, noise_sigma_px, size=2)
        noise = draws[:, :2]
        uv = np.clip(truth + noise, 0.0, np.nextafter([float(K.width), float(K.height)], 0.0))
        conf = np.ones(len(ids)) if noise_sigma_px == 0 else np.clip(
            1.0 - np.sqrt(np.vecdot(noise, noise)) / (4.0 * noise_sigma_px), 0.31, 1.0)
        uv[outlier], conf[outlier] = draws[outlier, :2], draws[outlier, 2]
        detections[iid] = DetectionSet.from_columns(iid, ids, uv, conf)
        outlier_ids[iid] = set(ids[outlier].tolist())
    return detections, outlier_ids


def simulate_detections(
    model: SceneModel,
    ls: LandmarkSet,
    vt: VisibilityTable,
    noise_sigma_px: float = 1.0,
    outlier_rate: float = 0.0,
    seed: int = 0,
) -> dict:
    """simulate_detections_labeled without the outlier bookkeeping."""
    detections, _ = simulate_detections_labeled(
        model, ls, vt, noise_sigma_px, outlier_rate, seed
    )
    return detections


def merge_ensemble(sets: list, image_id: int | None = None) -> DetectionSet:
    """Union of per-partition detection sets for one image.

    Partitions are disjoint so landmark ids never collide; a collision means
    a broken partition and raises. Output is ordered by landmark id.
    """
    if not sets:
        raise ValueError("nothing to merge")
    if image_id is None:
        image_id = sets[0].image_id
    for ds in sets:
        if ds.image_id != image_id:
            raise ValueError(f"cannot merge image {ds.image_id} into image {image_id}")
    return DetectionSet.from_columns(image_id, *(
        np.concatenate([getattr(ds, col) for ds in sets])
        for col in ("landmark_ids", "uv", "confidence")))


CSV_HEADER = ["image_id", "landmark_id", "u", "v_coord", "confidence"]


def save_detections(detections: dict, path) -> None:
    """CSV of all detections, ordered by image id then landmark id, as
    csv.writer writes it: CRLF line ends, and each float as _io.fmt gives it."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for iid in sorted(detections):
            ds = detections[iid]
            for lid, (u, v), c in zip(ds.landmark_ids.tolist(), ds.uv.tolist(),
                                      ds.confidence.tolist()):
                fh.write(f"{iid},{lid},{u:.17g},{v:.17g},{c:.17g}\r\n")


def load_detections(path) -> dict:
    seen = {}  # image id -> its landmark ids so far; images in order of first row
    image, landmark, us, vs, confs = [], [], [], [], []  # one entry per row
    with _io.lines(path, ",") as src:
        rows = iter(src)
        if next(rows, None) != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}")
        for row in rows:
            if len(row) != 5:
                raise ValueError("expected 5 columns")
            iid, lid = int(row[0]), int(row[1])
            u, v = _io.finite("pixel coordinate", float(row[2]), float(row[3]))
            lids = seen.get(iid)
            if lids is None:
                lids = seen[iid] = set()
            elif lid in lids:
                raise ValueError(f"image {iid} lists landmark {lid} twice")
            conf = float(row[4])
            if not 0 < conf <= 1:
                raise ValueError("confidence must be in (0, 1]")
            lids.add(lid)
            image.append(iid)
            landmark.append(lid)
            us.append(u)
            vs.append(v)
            confs.append(conf)
    # One sort by (image, landmark id); each image's rows are then one slice.
    place = {iid: k for k, iid in enumerate(seen)}
    group = np.fromiter(map(place.__getitem__, image), np.int64, len(image))
    ids = np.array(landmark, dtype=np.int64)
    order = np.lexsort((ids, group))
    ids, uv, conf = ids[order], np.column_stack((us, vs))[order], np.array(confs)[order]
    bounds = np.searchsorted(group[order], np.arange(len(seen) + 1)).tolist()
    return {iid: DetectionSet._in_order(iid, ids[lo:hi], uv[lo:hi], conf[lo:hi])
            for iid, lo, hi in zip(seen, bounds, bounds[1:])}
