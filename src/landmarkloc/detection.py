"""Heatmap-based landmark detections: ground-truth rendering, peak extraction
with confidence pruning and 17x17 weighted-mean subpixel refinement, a
detector simulator for end-to-end testing, and ensemble merging.

Heatmaps live on a grid downsampled 8x from image pixels; detections are
reported in full-resolution pixel coordinates with a confidence in (0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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


@dataclass
class DetectionSet:
    image_id: int
    detections: list = field(default_factory=list)

    def __post_init__(self):
        ids = [d.landmark_id for d in self.detections]
        if len(set(ids)) != len(ids):
            raise DuplicateLandmarkError(
                f"image {self.image_id} has duplicate landmark detections"
            )

    def __len__(self):
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)


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
    xyz = ls.xyz.reshape(-1, 3)
    mask = vt.mask[[vt._lrow[lm.id] for lm in ls]]
    detections, outlier_ids = {}, {}
    for iid in sorted(model.images):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        rng = np.random.default_rng(seed ^ iid)
        ids = np.flatnonzero(mask[:, vt._icol[iid]])
        u, v, valid = _pixel(K, *_camera_frame(img.pose, xyz[ids]).T)
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
        detections[iid] = DetectionSet(iid, list(map(Detection, ids.tolist(), uv, conf.tolist())))
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
    merged = {}
    for ds in sets:
        if ds.image_id != image_id:
            raise ValueError(
                f"cannot merge image {ds.image_id} into image {image_id}"
            )
        for det in ds:
            if det.landmark_id in merged:
                raise DuplicateLandmarkError(
                    f"landmark {det.landmark_id} appears in multiple partitions"
                )
            merged[det.landmark_id] = det
    return DetectionSet(image_id, [merged[k] for k in sorted(merged)])


CSV_HEADER = ["image_id", "landmark_id", "u", "v_coord", "confidence"]


def save_detections(detections: dict, path) -> None:
    """CSV of all detections, ordered by image id then landmark id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for iid in sorted(detections):
            for det in sorted(detections[iid], key=lambda d: d.landmark_id):
                writer.writerow([iid, det.landmark_id, _io.fmt(det.uv[0]), _io.fmt(det.uv[1]),
                                 _io.fmt(det.confidence)])


def load_detections(path) -> dict:
    per_image = {}
    with _io.lines(path, ",") as src:
        rows = iter(src)
        if next(rows, None) != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}")
        for row in rows:
            if len(row) != 5:
                raise ValueError("expected 5 columns")
            iid, lid = int(row[0]), int(row[1])
            u, v = _io.finite("pixel coordinate", float(row[2]), float(row[3]))
            dets = per_image.setdefault(iid, {})
            if lid in dets:
                raise ValueError(f"image {iid} lists landmark {lid} twice")
            dets[lid] = Detection(lid, np.array([u, v]), float(row[4]))
    return {iid: DetectionSet(iid, list(dets.values())) for iid, dets in per_image.items()}
