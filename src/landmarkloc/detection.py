"""Heatmap-based landmark detections: ground-truth rendering, peak extraction
with confidence pruning and 17x17 weighted-mean subpixel refinement, a
detector simulator for end-to-end testing, and ensemble merging.

Heatmaps live on a grid downsampled 8x from image pixels; detections are
reported in full-resolution pixel coordinates with a confidence in (0, 1].
"""

from __future__ import annotations

import warnings
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
    """Read a detections CSV: a `image_id,landmark_id,u,v_coord,confidence`
    header line, then one line per detection with an int64 image id and
    landmark id, finite pixel coordinates u and v, and a confidence in (0, 1].
    An image may list a landmark once. Returns image id -> DetectionSet, the
    images in order of their first line.

    The file is parsed in one np.loadtxt pass when it is in the plain form
    save_detections writes: ASCII, the header as its first line, and plain
    numbers. Any other file, and any file that fails a check, is read again
    by the row loop, which accepts what Python's int() and float() accept and
    raises MalformedFileError at the first bad line. Both give the same sets.
    """
    cols = _bulk_columns(path)
    sets = None if cols is None else _by_image(*cols)
    return _by_image(*_row_columns(path)) if sets is None else sets


def _by_image(image, ids, uv, conf):
    """Columns of rows in any order as image id -> DetectionSet, the images in
    order of their first row; None when an image lists a landmark twice."""
    # One sort by (image, landmark id); each image's rows are then one slice.
    order = np.lexsort((ids, image))
    image, ids, uv, conf = image[order], ids[order], uv[order], conf[order]
    if ((image[1:] == image[:-1]) & (ids[1:] == ids[:-1])).any():
        return None
    images, start = np.unique(image, return_index=True)
    bounds = start.tolist() + [len(image)]
    sets = [DetectionSet._in_order(iid, ids[lo:hi], uv[lo:hi], conf[lo:hi])
            for iid, lo, hi in zip(images.tolist(), bounds, bounds[1:])]
    first_rows = np.minimum.reduceat(order, start)
    return {sets[k].image_id: sets[k] for k in np.argsort(first_rows).tolist()}


_CSV_DTYPE = np.dtype([(name, np.int64 if name.endswith("id") else np.float64)
                       for name in CSV_HEADER])
# np.loadtxt strips these from a number as blanks, where int() and float()
# refuse it. It also reads some non-ASCII letters in an integer as digits, so
# it is given ASCII text only.
_NOT_BLANK = "\x1c\x1d\x1e\x1f"


def _checked_lines(fh):
    """The lines of fh, read 64 KiB at a time; a ValueError at a block with a
    character of _NOT_BLANK."""
    for block in iter(lambda: fh.readlines(1 << 16), []):
        text = "".join(block)
        if any(c in text for c in _NOT_BLANK):
            raise ValueError("information separator in the text")
        yield from block


def _bulk_columns(path):
    """The columns (image, landmark id, uv, confidence) of a detections CSV
    from one np.loadtxt pass, or None when loadtxt does not take the file or
    a row fails a check on its own. loadtxt takes no token that int() and
    float() refuse, and reads each one it takes to the same value."""
    try:
        with open(path, encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            if fh.readline() != ",".join(CSV_HEADER) + "\n":
                return None
            rows = np.loadtxt(_checked_lines(fh), dtype=_CSV_DTYPE, delimiter=",",
                              comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    image, ids, conf = rows["image_id"], rows["landmark_id"], rows["confidence"]
    uv = np.column_stack((rows["u"], rows["v_coord"]))
    if not (np.isfinite(uv).all() and ((conf > 0) & (conf <= 1)).all()):
        return None
    return image, ids, uv, conf


def _row_columns(path):
    """_bulk_columns by a loop over the rows, which names the first bad line."""
    pairs = set()
    image, landmark, us, vs, confs = [], [], [], [], []  # one entry per row
    with _io.lines(path, ",") as src:
        rows = iter(src)
        if next(rows, None) != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}")
        for row in rows:
            if len(row) != 5:
                raise ValueError("expected 5 columns")
            iid, lid = _io.int64("image or landmark id", int(row[0]), int(row[1]))
            u, v = _io.finite("pixel coordinate", float(row[2]), float(row[3]))
            if (iid, lid) in pairs:
                raise ValueError(f"image {iid} lists landmark {lid} twice")
            conf = float(row[4])
            if not 0 < conf <= 1:
                raise ValueError("confidence must be in (0, 1]")
            pairs.add((iid, lid))
            image.append(iid)
            landmark.append(lid)
            us.append(u)
            vs.append(v)
            confs.append(conf)
    return (np.array(image, dtype=np.int64), np.array(landmark, dtype=np.int64),
            np.column_stack((us, vs)), np.array(confs))
