"""Heatmap-based landmark detections: ground-truth rendering, peak extraction
with confidence pruning and 17x17 weighted-mean subpixel refinement, a
detector simulator for end-to-end testing, and ensemble merging.

Heatmaps live on a grid downsampled 8x from image pixels; detections are
reported in full-resolution pixel coordinates with a confidence in (0, 1].

The simulator projects every visible pair of every image in one pass, makes
one scalar Generator call per drawn value, scaled by numpy's own formulas
for uniform and normal, and builds one DetectionTable from whole columns.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _io
from .errors import DanglingReferenceError, DataError, DuplicateLandmarkError
from .landmarks import LandmarkSet
from .scene_model import Intrinsics, SceneModel, _pair_pixels
from .visibility import VisibilityTable

DOWNSAMPLE = 8
PRUNE_THRESHOLD = 0.3  # detections with peak value <= this are dropped
PATCH_HALF = 8         # 17x17 refinement patch


@dataclass
class Heatmap:
    grid: np.ndarray             # (H/8, W/8) values in [0, 1]
    downsample: int = DOWNSAMPLE

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.min() < 0 or self.grid.max() > 1 + 1e-12:
            raise ValueError("heatmap values must lie in [0, 1]")


class DetectionSet:
    """One image's detections, for an int64 image id, as three read-only
    columns in landmark-id order: landmark_ids (N,), each landmark once, uv
    (N, 2) finite full-resolution pixels and confidence (N,) in (0, 1]. The
    constructor takes the columns in any order and checks them as the
    DetectionTable of their rows."""

    def __init__(self, image_id: int, landmark_ids, uv, confidence):
        _io.int64("image id", image_id)
        ids = _io.int64_column("landmark id", landmark_ids)
        table = DetectionTable(np.full(len(ids), image_id), ids, uv, confidence)
        self.image_id, self.landmark_ids, self.uv, self.confidence = (
            image_id, table.landmark_ids, table.uv, table.confidence)

    @classmethod
    def _in_order(cls, image_id: int, landmark_ids, uv, confidence) -> DetectionSet:
        """The set of int64 and float64 columns in increasing landmark-id
        order, taken as they are: a DetectionTable checks them."""
        ds = cls.__new__(cls)
        ds.image_id, ds.landmark_ids, ds.uv, ds.confidence = image_id, landmark_ids, uv, confidence
        return ds

    def __len__(self):
        return len(self.landmark_ids)


class DetectionTable(Mapping):
    """Every detection as read-only columns sorted by image id, then landmark
    id: image_ids and landmark_ids (N,) int64, uv (N, 2) finite pixels and
    confidence (N,) in (0, 1]. Per image, in id order: images (I,) the ids,
    offsets (I + 1,) the bounds of their rows, and first_rows (I,) where each
    image's first row was among the rows given. The constructor takes rows in
    any order (rows already in order stay views) and checks the rules of
    load_detections, an (image, landmark) pair at most once. As a Mapping:
    image id -> DetectionSet, views of its rows, in ascending id order."""

    def __init__(self, image_ids, landmark_ids, uv, confidence):
        image = _io.int64_column("image id", image_ids)
        n = len(image)
        ids = _io.int64_column("landmark id", landmark_ids).reshape(n)
        uv = np.ascontiguousarray(uv, dtype=np.float64).reshape(n, 2)
        conf = np.ascontiguousarray(confidence, dtype=np.float64).reshape(n)
        if not np.isfinite(uv).all():
            raise ValueError("non-finite pixel coordinate")
        order, same = None, image[1:] == image[:-1]
        if not ((image[1:] > image[:-1]) | (same & (ids[1:] > ids[:-1]))).all():
            order = np.lexsort((ids, image))
            image, ids, uv, conf = image[order], ids[order], uv[order], conf[order]
            same = image[1:] == image[:-1]
        twice = np.flatnonzero(same & (ids[1:] == ids[:-1]))
        if len(twice):
            iid, lid = image[twice[0]].item(), ids[twice[0]].item()
            error = DuplicateLandmarkError(f"landmark {lid} appears more than once in image {iid}")
            error.pair = (iid, lid)  # for merge_ensemble to name the tables that hold it
            raise error
        if not ((conf > 0) & (conf <= 1)).all():
            raise ValueError("confidence must be in (0, 1]")
        starts = np.flatnonzero(np.concatenate(([n > 0], ~same)))
        for name, column in (("image_ids", image), ("landmark_ids", ids), ("uv", uv),
                             ("confidence", conf), ("images", image[starts]),
                             ("offsets", np.append(starts, n)),
                             ("first_rows", starts if order is None
                              else np.minimum.reduceat(order, starts))):
            setattr(self, name, column.view())
            getattr(self, name).flags.writeable = False
        bounds = self.offsets.tolist()
        self._rows = dict(zip(self.images.tolist(), zip(bounds, bounds[1:])))  # id -> (lo, hi)

    @classmethod
    def of(cls, detections) -> DetectionTable:
        """detections as a table: a DetectionTable as it is, or a mapping of
        int64 image id -> DetectionSet, each set's rows under its key."""
        if isinstance(detections, DetectionTable):
            return detections
        sets = list(detections.values())
        keys = _io.int64_column("image id", list(detections))
        return cls(np.repeat(keys, [len(ds) for ds in sets]), *(
            np.concatenate([empty, *(getattr(ds, col) for ds in sets)]) for col, empty in (
                ("landmark_ids", np.zeros(0, np.int64)), ("uv", np.zeros((0, 2))),
                ("confidence", np.zeros(0)))))

    def __getitem__(self, image_id) -> DetectionSet:
        lo, hi = self._rows[image_id]
        return DetectionSet._in_order(image_id, self.landmark_ids[lo:hi], self.uv[lo:hi],
                                      self.confidence[lo:hi])

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


def grid_shape(extent) -> tuple:
    """Heatmap grid dims for an image extent (Intrinsics or (width, height))."""
    if isinstance(extent, Intrinsics):
        w, h = extent.width, extent.height
    else:
        w, h = extent
    return (-(-h // DOWNSAMPLE), -(-w // DOWNSAMPLE))


def render_gt_heatmap(uv, extent, sigma: float = 1.5) -> Heatmap:
    """Peak-normalized Gaussian heatmap around uv (full-res pixels).

    sigma is in low-resolution (grid) pixels. uv=None renders the all-zero
    heatmap used for landmarks that are not visible in the image.
    """
    h, w = grid_shape(extent)
    if uv is None:
        return Heatmap(np.zeros((h, w)))
    u, v = np.asarray(uv, dtype=np.float64)
    gu, gv = u / DOWNSAMPLE, v / DOWNSAMPLE
    cols = np.arange(w)
    rows = np.arange(h)
    d2 = (cols[None, :] - gu) ** 2 + (rows[:, None] - gv) ** 2
    return Heatmap(np.exp(-d2 / (2.0 * sigma * sigma)))


def extract_detection(hm: Heatmap):
    """Peak extraction with confidence pruning and subpixel refinement: the
    detection's full-resolution pixel uv (2,) and its confidence, or None.

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
    if v > 1:
        raise ValueError("confidence must be in (0, 1]")
    r_lo, r_hi = max(0, r0 - PATCH_HALF), min(grid.shape[0], r0 + PATCH_HALF + 1)
    c_lo, c_hi = max(0, c0 - PATCH_HALF), min(grid.shape[1], c0 + PATCH_HALF + 1)
    patch = grid[r_lo:r_hi, c_lo:c_hi]
    total = patch.sum()
    rows = np.arange(r_lo, r_hi, dtype=np.float64)
    cols = np.arange(c_lo, c_hi, dtype=np.float64)
    r_mean = float((patch.sum(axis=1) @ rows) / total)
    c_mean = float((patch.sum(axis=0) @ cols) / total)
    return np.array([c_mean, r_mean]) * hm.downsample, v


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

    One pass over every image: the visible pairs, image-major and by landmark
    id within an image, are projected at once (scene_model._pair_pixels).
    Then each image's stream, in id order, makes its draws in landmark order,
    one scalar Generator call per value: random() for the outlier test, then an
    outlier's three random() scaled as Generator.uniform(low, high) does
    (low + (high - low) * u), or an inlier's two standard_normal(), scaled
    after the loop as Generator.normal(0, sigma) does (0.0 + sigma * z). So
    the values are those of uniform() and normal() calls per pair, bit for
    bit.

    Row k of the table is landmark k; rows past the set's are not read.
    Returns (detections, outlier_ids): a DetectionTable, which holds the
    images with detections, and a dict of every image id -> set of landmark
    ids planted as outliers.
    """
    if not (0 <= outlier_rate <= 1):
        raise ValueError("outlier_rate must be in [0, 1]")
    if not 0 <= noise_sigma_px < np.inf:
        raise ValueError("noise_sigma_px must be finite and >= 0")

    if len(vt.mask) < len(ls):
        raise DanglingReferenceError(f"visibility table lacks landmark {len(vt.mask)}")
    images = model.images
    image_ids = images.ids.tolist()
    try:  # column k is image k of the model
        mask = vt.mask[:len(ls), [vt.column(iid) for iid in image_ids]]
    except KeyError as exc:
        raise DanglingReferenceError(f"visibility table lacks image {exc.args[0]}") from None
    img, lm = np.nonzero(mask.T)  # image-major, landmarks ascending
    truth, valid = _pair_pixels(images, model.intrinsics, ls.xyz, img, lm)
    img, lm, truth = img[valid], lm[valid], truth[valid]
    size = np.array([[K.width, K.height] for K in map(model.camera, image_ids)], dtype=np.float64)
    counts = np.bincount(img, minlength=len(image_ids)).tolist()

    # The draws, image by image and in landmark order within an image: per
    # pair the outlier test, then an outlier's pixel and confidence, or an
    # inlier's noise. The values go to flat C arrays, so that no float
    # object outlives its draw.
    outlier, wild, z = bytearray(), array("d"), array("d")
    sigma, low, span = noise_sigma_px, 0.31, 0.7 - 0.31
    for iid, n, (w, h) in zip(image_ids, counts, size.tolist()):
        rng = np.random.default_rng(seed ^ iid)
        random, normal = rng.random, rng.standard_normal
        for _ in range(n):
            if random() < outlier_rate:
                outlier.append(1)
                wild.extend((0.0 + w * random(), 0.0 + h * random(), low + span * random()))
            else:
                outlier.append(0)
                if sigma > 0:
                    z.extend((normal(), normal()))
    outlier = np.frombuffer(outlier, dtype=bool)
    noise = np.zeros((len(img), 2))
    if sigma > 0:
        # 0.0 + sigma * z, as Generator.normal(0.0, sigma) makes it. In place,
        # with z freed first, as are the pixels below: each whole-column
        # temporary would add to the stage's peak memory.
        noise[~outlier] = np.frombuffer(z).reshape(-1, 2)
        del z
        noise *= sigma
        noise += 0.0
    uv = np.clip(np.add(truth, noise, out=truth), 0.0, np.nextafter(size, 0.0)[img], out=truth)
    conf = np.ones(len(img)) if sigma == 0 else np.clip(
        1.0 - np.sqrt(np.vecdot(noise, noise)) / (4.0 * sigma), 0.31, 1.0)
    wild = np.frombuffer(wild).reshape(-1, 3)
    uv[outlier], conf[outlier] = wild[:, :2], wild[:, 2]

    cuts = np.searchsorted(img[outlier], np.arange(len(image_ids) + 1)).tolist()
    planted = lm[outlier].tolist()
    outlier_ids = {iid: set(planted[lo:hi]) for iid, lo, hi in zip(image_ids, cuts, cuts[1:])}
    return DetectionTable(images.ids[img], lm, uv, conf), outlier_ids


def simulate_detections(model, ls, vt, noise_sigma_px=1.0, outlier_rate=0.0,
                        seed=0) -> DetectionTable:
    """simulate_detections_labeled without the outlier bookkeeping."""
    return simulate_detections_labeled(model, ls, vt, noise_sigma_px, outlier_rate, seed)[0]


def merge_ensemble(tables: list, names: list | None = None) -> DetectionTable:
    """The union of the detection tables of an ensemble's members: one
    concatenate and one sort. Partitions are disjoint, so an (image,
    landmark) pair in two tables means a broken partition and raises
    DuplicateLandmarkError; given names, one per table, it names the two."""
    if not tables:
        raise ValueError("nothing to merge")
    try:
        return DetectionTable(*(np.concatenate([getattr(t, col) for t in tables]) for col in (
            "image_ids", "landmark_ids", "uv", "confidence")))
    except DuplicateLandmarkError as exc:
        if names is None:
            raise
        iid, lid = exc.pair
        a, b = [name for name, t in zip(names, tables)
                if iid in t and lid in t[iid].landmark_ids][:2]
        raise DuplicateLandmarkError(
            f"landmark {lid} of image {iid} is in both {a} and {b}") from None


CSV_HEADER = ["image_id", "landmark_id", "u", "v_coord", "confidence"]
_BLOCK_ROWS = 1024  # rows per step of a pass that makes objects per row: bounds their memory


# The columns of a detections file, in file order: dtype, and the shape of one row.
_COLUMNS = {"image": (np.int64, ()), "ids": (np.int64, ()), "uv": (np.float64, (2,)),
            "conf": (np.float64, ())}


def _sidecar(path: Path) -> _io.Sidecar:
    return _io.Sidecar.beside(path, __file__, _COLUMNS)


def save_detections(detections, path) -> None:
    """CSV of a DetectionTable, or of the mapping DetectionTable.of takes, in
    the table's order (image id, then landmark id), as csv.writer writes it:
    CRLF line ends, and each float as _io.fmt gives it, each block of
    _BLOCK_ROWS rows in one % format. The table's columns, which a load of the
    file gives, are kept beside it (see load_detections)."""
    table = DetectionTable.of(detections)

    def lines():
        yield (",".join(CSV_HEADER) + "\r\n").encode()
        for lo in range(0, len(table.image_ids), _BLOCK_ROWS):
            cols = [col[lo:lo + _BLOCK_ROWS].tolist() for col in (
                table.image_ids, table.landmark_ids, *table.uv.T, table.confidence)]
            yield ("%d,%d,%.17g,%.17g,%.17g\r\n" * len(cols[0]) % tuple(
                itertools.chain.from_iterable(zip(*cols)))).encode()

    _sidecar(Path(path)).write([lines()], {
        "image": table.image_ids, "ids": table.landmark_ids, "uv": table.uv,
        "conf": table.confidence})


def load_detections(path) -> DetectionTable:
    """Read a detections CSV: a `image_id,landmark_id,u,v_coord,confidence`
    header line, then one line per detection, whose values DetectionTable
    judges: int64 image and landmark ids, finite pixel coordinates u and v,
    each (image, landmark) pair once and a confidence in (0, 1]. Returns one
    DetectionTable, its rows sorted by image id, then landmark id, with one
    lexsort; first_rows keeps where each image's first line was.

    The file is parsed in one np.loadtxt pass when it is in the plain form
    save_detections writes: ASCII, the header as its first line, and plain
    numbers. Any other file, and any file that fails a check, is read again
    by the row loop, which accepts what Python's int() and float() accept and
    raises MalformedFileError at the first line that is malformed or that
    the table refuses. Both give the same table.

    When save_detections left the columns of these bytes beside the file, in
    .<name>.landmarkloc (an _io.Sidecar), the table is made from that copy
    instead, through the constructor's checks: its columns are then views of
    the copy's buffer, already in order. A load never keeps a copy itself:
    the one stat that finds none is all it costs.
    """
    path = Path(path)
    return _sidecar(path).read(lambda: _parse(path), lambda c: DetectionTable(
        c["image"], c["ids"], c["uv"], c["conf"]))


def _parse(path: Path) -> DetectionTable:
    try:
        return DetectionTable(*_bulk_columns(path))
    except (ValueError, DataError, Warning):  # the row loop names the bad line
        return DetectionTable(*_row_columns(path))


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
    from one np.loadtxt pass; a ValueError or Warning when loadtxt does not
    take the file. loadtxt takes no token that int() and float() refuse, and
    reads each one it takes to the same value."""
    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body only warns
        if fh.readline() != ",".join(CSV_HEADER) + "\n":
            raise ValueError("not the header save_detections writes")
        rows = np.loadtxt(_checked_lines(fh), dtype=_CSV_DTYPE, delimiter=",",
                          comments=None, quotechar=None, ndmin=1)
    return (rows["image_id"], rows["landmark_id"], np.column_stack((rows["u"], rows["v_coord"])),
            rows["confidence"])


def _row_columns(path):
    """_bulk_columns by a loop over the rows, as tuples in file order; the
    DetectionTable of the rows judges their values and names the first line it
    refuses."""
    with _io.lines(path, ",", make=lambda rows: DetectionTable(*_io.columns(rows, 4))) as src:
        rows = iter(src)
        if next(rows, None) != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}")
        for row in rows:
            if len(row) != 5:
                raise ValueError("expected 5 columns")
            src.keep(int(row[0]), int(row[1]), (float(row[2]), float(row[3])), float(row[4]))
        src.table()
    return _io.columns(src.rows, 4)
