"""Greedy selection of salient, well-separated 3D landmarks from an SfM cloud.

A LandmarkSet holds the selected landmarks as columns in selection order:
source point ids, positions and saliencies. A landmark's id is its row.
Selection order is semantically meaningful: a run asking for fewer landmarks
with the same parameters returns exactly the prefix of a longer run.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import _io
from .errors import InsufficientCandidatesError
from .scene_model import PointSet, SceneModel

DEFAULT_MIN_TRACK = 10

# Radii below this are treated as zero (only exact duplicates excluded).
_R_FLOOR = 1e-12


class LandmarkSet:
    """Landmarks as read-only columns in selection order: source_point_ids
    (L,) int64, xyz (L, 3) and saliency (L,). Landmark k has id k: row k of
    each column. provenance maps setting names to the values that made the
    set. The constructor checks the rules of load_landmarks: columns that pair
    up, no source point twice, finite positions and saliencies."""

    def __init__(self, source_point_ids, xyz, saliency, provenance=None):
        self.source_point_ids = np.array(_io.int64_column("source point id", source_point_ids))
        self.xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
        self.saliency = np.array(saliency, dtype=np.float64).reshape(-1)
        n = len(self.source_point_ids)
        if len(self.xyz) != n or len(self.saliency) != n:
            raise ValueError(f"landmark columns differ in length: {n} source points, "
                             f"{len(self.xyz)} positions, {len(self.saliency)} saliencies")
        _io.refuse_repeats(self.source_point_ids, "source point {} repeated")
        if not (np.isfinite(self.xyz).all() and np.isfinite(self.saliency).all()):
            raise ValueError("non-finite coordinate or saliency")
        for column in (self.source_point_ids, self.xyz, self.saliency):
            column.flags.writeable = False
        self.provenance = {} if provenance is None else provenance

    def __len__(self):
        return len(self.source_point_ids)


def _distinct_images(points: PointSet):
    """Each point's distinct image ids, ascending, back to back, and their counts."""
    owner = points.owner
    order = np.lexsort((points.image_ids, owner))
    owner, image = owner[order], points.image_ids[order]
    first = np.ones(len(image), dtype=bool)
    first[1:] = (owner[1:] != owner[:-1]) | (image[1:] != image[:-1])
    return image[first], np.bincount(owner[first], minlength=len(points))


# Most elements of the stacked (points, n, n) product that _saliencies makes at once.
_SALIENCY_BLOCK = 1 << 14


def _saliencies(xyz: np.ndarray, image_ids: np.ndarray, counts, model: SceneModel) -> list:
    """score_saliency of each point k at xyz[k] seen from the counts[k] distinct
    images that follow in image_ids, with each centre and direction computed once.

    The points of one track length n are scored together, _SALIENCY_BLOCK
    elements at a time: one stacked product of their directions, one clip and
    one arccos of their pairs. Each point's mean is the 1-D mean of its own
    row, so each score has the bits of the point scored alone.
    """
    images, at = np.unique(image_ids, return_inverse=True)
    rows = [model.images.row(iid) for iid in images.tolist()]
    d = np.repeat(xyz, counts, axis=0) - model.images.center[rows][at]
    dirs = d / np.sqrt(np.vecdot(d, d))[:, None]
    counts = np.asarray(counts, dtype=np.int64)
    if (counts == 0).any():
        raise ValueError("point has no observations")
    starts = np.cumsum(counts) - counts
    scores = np.ones(len(counts))
    for n in sorted(set(counts[counts > 1].tolist())):  # np.unique would import numpy.ma
        points = np.flatnonzero(counts == n)
        rows, cols = np.triu_indices(n, k=1)
        step = max(1, _SALIENCY_BLOCK // (n * n))
        for block in (points[k:k + step] for k in range(0, len(points), step)):
            D = dirs[starts[block, None] + np.arange(n)]
            angles = np.arccos(np.clip(D @ D.transpose(0, 2, 1), -1.0, 1.0)[:, rows, cols])
            spread = np.minimum([np.mean(row) for row in angles], math.pi / 2)
            scores[block] = n * (1.0 + spread)
    return scores.tolist()


def score_saliency(xyz, image_ids, model: SceneModel) -> float:
    """Saliency of a point at xyz observed in image_ids: track length (distinct
    images) x (1 + angular spread).

    Angular spread is the mean pairwise angle (radians) between the viewing
    directions from the observing camera centers to the point, capped at
    pi/2. A single-view point has zero spread. The one-point case of _saliencies.
    """
    images = sorted(set(np.ravel(image_ids).tolist()))
    return _saliencies(np.reshape(xyz, (1, 3)), images, [len(images)], model)[0]


def select_landmarks(
    model: SceneModel,
    count: int,
    r_init: float,
    min_track: int = DEFAULT_MIN_TRACK,
) -> LandmarkSet:
    """Greedily select `count` landmarks with a halving separation radius.

    At each step the highest-saliency unselected point (ties broken by lowest
    point id) farther than the current radius from every selected landmark is
    accepted. When no candidate remains the radius is halved; at radius zero
    only exact duplicates are excluded. r_init must be finite and positive.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    points = model.points
    image_ids, track_len = _distinct_images(points)
    eligible = track_len >= min_track
    if eligible.sum() < count:
        raise InsufficientCandidatesError(count, int(eligible.sum()))
    if not (math.isfinite(r_init) and r_init > 0):
        raise ValueError("r_init must be finite and positive")

    ids, xyz = points.ids[eligible], points.xyz[eligible]
    scores = np.array(_saliencies(xyz, image_ids[np.repeat(eligible, track_len)],
                                  track_len[eligible], model))
    # Saliency descending, point id ascending; greedy scans this order.
    order = np.lexsort((ids, -scores))
    ids, xyz, scores = ids[order], xyz[order], scores[order]
    # Contiguous coordinate columns: each step's distances are whole-column ufuncs.
    x, y, z = np.array(xyz.T)
    n = len(order)

    selected = []  # candidate indices in selection order
    # Distance to the nearest selected landmark, -inf once selected; the inf
    # past the last candidate ends a scan that finds none.
    min_dist = np.full(n + 1, np.inf)
    dist = min_dist[:n]
    d, sq = np.empty(n), np.empty(n)
    r = float(r_init)
    # min_dist only falls, so under one radius no candidate before the last
    # one accepted can be accepted later: the scan resumes after it.
    start = 0
    while len(selected) < count:
        c = start + int(np.argmax(min_dist[start:] > r))
        if c == n:
            if r == 0.0:
                raise InsufficientCandidatesError(count, len(selected))
            r = r / 2.0 if r / 2.0 >= _R_FLOOR else 0.0
            start = 0
            continue
        selected.append(c)
        # (dx*dx + dy*dy) + dz*dz, the order in which np.linalg.norm sums a
        # row of three, so each distance has its bits.
        np.subtract(x, x[c], out=d)
        np.multiply(d, d, out=d)
        for col in (y, z):
            np.subtract(col, col[c], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(d, sq, out=d)
        np.sqrt(d, out=d)
        np.minimum(dist, d, out=dist)
        dist[c] = -np.inf
        start = c + 1

    provenance = {
        "count": count,
        "r_init": float(r_init),
        "min_track": int(min_track),
        "r_final": r,
    }
    return LandmarkSet(ids[selected], xyz[selected], scores[selected], provenance)


# The columns of a landmarks file: dtype, and the shape of one row. provenance
# is the UTF-8 of the tokens of the `# provenance` line, one per line.
_COLUMNS = {"source": (np.int64, ()), "xyz": (np.float64, (3,)), "saliency": (np.float64, ()),
            "provenance": (np.uint8, ())}


def _sidecar(path: Path) -> _io.Sidecar:
    return _io.Sidecar.beside(path, __file__, _COLUMNS)


def _provenance(tokens) -> dict:
    """The provenance that `k=v` tokens give: v as text."""
    return dict(tok.partition("=")[::2] for tok in tokens)


def save_landmarks(ls: LandmarkSet, path) -> None:
    """Write one `id source_point_id x y z saliency` line per landmark, all
    with one % format over a flat list, floats as _io.fmt gives them, after a
    `# provenance k=v ...` line when the set has a provenance.

    The columns a load of the file gives are kept beside it (see
    load_landmarks), unless the provenance holds a line break, which the text
    cannot carry.
    """
    prov = " ".join(f"{k}={v}" for k, v in sorted(ls.provenance.items()))
    head = f"# provenance {prov}\n" if ls.provenance else ""
    head += "# id source_point_id x y z saliency\n"
    n = len(ls)
    flat = [None] * (6 * n)
    flat[0::6], flat[1::6] = range(n), ls.source_point_ids.tolist()
    flat[2::6], flat[3::6], flat[4::6] = ls.xyz.T.tolist()
    flat[5::6] = ls.saliency.tolist()
    body = "%d %d %.17g %.17g %.17g %.17g\n" * n % tuple(flat)
    _sidecar(Path(path)).write([[head.encode(), body.encode()]], {
        "source": ls.source_point_ids, "xyz": ls.xyz, "saliency": ls.saliency,
        "provenance": np.frombuffer("\n".join(prov.split()).encode(), np.uint8),
    } if "\n" not in prov and "\r" not in prov else None)


def load_landmarks(path) -> LandmarkSet:
    """Read the file save_landmarks writes: `# provenance` lines, whose
    `k=v` tokens give the provenance, then one `id source_point_id x y z
    saliency` line per landmark, ids 0, 1, 2, ..., with an int64 source point
    that no other line names and a finite position and saliency. The last
    line ends with a line end, as every line save_landmarks writes does.

    When save_landmarks left the columns of these bytes beside the file, in
    .<name>.landmarkloc (an _io.Sidecar), the set is made from that copy
    instead, through the constructor, which holds the same value rules.
    """
    path = Path(path)
    return _sidecar(path).read(lambda: _parse(path), _from_columns)


def _from_columns(c) -> LandmarkSet:
    return LandmarkSet(c["source"], c["xyz"], c["saliency"],
                       _provenance(bytes(c["provenance"]).decode().split()))


def _parse(path: Path) -> LandmarkSet:
    provenance = {}
    with _io.lines(path, make=lambda rows: LandmarkSet(*_io.columns(rows, 3), provenance)) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                if tokens[1:2] == ["provenance"]:
                    provenance.update(_provenance(tokens[2:]))
                continue
            if len(tokens) != 6:
                raise ValueError("expected 6 fields per landmark")
            lid, source, (*xyz, s) = int(tokens[0]), int(tokens[1]), map(float, tokens[2:])
            if lid != len(src.rows):
                raise ValueError(f"landmark id {lid} where {len(src.rows)} was expected")
            src.keep(source, xyz, s)
        src.refuse_cut()
        return src.table()
