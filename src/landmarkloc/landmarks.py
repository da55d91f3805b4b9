"""Greedy selection of salient, well-separated 3D landmarks from an SfM cloud.

A LandmarkSet holds the selected landmarks as columns in selection order:
source point ids, positions and saliencies. A landmark's id is its row.
Selection order is semantically meaningful: a run asking for fewer landmarks
with the same parameters returns exactly the prefix of a longer run.
"""

from __future__ import annotations

import math

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
    set. The constructor checks that the columns pair up and that no source
    point repeats."""

    def __init__(self, source_point_ids, xyz, saliency, provenance=None):
        self.source_point_ids = np.array(source_point_ids, dtype=np.int64).reshape(-1)
        self.xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
        self.saliency = np.array(saliency, dtype=np.float64).reshape(-1)
        n = len(self.source_point_ids)
        if len(self.xyz) != n or len(self.saliency) != n:
            raise ValueError(f"landmark columns differ in length: {n} source points, "
                             f"{len(self.xyz)} positions, {len(self.saliency)} saliencies")
        sorted_ids, count = np.unique(self.source_point_ids, return_counts=True)
        if (count > 1).any():
            raise ValueError(f"source point {sorted_ids[np.argmax(count > 1)]} repeated")
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


def _saliencies(xyz: np.ndarray, image_ids: np.ndarray, counts, model: SceneModel) -> list:
    """score_saliency of each point k at xyz[k] seen from the counts[k] distinct
    images that follow in image_ids, with each centre and direction computed once."""
    images, at = np.unique(image_ids, return_inverse=True)
    centers = np.array([model.images[iid].pose.center for iid in images.tolist()])
    d = np.repeat(xyz, counts, axis=0) - centers.reshape(-1, 3)[at]
    dirs = d / np.sqrt(np.vecdot(d, d))[:, None]
    pairs = {}  # track length -> its upper-triangle indices
    scores = []
    for end, n in zip(np.cumsum(counts).tolist(), np.asarray(counts).tolist()):
        if n == 0:
            raise ValueError("point has no observations")
        if n == 1:
            scores.append(1.0)
            continue
        cosines = np.clip(dirs[end - n:end] @ dirs[end - n:end].T, -1.0, 1.0)
        if n not in pairs:
            pairs[n] = np.triu_indices(n, k=1)
        spread = min(float(np.mean(np.arccos(cosines[pairs[n]]))), math.pi / 2)
        scores.append(n * (1.0 + spread))
    return scores


def score_saliency(xyz, image_ids, model: SceneModel) -> float:
    """Saliency of a point at xyz observed in image_ids: track length (distinct
    images) x (1 + angular spread).

    Angular spread is the mean pairwise angle (radians) between the viewing
    directions from the observing camera centers to the point, capped at
    pi/2. A single-view point has zero spread. The one-point case of _saliencies.
    """
    images = np.unique(image_ids)
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
    n = len(order)

    selected = []  # candidate indices in selection order
    available = np.ones(n, dtype=bool)
    min_dist = np.full(n, np.inf)  # distance to nearest selected landmark
    r = float(r_init)
    while len(selected) < count:
        candidates = np.flatnonzero(available & (min_dist > r))
        if len(candidates) == 0:
            if r == 0.0:
                raise InsufficientCandidatesError(count, len(selected))
            r = r / 2.0 if r / 2.0 >= _R_FLOOR else 0.0
            continue
        candidate = int(candidates[0])
        selected.append(candidate)
        available[candidate] = False
        d = np.linalg.norm(xyz - xyz[candidate], axis=1)
        np.minimum(min_dist, d, out=min_dist)

    provenance = {
        "count": count,
        "r_init": float(r_init),
        "min_track": int(min_track),
        "r_final": r,
    }
    return LandmarkSet(ids[selected], xyz[selected], scores[selected], provenance)


def save_landmarks(ls: LandmarkSet, path) -> None:
    """Write one `id source_point_id x y z saliency` line per landmark."""
    with open(path, "w", encoding="utf-8") as fh:
        if ls.provenance:
            prov = " ".join(f"{k}={v}" for k, v in sorted(ls.provenance.items()))
            fh.write(f"# provenance {prov}\n")
        fh.write("# id source_point_id x y z saliency\n")
        rows = zip(ls.source_point_ids.tolist(), ls.xyz.tolist(), ls.saliency.tolist())
        for lid, (source, (x, y, z), saliency) in enumerate(rows):
            fh.write(f"{lid} {source} {_io.fmt(x)} {_io.fmt(y)} {_io.fmt(z)} "
                     f"{_io.fmt(saliency)}\n")


def load_landmarks(path) -> LandmarkSet:
    sources, xyz, saliency = [], [], []
    seen = set()
    provenance = {}
    with _io.lines(path) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                if tokens[1:2] == ["provenance"]:
                    provenance.update(tok.partition("=")[::2] for tok in tokens[2:])
                continue
            if len(tokens) != 6:
                raise ValueError("expected 6 fields per landmark")
            lid = int(tokens[0])
            (source,) = _io.int64("source point id", int(tokens[1]))
            x, y, z, s = _io.finite("coordinate or saliency", *map(float, tokens[2:]))
            if lid != len(sources):
                raise ValueError(f"landmark id {lid} where {len(sources)} was expected")
            if source in seen:
                raise ValueError(f"source point {source} repeated")
            seen.add(source)
            sources.append(source)
            xyz.append((x, y, z))
            saliency.append(s)
    return LandmarkSet(sources, xyz, saliency, provenance)
