"""Greedy selection of salient, well-separated 3D landmarks from an SfM cloud.

Selection order is semantically meaningful: a run asking for fewer landmarks
with the same parameters returns exactly the prefix of a longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientCandidatesError, MalformedFileError
from .scene_model import SceneModel, TrackPoint

DEFAULT_MIN_TRACK = 10

# Radii below this are treated as zero (only exact duplicates excluded).
_R_FLOOR = 1e-12


@dataclass(frozen=True)
class Landmark:
    id: int                # ordinal in selection order, 0..K-1
    source_point_id: int
    xyz: np.ndarray
    saliency: float

    def __post_init__(self):
        object.__setattr__(self, "xyz", np.asarray(self.xyz, dtype=np.float64).reshape(3))


@dataclass
class LandmarkSet:
    landmarks: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        sources = [lm.source_point_id for lm in self.landmarks]
        if len(set(sources)) != len(sources):
            raise ValueError("duplicate source points in landmark set")
        for i, lm in enumerate(self.landmarks):
            if lm.id != i:
                raise ValueError("landmark ids must be contiguous in selection order")

    def __len__(self):
        return len(self.landmarks)

    def __iter__(self):
        return iter(self.landmarks)

    def __getitem__(self, i):
        return self.landmarks[i]

    @property
    def xyz(self) -> np.ndarray:
        return np.array([lm.xyz for lm in self.landmarks])

    @property
    def saliencies(self) -> np.ndarray:
        return np.array([lm.saliency for lm in self.landmarks])

    def by_id(self, landmark_id: int) -> Landmark:
        return self.landmarks[landmark_id]


def score_saliency(point: TrackPoint, model: SceneModel) -> float:
    """Saliency of a track point: track length x (1 + angular spread).

    Angular spread is the mean pairwise angle (radians) between the viewing
    directions from the observing camera centers to the point, capped at
    pi/2. A single-view point has zero spread.
    """
    image_ids = sorted({iid for iid, _ in point.observations})
    n = len(image_ids)
    if n == 0:
        raise ValueError("point has no observations")
    if n == 1:
        return float(n)
    dirs = np.empty((n, 3))
    for i, iid in enumerate(image_ids):
        d = point.xyz - model.images[iid].pose.center
        dirs[i] = d / np.linalg.norm(d)
    cosines = np.clip(dirs @ dirs.T, -1.0, 1.0)
    iu = np.triu_indices(n, k=1)
    spread = min(float(np.mean(np.arccos(cosines[iu]))), math.pi / 2)
    return n * (1.0 + spread)


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
    only exact duplicates are excluded.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if r_init <= 0:
        raise ValueError("r_init must be positive")

    eligible = [p for p in model.points.values() if p.track_length >= min_track]
    if len(eligible) < count:
        raise InsufficientCandidatesError(count, len(eligible))

    scores = {p.id: score_saliency(p, model) for p in eligible}
    # Saliency descending, point id ascending; greedy scans this order.
    order = sorted(eligible, key=lambda p: (-scores[p.id], p.id))
    xyz = np.array([p.xyz for p in order])
    n = len(order)

    selected: list[Landmark] = []
    available = np.ones(n, dtype=bool)
    min_dist = np.full(n, np.inf)  # distance to nearest selected landmark
    r = float(r_init)
    while len(selected) < count:
        candidate = None
        for i in range(n):
            if available[i] and min_dist[i] > r:
                candidate = i
                break
        if candidate is None:
            if r == 0.0:
                raise InsufficientCandidatesError(count, len(selected))
            r = r / 2.0 if r / 2.0 >= _R_FLOOR else 0.0
            continue
        p = order[candidate]
        selected.append(Landmark(len(selected), p.id, p.xyz, scores[p.id]))
        available[candidate] = False
        d = np.linalg.norm(xyz - xyz[candidate], axis=1)
        np.minimum(min_dist, d, out=min_dist)

    provenance = {
        "count": count,
        "r_init": float(r_init),
        "min_track": int(min_track),
        "r_final": r,
    }
    return LandmarkSet(selected, provenance)


def save_landmarks(ls: LandmarkSet, path) -> None:
    """Write one `id source_point_id x y z saliency` line per landmark."""
    f = lambda x: format(float(x), ".17g")
    with open(path, "w") as fh:
        if ls.provenance:
            prov = " ".join(f"{k}={v}" for k, v in sorted(ls.provenance.items()))
            fh.write(f"# provenance {prov}\n")
        fh.write("# id source_point_id x y z saliency\n")
        for lm in ls.landmarks:
            fh.write(
                f"{lm.id} {lm.source_point_id} "
                f"{f(lm.xyz[0])} {f(lm.xyz[1])} {f(lm.xyz[2])} {f(lm.saliency)}\n"
            )


def load_landmarks(path) -> LandmarkSet:
    path = Path(path)
    landmarks = []
    provenance = {}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# provenance "):
                    for tok in line[len("# provenance "):].split():
                        k, _, v = tok.partition("=")
                        provenance[k] = v
                continue
            tokens = line.split()
            if len(tokens) != 6:
                raise MalformedFileError(path, line_no, "expected 6 fields per landmark")
            try:
                lid, source = int(tokens[0]), int(tokens[1])
                vals = [float(t) for t in tokens[2:6]]
            except ValueError as exc:
                raise MalformedFileError(path, line_no, str(exc)) from None
            if not all(map(math.isfinite, vals)):
                raise MalformedFileError(path, line_no, "non-finite coordinate or saliency")
            landmarks.append(Landmark(lid, source, np.array(vals[:3]), vals[3]))
    return LandmarkSet(landmarks, provenance)
