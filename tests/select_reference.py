"""The greedy loop that select_landmarks replaced, kept as its referee: one
np.linalg.norm over every candidate per accepted landmark, an `available`
mask, and a flatnonzero scan from the first candidate at every step."""

from __future__ import annotations

import math

import numpy as np

from landmarkloc.errors import InsufficientCandidatesError
from landmarkloc.landmarks import _R_FLOOR, LandmarkSet, _distinct_images, _saliencies


def select_landmarks(model, count, r_init, min_track=10):
    """landmarks.select_landmarks by the per-step norm loop."""
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
    order = np.lexsort((ids, -scores))
    ids, xyz, scores = ids[order], xyz[order], scores[order]
    n = len(order)

    selected = []
    available = np.ones(n, dtype=bool)
    min_dist = np.full(n, np.inf)
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
