"""Split a landmark set into equal-sized disjoint groups for ensembles.

Four criteria are provided: saliency-sorted chunking (default), seeded random
chunking, balanced k-means, and farthest-point traversal. Every criterion
yields groups whose sizes differ by at most one; when the landmark count is
not divisible by the group count, the lower-indexed chunks/groups take the
extra element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _io
from .errors import InvalidPartitionError
from .landmarks import LandmarkSet

CRITERIA = ("default", "random", "kmeans", "fps")


def _group_count(g: int) -> int:
    """g, or a ValueError when it is below 1."""
    if g < 1:
        raise ValueError(f"group count {g} is below 1")
    return g


@dataclass
class PartitionAssignment:
    group: np.ndarray   # (L,) int64: landmark k's group index in [0, g)
    g: int
    criterion: str
    seed: int | None = None

    def __post_init__(self):
        self.group = _io.int64_column("group index", self.group)
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        _group_count(self.g)
        if len(self.group) and (self.group.min() < 0 or self.group.max() >= self.g):
            raise ValueError(f"group index outside [0, {self.g})")
        sizes = self.group_sizes()
        if len(self.group) and max(sizes) - min(sizes) > 1:
            raise ValueError("group sizes differ by more than 1")

    def __eq__(self, other):
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return (np.array_equal(self.group, other.group)
                and (self.g, self.criterion, self.seed) == (other.g, other.criterion, other.seed))

    def group_sizes(self) -> list:
        return np.bincount(self.group, minlength=self.g).tolist()

    def members(self, group: int) -> list:
        return np.flatnonzero(self.group == group).tolist()


def _check_group_count(ls: LandmarkSet, g: int) -> None:
    if g < 1 or g > len(ls):
        raise InvalidPartitionError(f"cannot split {len(ls)} landmarks into {g} groups")


def _chunk_sizes(n: int, g: int) -> list:
    base, extra = divmod(n, g)
    return [base + 1 if i < extra else base for i in range(g)]


def _chunk(ordered_ids, g: int) -> np.ndarray:
    """Each landmark's group: ordered_ids cut into g chunks of _chunk_sizes."""
    group = np.empty(len(ordered_ids), dtype=np.int64)
    group[ordered_ids] = np.repeat(np.arange(g), _chunk_sizes(len(ordered_ids), g))
    return group


def partition_default(ls: LandmarkSet, g: int) -> PartitionAssignment:
    """Sort by saliency descending (ties by id) and split into g chunks."""
    _check_group_count(ls, g)
    order = np.lexsort((np.arange(len(ls)), -ls.saliency))
    return PartitionAssignment(_chunk(order, g), g, "default")


def partition_random(ls: LandmarkSet, g: int, seed: int) -> PartitionAssignment:
    """Seeded uniform shuffle of landmark ids, then contiguous chunking."""
    _check_group_count(ls, g)
    rng = np.random.default_rng(seed)
    return PartitionAssignment(_chunk(rng.permutation(len(ls)), g), g, "random", seed=seed)


def kmeans_pp_init(xyz: np.ndarray, k: int, rng) -> np.ndarray:
    """Seeded k-means++ center initialization (D^2 sampling)."""
    n = len(xyz)
    centers = np.empty((k, 3))
    first = int(rng.integers(n))
    centers[0] = xyz[first]
    d2 = np.sum((xyz - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = xyz[idx]
        d2 = np.minimum(d2, np.sum((xyz - centers[j]) ** 2, axis=1))
    return centers


def lloyd_kmeans(xyz: np.ndarray, k: int, seed: int, max_iter: int = 100):
    """Plain Lloyd iterations; returns (labels, centers)."""
    rng = np.random.default_rng(seed)
    centers = kmeans_pp_init(xyz, k, rng)
    labels = np.zeros(len(xyz), dtype=int)
    for _ in range(max_iter):
        dists = np.linalg.norm(xyz[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = xyz[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                far = int(np.argmax(dists[np.arange(len(xyz)), new_labels]))
                centers[j] = xyz[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def rebalance_clusters(xyz: np.ndarray, labels: np.ndarray, centers: np.ndarray, g: int):
    """Move points from over-full to under-full clusters until sizes differ by <= 1.

    Per-cluster capacities are ceil(n/g) for the (n mod g) largest clusters
    after Lloyd (ties by lower index) and floor(n/g) for the rest. While a
    cluster is over capacity, its member farthest from its own centroid moves
    to the nearest under-capacity cluster (by distance to that cluster's
    centroid). Centroids stay fixed during rebalancing.
    """
    n = len(xyz)
    labels = labels.copy()
    base, extra = divmod(n, g)
    sizes = np.bincount(labels, minlength=g)
    by_size = sorted(range(g), key=lambda j: (-sizes[j], j))
    capacity = np.full(g, base, dtype=int)
    for j in by_size[:extra]:
        capacity[j] += 1

    while True:
        sizes = np.bincount(labels, minlength=g)
        over = [j for j in range(g) if sizes[j] > capacity[j]]
        if not over:
            break
        donor = max(over, key=lambda j: (sizes[j] - capacity[j], -j))
        members = np.flatnonzero(labels == donor)
        d_own = np.linalg.norm(xyz[members] - centers[donor], axis=1)
        mover = members[int(np.argmax(d_own))]
        under = [j for j in range(g) if sizes[j] < capacity[j]]
        d_to = [np.linalg.norm(xyz[mover] - centers[j]) for j in under]
        labels[mover] = under[int(np.argmin(d_to))]
    return labels


def partition_kmeans(
    ls: LandmarkSet, g: int, seed: int, max_iter: int = 100
) -> PartitionAssignment:
    """Balanced spatial clustering: Lloyd's k-means then size rebalancing."""
    _check_group_count(ls, g)
    xyz = ls.xyz
    labels, centers = lloyd_kmeans(xyz, g, seed, max_iter)
    labels = rebalance_clusters(xyz, labels, centers, g)
    return PartitionAssignment(labels, g, "kmeans", seed=seed)


def fps_traversal(xyz: np.ndarray, saliencies: np.ndarray, g: int, capacities):
    """Farthest-point traversal over points; returns (labels, insertion order).

    The first g insertions seed the groups by a farthest-point sweep from the
    highest-saliency point; each later insertion takes the unassigned point
    farthest from all assigned ones and gives it to the non-full group with
    the smallest mean distance to its current members. Raises ValueError if
    no non-full group's mean is finite, as when the distances overflow.
    """
    n = len(xyz)
    start = min(range(n), key=lambda i: (-saliencies[i], i))
    seeds = [start]
    min_d = np.linalg.norm(xyz - xyz[start], axis=1)
    for _ in range(1, g):
        nxt = int(np.argmax(min_d))  # argmax returns the lowest index on ties
        seeds.append(nxt)
        np.minimum(min_d, np.linalg.norm(xyz - xyz[nxt], axis=1), out=min_d)

    labels = np.full(n, -1, dtype=int)
    for grp, idx in enumerate(seeds):
        labels[idx] = grp
    sizes = [1] * g
    order = list(seeds)

    # min_d currently holds distance-to-assigned for every point.
    pairwise = np.linalg.norm(xyz[:, None, :] - xyz[None, :, :], axis=2)
    while (labels < 0).any():
        unassigned = np.flatnonzero(labels < 0)
        nxt = unassigned[int(np.argmax(min_d[unassigned]))]
        best_grp, best_mean = -1, np.inf
        for grp in range(g):
            if sizes[grp] >= capacities[grp]:
                continue
            mean_d = pairwise[nxt, labels == grp].mean()
            if mean_d < best_mean - 1e-15:
                best_grp, best_mean = grp, mean_d
        if best_grp < 0:
            raise ValueError(f"no group has a finite mean distance to point {nxt}")
        labels[nxt] = best_grp
        sizes[best_grp] += 1
        order.append(int(nxt))
        np.minimum(min_d, pairwise[nxt], out=min_d)
    return labels, order


def partition_fps(ls: LandmarkSet, g: int) -> PartitionAssignment:
    """Farthest-point traversal partitioning (deterministic; ties break
    toward the lower landmark id / group index)."""
    _check_group_count(ls, g)
    labels, _ = fps_traversal(ls.xyz, ls.saliency, g, _chunk_sizes(len(ls), g))
    return PartitionAssignment(labels, g, "fps")


def make_partition(
    ls: LandmarkSet, criterion: str, g: int, seed: int | None = None, max_iter: int = 100
) -> PartitionAssignment:
    """Dispatch on criterion name; seed required for random and kmeans."""
    if criterion == "default":
        return partition_default(ls, g)
    if criterion == "fps":
        return partition_fps(ls, g)
    if seed is None:
        raise ValueError(f"criterion {criterion!r} requires a seed")
    if criterion == "random":
        return partition_random(ls, g, seed)
    if criterion == "kmeans":
        return partition_kmeans(ls, g, seed, max_iter)
    raise ValueError(f"unknown criterion {criterion!r}")


def save_partition(pa: PartitionAssignment, path) -> None:
    """The header, then one `landmark_id group` line per landmark; written
    through a temp file and a rename."""
    seed = "none" if pa.seed is None else pa.seed
    _io.write_text(path, [f"# criterion={pa.criterion} groups={pa.g} seed={seed}\n",
                          *(f"{lid} {grp}\n" for lid, grp in enumerate(pa.group.tolist()))])


def load_partition(path) -> PartitionAssignment:
    """Inverse of save_partition: the landmark lines run 0, 1, 2, ..., and
    the last line ends with a line end."""
    group = []
    criterion = g = seed = None
    with _io.lines(path) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                for tok in tokens:
                    k, _, v = tok.lstrip("#").partition("=")
                    if k == "criterion":
                        criterion = v
                    elif k == "groups":
                        g = _group_count(int(v))
                    elif k == "seed":
                        seed = None if v == "none" else int(v)
                continue
            if len(tokens) != 2:
                raise ValueError("expected `landmark_id group`")
            lid, grp = int(tokens[0]), int(tokens[1])
            if g is None:
                raise ValueError("landmark line before the partition header")
            if not 0 <= grp < g:
                raise ValueError(f"group {grp} outside [0, {g})")
            if lid != len(group):
                raise ValueError(f"landmark id {lid} where {len(group)} was expected")
            group.append(grp)
        src.refuse_cut()
        if criterion is None or g is None:
            raise ValueError("missing partition header")
        return PartitionAssignment(group, g, criterion, seed=seed)
