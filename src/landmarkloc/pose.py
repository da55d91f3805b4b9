"""Confidence-weighted robust camera pose estimation from 2D-3D landmark
correspondences: detection confidences become weights w = v^e, PROSAC draws 3-point
samples in weight order, Lambda Twist P3P gives hypotheses scored in one stacked
projection, and weighted nonlinear least squares on reprojection error polishes the pose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _io
from .errors import DanglingReferenceError, DegeneracyError
from .landmarks import LandmarkSet
from .scene_model import (
    _ORTHO_TOL,
    Intrinsics,
    Pose,
    _pixel,
    axis_angle_to_matrix,
    bearing,
    qvec2rotmat,
)

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_INSUFFICIENT = "insufficient"
STATUS_NO_CONSENSUS = "no_consensus"
STATUSES = (STATUS_OK, STATUS_DEGENERATE, STATUS_INSUFFICIENT, STATUS_NO_CONSENSUS)


@dataclass(frozen=True)
class Correspondence:
    landmark_id: int
    uv: np.ndarray
    xyz: np.ndarray
    v: float   # detection confidence
    w: float   # sampling / refinement weight, v^e

    def __post_init__(self):
        object.__setattr__(self, "uv", np.asarray(self.uv, dtype=np.float64).reshape(2))
        object.__setattr__(self, "xyz", np.asarray(self.xyz, dtype=np.float64).reshape(3))


@dataclass(frozen=True)
class Correspondences:
    """Correspondences as columns: landmark_ids (N,), uv (N, 2), xyz (N, 3),
    confidences v (N,) and weights w (N,). Indexing with an int, or iterating,
    gives Correspondence rows; indexing with an array, the subset's columns."""
    landmark_ids: np.ndarray
    uv: np.ndarray
    xyz: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, corrs) -> Correspondences:
        """corrs if it is columns already, else its (non-empty) rows stacked."""
        if isinstance(corrs, cls):
            return corrs
        return cls(*map(np.array, zip(*(vars(c).values() for c in corrs))))

    def __len__(self):
        return len(self.landmark_ids)

    def __getitem__(self, k):
        cols = [col[k] for col in vars(self).values()]
        return Correspondences(*cols) if np.ndim(k) else Correspondence(*cols)


@dataclass
class SolverConfig:
    e: float = 2.0                 # weight exponent
    threshold_px: float = 4.0      # inlier reprojection threshold
    max_iterations: int = 2000
    confidence: float = 0.999      # adaptive termination confidence
    min_inliers: int = 12
    refinement: str = "weighted"   # none | unweighted | weighted
    sampler: str = "prosac"        # prosac | ransac (uniform baseline)

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("weight exponent must be >= 0")
        if self.threshold_px <= 0:
            raise ValueError("inlier threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max iterations must be at least 1")
        if not 0 < self.confidence <= 1:
            raise ValueError("confidence must lie in (0, 1]")
        if self.min_inliers < 4:
            # refine_weighted, which localize runs on the inliers, needs 4.
            raise ValueError("min inliers must be at least 4")
        if self.refinement not in ("none", "unweighted", "weighted"):
            raise ValueError(f"unknown refinement mode {self.refinement!r}")
        if self.sampler not in ("prosac", "ransac"):
            raise ValueError(f"unknown sampler {self.sampler!r}")


@dataclass
class RefineResult:
    pose: Pose
    converged: bool
    iterations: int
    cost_trace: list   # weighted cost after each accepted step (index 0 = initial)


@dataclass
class PoseEstimate:
    pose: Pose | None
    inliers: frozenset
    num_iterations: int
    mean_reproj_px: float
    status: str
    refine: RefineResult | None = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_OK and self.pose is None:
            raise ValueError("ok estimate requires a pose")


def compute_weights(dets, ls: LandmarkSet, e: float = 2.0) -> Correspondences:
    """Join detections to landmark 3D positions and attach weights v^e, as
    columns in the detections' order. A landmark's id is its position in ls."""
    ids = dets.landmark_ids
    unknown = ids[(ids < 0) | (ids >= len(ls))]
    if len(unknown):
        raise DanglingReferenceError(f"detection references unknown landmark {unknown[0]}")
    # In Python floats: numpy's power differs from libm pow in the last bit (see _squares).
    w = np.array([v ** e for v in dets.confidence.tolist()])
    return Correspondences(ids, dets.uv, ls.xyz[ids], dets.confidence, w)


# PROSAC samples per Lambda Twist block: 8, doubling to 64. Most images stop within
# a few dozen samples; the cap bounds memory on those that run the whole budget.
_BLOCK, _BLOCK_CAP = 8, 64


def _running(op, *cols):
    """Python's max (op np.greater) or min (np.less) of the columns, row by row:
    a later column replaces the running value only where op holds, as max()
    and min() do, so rows with NaN give what they give."""
    out = cols[0]
    for col in cols[1:]:
        out = np.where(op(col, out), col, out)
    return out


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 through Python floats. Their ** calls libm pow, which differs from
    x * x (and from np.power) in the last bit on about 1 value in 1000; the
    squares of the one-sample solver were taken this way, and its poses are
    kept bit for bit."""
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


@np.errstate(all="ignore")  # every lane is computed, then masked
def _cubic_roots(b, c, d):
    """The real root of x^3 + b x^2 + c x + d that Lambda Twist's `cubick` picks
    (of three, the smallest), element by element: Newton's method from beside
    the stationary point where the cubic changes sign, 7 to 50 steps, stopping
    once |f| <= eps. Also returns where a step divided by zero."""
    x = -b / 3.0
    q = b * b > 3.0 * c  # a local maximum at x - v, a local minimum at x + v
    v = np.sqrt(b * b - 3.0 * c) / 3.0
    lo, hi = x - v, x + v
    k_lo = ((lo + b) * lo + c) * lo + d
    k_hi = ((hi + b) * hi + c) * hi + d
    x = np.where(q & (k_lo > 0.0), x - (v + np.sqrt(k_lo / (3.0 * v))),
                 np.where(q, x + (v + np.sqrt(-k_hi / (3.0 * v))),
                          np.where(np.abs((3.0 * x + 2.0 * b) * x + c) < 1e-4, x + 1.0, x)))
    zero_div = np.zeros(x.shape, bool)
    for _ in range(7):
        df = (3.0 * x + 2.0 * b) * x + c
        zero_div |= df == 0.0
        x = x - (((x + b) * x + c) * x + d) / df
    eps = 2.220446049250313e-16
    f = ((x + b) * x + c) * x + d
    # Roots not within eps after 7 steps (about a third) finish one by one.
    for i in np.flatnonzero(~(np.abs(f) <= eps) & ~zero_div).tolist():
        xi, bi, ci, di = float(x[i]), float(b[i]), float(c[i]), float(d[i])
        for _ in range(7, 50):
            fi = ((xi + bi) * xi + ci) * xi + di
            if abs(fi) <= eps:
                break
            df = (3.0 * xi + 2.0 * bi) * xi + ci
            if df == 0.0:
                zero_div[i] = True
                break
            xi, prev = xi - fi / df, xi
            if xi == prev:  # a fixed point: the remaining steps would repeat this one
                break
        x[i] = xi
    return x, zero_div


def _quadratic_roots(b, c):
    """Where x^2 + b x + c has real roots, and the two roots, element by
    element; (0, 0) where the one larger in magnitude is 0."""
    disc = b * b - 4.0 * c
    r = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    nonzero = r != 0.0
    return ~(disc < 0.0), np.where(nonzero, r, 0.0), np.where(nonzero, c / r, 0.0)


def _cross(a, b) -> tuple:
    """a x b for 3-sequences, or column by column for (3, N) arrays."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


@np.errstate(all="ignore")
def _ray_distances(a, c):
    """Lambda Twist's roots l of l_i^2 + l_j^2 - 2 c_ij l_i l_j = a_ij, ij in (12,
    13, 23), per sample: a and c are (3, B) columns. Returns the candidates
    (B, 4, 3), unpolished, in slot order (plane +s, then -s; two roots tau each),
    and which slots hold one. A sample with a division by zero has none.

    With l^T M_ij l = a_ij, l^T A l = 0 for A = h D1 - g D2, D1 = a23 M12 - a12 M23,
    D2 = a23 M13 - a13 M23; A is singular at a root g of the cubic det(A) with
    h = 1, or at h = 0 if det(D2) = 0."""
    (a12, a13, a23), (c12, c13, c23) = a, c
    s12, s13, s23 = 1.0 - c12 * c12, 1.0 - c13 * c13, 1.0 - c23 * c23
    m = c12 * c23 * c13 - 1.0
    p3 = a13 * (a23 * s13 - a13 * s23)
    p2 = 2.0 * m * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
    p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (m * a23 + a13 * s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    cubic = p3 != 0.0
    p3 = np.where(cubic, p3, 1.0)
    g, zero_div = _cubic_roots(p2 / p3, p1 / p3, p0 / p3)
    g, h, zero_div = np.where(cubic, g, 1.0), np.where(cubic, 1.0, 0.0), zero_div & cubic
    A00, A01, A02 = a23 * (h - g), -h * a23 * c12, g * a23 * c13
    A11, A12 = h * (a23 - a12) + g * a13, c23 * (h * a12 - g * a13)
    A22 = g * (a13 - a23) - h * a12
    # A = e1 u u^T / |u|^2 + e2 v v^T / |v|^2, |e1| >= |e2|, u and v cross products of
    # two rows of A - e I; so l lies on a plane u.l = +-s v.l, s = sqrt(-e2/e1) |u|/|v|.
    tr = A00 + A11 + A22
    minors = A00 * A11 - A01 * A01 + A00 * A22 - A02 * A02 + A11 * A22 - A12 * A12
    real, e1, e2 = _quadratic_roots(-tr, minors)
    e1, e2 = np.where(real, e1, 0.5 * tr), np.where(real, e2, 0.5 * tr)
    swap = np.abs(e1) < np.abs(e2)
    e1, e2 = np.where(swap, e2, e1), np.where(swap, e1, e2)
    (u1, u2, u3), (v1, v2, v3) = (_cross((A00 - e, A01, A02), (A01, A11 - e, A12)) for e in (e1, e2))
    vv = v1 * v1 + v2 * v2 + v3 * v3
    ratio = -e2 / e1
    s = np.sqrt(np.where(ratio > 0.0, ratio, 0.0) * (u1 * u1 + u2 * u2 + u3 * u3) / vv)
    zero_div |= (e1 == 0.0) | (vv == 0.0)
    # On the plane l1 = w0 l2 + w1 l3, a13 (eq 12) - a12 (eq 13) is a quadratic in
    # tau = l3 / l2, and eq 23 gives l2. Axis 0 is the plane's sign.
    sv = np.stack([s, -s])
    den = sv * v1 - u1
    w0, w1 = (u2 - sv * v2) / den, (u3 - sv * v3) / den
    q2 = (a13 - a12) * w1 * w1 + 2.0 * a12 * c13 * w1 - a12
    q1 = 2.0 * (a12 * c13 * w0 - a13 * c12 * w1 + w0 * w1 * (a13 - a12))
    q0 = (a13 - a12) * w0 * w0 - 2.0 * a13 * c12 * w0 + a13
    zero_div |= ((den == 0.0) | (q2 == 0.0)).any(0)
    real, tau1, tau2 = _quadratic_roots(q1 / q2, q0 / q2)
    tau, real = np.stack([tau1, tau2], -1), real[..., None]  # (sign, B, root)
    den = tau * (tau - 2.0 * c23[:, None]) + 1.0
    zero_div |= (real & (den == 0.0)).any((0, 2))
    l2 = a23[:, None] / den
    r = np.sqrt(l2)
    lam = np.stack([(w0[..., None] + w1[..., None] * tau) * r, r, tau * r], -1)
    ok = real & (tau > 0.0) & (l2 > 0.0) & ~zero_div[:, None]
    return lam.transpose(1, 0, 2, 3).reshape(-1, 4, 3), ok.transpose(1, 0, 2).reshape(-1, 4)


@np.errstate(all="ignore")
def _polish_distances(lam, rays, a, c):
    """One Gauss-Newton step (none at a singular Jacobian) on |l_i y_i - l_j y_j|^2 = a_ij,
    per row of lam (M, 3) with bearings rays (M, 3, 3) and (3, M) columns a and c:
    _ray_distances' system in a form that cancels less, which sets the accuracy."""
    p = lam[:, :, None] * rays
    sq = _squares(np.stack([p[:, 0] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]]))
    r = sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2] - a
    (l1, l2, l3), (c12, c13, c23), zero = lam.T, c, np.zeros(len(lam))
    J = ((l1 - c12 * l2, l2 - c12 * l1, zero),  # half the Jacobian
         (l1 - c13 * l3, zero, l3 - c13 * l1),
         (zero, l2 - c23 * l3, l3 - c23 * l2))
    C = (_cross(J[1], J[2]), _cross(J[2], J[0]), _cross(J[0], J[1]))  # det(J) J^-1 by columns
    det = 2.0 * (J[0][0] * C[0][0] + J[0][1] * C[0][1] + J[0][2] * C[0][2])
    det = np.where(det == 0.0, np.inf, det)
    return np.stack([l - (C[0][k] * r[0] + C[1][k] * r[1] + C[2][k] * r[2]) / det
                     for k, l in enumerate(lam.T)], -1)


def _valid_poses(R, t):
    """Which stacked (R, t) Pose accepts: finite, R orthogonal with det +1."""
    ok = np.isfinite(R).all((1, 2)) & np.isfinite(t).all(1)
    R = R[ok]
    ortho = np.abs(np.matmul(R.transpose(0, 2, 1), R) - np.eye(3)).max((1, 2))
    ok[ok] = ~(ortho > _ORTHO_TOL) & ~(np.abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL)
    return ok


def _p3p_block(P, rays, uv, K: Intrinsics):
    """Lambda Twist over a block of B samples: world points P (B, 3, 3), their
    bearings rays (B, 3, 3) and pixels uv (B, 3, 2).

    Returns which samples are degenerate (B,), and the poses R (H, 3, 3), t (H, 3)
    with the sample each belongs to (H,): sample by sample, in the order
    p3p_solve gives them. Every step is element-wise over the block, in the
    order of operations of the one-sample solver, so each pose has its bits.
    """
    d12, d13, d23 = P[:, 0] - P[:, 1], P[:, 0] - P[:, 2], P[:, 1] - P[:, 2]
    sides = np.stack([d23, d13, d12])
    side = np.sqrt(np.vecdot(sides, sides))
    scale = _running(np.greater, *side)
    normal = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    c = np.stack([np.vecdot(rays[:, 0], rays[:, 1]), np.vecdot(rays[:, 0], rays[:, 2]),
                  np.vecdot(rays[:, 1], rays[:, 2])])
    degenerate = ((scale < 1e-12) | (np.sqrt(np.vecdot(normal, normal)) < 1e-12 * _squares(scale))
                  | (_running(np.greater, *np.abs(c[::-1])) > 1.0 - 1e-12))
    live = np.flatnonzero(~degenerate)
    a = _squares(side[::-1, live])  # a12, a13, a23
    lam, ok = _ray_distances(a, c[:, live])
    slot = np.flatnonzero(ok)
    pol = np.full(lam.shape, np.nan)
    pol.reshape(-1, 3)[slot] = _polish_distances(
        lam.reshape(-1, 3)[slot], rays[live[slot // 4]], a[:, slot // 4], c[:, live[slot // 4]])
    # Keep a candidate with min(l) > 0 unless a kept one of its sample lies within 1e-9.
    keep = ok & (_running(np.less, *pol.transpose(2, 0, 1)) > 0)
    for j in range(1, 4):
        tol = 1e-9 * _running(np.greater, 1.0, *pol[:, j].T)
        for i in range(j):
            far = _running(np.greater, *np.abs(pol[:, j] - pol[:, i]).T) >= tol
            keep[:, j] &= ~keep[:, i] | far
    slot = np.flatnonzero(keep)
    owner = live[slot // 4]
    cam = pol.reshape(-1, 3)[slot][:, :, None] * rays[owner]  # (candidate, point, xyz)
    e12, e13 = cam[:, 0] - cam[:, 1], cam[:, 0] - cam[:, 2]
    Y = np.stack([e12, e13, np.stack(_cross(e12.T, e13.T), -1)], -1)
    X = np.stack([d12[owner], d13[owner], np.stack(_cross(d12[owner].T, d13[owner].T), -1)], -1)
    R = np.matmul(Y, np.linalg.inv(X))
    t = cam[:, 0] - np.matmul(R, P[owner, 0, :, None])[:, :, 0]
    valid = _valid_poses(R, t)
    R, t, owner = R[valid], t[valid], owner[valid]
    # The 1e-6 px gate on each sample's own three points.
    good = _stacked_errors(R, t, uv[owner], P[owner], K).max(1) < 1e-6
    return degenerate, R[good], t[good], owner[good]


def p3p_solve(corrs, K: Intrinsics) -> list:
    """All camera poses consistent with three 2D-3D correspondences: the
    one-sample call of _p3p_block.

    Lambda Twist (Persson & Nordberg, "Lambda Twist: An Accurate Fast Robust
    Perspective Three Point (P3P) Solver", ECCV 2018) finds the distances l_i along
    the bearings y_i from one cubic root, the eigen-decomposition of a singular 3x3
    matrix and two quadratics, then polishes them. R = Y X^-1 maps the triad (x1 - x2,
    x1 - x3, their cross product) of the world points onto that of the points l_i y_i,
    and t = l1 y1 - R x1. Candidates must reproject all three points within 1e-6 px.
    """
    if len(corrs) != 3:
        raise ValueError("p3p needs exactly 3 correspondences")
    c = Correspondences.of(corrs)
    degenerate, R, t, _ = _p3p_block(c.xyz[None], bearing(K, c.uv)[None], c.uv[None], K)
    if degenerate[0]:
        raise DegeneracyError("3D points are collinear or coincident, or bearings are coincident")
    return [Pose(Ri, ti) for Ri, ti in zip(R, t)]


def reprojection_errors(pose: Pose, uv: np.ndarray, xyz: np.ndarray, K: Intrinsics):
    """Pixel reprojection errors; points behind the camera get +inf."""
    return _stacked_errors(pose.R[None], pose.t[None], uv, xyz, K)[0]


def _stacked_errors(R: np.ndarray, t: np.ndarray, uv: np.ndarray, xyz: np.ndarray,
                    K: Intrinsics):
    """Reprojection errors (H, N) of the poses R (H, 3, 3), t (H, 3), from one
    stacked camera-frame product; a row has the same bits whatever the stack.
    uv and xyz are (N, 2) and (N, 3), or (H, N, 2) and (H, N, 3) per pose."""
    cam = xyz @ R.transpose(0, 2, 1) + t[:, None, :]
    u, v, _ = _pixel(K, *cam.transpose(2, 0, 1))
    err = np.hypot(u - uv[..., 0], v - uv[..., 1])
    err[np.isnan(err)] = np.inf
    return err


def _prosac_samples(n: int, cfg: SolverConfig, rng):
    """PROSAC's index triples (Chum & Matas, "Matching with PROSAC", CVPR 2005)
    into the n ranked correspondences, for t = 1, 2, ...: drawn from a top-ranked
    subset that grows as T_n ~ budget * C(n, 3) / C(N, 3), each including the
    subset's newest member until t reaches T'_n. The ransac sampler draws from
    all n. The sequence depends only on rng and t."""
    m = 3
    T_n = float(cfg.max_iterations)
    for i in range(m):
        T_n *= (m - i) / (n - i)
    T_prime = 1.0
    n_cur = m
    t = 0
    while True:
        t += 1
        while n_cur < n and t >= T_prime:
            T_next = T_n * (n_cur + 1) / (n_cur + 1 - m)
            T_prime += math.ceil(T_next - T_n)
            T_n = T_next
            n_cur += 1
        if cfg.sampler == "ransac":
            yield rng.choice(n, size=m, replace=False)
        elif t >= T_prime:
            yield rng.choice(n_cur, size=m, replace=False)
        else:
            yield np.append(rng.choice(n_cur - 1, size=m - 1, replace=False), n_cur - 1)


def prosac_estimate(corrs, K: Intrinsics, cfg: SolverConfig = SolverConfig(),
                    seed: int = 0) -> PoseEstimate:
    """PROSAC robust pose estimation over 3-point P3P samples.

    Correspondences are ranked by weight (descending, ties by landmark id);
    samples are drawn from a progressively growing top-ranked subset per the
    PROSAC growth function. Hypotheses are scored by inlier count (ties by
    lower weighted mean error). Terminates adaptively at cfg.confidence.

    Samples are drawn ahead in blocks (8, doubling to 64), each solved by one
    _p3p_block call and scored in one stacked product; the selection then
    replays them in order, so it stops at the same sample as a loop that
    solves one sample at a time, and picks the same winner.
    """
    n = len(corrs)
    if n < 4:
        return PoseEstimate(None, frozenset(), 0, float("nan"), STATUS_INSUFFICIENT)

    corrs = Correspondences.of(corrs)
    ranked = corrs[np.lexsort((corrs.landmark_ids, -corrs.w))]
    uv, xyz, weights = ranked.uv, ranked.xyz, ranked.w
    rays = bearing(K, uv)

    samples = _prosac_samples(n, cfg, np.random.default_rng(seed))
    budget, size = cfg.max_iterations, _BLOCK
    best_count, best_werr, best = 0, np.inf, None  # best: (R, t, inlier mask)
    required = np.inf
    saw_degenerate = False
    t = 0
    while t < budget and t < required:
        idx = np.array(list(itertools.islice(samples, min(size, budget - t))))
        size = min(2 * size, _BLOCK_CAP)
        degenerate, R, T, owner = _p3p_block(xyz[idx], rays[idx], uv[idx], K)
        err = _stacked_errors(R, T, uv, xyz, K)
        inlier = err <= cfg.threshold_px
        counts = inlier.sum(1).tolist()
        first = np.searchsorted(owner, np.arange(len(idx) + 1)).tolist()
        for j, degen in enumerate(degenerate.tolist()):
            if not t < required:
                break
            t += 1
            saw_degenerate |= degen
            for h in range(first[j], first[j + 1]):
                count = counts[h]
                if count == 0 or count < best_count:
                    continue
                mask = inlier[h]
                werr = float((weights[mask] * err[h][mask]).sum() / weights[mask].sum())
                if count > best_count or werr < best_werr:
                    best_count, best_werr, best = count, werr, (R[h], T[h], mask)
                    ratio = count / n
                    if ratio >= 1.0:
                        required = 0.0
                    else:
                        denom = math.log(1.0 - ratio ** 3)
                        required = (
                            math.log(max(1.0 - cfg.confidence, 1e-300)) / denom
                            if denom < 0
                            else np.inf
                        )

    if best is None:
        status = STATUS_DEGENERATE if saw_degenerate else STATUS_NO_CONSENSUS
        return PoseEstimate(None, frozenset(), t, float("nan"), status)
    if best_count < cfg.min_inliers:
        return PoseEstimate(None, frozenset(), t, float("nan"), STATUS_NO_CONSENSUS)
    best_pose, best_mask = Pose(best[0], best[1]), best[2]
    # Standard consensus refit: unweighted least squares on the winning
    # hypothesis's inlier set (the set itself stays fixed).
    refit = refine_pose(best_pose, uv[best_mask], xyz[best_mask],
                        np.ones(best_count), K)
    pose = refit.pose if np.isfinite(refit.cost_trace[-1]) else best_pose
    err = reprojection_errors(pose, uv, xyz, K)
    inliers = frozenset(ranked.landmark_ids[best_mask].tolist())
    return PoseEstimate(
        pose, inliers, t, float(err[best_mask].mean()), STATUS_OK
    )


def _residuals(pose: Pose, uv: np.ndarray, xyz: np.ndarray, K: Intrinsics):
    """The camera frame (N, 3) of the points xyz (N, 3) under pose, as the gemm
    that project_many makes, and their reprojection residuals (N, 2),
    projection - observation, NaN for points at or behind the camera."""
    cam = xyz @ pose.R.T + pose.t
    proj = np.empty((len(cam), 2))
    proj[:, 0], proj[:, 1], _ = _pixel(K, *cam.T)
    return cam, proj - uv


def _stacked_system(cam: np.ndarray, res: np.ndarray, K: Intrinsics, scale):
    """res stacked (2N,) and its analytic Jacobian (2N, 6) at the camera-frame
    points cam, both rows multiplied by scale (2N,) unless it is None."""
    x, y, z = cam.T
    # d(uv)/d(cam) has rows [a, 0, b] and [0, c, d]; d(cam)/d(omega) = -[cam]_x
    # and d(cam)/d(dt) = I.
    a, b = K.fx / z, -K.fx * x / z**2
    c, d = K.fy / z, -K.fy * y / z**2
    res = res.reshape(-1)
    J = np.empty((len(res), 6))
    Ju, Jv = J[0::2], J[1::2]
    Ju[:, 0], Ju[:, 1], Ju[:, 2] = b * y, a * z - b * x, -a * y
    Ju[:, 3], Ju[:, 4], Ju[:, 5] = a, 0.0, b
    Jv[:, 0], Jv[:, 1], Jv[:, 2] = d * y - c * z, -d * x, c * x
    Jv[:, 3], Jv[:, 4], Jv[:, 5] = 0.0, c, d
    if scale is None:
        return res, J
    return res * scale, J * scale[:, None]


def pose_residuals_jacobian(pose: Pose, uv: np.ndarray, xyz: np.ndarray,
                            K: Intrinsics, weights: np.ndarray | None = None):
    """Stacked reprojection residuals and their analytic Jacobian.

    Residuals are (projection - observation), stacked (2N,), and NaN for
    points behind the camera. The Jacobian is with respect to a
    left-multiplicative increment [rotation omega, translation dt] applied at
    the current pose. Rows are scaled by sqrt(w).
    """
    scale = None if weights is None else np.sqrt(np.repeat(weights, 2))
    return _stacked_system(*_residuals(pose, uv, xyz, K), K, scale)


def _apply_increment(pose: Pose, step: np.ndarray) -> Pose:
    dR = axis_angle_to_matrix(step[:3])
    return Pose(dR @ pose.R, dR @ pose.t + step[3:])


def refine_pose(initial: Pose, uv: np.ndarray, xyz: np.ndarray, w: np.ndarray,
                K: Intrinsics, max_iter: int = 100) -> RefineResult:
    """Levenberg-Marquardt minimization of the weighted reprojection cost.

    Steps that fail to decrease the cost or push a point behind the camera
    are rejected (damping increases); the accepted-cost trace is therefore
    non-increasing. Converges on step norm < 1e-10 or cost decrease < 1e-12.
    Each pose is projected once: the accepted trial's camera frame and
    residuals give the next Jacobian.
    """
    def weighted_cost(res: np.ndarray) -> float:
        du, dv = res.T
        cost = float((w * (du * du + dv * dv)).sum())
        return np.inf if math.isnan(cost) else cost  # NaN: a point behind the camera

    pose = initial
    cam, res = _residuals(pose, uv, xyz, K)
    cost = weighted_cost(res)
    trace = [cost]
    lam = 1e-6
    scale, eye = np.sqrt(np.repeat(w, 2)), np.eye(6)
    converged = False
    iterations = 0
    if not np.isfinite(cost):
        return RefineResult(pose, False, 0, trace)
    for iterations in range(1, max_iter + 1):
        r, J = _stacked_system(cam, res, K, scale)
        g = J.T @ r
        H = J.T @ J
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.linalg.norm(step) < 1e-10:
                converged = True
                break
            trial = _apply_increment(pose, step)
            trial_cam, trial_res = _residuals(trial, uv, xyz, K)
            trial_cost = weighted_cost(trial_res)
            if trial_cost < cost:
                decrease = cost - trial_cost
                pose, cam, res, cost = trial, trial_cam, trial_res, trial_cost
                trace.append(cost)
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                if decrease < 1e-12:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e10:
                break
        if converged or not accepted:
            break
    return RefineResult(pose, converged, iterations, trace)


def refine_weighted(initial: Pose, corrs, K: Intrinsics,
                    cfg: SolverConfig = SolverConfig()) -> RefineResult:
    """Refine a pose on inlier correspondences per cfg.refinement."""
    if len(corrs) < 4:
        raise ValueError("refinement needs at least 4 correspondences")
    corrs = Correspondences.of(corrs)
    w = corrs.w if cfg.refinement == "weighted" else np.ones(len(corrs))
    return refine_pose(initial, corrs.uv, corrs.xyz, w, K)


def localize(dets, ls: LandmarkSet, K: Intrinsics,
             cfg: SolverConfig = SolverConfig(), seed: int = 0) -> PoseEstimate:
    """Full per-image pipeline: weights -> PROSAC -> weighted refinement."""
    corrs = compute_weights(dets, ls, cfg.e)
    est = prosac_estimate(corrs, K, cfg, seed)
    if est.status != STATUS_OK or cfg.refinement == "none":
        return est
    inliers = corrs[np.isin(corrs.landmark_ids, list(est.inliers))]  # in landmark-id order
    rr = refine_weighted(est.pose, inliers, K, cfg)
    err = reprojection_errors(rr.pose, inliers.uv, inliers.xyz, K)
    return PoseEstimate(
        rr.pose, est.inliers, est.num_iterations, float(err.mean()), STATUS_OK, rr
    )


def save_poses(estimates: dict, path, sec_per_image: float | None = None) -> None:
    """One `image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px`
    line per image, ordered by image id."""
    with open(path, "w") as fh:
        fh.write("# image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px\n")
        if sec_per_image is not None:
            fh.write(f"# sec_per_image={_io.fmt(sec_per_image)}\n")
        for iid in sorted(estimates):
            est = estimates[iid]
            qt = [math.nan] * 7 if est.pose is None else [*est.pose.qvec, *est.pose.t]
            fh.write(f"{iid} {' '.join(map(_io.fmt, qt))} {est.status} {len(est.inliers)} "
                     f"{_io.fmt(est.mean_reproj_px)}\n")


def load_poses(path):
    """Inverse of save_poses. Returns (estimates dict, metadata dict).

    Inlier identities are not serialized, so loaded estimates carry an empty
    inlier set; per-image counts live in metadata["num_inliers"].
    """
    estimates = {}
    meta = {"num_inliers": {}}
    with _io.lines(path) as src:
        for tokens in src:
            if tokens[0][0] == "#":
                for tok in tokens:
                    k, _, v = tok.lstrip("#").partition("=")
                    if k == "sec_per_image":
                        meta["sec_per_image"] = _io.finite("sec_per_image", float(v))[0]
                continue
            if len(tokens) != 11:
                raise ValueError("expected 11 fields")
            iid, status, num_inliers = int(tokens[0]), tokens[8], int(tokens[9])
            if iid in estimates:
                raise ValueError(f"duplicate image id {iid}")
            if status not in STATUSES:
                raise ValueError(f"unknown status {status!r}")
            # save_poses writes nan in place of a missing pose.
            vals = [float(tok) for tok in tokens[1:8] + tokens[10:]]
            pose = None
            if status == STATUS_OK:
                pose = Pose(qvec2rotmat(vals[:4]), vals[4:7])
                _io.finite("reprojection error", vals[7])
            meta["num_inliers"][iid] = num_inliers
            estimates[iid] = PoseEstimate(pose, frozenset(), 0, vals[7], status)
    return estimates, meta
