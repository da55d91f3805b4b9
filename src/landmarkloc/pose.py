"""Confidence-weighted robust camera pose estimation from 2D-3D landmark
correspondences: detection confidences become weights w = v^e, PROSAC draws 3-point
samples in weight order, Lambda Twist P3P gives hypotheses scored in one stacked
projection, and one nonlinear least-squares pass on reprojection error, weighted by w
or unweighted, polishes the winning pose unless refinement is "none". prosac_estimate
is that whole solver; localize adds the weights.
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
    Intrinsics,
    Pose,
    _cross,
    _posed_rows,
    _uv,
    _valid_poses,
    axis_angle_to_matrix,
    bearing,
    qvec2rotmat,
    rotmat2qvec,
)

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_INSUFFICIENT = "insufficient"
STATUS_NO_CONSENSUS = "no_consensus"
STATUSES = (STATUS_OK, STATUS_DEGENERATE, STATUS_INSUFFICIENT, STATUS_NO_CONSENSUS)


@dataclass(frozen=True)
class Correspondences:
    """Correspondences as columns: landmark_ids (N,), uv (N, 2), xyz (N, 3),
    confidences v (N,) and weights w (N,). Indexing with an index array or a
    mask gives the subset's columns."""
    landmark_ids: np.ndarray
    uv: np.ndarray
    xyz: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __len__(self):
        return len(self.landmark_ids)

    def __getitem__(self, k):
        return Correspondences(*(col[k] for col in vars(self).values()))


@dataclass
class SolverConfig:
    e: float = 2.0                 # weight exponent
    threshold_px: float = 4.0      # inlier reprojection threshold
    max_iterations: int = 2000
    confidence: float = 0.999      # adaptive termination confidence
    min_inliers: int = 12
    refinement: str = "weighted"   # LM with weights w | LM with ones ("unweighted") | none
    sampler: str = "prosac"        # prosac | ransac (uniform baseline)

    def __post_init__(self):
        if not 0 <= self.e < math.inf:
            raise ValueError("weight exponent must be >= 0")
        if not 0 < self.threshold_px < math.inf:
            raise ValueError("inlier threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max iterations must be at least 1")
        if not 0 < self.confidence <= 1:
            raise ValueError("confidence must lie in (0, 1]")
        if self.min_inliers < 4:
            # refine_weighted, which prosac_estimate runs on the inliers, needs 4.
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
    """One image's result. PoseTable, which every estimate passes through to
    its file, checks that the status is known and that an ok one has a pose."""
    pose: Pose | None
    inliers: frozenset
    num_iterations: int
    mean_reproj_px: float
    status: str
    refine: RefineResult | None = None


class PoseTable:
    """One run's results as read-only columns in ascending image-id order: ids
    (N,) int64, status (a tuple of N str), poses R (N, 3, 3) and t (N, 3),
    num_inliers (N,) int64, mean_reproj_px (N,) and the camera centres center
    (N, 3), as ImageSet has them; R, t and center are NaN where the status is
    not ok. The constructor takes rows in any order and checks that no id
    repeats, that each status is known, that each ok row holds a pose
    (_valid_poses), that no inlier count is negative and that each ok row's
    mean error is finite and not negative."""

    def __init__(self, ids, status, R, t, num_inliers, mean_reproj_px):
        status = np.array(status, dtype=object).reshape(-1)
        unknown = [s for s in status if s not in STATUSES]
        if unknown:
            raise ValueError(f"unknown status {unknown[0]!r}")
        order, self.ids, self.R, self.t, self.center = _posed_rows(ids, R, t, status == STATUS_OK)
        self.status, n = tuple(status[order]), len(order)
        self.num_inliers = _io.int64_column("inlier count", num_inliers).reshape(n)[order]
        self.mean_reproj_px = np.asarray(mean_reproj_px, dtype=np.float64).reshape(n)[order]
        err, ok = self.mean_reproj_px, status[order] == STATUS_OK
        bad = (self.num_inliers < 0) | (ok & ~(np.isfinite(err) & (err >= 0)))
        if bad.any():
            raise ValueError(f"image {self.ids[np.argmax(bad)]}: negative inlier count or "
                             "mean reprojection error")
        self.num_inliers.flags.writeable = self.mean_reproj_px.flags.writeable = False

    def __len__(self):
        return len(self.ids)

    @classmethod
    def of(cls, estimates: dict) -> PoseTable:
        """The table of a dict image id -> PoseEstimate."""
        ests = estimates.values()
        return cls(list(estimates), [e.status for e in ests],
                   [_NAN_R if e.pose is None else e.pose.R for e in ests],
                   [_NAN_T if e.pose is None else e.pose.t for e in ests],
                   [len(e.inliers) for e in ests], [e.mean_reproj_px for e in ests])


# R and t of a row without a pose.
_NAN_R, _NAN_T = np.full((3, 3), np.nan), np.full(3, np.nan)


def compute_weights(dets, ls: LandmarkSet, e: float = 2.0) -> Correspondences:
    """Join detections to landmark 3D positions and attach weights v^e, as
    columns in the detections' order. A landmark's id is its position in ls."""
    ids = dets.landmark_ids
    unknown = ids[(ids < 0) | (ids >= len(ls))]
    if len(unknown):
        raise DanglingReferenceError(f"detection references unknown landmark {unknown[0]}")
    w = np.float_power(dets.confidence, e)  # libm pow, as Python's v ** e (see _squares)
    return Correspondences(ids, dets.uv, ls.xyz[ids], dets.confidence, w)


# PROSAC samples per Lambda Twist block: 8, doubling to 64, until a hypothesis sets
# the stop; then all the stop can still use, up to 64. Most images stop within a few
# dozen samples; the cap bounds memory on those that run the whole budget. The first
# blocks of many images are solved together (_first_round), at most _LANES samples
# per _p3p_block call: a call's temporaries grow with its samples.
_BLOCK, _BLOCK_CAP, _LANES = 8, 64, 256


def _running(op, *cols):
    """Python's max (op np.greater) or min (np.less) of the columns, row by row:
    a later column replaces the running value only where op holds, as max()
    and min() do, so rows with NaN give what they give."""
    out = cols[0]
    for col in cols[1:]:
        out = np.where(op(col, out), col, out)
    return out


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 as Python's float ** gives it: np.float_power calls libm pow,
    as ** does, while x * x and np.power (SIMD code on some hosts) differ in
    the last bit on about 1 value in 1000. The squares of the one-sample
    solver were taken with **, and its poses are kept bit for bit. Unlike **,
    a square that overflows is inf, not an OverflowError."""
    return np.float_power(x, 2.0)


# Rows -1 and +1: x + _SIGNS * y is x - y, then x + y, with the same bits.
_SIGNS = np.array([[-1.0], [1.0]])


def _cubic_roots(b, c, d):
    """The real root of x^3 + b x^2 + c x + d that Lambda Twist's `cubick` picks
    (of three, the smallest), element by element: Newton's method from beside
    the stationary point where the cubic changes sign, 7 to 50 steps, stopping
    once |f| <= eps. Also returns where a step divided by zero. Lanes that the
    caller masks may divide by zero; _p3p_block turns those warnings off."""
    x = -b / 3.0
    b2, bb, c3 = 2.0 * b, b * b, 3.0 * c
    q = bb > c3  # a local maximum at x - v, a local minimum at x + v
    v = np.sqrt(bb - c3) / 3.0
    lo_hi = x + _SIGNS * v
    k = ((lo_hi + b) * lo_hi + c) * lo_hi + d  # the cubic at x - v and at x + v
    # x - (v + sqrt(k_lo / 3v)) and x + (v + sqrt(-k_hi / 3v))
    lo, hi = x + _SIGNS * (v + np.sqrt(-_SIGNS * k / (3.0 * v)))
    x = np.where(q & (k[0] > 0.0), lo,
                 np.where(q, hi, np.where(np.abs((3.0 * x + b2) * x + c) < 1e-4, x + 1.0, x)))
    dfs = []
    for _ in range(7):
        dfs.append((3.0 * x + b2) * x + c)
        x = x - (((x + b) * x + c) * x + d) / dfs[-1]
    zero_div = (np.array(dfs) == 0.0).any(0)
    eps = 2.220446049250313e-16
    f = ((x + b) * x + c) * x + d
    # Roots not within eps after 7 steps (about a third) finish one by one.
    for i in np.flatnonzero(~(np.abs(f) <= eps) & ~zero_div).tolist():
        xi, bi, ci, di = float(x[i]), float(b[i]), float(c[i]), float(d[i])
        prev = None
        for k in range(7, 50):
            fi = ((xi + bi) * xi + ci) * xi + di
            if abs(fi) <= eps:
                break
            df = (3.0 * xi + 2.0 * bi) * xi + ci
            if df == 0.0:
                zero_div[i] = True
                break
            xi, prev, before = xi - fi / df, xi, prev
            if xi == prev:  # a fixed point: the remaining steps would repeat this one
                break
            if xi == before:  # a 2-cycle, both points tested here: the rest alternate
                xi = xi if (49 - k) % 2 == 0 else prev
                break
        x[i] = xi
    return x, zero_div


def _quadratic_roots(b, c):
    """Where x^2 + b x + c has real roots, and the two roots stacked on a new
    axis 0, element by element; (0, 0) where the one larger in magnitude is 0."""
    disc = b * b - 4.0 * c
    r = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return ~(disc < 0.0), np.where(r != 0.0, [r, c / r], 0.0)


def _ray_distances(a, c):
    """Lambda Twist's roots l of l_i^2 + l_j^2 - 2 c_ij l_i l_j = a_ij, ij in (12,
    13, 23), per sample: a and c are (3, B) columns. Returns the candidates
    (B, 4, 3), unpolished, in slot order (plane +s, then -s; two roots tau each),
    and which slots hold one. A sample with a division by zero has none.

    With l^T M_ij l = a_ij, l^T A l = 0 for A = h D1 - g D2, D1 = a23 M12 - a12 M23,
    D2 = a23 M13 - a13 M23; A is singular at a root g of the cubic det(A) with
    h = 1, or at h = 0 if det(D2) = 0."""
    (a12, a13, a23), (c12, c13, c23) = a, c
    s12, s13, s23 = 1.0 - c * c
    m = c12 * c23 * c13 - 1.0
    a13s23, a23_12, a13_23, a13_12 = a13 * s23, a23 - a12, a13 - a23, a13 - a12
    p3 = a13 * (a23 * s13 - a13s23)
    p2 = 2.0 * m * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * a23_12 * s13
    p1 = a23 * a13_23 * s12 - a12 * a12 * s23 - 2.0 * a12 * (m * a23 + a13s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    cubic = p3 != 0.0
    p3 = np.where(cubic, p3, 1.0)
    g, zero_div = _cubic_roots(p2 / p3, p1 / p3, p0 / p3)
    g, h, zero_div = np.where(cubic, g, 1.0), np.where(cubic, 1.0, 0.0), zero_div & cubic
    ga13, ha12 = g * a13, h * a12
    A00, A01, A02 = a23 * (h - g), -h * a23 * c12, g * a23 * c13
    A11, A12 = h * a23_12 + ga13, c23 * (ha12 - ga13)
    A22 = g * a13_23 - ha12
    # A = e1 u u^T / |u|^2 + e2 v v^T / |v|^2, |e1| >= |e2|, u and v cross products of
    # two rows of A - e I; so l lies on a plane u.l = +-s v.l, s = sqrt(-e2/e1) |u|/|v|.
    # Axis 0 of e and of each component of uv is (e1, u), then (e2, v).
    tr = A00 + A11 + A22
    minors = A00 * A11 - A01 * A01 + A00 * A22 - A02 * A02 + A11 * A22 - A12 * A12
    real, e = _quadratic_roots(-tr, minors)
    e = np.where(real, e, 0.5 * tr)
    e = np.where(np.abs(e[0]) < np.abs(e[1]), e[::-1], e)
    uv1, uv2, uv3 = _cross((A00 - e, A01, A02), (A01, A11 - e, A12))
    (u1, v1), (u2, v2), (u3, v3) = uv1, uv2, uv3
    uu, vv = uv1 * uv1 + uv2 * uv2 + uv3 * uv3
    ratio = -e[1] / e[0]
    s = np.sqrt(np.where(ratio > 0.0, ratio, 0.0) * uu / vv)
    zero_div |= (e[0] == 0.0) | (vv == 0.0)
    # On the plane l1 = w0 l2 + w1 l3, a13 (eq 12) - a12 (eq 13) is a quadratic in
    # tau = l3 / l2, and eq 23 gives l2. Axes: (root,) plane's sign, sample.
    sv = np.array([s, -s])
    den = sv * v1 - u1
    w0, w1 = (u2 - sv * v2) / den, (u3 - sv * v3) / den
    q2 = a13_12 * w1 * w1 + 2.0 * a12 * c13 * w1 - a12
    q1 = 2.0 * (a12 * c13 * w0 - a13 * c12 * w1 + w0 * w1 * a13_12)
    q0 = a13_12 * w0 * w0 - 2.0 * a13 * c12 * w0 + a13
    zero_div |= ((den == 0.0) | (q2 == 0.0)).any(0)
    real, tau = _quadratic_roots(q1 / q2, q0 / q2)
    den = tau * (tau - 2.0 * c23) + 1.0
    zero_div |= (real & (den == 0.0)).any((0, 1))
    l2 = a23 / den
    r = np.sqrt(l2)
    lam = np.array([(w0 + w1 * tau) * r, r, tau * r])  # (l, root, sign, B)
    ok = real & (tau > 0.0) & (l2 > 0.0) & ~zero_div
    return lam.transpose(3, 2, 1, 0).reshape(-1, 4, 3), ok.transpose(2, 1, 0).reshape(-1, 4)


def _polish_distances(lam, rays, a, c):
    """One Gauss-Newton step (none at a singular Jacobian) on |l_i y_i - l_j y_j|^2 = a_ij,
    per row of lam (M, 3) with bearings rays (M, 3, 3) and (3, M) columns a and c:
    _ray_distances' system in a form that cancels less, which sets the accuracy."""
    i, j = _PAIRS
    p = lam[:, :, None] * rays
    sq = _squares(p[:, i] - p[:, j])  # (M, pair, xyz)
    r = (sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2]).T - a
    li, lj, zero = lam.T[i], lam.T[j], np.zeros(len(lam))
    Ji, Jj = li - c * lj, lj - c * li  # row ij of half the Jacobian: l_i - c_ij l_j at i, ...
    J = ((Ji[0], Jj[0], zero), (Ji[1], zero, Jj[1]), (zero, Ji[2], Jj[2]))
    C = np.array((_cross(J[1], J[2]), _cross(J[2], J[0]), _cross(J[0], J[1])))  # det(J) J^-1 by columns
    det = 2.0 * (J[0][0] * C[0, 0] + J[0][1] * C[0, 1] + J[0][2] * C[0, 2])
    det = np.where(det == 0.0, np.inf, det)
    return (lam.T - (C[0] * r[0] + C[1] * r[1] + C[2] * r[2]) / det).T


# The point pairs 12, 13, 23 of a sample, and the pairs (later, earlier) of its
# four candidate slots in the order the near-duplicate test visits them.
_PAIRS = np.array([0, 0, 1]), np.array([1, 2, 2])
_SLOT_PAIRS = [1, 2, 2, 3, 3, 3], [0, 0, 1, 0, 1, 2]


def _columns(*cols):
    """np.stack(cols, -1) for (N, 3) arrays cols, in less time."""
    out = np.empty((len(cols[0]), 3, len(cols)))
    for k, col in enumerate(cols):
        out[:, :, k] = col
    return out


@np.errstate(all="ignore")  # every lane is computed, then masked
def _p3p_block(P, rays, uv, K: Intrinsics):
    """Lambda Twist over a block of B samples: world points P (B, 3, 3), their
    bearings rays (B, 3, 3) and pixels uv (B, 3, 2).

    Returns which samples are degenerate (B,), and the poses R (H, 3, 3), t (H, 3)
    with the sample each belongs to (H,): sample by sample, in the order
    p3p_solve gives them. Every step is element-wise over the block, in the
    order of operations of the one-sample solver, so each pose has its bits.
    """
    d = P[:, _PAIRS[0]] - P[:, _PAIRS[1]]  # (B, pair, xyz): x1 - x2, x1 - x3, x2 - x3
    side = np.sqrt(np.vecdot(d, d)).T
    scale = _running(np.greater, *side[::-1])
    # (x1 - x2) x (x1 - x3) has the bits of (x2 - x1) x (x3 - x1): IEEE negation is exact.
    normal = np.array(_cross(d[:, 0].T, d[:, 1].T)).T.copy()  # (B, xyz)
    c = np.vecdot(rays[:, _PAIRS[0]], rays[:, _PAIRS[1]]).T  # c12, c13, c23
    degenerate = ((scale < 1e-12) | (np.sqrt(np.vecdot(normal, normal)) < 1e-12 * _squares(scale))
                  | (_running(np.greater, *np.abs(c[::-1])) > 1.0 - 1e-12))
    live = np.flatnonzero(~degenerate)
    a = _squares(side[:, live])  # a12, a13, a23
    lam, ok = _ray_distances(a, c[:, live])
    slot = np.flatnonzero(ok)
    pol = np.full(lam.shape, np.nan)
    pol.reshape(-1, 3)[slot] = _polish_distances(
        lam.reshape(-1, 3)[slot], rays[live[slot // 4]], a[:, slot // 4], c[:, live[slot // 4]])
    # Keep a candidate with min(l) > 0 unless a kept one of its sample lies within 1e-9.
    keep = ok & (_running(np.less, *pol.transpose(2, 0, 1)) > 0)
    later, earlier = _SLOT_PAIRS
    tol = 1e-9 * _running(np.greater, 1.0, *pol[:, later].transpose(2, 0, 1))
    far = _running(np.greater, *np.abs(pol[:, later] - pol[:, earlier]).transpose(2, 0, 1)) >= tol
    # Slot by slot, in pair order; a pair that no sample keeps both of near each other
    # changes nothing, whatever the pairs before it dropped.
    near = keep[:, later] & keep[:, earlier] & ~far
    for k in np.flatnonzero(near.any(0)).tolist():
        keep[:, later[k]] &= ~keep[:, earlier[k]] | far[:, k]
    slot = np.flatnonzero(keep)
    owner = live[slot // 4]
    cam = pol.reshape(-1, 3)[slot][:, :, None] * rays[owner]  # (candidate, point, xyz)
    e12, e13 = cam[:, 0] - cam[:, 1], cam[:, 0] - cam[:, 2]
    Y = _columns(e12, e13, np.array(_cross(e12.T, e13.T)).T)
    X = _columns(d[owner, 0], d[owner, 1], normal[owner])
    R = np.matmul(Y, np.linalg.inv(X))
    t = cam[:, 0] - np.matmul(R, P[owner, 0, :, None])[:, :, 0]
    valid = _valid_poses(R, t)
    R, t, owner = R[valid], t[valid], owner[valid]
    # The 1e-6 px gate on each sample's own three points.
    good = _stacked_errors(R, t, uv[owner], P[owner], K).max(1) < 1e-6
    return degenerate, R[good], t[good], owner[good]


def p3p_solve(corrs: Correspondences, K: Intrinsics) -> list:
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
    uv = corrs.uv[None]
    degenerate, R, t, _ = _p3p_block(corrs.xyz[None], bearing(K, uv), uv, K)
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
    u, v = _uv(K, *cam.transpose(2, 0, 1))
    err = np.hypot(u - uv[..., 0], v - uv[..., 1])
    err[np.isnan(err)] = np.inf
    return err


_U32 = 0xFFFFFFFF


def _uint32s(bitgen):
    """The 32-bit draws of numpy's PCG64 next_uint32 from the raw words of
    bitgen, a fresh PCG64: each word's low half, then its high half."""
    while True:
        for word in bitgen.random_raw(64).tolist():
            yield word & _U32
            yield word >> 32


def _choice(pop: int, k: int, u32) -> list:
    """numpy 2.4.6's Generator.choice(pop, size=k, replace=False) for k <= 3, as a
    list, drawn from u32 (see _uint32s). NEP 19 ("Random number generator
    policy") fixes only a BitGenerator's raw stream, not Generator methods, so
    the draws are rebuilt from that stream. The algorithm is numpy's: Floyd's,
    which for each j in [pop - k, pop) draws v in [0, j] (j == 0 draws nothing)
    and takes j where v is already taken, then a shuffle of positions k-1 .. 1.
    A draw in [0, r] is 32-bit Lemire: m = x * (r + 1) for the next x of u32,
    drawn again while its low word is below (2^32 - 1 - r) % (r + 1); the draw
    is m's high word. numpy takes other paths for r >= 2^32 - 1, so pops
    from 2^32 - 1 up are refused."""
    if not (0 <= k <= 3 and k <= pop < _U32):
        raise ValueError(f"choice of {k} from {pop} is not decoded")
    out = []
    for r in [*range(pop - k, pop), *range(k - 1, 0, -1)]:
        v = 0
        if r:
            m = next(u32) * (r + 1)
            if m & _U32 <= r:  # floor <= r, so most draws skip the modulo
                floor = (_U32 - r) % (r + 1)
                while m & _U32 < floor:
                    m = next(u32) * (r + 1)
            v = m >> 32
        if len(out) < k:  # Floyd
            out.append(r if v in out else v)
        else:  # shuffle
            out[r], out[v] = out[v], out[r]
    return out


def _prosac_samples(n: int, cfg: SolverConfig, bitgen):
    """PROSAC's index triples (Chum & Matas, "Matching with PROSAC", CVPR 2005)
    into the n ranked correspondences, for t = 1, 2, ...: drawn from a top-ranked
    subset that grows as T_n ~ budget * C(n, 3) / C(N, 3), each including the
    subset's newest member until t reaches T'_n. The ransac sampler draws from
    all n. Each draw is that of Generator(bitgen).choice (see _choice), so the
    sequence depends only on bitgen's raw stream and t."""
    u32 = _uint32s(bitgen)
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
            yield _choice(n, m, u32)
        elif t >= T_prime:
            yield _choice(n_cur, m, u32)
        else:
            yield _choice(n_cur - 1, m - 1, u32) + [n_cur - 1]


def _ranking(corrs: Correspondences) -> np.ndarray:
    """PROSAC's order of corrs: by weight, descending, ties by landmark id."""
    return np.lexsort((corrs.landmark_ids, -corrs.w))


def _first_round(images, K: Intrinsics, cfg: SolverConfig) -> list:
    """PROSAC's first round over many images of one camera (K): for each
    (corrs, seed) of images, in order, None where corrs has fewer than 4 rows,
    else the image's run with its first block solved, (samples, idx, solved):
    the image's own sampler, now past the block; the block, its first
    min(_BLOCK, cfg.max_iterations) samples, idx (S, 3) into the ranked
    correspondences; and _p3p_block's answer for them, (degenerate, R, t,
    owner), owner in [0, S). An image's samples depend only on its number of
    correspondences, cfg and seed, so no block waits for another's score.
    The samples of all images are solved together, _LANES to a _p3p_block
    call; its lanes never depend on each other, so each image's answer has
    the bits of a call of its own. Only the samples' points and pixels are
    kept, not the images' correspondences."""
    blocks, P, uv = [], [], []
    for corrs, seed in images:
        if len(corrs) < 4:
            blocks.append(None)
            continue
        # PCG64(seed) is the state default_rng(seed) has.
        samples = _prosac_samples(len(corrs), cfg, np.random.PCG64(seed))
        idx = np.array(list(itertools.islice(samples, min(_BLOCK, cfg.max_iterations))))
        rows = _ranking(corrs)[idx]
        blocks.append((samples, idx))
        P.append(corrs.xyz[rows])
        uv.append(corrs.uv[rows])
    if not P:
        return blocks
    P, uv = np.concatenate(P), np.concatenate(uv)
    rays, starts = bearing(K, uv), range(0, len(P), _LANES)
    parts = [_p3p_block(P[lo:lo + _LANES], rays[lo:lo + _LANES], uv[lo:lo + _LANES], K)
             for lo in starts]
    degenerate, R, t = (np.concatenate([part[k] for part in parts]) for k in range(3))
    owner = np.concatenate([part[3] + lo for part, lo in zip(parts, starts)])
    out, lo = [], 0
    for block in blocks:
        if block is not None:
            samples, idx = block
            hi = lo + len(idx)
            a, b = np.searchsorted(owner, [lo, hi]).tolist()
            block = samples, idx, (degenerate[lo:hi], R[a:b], t[a:b], owner[a:b] - lo)
            lo = hi
        out.append(block)
    return out


def prosac_estimate(corrs: Correspondences, K: Intrinsics, cfg: SolverConfig = SolverConfig(),
                    seed: int = 0, *, first: tuple | None = None) -> PoseEstimate:
    """PROSAC over 3-point P3P samples, then at most one LM from the winner.

    Correspondences are ranked by weight (descending, ties by landmark id);
    samples are drawn from a progressively growing top-ranked subset per the
    PROSAC growth function. Hypotheses are scored by inlier count (ties by
    lower weighted mean error). Terminates adaptively at cfg.confidence.

    Samples are drawn ahead in blocks, each solved by one _p3p_block call and
    scored in one stacked product; the selection then replays them in order,
    so it stops at the same sample as a loop that solves one sample at a time,
    and picks the same winner, whatever the blocks' sizes. The first block,
    _BLOCK (8) samples or the budget if smaller, comes solved: first, the
    image's run from _first_round, which solves many images' first blocks in
    one call (cli's localize stage calls it per camera), or, where first is
    None, a run built here by the same function from seed. first's sampler
    carries its own seed and goes on past the block. Until a hypothesis sets
    the stop, each later block doubles from 16, up to 64; after that, a block
    holds all that the budget and the stop, ceil(required - t), leave, up to
    64. required only falls while a block replays, so every sample past it
    would go unused. The draws are numpy's Generator(PCG64(seed)).choice,
    decoded from PCG64's raw stream (_choice); the generator feeds nothing else.

    The winning P3P pose is refined on its inliers, in ranked order, per
    cfg.refinement: by refine_weighted for "weighted" and "unweighted", not at
    all for "none". The mean reprojection error is over those inliers.
    """
    n = len(corrs)
    if n < 4:
        return PoseEstimate(None, frozenset(), 0, float("nan"), STATUS_INSUFFICIENT)
    if first is None:
        [first] = _first_round([(corrs, seed)], K, cfg)

    ranked = corrs[_ranking(corrs)]
    uv, xyz, weights = ranked.uv, ranked.xyz, ranked.w
    rays = bearing(K, uv)

    samples, idx, solved = first
    budget, size = cfg.max_iterations, _BLOCK
    best_count, best_werr, best = 0, np.inf, None  # best: (R, t, inlier mask)
    required = np.inf
    saw_degenerate = False
    t = 0
    while t < budget and t < required:
        if solved is None:  # every block after the first
            if required < np.inf:  # a hypothesis set the stop: the rest of it in one block
                size = _BLOCK_CAP
            take = math.ceil(min(size, budget - t, required - t))  # min keeps an inf out of ceil
            idx = np.array(list(itertools.islice(samples, take)))
            solved = _p3p_block(xyz[idx], rays[idx], uv[idx], K)
        size = min(2 * size, _BLOCK_CAP)
        (degenerate, R, T, owner), solved = solved, None
        err = _stacked_errors(R, T, uv, xyz, K)
        inlier = err <= cfg.threshold_px
        counts = inlier.sum(1).tolist()
        starts = np.searchsorted(owner, np.arange(len(idx) + 1)).tolist()
        for j, degen in enumerate(degenerate.tolist()):
            if not t < required:
                break
            t += 1
            saw_degenerate |= degen
            for h in range(starts[j], starts[j + 1]):
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

    if best is None or best_count < cfg.min_inliers:
        status = STATUS_DEGENERATE if best is None and saw_degenerate else STATUS_NO_CONSENSUS
        return PoseEstimate(None, frozenset(), t, float("nan"), status)
    R, T, mask = best
    inliers, pose, rr = ranked[mask], Pose(R, T), None
    if cfg.refinement != "none":
        rr = refine_weighted(pose, inliers, K, cfg)
        pose = rr.pose
    err = reprojection_errors(pose, inliers.uv, inliers.xyz, K)
    return PoseEstimate(pose, frozenset(inliers.landmark_ids.tolist()), t, float(err.mean()),
                        STATUS_OK, rr)


def _residuals(R: np.ndarray, t: np.ndarray, uv: np.ndarray, xyz: np.ndarray,
               K: Intrinsics):
    """The camera frame (N, 3) of the points xyz (N, 3) under the pose (R, t),
    as the gemm that project_many makes, and their reprojection residuals
    (N, 2), projection - observation, NaN for points at or behind the camera."""
    cam = xyz @ R.T + t
    proj = np.empty((len(cam), 2))
    proj[:, 0], proj[:, 1] = _uv(K, *cam.T)
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
    return _stacked_system(*_residuals(pose.R, pose.t, uv, xyz, K), K, scale)


def _apply_increment(R: np.ndarray, t: np.ndarray, step: np.ndarray) -> tuple:
    """The pose (R, t) after the left increment step = [omega, dt], as arrays."""
    dR = axis_angle_to_matrix(step[:3])
    return dR @ R, dR @ t + step[3:]


def refine_pose(initial: Pose, uv: np.ndarray, xyz: np.ndarray, w: np.ndarray,
                K: Intrinsics, max_iter: int = 100) -> RefineResult:
    """Levenberg-Marquardt minimization of the weighted reprojection cost.

    Steps that fail to decrease the cost or push a point behind the camera
    are rejected (damping increases); the accepted-cost trace is therefore
    non-increasing. Converges on step norm < 1e-10 or cost decrease < 1e-12.
    Each pose is projected once: the accepted trial's camera frame and
    residuals give the next Jacobian. Trials are bare (R, t) arrays, so a
    non-finite one is rejected by its cost; the returned pose is checked.
    """
    def weighted_cost(res: np.ndarray) -> float:
        du, dv = res.T
        cost = float((w * (du * du + dv * dv)).sum())
        return np.inf if math.isnan(cost) else cost  # NaN: a point behind the camera

    R, t = initial.R, initial.t
    cam, res = _residuals(R, t, uv, xyz, K)
    cost = weighted_cost(res)
    trace = [cost]
    lam = 1e-6
    scale, eye = np.sqrt(np.repeat(w, 2)), np.eye(6)
    converged = False
    iterations = 0
    if not np.isfinite(cost):
        return RefineResult(initial, False, 0, trace)
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
            trial = _apply_increment(R, t, step)
            trial_cam, trial_res = _residuals(*trial, uv, xyz, K)
            trial_cost = weighted_cost(trial_res)
            if trial_cost < cost:
                decrease = cost - trial_cost
                (R, t), cam, res, cost = trial, trial_cam, trial_res, trial_cost
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
    return RefineResult(Pose(R, t), converged, iterations, trace)


def refine_weighted(initial: Pose, corrs: Correspondences, K: Intrinsics,
                    cfg: SolverConfig = SolverConfig()) -> RefineResult:
    """Refine a pose on inlier correspondences per cfg.refinement."""
    if len(corrs) < 4:
        raise ValueError("refinement needs at least 4 correspondences")
    w = corrs.w if cfg.refinement == "weighted" else np.ones(len(corrs))
    return refine_pose(initial, corrs.uv, corrs.xyz, w, K)


def localize(dets, ls: LandmarkSet, K: Intrinsics, cfg: SolverConfig = SolverConfig(),
             seed: int = 0, *, first: tuple | None = None) -> PoseEstimate:
    """Weights v^e, then PROSAC and at most one LM: prosac_estimate, given the
    image's first block solved (first, from _first_round) or building it from
    seed. Where the first block is solved never changes the estimate, only the
    number of P3P calls."""
    return prosac_estimate(compute_weights(dets, ls, cfg.e), K, cfg, seed, first=first)


def save_poses(poses: PoseTable, path, sec_per_image: float | None = None) -> None:
    """One `image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px`
    line per image, ordered by image id, with nan in place of the pose of an
    image that is not ok; written through a temp file and a rename."""
    def lines():
        yield "# image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px\n"
        if sec_per_image is not None:
            yield f"# sec_per_image={_io.fmt(sec_per_image)}\n"
        rows = zip(poses.ids.tolist(), poses.status, poses.R, poses.t,
                   poses.num_inliers.tolist(), poses.mean_reproj_px.tolist())
        for iid, status, R, t, num_inliers, err in rows:
            qt = [*rotmat2qvec(R), *t] if status == STATUS_OK else [math.nan] * 7
            yield (f"{iid} {' '.join(map(_io.fmt, qt))} {status} {num_inliers} "
                   f"{_io.fmt(err)}\n")

    _io.write_text(path, lines())


def load_poses(path):
    """Inverse of save_poses. Returns (PoseTable, metadata dict), the
    metadata holding sec_per_image when the file states it. PoseTable judges
    each line's values: the first line it refuses, or a last line without a
    line end, raises MalformedFileError at path:line."""
    meta = {}
    with _io.lines(path, make=lambda rows: PoseTable(*_io.columns(rows, 6))) as src:
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
            # save_poses writes nan in place of a missing pose.
            vals = [float(tok) for tok in tokens[1:8] + tokens[10:]]
            R, t = (qvec2rotmat(vals[:4]), vals[4:7]) if status == STATUS_OK else (_NAN_R, _NAN_T)
            src.keep(iid, status, R, t, num_inliers, vals[7])
        src.refuse_cut()
        return src.table(), meta
