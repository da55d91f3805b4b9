"""Confidence-weighted robust camera pose estimation from 2D-3D landmark
correspondences: detection confidences become weights w = v^e, PROSAC draws
3-point samples in weight order, P3P generates hypotheses, and the consensus
pose is polished by weighted nonlinear least squares on reprojection error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DanglingReferenceError, DegeneracyError, MalformedFileError
from .landmarks import LandmarkSet
from .scene_model import (
    Intrinsics,
    Pose,
    axis_angle_to_matrix,
    bearing,
    project_many,
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


@dataclass
class SolverConfig:
    e: float = 2.0                 # weight exponent
    threshold_px: float = 4.0      # inlier reprojection threshold
    max_iterations: int = 2000
    confidence: float = 0.999      # adaptive termination confidence
    min_inliers: int = 12
    refinement: str = "weighted"   # none | unweighted | weighted
    weighted_scoring: bool = False # score hypotheses by summed weights
    sampler: str = "prosac"        # prosac | ransac (uniform baseline)

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("weight exponent must be >= 0")
        if self.threshold_px <= 0:
            raise ValueError("inlier threshold must be positive")
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


def compute_weights(dets, ls: LandmarkSet, e: float = 2.0) -> list:
    """Join detections to landmark 3D positions and attach weights v^e."""
    corrs = []
    known = {lm.id: lm for lm in ls}
    for det in dets:
        lm = known.get(det.landmark_id)
        if lm is None:
            raise DanglingReferenceError(
                f"detection references unknown landmark {det.landmark_id}"
            )
        corrs.append(
            Correspondence(det.landmark_id, det.uv, lm.xyz, det.confidence,
                           det.confidence ** e)
        )
    return corrs


def _polish_quartic(coeffs: np.ndarray, x: float, steps: int = 5) -> float:
    deriv = np.polyder(coeffs)
    for _ in range(steps):
        d = np.polyval(deriv, x)
        if abs(d) < 1e-300:
            break
        x = x - np.polyval(coeffs, x) / d
    return x


def _polish_distances(s: np.ndarray, p: float, q: float, r: float,
                      a2: float, b2: float, c2: float, steps: int = 6) -> np.ndarray:
    """Newton-polish ray distances on the original law-of-cosines system."""
    s = s.copy()
    for _ in range(steps):
        s1, s2, s3 = s
        F = np.array(
            [
                s2 * s2 + s3 * s3 - p * s2 * s3 - a2,
                s1 * s1 + s3 * s3 - q * s1 * s3 - b2,
                s1 * s1 + s2 * s2 - r * s1 * s2 - c2,
            ]
        )
        if np.abs(F).max() < 1e-14 * max(a2, b2, c2):
            break
        J = np.array(
            [
                [0.0, 2 * s2 - p * s3, 2 * s3 - p * s2],
                [2 * s1 - q * s3, 0.0, 2 * s3 - q * s1],
                [2 * s1 - r * s2, 2 * s2 - r * s1, 0.0],
            ]
        )
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        s = s + delta
    return s


def _kabsch(world: np.ndarray, cam: np.ndarray):
    """Rigid transform (R, t) with cam ~= R @ world + t."""
    wc = world.mean(axis=0)
    cc = cam.mean(axis=0)
    H = (world - wc).T @ (cam - cc)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return R, cc - R @ wc


def p3p_solve(corrs, K: Intrinsics) -> list:
    """All camera poses consistent with three 2D-3D correspondences.

    Distance ratios along the three bearings satisfy a quartic; each positive
    real root yields camera-frame point positions whose rigid alignment to
    the world points gives one pose candidate. Candidates are kept only if
    they reproject all three points to within 1e-6 px.
    """
    if len(corrs) != 3:
        raise ValueError("p3p needs exactly 3 correspondences")
    P = np.array([c.xyz for c in corrs])
    rays = np.array([bearing(K, c.uv) for c in corrs])

    side = np.linalg.norm(P[1] - P[2]), np.linalg.norm(P[0] - P[2]), np.linalg.norm(P[0] - P[1])
    a2, b2, c2 = side[0] ** 2, side[1] ** 2, side[2] ** 2
    scale = max(side)
    if scale < 1e-12 or np.linalg.norm(np.cross(P[1] - P[0], P[2] - P[0])) < 1e-12 * scale ** 2:
        raise DegeneracyError("3D points are collinear or coincident")
    cos_a = float(rays[1] @ rays[2])
    cos_b = float(rays[0] @ rays[2])
    cos_g = float(rays[0] @ rays[1])
    if max(abs(cos_a), abs(cos_b), abs(cos_g)) > 1.0 - 1e-12:
        raise DegeneracyError("bearings are coincident")

    A = a2 / b2
    B = c2 / b2
    p, q, r = 2 * cos_a, 2 * cos_b, 2 * cos_g
    # u = N(v) / D(v); substituting into the remaining constraint gives a
    # quartic in v assembled here by polynomial arithmetic.
    N = np.array([A - B - 1.0, -(A - B) * q, 1.0 + A - B])
    D = np.array([-p, r])
    E = np.array([-B, B * q, 1.0 - B])
    quartic = np.polyadd(
        np.polysub(np.polymul(N, N), r * np.polymul(N, D)),
        np.polymul(np.polymul(D, D), E),
    )

    quartic = quartic / np.abs(quartic).max()
    roots = np.roots(quartic)
    vs = []
    for root in roots:
        # Near-double roots acquire spurious imaginary parts; keep loosely and
        # let the distance polish plus the reprojection gate decide.
        if abs(root.imag) > 1e-4 * max(1.0, abs(root.real)):
            continue
        v = _polish_quartic(quartic, float(root.real))
        if v > 0:
            vs.append(v)

    triples = []
    b_len = math.sqrt(b2)
    for v in vs:
        denom = 1.0 + v * v - q * v
        if denom <= 0:
            continue
        s1 = b_len / math.sqrt(denom)
        Dv = float(np.polyval(D, v))
        if abs(Dv) > 1e-9:
            u = float(np.polyval(N, v)) / Dv
        else:
            # Fall back to the second constraint's quadratic in u.
            cc = 1.0 - B * denom
            disc = r * r - 4.0 * cc
            if disc < 0:
                continue
            u_opts = [(r + math.sqrt(disc)) / 2.0, (r - math.sqrt(disc)) / 2.0]
            u = min(
                u_opts,
                key=lambda cand: abs(cand * cand + v * v - p * cand * v - A * denom),
            )
        if u <= 0:
            continue
        s = _polish_distances(np.array([s1, u * s1, v * s1]), p, q, r, a2, b2, c2)
        if (s <= 0).any():
            continue
        if any(np.abs(s - prev).max() < 1e-9 * max(1.0, float(s.max())) for prev in triples):
            continue
        triples.append(s)

    poses = []
    uv_all = np.array([c.uv for c in corrs])
    for s in triples:
        cam_pts = rays * s[:, None]
        R, t = _kabsch(P, cam_pts)
        try:
            pose = Pose(R, t)
        except ValueError:
            continue
        if reprojection_errors(pose, uv_all, P, K).max() < 1e-6:
            poses.append(pose)
    return poses


def _residuals(pose: Pose, uv: np.ndarray, xyz: np.ndarray, K: Intrinsics):
    """Projection minus observation, (N,2); NaN rows for points behind the camera."""
    projected, _ = project_many(K, pose, xyz)
    return projected - uv


def reprojection_errors(pose: Pose, uv: np.ndarray, xyz: np.ndarray, K: Intrinsics):
    """Pixel reprojection errors; points behind the camera get +inf."""
    res = _residuals(pose, uv, xyz, K)
    err = np.hypot(res[:, 0], res[:, 1])
    err[np.isnan(err)] = np.inf
    return err


def prosac_estimate(corrs, K: Intrinsics, cfg: SolverConfig = SolverConfig(),
                    seed: int = 0) -> PoseEstimate:
    """PROSAC robust pose estimation over 3-point P3P samples.

    Correspondences are ranked by weight (descending, ties by landmark id);
    samples are drawn from a progressively growing top-ranked subset per the
    PROSAC growth function. Hypotheses are scored by inlier count (ties by
    lower weighted mean error; summed weights instead when
    cfg.weighted_scoring). Terminates adaptively at cfg.confidence.
    """
    n = len(corrs)
    if n < 4:
        return PoseEstimate(None, frozenset(), 0, float("nan"), STATUS_INSUFFICIENT)

    ranked = sorted(corrs, key=lambda c: (-c.w, c.landmark_id))
    uv = np.array([c.uv for c in ranked])
    xyz = np.array([c.xyz for c in ranked])
    weights = np.array([c.w for c in ranked])
    ids = [c.landmark_id for c in ranked]

    rng = np.random.default_rng(seed)
    m = 3
    budget = cfg.max_iterations
    # PROSAC growth schedule: T_n ~ budget * C(n, m) / C(N, m).
    T_n = float(budget)
    for i in range(m):
        T_n *= (m - i) / (n - i)
    T_prime = 1.0
    n_cur = m

    best_score = (-1.0, np.inf)  # (inlier score, weighted mean error)
    best_pose = None
    best_mask = None
    required = np.inf
    saw_degenerate = False
    t = 0
    while t < budget and t < required:
        t += 1
        while n_cur < n and t >= T_prime:
            T_next = T_n * (n_cur + 1) / (n_cur + 1 - m)
            T_prime += math.ceil(T_next - T_n)
            T_n = T_next
            n_cur += 1
        if cfg.sampler == "ransac":
            idx = rng.choice(n, size=m, replace=False)
        elif t >= T_prime:
            idx = rng.choice(n_cur, size=m, replace=False)
        else:
            head = rng.choice(n_cur - 1, size=m - 1, replace=False)
            idx = np.append(head, n_cur - 1)
        sample = [ranked[int(i)] for i in idx]
        try:
            hypotheses = p3p_solve(sample, K)
        except DegeneracyError:
            saw_degenerate = True
            continue
        for pose in hypotheses:
            err = reprojection_errors(pose, uv, xyz, K)
            mask = err <= cfg.threshold_px
            count = int(mask.sum())
            if count == 0:
                continue
            score = float(weights[mask].sum()) if cfg.weighted_scoring else float(count)
            werr = float((weights[mask] * err[mask]).sum() / weights[mask].sum())
            if score > best_score[0] or (score == best_score[0] and werr < best_score[1]):
                best_score = (score, werr)
                best_pose = pose
                best_mask = mask
                ratio = count / n
                if ratio >= 1.0:
                    required = 0.0
                else:
                    denom = math.log(1.0 - ratio ** m)
                    required = (
                        math.log(max(1.0 - cfg.confidence, 1e-300)) / denom
                        if denom < 0
                        else np.inf
                    )

    if best_pose is None:
        status = STATUS_DEGENERATE if saw_degenerate else STATUS_NO_CONSENSUS
        return PoseEstimate(None, frozenset(), t, float("nan"), status)
    count = int(best_mask.sum())
    if count < cfg.min_inliers:
        return PoseEstimate(None, frozenset(), t, float("nan"), STATUS_NO_CONSENSUS)
    # Standard consensus refit: unweighted least squares on the winning
    # hypothesis's inlier set (the set itself stays fixed).
    refit = refine_pose(best_pose, uv[best_mask], xyz[best_mask],
                        np.ones(count), K)
    pose = refit.pose if np.isfinite(refit.cost_trace[-1]) else best_pose
    err = reprojection_errors(pose, uv, xyz, K)
    inliers = frozenset(ids[i] for i in np.flatnonzero(best_mask))
    return PoseEstimate(
        pose, inliers, t, float(err[best_mask].mean()), STATUS_OK
    )


def pose_residuals_jacobian(pose: Pose, uv: np.ndarray, xyz: np.ndarray,
                            K: Intrinsics, weights: np.ndarray | None = None):
    """Stacked reprojection residuals and their analytic Jacobian.

    Residuals are (projection - observation), stacked (2N,), and NaN for
    points behind the camera. The Jacobian is with respect to a
    left-multiplicative increment [rotation omega, translation dt] applied at
    the current pose. Rows are scaled by sqrt(w).
    """
    res = _residuals(pose, uv, xyz, K).reshape(-1)
    x, y, z = (xyz @ pose.R.T + pose.t).T
    # d(uv)/d(cam) has rows [a, 0, b] and [0, c, d]; d(cam)/d(omega) = -[cam]_x
    # and d(cam)/d(dt) = I.
    a, b = K.fx / z, -K.fx * x / z**2
    c, d = K.fy / z, -K.fy * y / z**2
    J = np.empty((len(res), 6))
    Ju, Jv = J[0::2], J[1::2]
    Ju[:, 0], Ju[:, 1], Ju[:, 2] = b * y, a * z - b * x, -a * y
    Ju[:, 3], Ju[:, 4], Ju[:, 5] = a, 0.0, b
    Jv[:, 0], Jv[:, 1], Jv[:, 2] = d * y - c * z, -d * x, c * x
    Jv[:, 3], Jv[:, 4], Jv[:, 5] = 0.0, c, d
    if weights is not None:
        s = np.sqrt(np.repeat(weights, 2))
        res = res * s
        J = J * s[:, None]
    return res, J


def _apply_increment(pose: Pose, step: np.ndarray) -> Pose:
    dR = axis_angle_to_matrix(step[:3])
    return Pose(dR @ pose.R, dR @ pose.t + step[3:])


def refine_pose(initial: Pose, uv: np.ndarray, xyz: np.ndarray, w: np.ndarray,
                K: Intrinsics, max_iter: int = 100) -> RefineResult:
    """Levenberg-Marquardt minimization of the weighted reprojection cost.

    Steps that fail to decrease the cost or push a point behind the camera
    are rejected (damping increases); the accepted-cost trace is therefore
    non-increasing. Converges on step norm < 1e-10 or cost decrease < 1e-12.
    """
    def weighted_cost(p: Pose) -> float:
        du, dv = _residuals(p, uv, xyz, K).T
        cost = float((w * (du * du + dv * dv)).sum())
        return np.inf if math.isnan(cost) else cost  # NaN: a point behind the camera

    pose = initial
    cost = weighted_cost(pose)
    trace = [cost]
    lam = 1e-6
    converged = False
    iterations = 0
    if not np.isfinite(cost):
        return RefineResult(pose, False, 0, trace)
    for iterations in range(1, max_iter + 1):
        res, J = pose_residuals_jacobian(pose, uv, xyz, K, weights=w)
        g = J.T @ res
        H = J.T @ J
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + lam * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.linalg.norm(step) < 1e-10:
                converged = True
                break
            trial = _apply_increment(pose, step)
            trial_cost = weighted_cost(trial)
            if trial_cost < cost:
                decrease = cost - trial_cost
                pose, cost = trial, trial_cost
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
    uv = np.array([c.uv for c in corrs])
    xyz = np.array([c.xyz for c in corrs])
    if cfg.refinement == "weighted":
        w = np.array([c.w for c in corrs])
    else:
        w = np.ones(len(corrs))
    return refine_pose(initial, uv, xyz, w, K)


def localize(dets, ls: LandmarkSet, K: Intrinsics,
             cfg: SolverConfig = SolverConfig(), seed: int = 0) -> PoseEstimate:
    """Full per-image pipeline: weights -> PROSAC -> weighted refinement."""
    corrs = compute_weights(dets, ls, cfg.e)
    est = prosac_estimate(corrs, K, cfg, seed)
    if est.status != STATUS_OK or cfg.refinement == "none":
        return est
    inlier_corrs = [c for c in corrs if c.landmark_id in est.inliers]
    rr = refine_weighted(est.pose, inlier_corrs, K, cfg)
    uv = np.array([c.uv for c in inlier_corrs])
    xyz = np.array([c.xyz for c in inlier_corrs])
    err = reprojection_errors(rr.pose, uv, xyz, K)
    return PoseEstimate(
        rr.pose, est.inliers, est.num_iterations, float(err.mean()), STATUS_OK, rr
    )


def save_poses(estimates: dict, path, sec_per_image: float | None = None) -> None:
    """One `image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px`
    line per image, ordered by image id."""
    f = lambda x: format(float(x), ".17g")
    with open(path, "w") as fh:
        fh.write("# image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px\n")
        if sec_per_image is not None:
            fh.write(f"# sec_per_image={f(sec_per_image)}\n")
        for iid in sorted(estimates):
            est = estimates[iid]
            if est.pose is None:
                qt = ["nan"] * 7
            else:
                q = est.pose.qvec
                t = est.pose.t
                qt = [f(q[0]), f(q[1]), f(q[2]), f(q[3]), f(t[0]), f(t[1]), f(t[2])]
            fh.write(
                f"{iid} {' '.join(qt)} {est.status} {len(est.inliers)} "
                f"{f(est.mean_reproj_px)}\n"
            )


def load_poses(path):
    """Inverse of save_poses. Returns (estimates dict, metadata dict).

    Inlier identities are not serialized, so loaded estimates carry an empty
    inlier set; per-image counts live in metadata["num_inliers"].
    """
    path = Path(path)
    estimates = {}
    meta = {"num_inliers": {}}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "sec_per_image=" in line:
                    meta["sec_per_image"] = float(line.split("sec_per_image=")[1])
                continue
            tokens = line.split()
            if len(tokens) != 11:
                raise MalformedFileError(path, line_no, "expected 11 fields")
            iid = int(tokens[0])
            status = tokens[8]
            if status not in STATUSES:
                raise MalformedFileError(path, line_no, f"unknown status {status!r}")
            vals = [float(tok) for tok in tokens[1:8]]
            if status == STATUS_OK and not any(math.isnan(v) for v in vals):
                pose = Pose(qvec2rotmat(vals[:4]), vals[4:7])
            else:
                pose = None
                status = status if status != STATUS_OK else STATUS_NO_CONSENSUS
            meta["num_inliers"][iid] = int(tokens[9])
            estimates[iid] = PoseEstimate(
                pose, frozenset(), 0, float(tokens[10]), status
            )
    return estimates, meta
