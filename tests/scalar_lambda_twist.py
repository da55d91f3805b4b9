"""Lambda Twist P3P and PROSAC one sample at a time, kept as the bit-exact
reference of pose._p3p_block and pose.prosac_estimate.

This is the scalar code the block kernel replaced, in Python floats: one
cubic root, the eigen-decomposition of a singular 3x3 matrix, two
quadratics and a Gauss-Newton polish per sample, then a PROSAC loop that
scores each sample's hypotheses as soon as it draws them. The block kernel
must give the same degeneracy verdicts, the same poses in the same order and
the same PROSAC results, compared with ==.
"""

import math

import numpy as np

from landmarkloc.errors import DegeneracyError
from landmarkloc.pose import (
    STATUS_DEGENERATE,
    STATUS_INSUFFICIENT,
    STATUS_NO_CONSENSUS,
    STATUS_OK,
    PoseEstimate,
    SolverConfig,
    _stacked_errors,
    refine_pose,
    reprojection_errors,
)
from landmarkloc.scene_model import Intrinsics, Pose, _cross, bearing


def stacked_errors(poses, uv, xyz, K):
    return _stacked_errors(np.array([p.R for p in poses]).reshape(-1, 3, 3),
                           np.array([p.t for p in poses]).reshape(-1, 3), uv, xyz, K)


def _cubic_root(b: float, c: float, d: float) -> float:
    """The real root of x^3 + b x^2 + c x + d that Lambda Twist's `cubick` picks
    (of three, the smallest): Newton's method from beside the stationary point
    where the cubic changes sign."""
    x = -b / 3.0
    if b * b > 3.0 * c:  # a local maximum at x - v, a local minimum at x + v
        v = math.sqrt(b * b - 3.0 * c) / 3.0
        k = ((x - v + b) * (x - v) + c) * (x - v) + d
        if k > 0.0:
            x -= v + math.sqrt(k / (3.0 * v))
        else:
            k = ((x + v + b) * (x + v) + c) * (x + v) + d
            x += v + math.sqrt(-k / (3.0 * v))
    elif abs((3.0 * x + 2.0 * b) * x + c) < 1e-4:
        x += 1.0
    for i in range(50):
        f = ((x + b) * x + c) * x + d
        if i >= 7 and abs(f) <= 2.220446049250313e-16:
            break
        x -= f / ((3.0 * x + 2.0 * b) * x + c)
    return x


def _quadratic_roots(b: float, c: float) -> tuple:
    """The real roots of x^2 + b x + c; none when they are complex."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return ()
    r = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (r, c / r) if r else (0.0, 0.0)


def _ray_distances(a, c) -> list:
    """Lambda Twist's roots l of l_i^2 + l_j^2 - 2 c_ij l_i l_j = a_ij, ij in (12,
    13, 23), unpolished and not all positive. With l^T M_ij l = a_ij, l^T A l = 0
    for A = h D1 - g D2, D1 = a23 M12 - a12 M23, D2 = a23 M13 - a13 M23; A is
    singular at a root g of the cubic det(A) with h = 1, or at h = 0 if det(D2) = 0."""
    (a12, a13, a23), (c12, c13, c23) = a, c
    s12, s13, s23 = 1.0 - c12 * c12, 1.0 - c13 * c13, 1.0 - c23 * c23
    m = c12 * c23 * c13 - 1.0
    p3 = a13 * (a23 * s13 - a13 * s23)
    p2 = 2.0 * m * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
    p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (m * a23 + a13 * s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    g, h = (_cubic_root(p2 / p3, p1 / p3, p0 / p3), 1.0) if p3 else (1.0, 0.0)
    A00, A01, A02 = a23 * (h - g), -h * a23 * c12, g * a23 * c13
    A11, A12 = h * (a23 - a12) + g * a13, c23 * (h * a12 - g * a13)
    A22 = g * (a13 - a23) - h * a12
    # A = e1 u u^T / |u|^2 + e2 v v^T / |v|^2, |e1| >= |e2|, u and v cross products of
    # two rows of A - e I; so l lies on a plane u.l = +-s v.l, s = sqrt(-e2/e1) |u|/|v|.
    tr = A00 + A11 + A22
    minors = A00 * A11 - A01 * A01 + A00 * A22 - A02 * A02 + A11 * A22 - A12 * A12
    e1, e2 = sorted(_quadratic_roots(-tr, minors) or (0.5 * tr,) * 2, key=abs, reverse=True)
    (u1, u2, u3), (v1, v2, v3) = (_cross((A00 - e, A01, A02), (A01, A11 - e, A12)) for e in (e1, e2))
    s = math.sqrt(max(0.0, -e2 / e1) * (u1 * u1 + u2 * u2 + u3 * u3) / (v1 * v1 + v2 * v2 + v3 * v3))
    lams = []
    for sv in (s, -s):
        # On the plane l1 = w0 l2 + w1 l3, a13 (eq 12) - a12 (eq 13) is a
        # quadratic in tau = l3 / l2, and eq 23 gives l2.
        w0, w1 = (u2 - sv * v2) / (sv * v1 - u1), (u3 - sv * v3) / (sv * v1 - u1)
        q2 = (a13 - a12) * w1 * w1 + 2.0 * a12 * c13 * w1 - a12
        q1 = 2.0 * (a12 * c13 * w0 - a13 * c12 * w1 + w0 * w1 * (a13 - a12))
        q0 = (a13 - a12) * w0 * w0 - 2.0 * a13 * c12 * w0 + a13
        for tau in _quadratic_roots(q1 / q2, q0 / q2):
            l2 = a23 / (tau * (tau - 2.0 * c23) + 1.0)
            if tau > 0.0 and l2 > 0.0:
                lams.append(((w0 + w1 * tau) * math.sqrt(l2), math.sqrt(l2), tau * math.sqrt(l2)))
    return lams


def _polish_distances(lam, rays, a, c) -> list:
    """One Gauss-Newton step (none at a singular Jacobian) on |l_i y_i - l_j y_j|^2 = a_ij:
    _ray_distances' system in a form that cancels less, which sets the accuracy."""
    p = [[l * x for x in y] for l, y in zip(lam, rays)]
    r = [(p[i][0] - p[j][0]) ** 2 + (p[i][1] - p[j][1]) ** 2 + (p[i][2] - p[j][2]) ** 2 - aij
         for (i, j), aij in zip(((0, 1), (0, 2), (1, 2)), a)]
    (l1, l2, l3), (c12, c13, c23) = lam, c
    J = ((l1 - c12 * l2, l2 - c12 * l1, 0.0),  # half the Jacobian
         (l1 - c13 * l3, 0.0, l3 - c13 * l1),
         (0.0, l2 - c23 * l3, l3 - c23 * l2))
    C = (_cross(J[1], J[2]), _cross(J[2], J[0]), _cross(J[0], J[1]))  # det(J) J^-1 by columns
    det = 2.0 * (J[0][0] * C[0][0] + J[0][1] * C[0][1] + J[0][2] * C[0][2]) or math.inf
    return [l - (C[0][k] * r[0] + C[1][k] * r[1] + C[2][k] * r[2]) / det for k, l in enumerate(lam)]


def p3p_solve_ref(corrs, K: Intrinsics) -> list:
    """All camera poses consistent with three 2D-3D correspondences, one
    sample: R = Y X^-1 maps the triad (x1 - x2, x1 - x3, their cross product)
    of the world points onto that of the points l_i y_i, and t = l1 y1 - R x1.
    Candidates must reproject all three points within 1e-6 px."""
    if len(corrs) != 3:
        raise ValueError("p3p needs exactly 3 correspondences")
    P = corrs.xyz
    rays = np.array([bearing(K, uv) for uv in corrs.uv])

    side = np.linalg.norm(P[1] - P[2]), np.linalg.norm(P[0] - P[2]), np.linalg.norm(P[0] - P[1])
    scale = max(side)
    if scale < 1e-12 or np.linalg.norm(np.cross(P[1] - P[0], P[2] - P[0])) < 1e-12 * scale ** 2:
        raise DegeneracyError("3D points are collinear or coincident")
    cos_a = float(rays[1] @ rays[2])
    cos_b = float(rays[0] @ rays[2])
    cos_g = float(rays[0] @ rays[1])
    if max(abs(cos_a), abs(cos_b), abs(cos_g)) > 1.0 - 1e-12:
        raise DegeneracyError("bearings are coincident")

    a, cosines = [float(d) ** 2 for d in side[::-1]], (cos_g, cos_b, cos_a)
    lams = []
    try:
        for lam in _ray_distances(a, cosines):
            lam = _polish_distances(lam, rays.tolist(), a, cosines)
            if min(lam) > 0 and all(max(abs(l - p) for l, p in zip(lam, prev))
                                    >= 1e-9 * max(1.0, *lam) for prev in lams):
                lams.append(lam)
    except ZeroDivisionError:  # an exactly singular step of a symmetric configuration
        pass
    cam = np.array(lams).reshape(-1, 3, 1) * rays  # (candidate, point, xyz)
    e12, e13 = (cam[:, 0] - cam[:, 1]).T, (cam[:, 0] - cam[:, 2]).T  # (xyz, candidate)
    d12, d13 = P[0] - P[1], P[0] - P[2]
    Rs = np.transpose([e12, e13, _cross(e12, e13)]) @ np.linalg.inv(
        np.transpose([d12, d13, _cross(d12, d13)]))
    poses = []
    for R, t in zip(Rs, cam[:, 0] - Rs @ P[0]):
        try:
            poses.append(Pose(R, t))
        except ValueError:
            pass
    errors = stacked_errors(poses, corrs.uv, P, K)
    return [pose for pose, err in zip(poses, errors) if err.max() < 1e-6]


def prosac_ref(corrs, K: Intrinsics, cfg: SolverConfig = SolverConfig(), seed: int = 0,
               solve=p3p_solve_ref, *, first_block=None, first=None) -> PoseEstimate:
    """PROSAC one sample at a time: draw a sample, solve it with `solve`,
    score each hypothesis, update the adaptive stopping bound, repeat. Then
    the winner's LM on its inliers in ranked order, with the weights w or
    ones per cfg.refinement, or none; the mean error is over the inliers.
    first_block, prosac_estimate's block-plan hint, is taken and ignored: one
    sample at a time has no blocks.
    first, the solved first block that prosac_estimate now takes in place of
    that hint, is taken and ignored too: the samples are drawn again from
    seed, which first's were."""
    n = len(corrs)
    if n < 4:
        return PoseEstimate(None, frozenset(), 0, float("nan"), STATUS_INSUFFICIENT)

    ranked = corrs[sorted(range(n), key=lambda k: (-corrs.w[k], corrs.landmark_ids[k]))]
    uv, xyz, weights, ids = ranked.uv, ranked.xyz, ranked.w, ranked.landmark_ids.tolist()

    rng = np.random.default_rng(seed)
    m = 3
    budget = cfg.max_iterations
    T_n = float(budget)
    for i in range(m):
        T_n *= (m - i) / (n - i)
    T_prime = 1.0
    n_cur = m

    best_score = (-1, np.inf)  # (inlier count, weighted mean error)
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
        sample = ranked[idx]
        try:
            hypotheses = solve(sample, K)
        except DegeneracyError:
            saw_degenerate = True
            continue
        for pose, err in zip(hypotheses, stacked_errors(hypotheses, uv, xyz, K)):
            mask = err <= cfg.threshold_px
            count = int(mask.sum())
            if count == 0:
                continue
            werr = float((weights[mask] * err[mask]).sum() / weights[mask].sum())
            if count > best_score[0] or (count == best_score[0] and werr < best_score[1]):
                best_score = (count, werr)
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
    inliers = frozenset(ids[i] for i in np.flatnonzero(best_mask))
    uv, xyz, pose, refit = uv[best_mask], xyz[best_mask], best_pose, None
    if cfg.refinement != "none":
        w = weights[best_mask] if cfg.refinement == "weighted" else np.ones(count)
        refit = refine_pose(pose, uv, xyz, w, K)
        pose = refit.pose
    err = reprojection_errors(pose, uv, xyz, K)
    return PoseEstimate(pose, inliers, t, float(err.mean()), STATUS_OK, refit)


def prosac_samples_ref(n: int, cfg: SolverConfig, rng):
    """PROSAC's index samples for t = 1, 2, ..., each drawn by numpy's own
    rng.choice(pop, size, replace=False): the referee of pose._prosac_samples,
    which decodes the same draws from the raw stream of rng's PCG64."""
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
            yield rng.choice(n, size=m, replace=False).tolist()
        elif t >= T_prime:
            yield rng.choice(n_cur, size=m, replace=False).tolist()
        else:
            yield rng.choice(n_cur - 1, size=m - 1, replace=False).tolist() + [n_cur - 1]
