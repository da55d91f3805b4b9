"""Levenberg-Marquardt pose refinement as it was before each pose kept one
state, kept as the bit-exact reference of pose.refine_pose; and localize as it
was when it ran LM twice per image.

This code projects every trial pose once for its cost, then projects the
accepted one again, and computes its camera frame a second time, for the
next Jacobian. pose.refine_pose reuses the accepted trial's camera frame and
residuals instead; it must give the same pose, cost trace, iteration count
and convergence flag, compared with ==.

localize_two_pass refined PROSAC's unweighted refit a second time.
pose.localize runs one LM from the P3P winner instead; it must give the same
statuses and inlier sets, and poses within a tolerance. For refinement
"none" it is the one-sample PROSAC of scalar_lambda_twist, whose unrefined
P3P winner localize must give bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from landmarkloc.pose import (
    STATUS_OK,
    PoseEstimate,
    RefineResult,
    SolverConfig,
    _apply_increment,
    compute_weights,
    prosac_estimate,
    refine_weighted,
    reprojection_errors,
)
from landmarkloc.scene_model import Intrinsics, Pose, project_many

from scalar_lambda_twist import prosac_ref


def pose_residuals_jacobian_ref(pose: Pose, uv: np.ndarray, xyz: np.ndarray,
                                K: Intrinsics, weights: np.ndarray | None = None):
    res = (project_many(K, pose, xyz)[0] - uv).reshape(-1)
    x, y, z = (xyz @ pose.R.T + pose.t).T
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


def refine_pose_ref(initial: Pose, uv: np.ndarray, xyz: np.ndarray, w: np.ndarray,
                    K: Intrinsics, max_iter: int = 100, trial=_apply_increment) -> RefineResult:
    """trial(pose, step) builds each trial pose; a test may pass a wrapper
    that counts them."""
    def weighted_cost(p: Pose) -> float:
        du, dv = (project_many(K, p, xyz)[0] - uv).T
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
        res, J = pose_residuals_jacobian_ref(pose, uv, xyz, K, weights=w)
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
            trial_pose = trial(pose, step)
            trial_cost = weighted_cost(trial_pose)
            if trial_cost < cost:
                decrease = cost - trial_cost
                pose, cost = trial_pose, trial_cost
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


def localize_two_pass(dets, ls, K: Intrinsics, cfg: SolverConfig = SolverConfig(),
                      seed: int = 0) -> PoseEstimate:
    """Weights -> PROSAC with an unweighted LM refit of its winner -> a second
    LM from the refit pose on the inliers, in the detections' order, with the
    weights of cfg.refinement. For "none", prosac_ref's unrefined winner."""
    corrs = compute_weights(dets, ls, cfg.e)
    if cfg.refinement == "none":
        return prosac_ref(corrs, K, cfg, seed)
    est = prosac_estimate(corrs, K, replace(cfg, refinement="unweighted"), seed)
    if est.status != STATUS_OK:
        return est
    inliers = corrs[np.isin(corrs.landmark_ids, list(est.inliers))]
    rr = refine_weighted(est.pose, inliers, K, cfg)
    err = reprojection_errors(rr.pose, inliers.uv, inliers.xyz, K)
    return PoseEstimate(
        rr.pose, est.inliers, est.num_iterations, float(err.mean()), STATUS_OK, rr
    )
