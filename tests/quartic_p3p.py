"""The quartic P3P solver that pose.p3p_solve replaced, kept as a test oracle.

Distance ratios along the three bearings satisfy a quartic built by
polynomial arithmetic; np.roots solves it, each positive real root is
Newton-polished on the quartic and then on the law-of-cosines system, and
the Kabsch alignment of the camera-frame points to the world points gives
one pose candidate. Candidates are kept only if they reproject all three
points to within 1e-6 px.
"""

import math

import numpy as np

from landmarkloc.errors import DegeneracyError
from landmarkloc.pose import reprojection_errors
from landmarkloc.scene_model import Intrinsics, Pose, bearing


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


def quartic_p3p_solve(corrs, K: Intrinsics) -> list:
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
