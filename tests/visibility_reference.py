"""The per-image visibility pass that compute_visibility replaced, kept as
its referee: one projection, one sampler and one ray_cast per image, and the
visibility writer with one flatnonzero per landmark."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from landmarkloc.mesh import ray_cast
from landmarkloc.scene_model import project_many
from landmarkloc.visibility import (
    VisibilityConfig,
    VisibilityTable,
    _decimated,
    _snap,
    landmark_reference_normals,
)


def first_hits(mesh, face_normals, K, T, decimation):
    """The sampler of one image: uv (M, 2) -> the first-hit depth (inf on a
    miss) and camera-frame unit normal (0 on a miss) through the centre of
    each point's pixel at 1/decimation resolution."""
    G = _decimated(K, decimation)

    def sample(uv):
        px, py = _snap(uv, decimation, G.width, G.height)
        rays = np.column_stack([(px - G.cx) / G.fx, (py - G.cy) / G.fy, np.ones(len(px))])
        depth, tri = ray_cast(mesh, np.broadcast_to(T.center, rays.shape), rays @ T.R)
        normal = np.zeros((len(tri), 3))
        hit = tri >= 0
        normal[hit] = face_normals[tri[hit]] @ T.R.T
        return depth, normal

    return sample


def pair_terms(K, T, sample, xyz, ref_normals, candidates=True):
    """What the occlusion test of world points (N, 3) in one image compares:
    the points in view, and for each of them its camera-frame depth, the mesh
    depth and camera-frame normal sampled at its pixel (as DepthMap.lookup or
    first_hits give them) and its reference normal in the camera frame."""
    uv, valid = project_many(K, T, xyz)
    valid &= candidates
    if not valid.any():
        return valid, None
    z = (xyz @ T.R.T + T.t)[valid, 2]
    d, n_pix = sample(uv[valid])
    return valid, (z, d, n_pix, ref_normals[valid] @ T.R.T)


def visible_in_image(K, T, sample, xyz, ref_normals, cfg, candidates=True):
    """The occlusion test of world points (N, 3) in one image."""
    valid, terms = pair_terms(K, T, sample, xyz, ref_normals, candidates)
    out = np.zeros(len(xyz), dtype=bool)
    if terms is None:
        return out
    z, d, n_pix, ref = terms
    tol = np.maximum(cfg.tol_depth, cfg.rel_frac * z)
    ok_depth = np.isfinite(d) & (np.abs(d - z) <= tol)
    cosang = np.einsum("ij,ij->i", n_pix, ref)
    out[valid] = ok_depth & (cosang >= math.cos(math.radians(cfg.tol_normal_deg)))
    return out


def compute_visibility_per_image(model, mesh, ls, cfg=VisibilityConfig()):
    """compute_visibility as one pass per image."""
    image_ids = sorted(model.images)
    mask = np.zeros((len(ls), len(image_ids)), dtype=bool)
    if len(ls) == 0:
        return VisibilityTable(image_ids, mask, asdict(cfg), [])
    ref_normals, excluded = landmark_reference_normals(mesh, ls, cfg.max_surface_dist)
    active = np.ones(len(ls), dtype=bool)
    active[excluded] = False
    face_normals = mesh.face_normals()
    for j, iid in enumerate(image_ids):
        img = model.images[iid]
        K = model.intrinsics[img.camera_id]
        sample = first_hits(mesh, face_normals, K, img.pose, cfg.decimation)
        mask[:, j] = visible_in_image(K, img.pose, sample, ls.xyz, ref_normals, cfg, active)
    return VisibilityTable(image_ids, mask, asdict(cfg), excluded)


def save_visibility_per_landmark(vt, path):
    """save_visibility with one flatnonzero per landmark line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# visibility landmarks={len(vt.mask)} images={len(vt.image_ids)}\n")
        tol = " ".join(f"{k}={v}" for k, v in sorted(vt.tolerances.items()))
        fh.write(f"# tolerances {tol}\n")
        fh.write("# image_ids " + " ".join(str(i) for i in vt.image_ids) + "\n")
        if vt.excluded:
            fh.write("# excluded " + " ".join(str(i) for i in vt.excluded) + "\n")
        for i in range(len(vt.mask)):
            vis = [str(vt.image_ids[j]) for j in np.flatnonzero(vt.mask[i])]
            fh.write(" ".join([str(i)] + vis) + "\n")
