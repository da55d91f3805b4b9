"""Deterministic synthetic scenes: a room box with optional occluder boxes,
wall-mounted landmark sites, seeded camera trajectories, and ground truth
built from exact projections and exact ray-cast visibility. The generator
writes the same file formats the pipeline reads, which makes it the test
substrate for every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# score_saliency is not called here; perfbench's tracer wraps synth.score_saliency by name.
from .landmarks import LandmarkSet, _saliencies, save_landmarks, score_saliency  # noqa: F401
from .mesh import TriangleMesh, box_mesh, ray_cast, save_mesh_ply
from .scene_model import (
    ImageSet,
    Intrinsics,
    PointSet,
    SceneModel,
    _pixel,
    look_at_pose,
    save_scene,
)
from .visibility import VisibilityTable, _pair_blocks, _pairs_in_view, save_visibility

_WALL_INSET = 0.25
_OCCLUDER_CLEARANCE = 0.25


def _default_intrinsics():
    return Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


@dataclass
class SynthConfig:
    room_size: tuple = (6.0, 4.0, 3.0)
    num_landmark_sites: int = 120
    num_occluders: int = 0
    occluder_size_range: tuple = (0.3, 1.2)
    num_cameras: int = 50
    camera_height_range: tuple = (1.0, 2.0)
    camera_margin: float = 0.8      # clearance from walls
    min_target_dist: float = 0.5    # cameras aim at wall points at least this far
    occluder_site_fraction: float = 0.25
    intrinsics: Intrinsics = field(default_factory=_default_intrinsics)
    seed: int = 0

    def __post_init__(self):
        room = [float(x) for x in self.room_size]
        # The scene squares distances within the room, and the pinhole model
        # multiplies camera-frame coordinates, at most the room's diagonal,
        # by the focal lengths: all of them must stay finite.
        squared_diagonal = sum(x * x for x in room)
        if not (len(room) == 3 and min(room) > 0 and math.isfinite(squared_diagonal)):
            raise ValueError("room_size must be three positive sizes whose squared diagonal "
                             "is finite")
        for name in ("num_landmark_sites", "num_occluders", "num_cameras"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        lo, hi = self.occluder_size_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError("occluder_size_range must be finite, positive and ascending")
        if self.num_occluders > 0 and hi >= min(room[0], room[1]) - 2 * _OCCLUDER_CLEARANCE:
            raise ValueError("occluders do not fit inside the room")
        h0, h1 = self.camera_height_range
        if not (0 < h0 <= h1 < room[2]):
            raise ValueError("camera heights must lie inside the room")
        if not 0 <= self.camera_margin < math.inf:
            raise ValueError("camera_margin must be finite and >= 0")
        if 2 * self.camera_margin >= min(room[0], room[1]):
            raise ValueError("camera margin leaves no interior space")
        if not 0 <= self.min_target_dist < math.inf:
            raise ValueError("min_target_dist must be finite and >= 0")
        K = self.intrinsics
        if not math.isfinite(max(K.fx, K.fy) * math.sqrt(squared_diagonal)):
            raise ValueError("intrinsics: the focal length times the room's diagonal overflows")


@dataclass
class SynthScene:
    mesh: TriangleMesh
    model: SceneModel
    gt_landmarks: LandmarkSet
    gt_visibility: VisibilityTable
    config: SynthConfig
    occluder_bounds: list = field(default_factory=list)  # [(lo, hi)] per box


def _sample_wall_point(rng, room):
    """Uniform point on one of the four walls, inset from the edges."""
    lx, ly, lz = room
    wall = int(rng.integers(0, 4))
    a = rng.uniform(_WALL_INSET, (ly if wall < 2 else lx) - _WALL_INSET)
    z = rng.uniform(_WALL_INSET, lz - _WALL_INSET)
    if wall == 0:
        return np.array([0.0, a, z])
    if wall == 1:
        return np.array([lx, a, z])
    if wall == 2:
        return np.array([a, 0.0, z])
    return np.array([a, ly, z])


def _sample_occluder_point(rng, lo, hi):
    """Uniform point on a visible face (not the bottom) of an occluder box.

    Sites keep a healthy inset from the box edges: SfM points right on
    object silhouettes triangulate poorly and would never survive selection.
    """
    face = int(rng.integers(0, 5))  # -x, +x, -y, +y, top
    u, v = rng.uniform(0.15, 0.85, size=2)
    x = lo[0] + u * (hi[0] - lo[0])
    y = lo[1] + v * (hi[1] - lo[1])
    z = lo[2] + v * (hi[2] - lo[2])
    if face == 0:
        return np.array([lo[0], y, lo[2] + u * (hi[2] - lo[2])])
    if face == 1:
        return np.array([hi[0], y, lo[2] + u * (hi[2] - lo[2])])
    if face == 2:
        return np.array([x, lo[1], z])
    if face == 3:
        return np.array([x, hi[1], z])
    return np.array([x, y, hi[2]])


def _inside_any(p, boxes, clearance=0.0):
    for lo, hi in boxes:
        if (p >= lo - clearance).all() and (p <= hi + clearance).all():
            return True
    return False


def generate_scene(cfg: SynthConfig) -> SynthScene:
    """Build mesh, SfM model, ground-truth landmarks, and exact visibility.

    All sampling comes from a single generator seeded with cfg.seed, so equal
    configs produce bit-identical scenes. Tracks contain exact projections of
    the landmark sites, filtered by exact ray-cast occlusion (_observations):
    the (site, image) pairs in view are listed a block of images at a time,
    and only they are cast, one ray each, a block's rays to one ray_cast
    call. The sites seen at least once are the SfM points and, in site order,
    the ground-truth landmarks: landmark k is the k-th seen site, its source
    point id is the site index, and row k of the visibility table is its
    visibility.
    """
    rng = np.random.default_rng(cfg.seed)
    room = np.asarray(cfg.room_size, dtype=float)
    K = cfg.intrinsics

    room_mesh = box_mesh(np.zeros(3), room, inward=True)
    verts = [room_mesh.vertices]
    tris = [room_mesh.triangles]
    occluders = []
    offset = len(room_mesh.vertices)
    lo_s, hi_s = cfg.occluder_size_range
    for _ in range(cfg.num_occluders):
        size = rng.uniform(lo_s, hi_s, size=3)
        size[2] = min(size[2] * 2.0, room[2] * 0.7)  # boxes stand on the floor
        cx = rng.uniform(_OCCLUDER_CLEARANCE + size[0] / 2, room[0] - _OCCLUDER_CLEARANCE - size[0] / 2)
        cy = rng.uniform(_OCCLUDER_CLEARANCE + size[1] / 2, room[1] - _OCCLUDER_CLEARANCE - size[1] / 2)
        lo = np.array([cx - size[0] / 2, cy - size[1] / 2, 0.0])
        hi = np.array([cx + size[0] / 2, cy + size[1] / 2, size[2]])
        box = box_mesh(lo, hi)
        verts.append(box.vertices)
        tris.append(box.triangles + offset)
        offset += len(box.vertices)
        occluders.append((lo, hi))
    mesh = TriangleMesh(np.vstack(verts), np.vstack(tris))

    sites = np.empty((cfg.num_landmark_sites, 3))
    for i in range(cfg.num_landmark_sites):
        if occluders and rng.random() < cfg.occluder_site_fraction:
            lo, hi = occluders[int(rng.integers(0, len(occluders)))]
            sites[i] = _sample_occluder_point(rng, lo, hi)
        else:
            sites[i] = _sample_wall_point(rng, room)

    poses = []
    for _ in range(cfg.num_cameras):
        for _ in range(1000):
            eye = np.array(
                [
                    rng.uniform(cfg.camera_margin, room[0] - cfg.camera_margin),
                    rng.uniform(cfg.camera_margin, room[1] - cfg.camera_margin),
                    rng.uniform(*cfg.camera_height_range),
                ]
            )
            if not _inside_any(eye, occluders, _OCCLUDER_CLEARANCE):
                break
        else:
            raise ValueError("could not place a camera outside the occluders")
        target = None
        for _ in range(1000):
            cand = _sample_wall_point(rng, room)
            if np.linalg.norm(cand - eye) >= cfg.min_target_dist:
                target = cand
                break
        if target is None:
            raise ValueError("min_target_dist leaves no reachable wall points")
        poses.append(look_at_pose(eye, target))

    images = ImageSet(range(len(poses)), [1] * len(poses), [T.R for T in poses],
                      [T.t for T in poses], [f"synth{iid:05d}.png" for iid in range(len(poses))])
    vis, uv = _observations(mesh, K, images, sites)
    observed = np.flatnonzero(vis.any(axis=1))
    owner, column = np.nonzero(vis[observed])
    track_len = np.bincount(owner, minlength=len(observed))
    track_image = images.ids[column]
    points = PointSet(observed, sites[observed], np.full((len(observed), 3), 128), track_len,
                      track_image, uv)
    model = SceneModel({1: K}, images, points)

    gt_landmarks = LandmarkSet(
        observed, sites[observed], _saliencies(points.xyz, track_image, track_len, model),
        {"generator": "synth", "seed": cfg.seed, "sites": len(sites)})
    gt_visibility = VisibilityTable(images.ids.tolist(), vis[observed], {"method": "raycast"})
    return SynthScene(mesh, model, gt_landmarks, gt_visibility, cfg, occluders)


def _observations(mesh: TriangleMesh, K: Intrinsics, images: ImageSet, sites: np.ndarray):
    """Exact visibility of sites (N, 3) in images, and the pixels of the
    visible pairs: vis (N, len(images)) bool, where a pair is visible
    when the site is in view and the first mesh hit along the ray from the
    camera centre lies within 1e-6 m of it, and uv (V, 2), the pixels of the
    V visible pairs in (site, image) order.

    Images are taken in blocks of at most visibility._PAIR_BLOCK (site, image)
    pairs. Per block, one stacked product lists the pairs in view, with the
    bits of each image's project_many. Only those pairs are cast, one ray
    each, the block's rays to one ray_cast call (none for a block without a
    pair in view), which bounds its own steps; every hit distance has the
    bits of a per-image pass that casts all sites of an image at once. The
    pixels are computed for the visible pairs only, _PAIR_BLOCK at a time,
    from stacked R @ site rows, with the bits of _pixel on _camera_frame rows.
    """
    R, t = images.R, images.t
    RT = R.transpose(0, 2, 1)  # has the layout of Pose.R.T
    vis = np.zeros((len(sites), len(images)), dtype=bool)
    for blk in _pair_blocks(len(images), len(sites)):
        img, site, _, _ = _pairs_in_view(K, sites, RT[blk], t[blk], True)
        if not len(img):
            continue
        img += blk.start
        origin = images.center[img]
        dirs = sites[site] - origin
        dist = np.linalg.norm(dirs, axis=1)
        t_hit, _ = ray_cast(mesh, origin, dirs / dist[:, None])
        vis[site, img] = np.abs(t_hit - dist) < 1e-6
    site, img = np.nonzero(vis)
    uv = np.empty((len(site), 2))
    for rows in _pair_blocks(len(site), 1):
        k, i = img[rows], site[rows]
        uv[rows, 0], uv[rows, 1], _ = _pixel(
            K, *(np.matmul(R[k], sites[i][:, :, None])[:, :, 0] + t[k]).T)
    return vis, uv


def write_scene(scene: SynthScene, out_dir) -> None:
    """Write reconstruction text files, PLY mesh, landmarks, and visibility."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_scene(scene.model, out / "scene")
    save_mesh_ply(scene.mesh, out / "mesh.ply")
    save_landmarks(scene.gt_landmarks, out / "landmarks.txt")
    save_visibility(scene.gt_visibility, out / "visibility.txt")
