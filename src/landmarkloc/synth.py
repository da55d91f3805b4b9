"""Deterministic synthetic scenes: a room box with optional occluder boxes,
wall-mounted landmark sites, seeded camera trajectories, and ground truth
built from exact projections and exact ray-cast visibility. The generator
writes the same file formats the pipeline reads, which makes it the test
substrate for every other module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# score_saliency is not called here; perfbench's tracer wraps synth.score_saliency by name.
from .landmarks import Landmark, LandmarkSet, _saliencies, save_landmarks, score_saliency  # noqa: F401
from .mesh import TriangleMesh, box_mesh, ray_cast, save_mesh_ply
from .scene_model import (
    ImageRecord,
    Intrinsics,
    SceneModel,
    TrackPoint,
    _camera_frame,
    _pixel,
    look_at_pose,
    project_many,
    save_scene,
)
from .visibility import VisibilityTable, save_visibility

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
        room = np.asarray(self.room_size, dtype=float)
        if (room <= 0).any():
            raise ValueError("room dimensions must be positive")
        lo, hi = self.occluder_size_range
        if self.num_occluders > 0 and hi >= min(room[0], room[1]) - 2 * _OCCLUDER_CLEARANCE:
            raise ValueError("occluders do not fit inside the room")
        h0, h1 = self.camera_height_range
        if not (0 < h0 <= h1 < room[2]):
            raise ValueError("camera heights must lie inside the room")
        if 2 * self.camera_margin >= min(room[0], room[1]):
            raise ValueError("camera margin leaves no interior space")


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
    the landmark sites, filtered by exact ray-cast occlusion.
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

    images = {}
    for iid in range(cfg.num_cameras):
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
        images[iid] = ImageRecord(iid, look_at_pose(eye, target), 1, f"synth{iid:05d}.png")

    # Exact projections filtered by exact ray-cast occlusion. Observations
    # come from _camera_frame rows, so each has the bits project() gives it.
    n_sites = len(sites)
    image_ids = sorted(images)
    vis = np.zeros((n_sites, len(image_ids)), dtype=bool)
    uv = np.empty((n_sites, len(image_ids), 2))
    for j, iid in enumerate(image_ids):
        img = images[iid]
        _, valid = project_many(K, img.pose, sites)
        uv[:, j, 0], uv[:, j, 1], _ = _pixel(K, *_camera_frame(img.pose, sites).T)
        origin = img.pose.center
        dirs = sites - origin
        dists = np.linalg.norm(dirs, axis=1)
        t_hit, _ = ray_cast(mesh, np.tile(origin, (n_sites, 1)), dirs / dists[:, None])
        unoccluded = np.abs(t_hit - dists) < 1e-6
        vis[:, j] = valid & unoccluded

    observed = np.flatnonzero(vis.any(axis=1))
    columns = np.array(image_ids)
    points = {}
    for i in observed.tolist():
        points[i] = TrackPoint.from_columns(i, sites[i], columns[vis[i]], uv[i, vis[i]])
    model = SceneModel({1: K}, images, points)

    saliency = _saliencies(list(points.values()), model)
    landmarks = [Landmark(lm_id, int(i), sites[i], s)
                 for lm_id, (i, s) in enumerate(zip(observed, saliency))]
    gt_landmarks = LandmarkSet(
        landmarks, {"generator": "synth", "seed": cfg.seed, "sites": n_sites}
    )
    gt_visibility = VisibilityTable(
        [lm.id for lm in landmarks],
        image_ids,
        vis[observed],
        {"method": "raycast"},
    )
    return SynthScene(mesh, model, gt_landmarks, gt_visibility, cfg, occluders)


def raycast_visibility_oracle(scene: SynthScene, landmark, image_id: int) -> bool:
    """Exact visibility: in front, inside the extent, and the first mesh hit
    along the camera-to-landmark ray lies within 1e-6 m of the landmark."""
    xyz = landmark.xyz if hasattr(landmark, "xyz") else np.asarray(landmark, dtype=float)
    img = scene.model.images[image_id]
    K = scene.model.intrinsics[img.camera_id]
    _, valid = project_many(K, img.pose, xyz[None, :])
    if not valid[0]:
        return False
    origin = img.pose.center
    direction = xyz - origin
    dist = float(np.linalg.norm(direction))
    t_hit, _ = ray_cast(scene.mesh, origin, direction / dist)
    return abs(float(t_hit[0]) - dist) < 1e-6


def write_scene(scene: SynthScene, out_dir) -> None:
    """Write reconstruction text files, PLY mesh, landmarks, and visibility."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_scene(scene.model, out / "scene")
    save_mesh_ply(scene.mesh, out / "mesh.ply")
    save_landmarks(scene.gt_landmarks, out / "landmarks.txt")
    save_visibility(scene.gt_visibility, out / "visibility.txt")
