"""The per-image observation loop that synth._observations replaced, kept as
its referee: every site projected twice and cast from every camera, one
ray_cast per image, and a dense (site, image) pixel array. Also the ray-cast
visibility oracle of one point in one image, and the scene writer with one
f-string per observation and per track entry."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from landmarkloc import _io
from landmarkloc.mesh import ray_cast
from landmarkloc.scene_model import _camera_frame, _pixel, project_many


def observations_per_image(mesh, K, images, sites):
    """synth._observations as one pass per image over all sites."""
    poses = [images.pose(iid) for iid in images.ids.tolist()]
    n_sites = len(sites)
    vis = np.zeros((n_sites, len(poses)), dtype=bool)
    uv = np.empty((n_sites, len(poses), 2))
    for j, T in enumerate(poses):
        _, valid = project_many(K, T, sites)
        uv[:, j, 0], uv[:, j, 1], _ = _pixel(K, *_camera_frame(T, sites).T)
        origin = T.center
        dirs = sites - origin
        dists = np.linalg.norm(dirs, axis=1)
        t_hit, _ = ray_cast(mesh, np.tile(origin, (n_sites, 1)), dirs / dists[:, None])
        vis[:, j] = valid & (np.abs(t_hit - dists) < 1e-6)
    return vis, uv[vis]


def raycast_visibility_oracle(scene, xyz, image_id: int) -> bool:
    """Exact visibility of the point xyz: in front, inside the extent, and the
    first mesh hit along the camera-to-point ray lies within 1e-6 m of it."""
    xyz = np.asarray(xyz, dtype=float)
    T = scene.model.images.pose(image_id)
    _, valid = project_many(scene.model.camera(image_id), T, xyz[None, :])
    if not valid[0]:
        return False
    origin = T.center
    direction = xyz - origin
    dist = float(np.linalg.norm(direction))
    t_hit, _ = ray_cast(scene.mesh, origin, direction / dist)
    return abs(float(t_hit[0]) - dist) < 1e-6


def save_scene_per_observation(model, path):
    """save_scene with one f-string generator item per observation and per
    track entry."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "cameras.txt", "w", encoding="utf-8") as fh:
        fh.write("# CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n")
        for cam_id in sorted(model.intrinsics):
            K = model.intrinsics[cam_id]
            fh.write(
                f"{cam_id} PINHOLE {K.width} {K.height} "
                f"{_io.fmt(K.fx)} {_io.fmt(K.fy)} {_io.fmt(K.cx)} {_io.fmt(K.cy)}\n"
            )

    pts = model.points
    by_id = np.argsort(pts.ids)
    rows = np.argsort(pts.ids[pts.owner], kind="stable")
    point_ids, lens = pts.ids[by_id], np.diff(pts.offsets)[by_id]
    image, uv = pts.image_ids[rows], pts.uv[rows]
    order = np.argsort(image, kind="stable")
    by_image = image[order]
    place = np.empty(len(image), dtype=np.int64)
    place[order] = np.arange(len(image)) - np.searchsorted(by_image, by_image)

    images = model.images
    image_ids = sorted(images.ids.tolist())
    lo = np.searchsorted(by_image, image_ids).tolist()
    hi = np.searchsorted(by_image, image_ids, side="right").tolist()
    u, v = uv[order].T.tolist()
    owner = np.repeat(point_ids, lens)[order].tolist()
    with open(path / "images.txt", "w", encoding="utf-8") as fh:
        fh.write("# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        fh.write("# POINTS2D[] as (X Y POINT3D_ID)\n")
        for iid, first, last in zip(image_ids, lo, hi):
            k = images.row(iid)
            T = images.pose(iid)
            q = T.qvec
            t = T.t
            fh.write(
                f"{iid} {_io.fmt(q[0])} {_io.fmt(q[1])} {_io.fmt(q[2])} {_io.fmt(q[3])} "
                f"{_io.fmt(t[0])} {_io.fmt(t[1])} {_io.fmt(t[2])} {images.camera_ids[k]} "
                f"{images.names[k]}\n"
            )
            rows = zip(u[first:last], v[first:last], owner[first:last])
            fh.write(" ".join(f"{x:.17g} {y:.17g} {pid}" for x, y, pid in rows) + "\n")

    entries = list(zip(image.tolist(), place.tolist()))
    bounds = [0, *np.cumsum(lens).tolist()]
    with open(path / "points3D.txt", "w", encoding="utf-8") as fh:
        fh.write("# POINT3D_ID X Y Z R G B ERROR TRACK[] as (IMAGE_ID POINT2D_IDX)\n")
        for pt_id, (x, y, z), (r, g, b), lo, hi in zip(
                point_ids.tolist(), pts.xyz[by_id].tolist(), pts.rgb[by_id].tolist(),
                bounds, bounds[1:]):
            track = " ".join(f"{iid} {k}" for iid, k in entries[lo:hi])
            fh.write(f"{pt_id} {x:.17g} {y:.17g} {z:.17g} {r} {g} {b} 0 {track}\n")
