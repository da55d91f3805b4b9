import numpy as np
import pytest

from landmarkloc.landmarks import load_landmarks
from landmarkloc.mesh import load_mesh
from landmarkloc.scene_model import Intrinsics, load_scene, project
from landmarkloc.synth import (
    SynthConfig,
    generate_scene,
    raycast_visibility_oracle,
    write_scene,
)
from landmarkloc.visibility import load_visibility


def small_cfg(**kw):
    base = dict(
        room_size=(6.0, 4.0, 3.0),
        num_landmark_sites=30,
        num_occluders=0,
        num_cameras=10,
        seed=123,
        intrinsics=Intrinsics(300.0, 300.0, 160.0, 120.0, 320, 240),
    )
    base.update(kw)
    return SynthConfig(**base)


def plane_hit_oracle(mesh, origin, direction):
    """Second, independently coded ray intersection (plane + barycentric)."""
    v0s, v1s, v2s = mesh.corners
    n_all = np.cross(v1s - v0s, v2s - v0s)
    denom = n_all @ direction
    ok = np.abs(denom) > 1e-14
    t = np.einsum("ij,ij->i", n_all, v0s - origin) / np.where(ok, denom, 1.0)
    x = origin + t[:, None] * direction
    area2 = np.einsum("ij,ij->i", n_all, n_all)
    w0 = np.einsum("ij,ij->i", np.cross(v1s - x, v2s - x), n_all) / area2
    w1 = np.einsum("ij,ij->i", np.cross(v2s - x, v0s - x), n_all) / area2
    w2 = np.einsum("ij,ij->i", np.cross(v0s - x, v1s - x), n_all) / area2
    hit = ok & (t > 1e-9) & (w0 >= -1e-10) & (w1 >= -1e-10) & (w2 >= -1e-10)
    return t[hit].min() if hit.any() else np.inf


class TestGenerate:
    def test_deterministic_bit_identical(self):
        a = generate_scene(small_cfg())
        b = generate_scene(small_cfg())
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
        assert np.array_equal(a.gt_visibility.mask, b.gt_visibility.mask)
        assert np.array_equal(a.gt_landmarks.xyz, b.gt_landmarks.xyz)
        for iid in a.model.images:
            assert np.array_equal(a.model.images[iid].pose.R, b.model.images[iid].pose.R)
            assert np.array_equal(a.model.images[iid].pose.t, b.model.images[iid].pose.t)

    def test_observations_are_exact_projections(self):
        scene = generate_scene(small_cfg())
        points = scene.model.points
        for xyz, iid, uv in zip(points.xyz[points.owner], points.image_ids.tolist(), points.uv):
            img = scene.model.images[iid]
            K = scene.model.intrinsics[img.camera_id]
            truth = project(K, img.pose, xyz)
            assert truth is not None
            assert np.array_equal(uv, truth)

    def test_cameras_inside_room(self):
        scene = generate_scene(small_cfg(num_cameras=25))
        room = np.array(scene.config.room_size)
        for img in scene.model.images.values():
            c = img.pose.center
            assert (c > 0).all() and (c < room).all()

    def test_gt_visibility_equals_oracle(self):
        scene = generate_scene(small_cfg(num_occluders=2, num_landmark_sites=40))
        for lid, xyz in enumerate(scene.gt_landmarks.xyz):
            for iid in scene.model.images:
                assert scene.gt_visibility.visible(lid, iid) == raycast_visibility_oracle(
                    scene, xyz, iid
                )

    def test_occluder_blocks_line_of_sight(self):
        # Direct construction: camera, occluder, landmark on one line.
        scene = generate_scene(small_cfg(num_occluders=3, num_landmark_sites=60, seed=5))
        blocked = 0
        for lid, xyz in enumerate(scene.gt_landmarks.xyz):
            for iid in scene.model.images:
                img = scene.model.images[iid]
                K = scene.model.intrinsics[img.camera_id]
                if project(K, img.pose, xyz) is not None and not scene.gt_visibility.visible(
                    lid, iid
                ):
                    blocked += 1
        assert blocked > 0  # occluders actually occlude something

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(room_size=(1.0, 1.0, 2.0), num_occluders=1,
                        occluder_size_range=(0.9, 0.95), camera_margin=0.05,
                        camera_height_range=(0.5, 1.0))
        with pytest.raises(ValueError):
            SynthConfig(camera_height_range=(2.0, 5.0))


class TestRaycastOracle:
    def test_unobstructed_wall_point(self):
        scene = generate_scene(small_cfg())
        img = scene.model.images[0]
        target = img.pose.inverse().apply(np.array([0.0, 0.0, 1.0]))
        # Cast toward whatever wall the camera faces; the hit point itself
        # must be visible.
        from landmarkloc.mesh import ray_cast

        origin = img.pose.center
        d = target - origin
        d /= np.linalg.norm(d)
        t, _ = ray_cast(scene.mesh, origin, d)
        wall_point = origin + float(t[0]) * d
        assert raycast_visibility_oracle(scene, wall_point, 0)

    def test_point_behind_wall_invisible(self):
        scene = generate_scene(small_cfg())
        outside = np.array([-1.0, 2.0, 1.5])
        assert not raycast_visibility_oracle(scene, outside, 0)

    def test_agrees_with_second_implementation(self):
        scene = generate_scene(small_cfg(num_occluders=2, num_landmark_sites=20, seed=9))
        rng = np.random.default_rng(99)
        from landmarkloc.mesh import ray_cast

        room = np.array(scene.config.room_size)
        n_checked = 0
        for _ in range(10_000):
            origin = rng.uniform(0.3, 0.7, size=3) * room
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            t, _ = ray_cast(scene.mesh, origin, direction)
            expected = plane_hit_oracle(scene.mesh, origin, direction)
            if np.isinf(expected):
                assert np.isinf(t[0])
            else:
                assert abs(t[0] - expected) < 1e-9
            n_checked += 1
        assert n_checked == 10_000


class TestWriteScene:
    def test_roundtrip_through_files(self, tmp_path):
        scene = generate_scene(small_cfg(num_occluders=1, seed=77))
        write_scene(scene, tmp_path)
        model = load_scene(tmp_path / "scene")
        assert set(model.images) == set(scene.model.images)
        for iid, img in scene.model.images.items():
            got = model.images[iid]
            assert np.abs(got.pose.R - img.pose.R).max() < 1e-12
            assert np.abs(got.pose.t - img.pose.t).max() < 1e-15
            assert got.name == img.name
        for name in ("ids", "xyz", "rgb", "offsets", "image_ids", "uv"):
            assert np.array_equal(getattr(model.points, name), getattr(scene.model.points, name))

        mesh = load_mesh(tmp_path / "mesh.ply")
        assert np.array_equal(mesh.vertices, scene.mesh.vertices)

        ls = load_landmarks(tmp_path / "landmarks.txt")
        assert len(ls) == len(scene.gt_landmarks)
        assert np.array_equal(ls.xyz, scene.gt_landmarks.xyz)

        vt = load_visibility(tmp_path / "visibility.txt")
        assert np.array_equal(vt.mask, scene.gt_visibility.mask)

    def test_write_is_deterministic(self, tmp_path):
        scene = generate_scene(small_cfg())
        write_scene(scene, tmp_path / "a")
        write_scene(scene, tmp_path / "b")
        for name in ("scene/cameras.txt", "scene/images.txt", "scene/points3D.txt",
                     "mesh.ply", "landmarks.txt", "visibility.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
