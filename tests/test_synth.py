import tracemalloc

import numpy as np
import pytest

import landmarkloc.mesh as mesh_module
import landmarkloc.scene_model as scene_model
import landmarkloc.synth as synth
from landmarkloc.landmarks import load_landmarks
from landmarkloc.mesh import _RAY_BLOCK, load_mesh
from landmarkloc.scene_model import Intrinsics, load_scene, project_many, save_scene
from landmarkloc.synth import SynthConfig, generate_scene, write_scene
from landmarkloc.visibility import load_visibility

import synth_reference
from conftest import project, record_ray_casts, record_ray_steps, sorted_rows
from synth_reference import raycast_visibility_oracle


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
        for iid in a.model.images.ids.tolist():
            assert np.array_equal(a.model.images.pose(iid).R, b.model.images.pose(iid).R)
            assert np.array_equal(a.model.images.pose(iid).t, b.model.images.pose(iid).t)

    def test_observations_are_exact_projections(self):
        scene = generate_scene(small_cfg())
        points = scene.model.points
        for xyz, iid, uv in zip(points.xyz[points.owner], points.image_ids.tolist(), points.uv):
            K = scene.model.camera(iid)
            truth = project(K, scene.model.images.pose(iid), xyz)
            assert truth is not None
            assert np.array_equal(uv, truth)

    def test_cameras_inside_room(self):
        scene = generate_scene(small_cfg(num_cameras=25))
        room = np.array(scene.config.room_size)
        for c in scene.model.images.center:
            assert (c > 0).all() and (c < room).all()

    def test_gt_visibility_equals_oracle(self):
        scene = generate_scene(small_cfg(num_occluders=2, num_landmark_sites=40))
        for lid, xyz in enumerate(scene.gt_landmarks.xyz):
            for iid in scene.model.images.ids.tolist():
                assert scene.gt_visibility.visible(lid, iid) == raycast_visibility_oracle(
                    scene, xyz, iid
                )

    def test_occluder_blocks_line_of_sight(self):
        # Direct construction: camera, occluder, landmark on one line.
        scene = generate_scene(small_cfg(num_occluders=3, num_landmark_sites=60, seed=5))
        blocked = 0
        for lid, xyz in enumerate(scene.gt_landmarks.xyz):
            for iid in scene.model.images.ids.tolist():
                T, K = scene.model.images.pose(iid), scene.model.camera(iid)
                if project(K, T, xyz) is not None and not scene.gt_visibility.visible(
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
        T = scene.model.images.pose(0)
        target = T.inverse().apply(np.array([0.0, 0.0, 1.0]))
        # Cast toward whatever wall the camera faces; the hit point itself
        # must be visible.
        from landmarkloc.mesh import ray_cast

        origin = T.center
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
        got, img = model.images, scene.model.images
        assert set(got.ids.tolist()) == set(img.ids.tolist())
        assert np.abs(got.R - img.R).max() < 1e-12
        assert np.abs(got.t - img.t).max() < 1e-15
        assert got.names == img.names
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


def synth_run(monkeypatch, cfg, out, observations=synth._observations, writer=save_scene):
    """generate_scene and write_scene of cfg into out, with the given
    observation step and scene writer. Returns the observation step's
    arguments (mesh, K, images, sites) and its result (vis, uv)."""
    seen = []

    def recorded(*args):
        seen.append((args, observations(*args)))
        return seen[-1][1]

    monkeypatch.setattr(synth, "_observations", recorded)
    monkeypatch.setattr(synth, "save_scene", writer)
    write_scene(generate_scene(cfg), out)
    return seen[0]


def in_view(K, images, sites):
    """Each image's in-view mask of the sites, as project_many gives it."""
    return [project_many(K, images.pose(iid), sites)[1] for iid in images.ids.tolist()]


class TestPerImageReferee:
    """synth._observations and save_scene against the per-image loop and the
    per-observation writer they replaced (tests/synth_reference.py), bit for
    bit."""

    SCENES = {
        # Two occluder boxes (36 triangles).
        "occluders": small_cfg(num_occluders=2, num_landmark_sites=40, num_cameras=7, seed=9),
        # 3 sites, 9 cameras: images that see no site and images that see one.
        "sparse": small_cfg(num_landmark_sites=3, num_cameras=9, seed=5),
    }

    @pytest.mark.parametrize("sizes", ["default", "small", "large"])
    @pytest.mark.parametrize("name", ["occluders", "sparse"])
    def test_equals_per_image_loop(self, monkeypatch, tmp_path, name, sizes):
        cfg = self.SCENES[name]
        # The per-image pass first, with ray_cast's default steps.
        ref_calls = record_ray_casts(monkeypatch, synth_reference)
        _, (ref_vis, ref_uv) = synth_run(
            monkeypatch, cfg, tmp_path / "ref", synth_reference.observations_per_image,
            synth_reference.save_scene_per_observation)
        if sizes == "small":  # one image per block, one ray per ray_cast step
            monkeypatch.setattr(scene_model, "_PAIR_BLOCK", cfg.num_landmark_sites)
            monkeypatch.setattr(mesh_module, "_RAY_ROWS", min(12 * (1 + cfg.num_occluders),
                                                              _RAY_BLOCK))
        elif sizes == "large":  # every image in one block, all rays in one step
            monkeypatch.setattr(scene_model, "_PAIR_BLOCK", 10**9)
            monkeypatch.setattr(mesh_module, "_RAY_ROWS", 10**9)
        calls = record_ray_casts(monkeypatch, synth)
        steps = record_ray_steps(monkeypatch)
        (mesh, K, images, sites), (vis, uv) = synth_run(monkeypatch, cfg, tmp_path / "new")

        assert np.array_equal(vis, ref_vis) and 0 < vis.sum() < vis.size
        assert uv.shape == (vis.sum(), 2) and uv.tobytes() == ref_uv.tobytes()
        files = sorted(p.relative_to(tmp_path / "ref") for p in (tmp_path / "ref").rglob("*.*"))
        assert len(files) == 8  # 6 text files, and the copies of landmarks.txt and visibility.txt
        for f in files:
            assert (tmp_path / "new" / f).read_bytes() == (tmp_path / "ref" / f).read_bytes(), f
        # Every ray cast, its origin, direction, hit distance and triangle,
        # has the bits of the per-image pass's ray for the same pair, and only
        # pairs in view are cast.
        valid = in_view(K, images, sites)
        counts = [int(v.sum()) for v in valid]
        want = [tuple(a[v] for a in c) for c, v in zip(ref_calls, valid)]
        assert np.array_equal(sorted_rows(calls), sorted_rows(want))
        rays = [len(c[0]) for c in calls]  # one call per block
        if name == "sparse":
            assert 0 in counts and 1 in counts
            assert (1 in rays) == (sizes == "small")  # a block with one pair in view
        if sizes == "small":  # no call for an image with no pair in view
            assert rays == [n for n in counts if n] and max(steps) == 1
        elif sizes == "large":
            assert len(calls) == 1 and rays[0] == sum(counts) > max(counts) and steps == rays


class TestBounds:
    def test_rays_cast_are_the_pairs_in_view(self, monkeypatch, tmp_path):
        # 60 images of 200 sites in two image blocks, one ray_cast call
        # each; 72 triangles: 64 rays per ray_cast step.
        cfg = small_cfg(num_occluders=5, num_landmark_sites=200, num_cameras=60)
        calls = record_ray_casts(monkeypatch, synth)
        steps = record_ray_steps(monkeypatch)
        (mesh, K, images, sites), _ = synth_run(monkeypatch, cfg, tmp_path)
        rays = [len(c[0]) for c in calls]
        assert len(calls) == len(scene_model._pair_blocks(60, 200)) == 2
        assert sum(rays) == sum(int(v.sum()) for v in in_view(K, images, sites))
        assert sum(rays) < 0.4 * len(sites) * len(images)
        assert sum(steps) == sum(rays) and max(rays) > max(steps)
        assert max(steps) * min(len(mesh), _RAY_BLOCK) <= mesh_module._RAY_ROWS

    def test_peak_memory_is_bounded(self, monkeypatch):
        # 400 images of 300 sites among 4 occluders (60 triangles): about
        # 3 MB, most of it the saliencies. The per-image pass alone, which
        # holds a dense (site, image) pixel array and casts every site from
        # every camera in one ray_cast step, peaks at about 4.7 MB.
        cfg = small_cfg(num_occluders=4, num_landmark_sites=300, num_cameras=400)
        generate_scene(small_cfg())  # modules that a first call imports stay out of the peak
        args = []
        observations = synth._observations
        monkeypatch.setattr(synth, "_observations", lambda *a: args.append(a) or observations(*a))
        tracemalloc.start()
        try:
            generate_scene(cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            monkeypatch.setattr(mesh_module, "_RAY_ROWS", 10**9)
            synth_reference.observations_per_image(*args[0])
            ref_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.8e6 < ref_peak
