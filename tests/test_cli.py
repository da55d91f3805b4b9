import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landmarkloc
from landmarkloc.cli import _apply_config, build_parser, main
from landmarkloc.detection import load_detections
from landmarkloc.evaluation import report_from_csv
from landmarkloc.landmarks import load_landmarks
from landmarkloc.partitioning import load_partition
from landmarkloc.scene_model import SceneModel, save_scene
from landmarkloc.visibility import load_visibility, save_visibility

from conftest import make_minimal_model, points_from_pairs


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_scene")
    rc = main(
        [
            "synth", "--out", str(out), "--seed", "11", "--sites", "150",
            "--cameras", "20", "--occluders", "1", "--width", "320",
            "--height", "240", "--focal", "200", "--margin", "1.4",
            "--min-target-dist", "3.0",
        ]
    )
    assert rc == 0
    return out


class TestSynthCommand:
    def test_outputs_exist(self, scene_dir):
        for name in ("scene/cameras.txt", "scene/images.txt", "scene/points3D.txt",
                     "mesh.ply", "landmarks.txt", "visibility.txt"):
            assert (scene_dir / name).exists()

    def test_requires_seed(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("flags, field", [
        (["--margin", "nan"], "camera_margin"),
        (["--min-target-dist", "inf"], "min_target_dist"),
        (["--room", "nan", "4", "3"], "room_size"),
        (["--room", "1e200", "4", "3"], "room_size"),
        (["--sites", "-3"], "num_landmark_sites"),
        (["--occluders", "-1"], "num_occluders"),
        (["--cameras", "-1"], "num_cameras"),
        (["--focal", "inf"], "focal lengths must be finite"),
        (["--focal", "1e308"], "focal length times the room's diagonal overflows"),
    ])
    def test_bad_flag_is_data_error(self, tmp_path, capsys, flags, field):
        # Each value used to crash, warn, or write a scene without landmarks
        # or with a flag silently ignored. No numpy warning may escape
        # (pytest turns RuntimeWarning into an error).
        out = tmp_path / "s"
        rc = main(["synth", "--out", str(out), "--seed", "0", "--cameras", "5", "--sites", "30",
                   *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and field in err
        assert not out.exists()

    def test_focal_length_below_the_bound_runs(self, tmp_path):
        # 1e306 times the room's diagonal is finite, but some sites of this
        # scene lie so near a camera plane that their pixels overflow: they
        # are outside the image, without a numpy warning.
        assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "1", "--cameras", "5",
                     "--sites", "30", "--focal", "1e306"]) == 0


class TestSelectCommand:
    def test_select_writes_ordered_file(self, scene_dir, tmp_path):
        out = tmp_path / "sel.txt"
        rc = main(
            ["select", "--scene", str(scene_dir / "scene"), "--count", "15",
             "--min-track", "2", "--out", str(out)]
        )
        assert rc == 0
        ls = load_landmarks(out)
        assert len(ls) == 15
        ids = [line.split()[0] for line in out.read_text().splitlines() if line[0] != "#"]
        assert ids == [str(i) for i in range(15)]

    def test_rerun_is_byte_identical(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["select", "--scene", str(scene_dir / "scene"), "--count", "10",
                "--min-track", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reads_utf8_under_an_ascii_locale(self, scene_dir, tmp_path):
        # Text files are UTF-8 whatever the locale: an image name outside
        # ASCII loads the same under the C locale with UTF-8 mode off.
        scene = tmp_path / "scene"
        scene.mkdir()
        for name in ("cameras.txt", "images.txt", "points3D.txt"):
            data = (scene_dir / "scene" / name).read_text(encoding="utf-8")
            if name == "images.txt":
                header = data.splitlines()[2].split()
                data = data.replace(" ".join(header), " ".join(header[:9] + ["café.png"]), 1)
            (scene / name).write_text(data, encoding="utf-8")
        src = str(Path(landmarkloc.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "landmarkloc.cli", "select", "--scene", str(scene),
             "--count", "10", "--min-track", "2", "--out", str(tmp_path / "sel.txt")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["select", "--scene", str(scene_dir / "scene"), "--count", "10",
                     "--min-track", "2", "--out", str(tmp_path / "ref.txt")]) == 0
        assert (tmp_path / "sel.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_count_too_large_is_data_error(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["select", "--scene", str(scene_dir / "scene"), "--count", "10000",
             "--min-track", "2", "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2
        assert "achievable" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_radius_must_be_finite_and_positive(self, scene_dir, tmp_path, capsys, radius):
        # In-process: without the check, --radius inf halves inf forever.
        rc = main(["select", "--scene", str(scene_dir / "scene"), "--count", "10",
                   "--min-track", "2", "--radius", radius, "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "r_init must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("radius", [[], ["--radius", "1"]], ids=["default", "given"])
    def test_scene_without_points_has_no_candidates(self, tmp_path, capsys, radius):
        model = make_minimal_model()
        save_scene(SceneModel(model.intrinsics, model.images, points_from_pairs({})),
                   tmp_path / "scene")
        rc = main(["select", "--scene", str(tmp_path / "scene"), "--count", "3", *radius,
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "requested 3 landmarks but only 0 are achievable" in capsys.readouterr().err

    def test_default_radius_on_coincident_points(self, tmp_path):
        # One point: the cloud's extent is 0, and any positive radius selects
        # the same landmarks as --radius 1.
        save_scene(make_minimal_model(), tmp_path / "scene")
        runs = {}
        for name, radius in (("default", []), ("given", ["--radius", "1"])):
            out = tmp_path / f"{name}.txt"
            assert main(["select", "--scene", str(tmp_path / "scene"), "--count", "1",
                         "--min-track", "2", *radius, "--out", str(out)]) == 0
            runs[name] = [line for line in out.read_text().splitlines()
                          if not line.startswith("#")]
        assert len(runs["default"]) == 1
        assert runs["default"] == runs["given"]

    @pytest.mark.parametrize("radius", [[], ["--radius", "0.5"]], ids=["default", "given"])
    def test_overflowing_cloud_is_data_error(self, scene_dir, tmp_path, capsys, radius):
        # One coordinate of the longest-tracked point set to 1e308: squared
        # distances to it overflow. No numpy warning may escape (pytest turns
        # RuntimeWarning into an error).
        scene = tmp_path / "scene"
        scene.mkdir()
        for name in ("cameras.txt", "images.txt"):
            (scene / name).write_bytes((scene_dir / "scene" / name).read_bytes())
        lines = (scene_dir / "scene" / "points3D.txt").read_text().splitlines()
        k = max((i for i, line in enumerate(lines) if line[0] != "#"),
                key=lambda i: len(lines[i].split()))
        tokens = lines[k].split()
        lines[k] = " ".join([tokens[0], "1e308", *tokens[2:]])
        (scene / "points3D.txt").write_text("\n".join(lines) + "\n")
        rc = main(["select", "--scene", str(scene), "--count", "10", "--min-track", "2",
                   *radius, "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scene / 'points3D.txt'}: point coordinates overflow")
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("radius", [[], ["--radius", "0.5"]], ids=["default", "given"])
    def test_far_camera_is_data_error(self, scene_dir, tmp_path, capsys, radius):
        # The first image's TX set to 1e308: its centre is about 1e308 from
        # the points it sees, and the squared distances the saliencies take
        # overflow. The points alone are fine.
        scene = tmp_path / "scene"
        scene.mkdir()
        for name in ("cameras.txt", "points3D.txt"):
            (scene / name).write_bytes((scene_dir / "scene" / name).read_bytes())
        lines = (scene_dir / "scene" / "images.txt").read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line[0] != "#")
        tokens = lines[k].split()
        lines[k] = " ".join([*tokens[:5], "1e308", *tokens[6:]])
        (scene / "images.txt").write_text("\n".join(lines) + "\n")
        rc = main(["select", "--scene", str(scene), "--count", "10", "--min-track", "2",
                   *radius, "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scene / 'images.txt'}: camera centres overflow")
        assert not (tmp_path / "x.txt").exists()


class TestPartitionCommand:
    def test_file_without_landmarks_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# provenance count=0\n# id source_point_id x y z saliency\n")
        rc = main(["partition", "--landmarks", str(empty), "--groups", "3",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {empty}: no landmarks to partition\n"
        assert not (tmp_path / "x.txt").exists()

    def test_default_groups(self, scene_dir, tmp_path):
        out = tmp_path / "part.txt"
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--criterion", "default", "--groups", "4", "--out", str(out)]
        )
        assert rc == 0
        pa = load_partition(out)
        sizes = pa.group_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_random_seed_determinism(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
                "--criterion", "random", "--seed", "7", "--groups", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_without_seed_is_usage_error(self, scene_dir, tmp_path):
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--criterion", "random", "--groups", "3",
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 1

    def test_groups_zero_is_usage_error(self, scene_dir, tmp_path):
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--groups", "0", "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 1

    def test_too_many_groups_is_data_error(self, scene_dir, tmp_path):
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--groups", "100000", "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2


class TestVisibilityCommand:
    def test_missing_mesh_is_data_error(self, scene_dir, tmp_path):
        rc = main(
            ["visibility", "--scene", str(scene_dir / "scene"),
             "--mesh", str(tmp_path / "nope.ply"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--out", str(tmp_path / "v.txt")]
        )
        assert rc == 2

    def test_matches_ground_truth_table(self, scene_dir, tmp_path):
        out = tmp_path / "vis.txt"
        rc = main(
            ["visibility", "--scene", str(scene_dir / "scene"),
             "--mesh", str(scene_dir / "mesh.ply"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--out", str(out)]
        )
        assert rc == 0
        got = load_visibility(out)
        gt = load_visibility(scene_dir / "visibility.txt")
        assert got.mask.shape == gt.mask.shape
        agreement = (got.mask == gt.mask).mean()
        assert agreement >= 0.99

    def test_non_finite_landmark_is_data_error(self, scene_dir, tmp_path, capsys):
        bad = tmp_path / "sel.txt"
        lines = (scene_dir / "landmarks.txt").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lid, source, _, y, z, saliency = lines[row].split()
        lines[row] = " ".join([lid, source, "nan", y, z, saliency])
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["visibility", "--scene", str(scene_dir / "scene"),
             "--mesh", str(scene_dir / "mesh.ply"), "--landmarks", str(bad),
             "--out", str(tmp_path / "v.txt")]
        )
        assert rc == 2
        assert f"sel.txt:{row + 1}: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--decimation", "0", "decimation must be at least 1"),
        ("--decimation", "-2", "decimation must be at least 1"),
        ("--tol-depth", "nan", "tol_depth must be finite and >= 0"),
        ("--rel-frac", "-0.1", "rel_frac must be finite and >= 0"),
        ("--max-surface-dist", "inf", "max_surface_dist must be finite and >= 0"),
        ("--tol-normal", "181", "tol_normal_deg must lie in [0, 180]"),
        ("--tol-normal", "nan", "tol_normal_deg must lie in [0, 180]"),
    ])
    def test_flag_out_of_range(self, scene_dir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "v.txt"
        rc = main(
            ["visibility", "--scene", str(scene_dir / "scene"),
             "--mesh", str(scene_dir / "mesh.ply"),
             "--landmarks", str(scene_dir / "landmarks.txt"), flag, value, "--out", str(out)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def overflowing_copy(self, scene_dir, tmp_path, name, edit):
        """The scene's inputs in tmp_path, with the first data row of name (a
        row with at least 3 tokens) rewritten by edit(tokens)."""
        inputs = {"images.txt": tmp_path / "scene" / "images.txt",
                  "landmarks.txt": tmp_path / "sel.txt", "mesh.ply": tmp_path / "mesh.ply"}
        (tmp_path / "scene").mkdir()
        for src in ("scene/cameras.txt", "scene/images.txt", "scene/points3D.txt"):
            (tmp_path / src).write_bytes((scene_dir / src).read_bytes())
        for src, dst in (("landmarks.txt", "sel.txt"), ("mesh.ply", "mesh.ply")):
            (tmp_path / dst).write_bytes((scene_dir / src).read_bytes())
        path = inputs[name]
        lines = path.read_text().splitlines()
        start = lines.index("end_header") + 1 if name == "mesh.ply" else 0
        k = next(i for i in range(start, len(lines))
                 if not lines[i].startswith("#") and len(lines[i].split()) >= 3)
        lines[k] = " ".join(edit(lines[k].split()))
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("name, edit, message", [
        ("landmarks.txt", lambda tok: [*tok[:2], "1e308", *tok[3:]],
         "landmark coordinates overflow"),
        ("mesh.ply", lambda tok: ["1e308", *tok[1:]], "vertex coordinates overflow"),
        ("images.txt", lambda tok: [*tok[:5], "1e308", *tok[6:]], "camera centres overflow"),
    ])
    def test_overflowing_input_is_data_error(self, scene_dir, tmp_path, capsys,
                                             name, edit, message):
        # One coordinate set to 1e308: a landmark x, a mesh vertex x, or the
        # first image's TX (its centre is then about 1e308 away). The distances
        # the test multiplies overflow; no numpy warning may escape (pytest
        # turns RuntimeWarning into an error).
        bad = self.overflowing_copy(scene_dir, tmp_path, name, edit)
        out = tmp_path / "v.txt"
        rc = main(["visibility", "--scene", str(tmp_path / "scene"),
                   "--mesh", str(tmp_path / "mesh.ply"), "--landmarks", str(tmp_path / "sel.txt"),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: {message}")
        assert not out.exists()

    def test_landmark_far_but_within_bounds_runs(self, scene_dir, tmp_path, capsys):
        # 1e76 from the mesh: fourth powers of the distances stay finite, so
        # the landmark is only excluded (off the mesh), without a warning.
        self.overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                              lambda tok: [*tok[:2], "1e76", *tok[3:]])
        rc = main(["visibility", "--scene", str(tmp_path / "scene"),
                   "--mesh", str(tmp_path / "mesh.ply"), "--landmarks", str(tmp_path / "sel.txt"),
                   "--out", str(tmp_path / "v.txt")])
        assert rc == 0
        assert load_visibility(tmp_path / "v.txt").excluded == [0]

    def test_huge_relative_tolerance_accepts_every_depth(self, scene_dir, tmp_path):
        # rel_frac * z overflows to an infinite tolerance, without a warning:
        # every pair with a finite mesh depth passes the depth test, as with
        # a depth tolerance no depth difference reaches, and the table keeps
        # every pair the default tolerances pass.
        masks = {}
        for name, flags in (("rel", ["--rel-frac", "1e308"]), ("abs", ["--tol-depth", "1e300"]),
                            ("default", [])):
            out = tmp_path / f"{name}.txt"
            assert main(["visibility", "--scene", str(scene_dir / "scene"),
                         "--mesh", str(scene_dir / "mesh.ply"),
                         "--landmarks", str(scene_dir / "landmarks.txt"), *flags,
                         "--out", str(out)]) == 0
            masks[name] = load_visibility(out).mask
        assert np.array_equal(masks["rel"], masks["abs"])
        assert not (masks["default"] & ~masks["rel"]).any()
        assert masks["rel"].sum() > masks["default"].sum()

    def test_tolerances_recorded_in_header(self, scene_dir, tmp_path):
        out = tmp_path / "vis2.txt"
        rc = main(
            ["visibility", "--scene", str(scene_dir / "scene"),
             "--mesh", str(scene_dir / "mesh.ply"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--tol-depth", "0.07", "--out", str(out)]
        )
        assert rc == 0
        header = out.read_text().splitlines()[1]
        assert "tol_depth=0.07" in header


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, scene_dir):
    """simulate -> localize -> evaluate artifacts for the shared scene."""
    work = tmp_path_factory.mktemp("pipeline")
    dets = work / "dets.csv"
    rc = main(
        ["simulate", "--scene", str(scene_dir / "scene"),
         "--landmarks", str(scene_dir / "landmarks.txt"),
         "--visibility", str(scene_dir / "visibility.txt"),
         "--noise-sigma", "0", "--seed", "4", "--out", str(dets)]
    )
    assert rc == 0
    poses = work / "poses.txt"
    rc = main(
        ["localize", "--scene", str(scene_dir / "scene"),
         "--landmarks", str(scene_dir / "landmarks.txt"),
         "--detections", str(dets), "--min-inliers", "6",
         "--seed", "0", "--out", str(poses)]
    )
    assert rc == 0
    return work, dets, poses


class TestHugeFocalLength:
    def copy_with_focal(self, scene_dir, tmp_path, focal):
        """The scene's reconstruction in tmp_path, its camera's fx and fy set
        to focal."""
        scene = tmp_path / "scene"
        scene.mkdir()
        for name in ("images.txt", "points3D.txt"):
            (scene / name).write_bytes((scene_dir / "scene" / name).read_bytes())
        lines = (scene_dir / "scene" / "cameras.txt").read_text().splitlines()
        tokens = lines[1].split()
        assert tokens[1] == "PINHOLE"
        lines[1] = " ".join([*tokens[:4], focal, focal, *tokens[6:]])
        (scene / "cameras.txt").write_text("\n".join(lines) + "\n")
        return scene

    @pytest.mark.parametrize("stage", ["visibility", "simulate"])
    @pytest.mark.parametrize("focal", ["1e308", "1e306", "1e300"])
    def test_overflowing_focal_length_is_data_error(self, scene_dir, tmp_path, capsys,
                                                    stage, focal):
        # fx = fy = 1e308 times the scene's diameter overflows, and the
        # pinhole model with it. 1e306 and 1e300 do not, and the stage runs:
        # a pixel past the float range (a point near the camera plane) is
        # outside the image, like every other one. No numpy warning may
        # escape (pytest turns RuntimeWarning into an error).
        scene = self.copy_with_focal(scene_dir, tmp_path, focal)
        out = tmp_path / "out.txt"
        inputs = {"visibility": ["--mesh", str(scene_dir / "mesh.ply")],
                  "simulate": ["--visibility", str(scene_dir / "visibility.txt"), "--seed", "1"]}
        rc = main([stage, "--scene", str(scene), "--landmarks", str(scene_dir / "landmarks.txt"),
                   *inputs[stage], "--out", str(out)])
        err = capsys.readouterr().err
        if focal != "1e308":
            assert rc == 0 and err == ""
            return
        assert rc == 2
        assert err.startswith(f"data error: {scene / 'cameras.txt'}: camera 1: focal length "
                              "too large")
        assert not out.exists()

    def test_pixel_past_the_float_range_is_outside_the_image(self, scene_dir, tmp_path, capsys):
        # A table that calls every pair visible sends simulate pairs near a
        # camera plane too. With fx = fy = 1e306 their pixels overflow; they
        # are outside the image like any other, without a numpy warning.
        scene = self.copy_with_focal(scene_dir, tmp_path, "1e306")
        vt = load_visibility(scene_dir / "visibility.txt")
        vt.mask[:] = True
        save_visibility(vt, tmp_path / "all.txt")
        rc = main(["simulate", "--scene", str(scene), "--landmarks", str(scene_dir / "landmarks.txt"),
                   "--visibility", str(tmp_path / "all.txt"), "--seed", "1",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 0 and capsys.readouterr().err == ""


class TestPipelineCommands:
    def test_simulate_deterministic(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--scene", str(scene_dir / "scene"),
                "--landmarks", str(scene_dir / "landmarks.txt"),
                "--visibility", str(scene_dir / "visibility.txt"),
                "--noise-sigma", "1.0", "--outlier-rate", "0.2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_simulate_noise_out_of_range(self, scene_dir, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--scene", str(scene_dir / "scene"),
                   "--landmarks", str(scene_dir / "landmarks.txt"),
                   "--visibility", str(scene_dir / "visibility.txt"),
                   "--noise-sigma", sigma, "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "noise_sigma_px must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_requires_seed(self, scene_dir, tmp_path):
        args = ["simulate", "--scene", str(scene_dir / "scene"),
                "--landmarks", str(scene_dir / "landmarks.txt"),
                "--visibility", str(scene_dir / "visibility.txt"),
                "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1

    @pytest.mark.parametrize("lost", ["landmark 1", "image 19"])
    def test_simulate_visibility_gap_is_data_error(self, scene_dir, tmp_path, capsys, lost):
        # The table cut after landmark 0, or image 19 taken out of it: a file
        # that loads, since its header counts what is left.
        what, wanted = lost.split()
        vt = load_visibility(scene_dir / "visibility.txt")
        if what == "landmark":
            vt.mask = vt.mask[:int(wanted)]
        else:
            keep = [j for j, iid in enumerate(vt.image_ids) if iid != int(wanted)]
            vt.image_ids, vt.mask = [vt.image_ids[j] for j in keep], vt.mask[:, keep]
        vis = tmp_path / "vis.txt"
        save_visibility(vt, vis)
        assert load_visibility(vis)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--scene", str(scene_dir / "scene"),
                   "--landmarks", str(scene_dir / "landmarks.txt"),
                   "--visibility", str(vis), "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert f"{vis}: visibility table lacks {lost}" in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_end_to_end_full_recall(self, scene_dir, pipeline, tmp_path, capsys):
        work, dets, poses = pipeline
        report = tmp_path / "report.txt"
        csv_path = tmp_path / "report.csv"
        rc = main(
            ["evaluate", "--scene", str(scene_dir / "scene"),
             "--estimates", str(poses), "--detections", str(dets),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--out", str(report), "--csv", str(csv_path),
             "--per-image", str(tmp_path / "per_image.csv")]
        )
        assert rc == 0
        parsed = report_from_csv(csv_path.read_text())
        assert parsed.rows[0].recall == 1.0
        assert parsed.rows[0].median_pos_m < 1e-8
        per_image = (tmp_path / "per_image.csv").read_text().splitlines()
        assert per_image[0] == "image_id,rot_err_deg,pos_err_m,status"
        assert all(line.endswith(",ok") for line in per_image[1:])

    def test_weighted_vs_unweighted_rows(self, scene_dir, tmp_path):
        dets = tmp_path / "noisy.csv"
        rc = main(
            ["simulate", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--visibility", str(scene_dir / "visibility.txt"),
             "--noise-sigma", "1.5", "--outlier-rate", "0.2",
             "--seed", "21", "--out", str(dets)]
        )
        assert rc == 0
        outs = {}
        for e in ("0", "2"):
            out = tmp_path / f"poses_e{e}.txt"
            refinement = "unweighted" if e == "0" else "weighted"
            rc = main(
                ["localize", "--scene", str(scene_dir / "scene"),
                 "--landmarks", str(scene_dir / "landmarks.txt"),
                 "--detections", str(dets), "--weight-exp", e,
                 "--refinement", refinement, "--min-inliers", "6",
                 "--seed", "5", "--out", str(out)]
            )
            assert rc == 0
            outs[e] = out
        report = tmp_path / "ab.txt"
        csv_path = tmp_path / "ab.csv"
        rc = main(
            ["evaluate", "--scene", str(scene_dir / "scene"),
             "--estimates", str(outs["0"]), str(outs["2"]),
             "--labels", "e0", "e2",
             "--out", str(report), "--csv", str(csv_path)]
        )
        assert rc == 0
        parsed = report_from_csv(csv_path.read_text())
        by_label = {r.label: r for r in parsed.rows}
        assert set(by_label) == {"e0", "e2"}
        assert by_label["e2"].recall >= by_label["e0"].recall

    def test_evaluate_without_pose_lines_names_the_file(self, scene_dir, tmp_path, capsys):
        poses = tmp_path / "empty_poses.txt"
        poses.write_text("# image_id qw qx qy qz tx ty tz status num_inliers mean_reproj_px\n")
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                   "--out", str(tmp_path / "report.txt")])
        assert rc == 2
        assert f"{poses}: no pose lines" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("9999,0,10.0,10.0,0.9", "detections reference unknown image 9999"),
        ("0,100000,10.0,10.0,0.9", "detection references unknown landmark 100000"),
        ("0,-1,10.0,10.0,0.9", "detection references unknown landmark -1"),
    ], ids=["image", "landmark", "negative-landmark"])
    def test_evaluate_dangling_detection_names_the_file(self, scene_dir, pipeline, tmp_path,
                                                         capsys, row, message):
        _, dets, poses = pipeline
        bad = tmp_path / "bad.csv"
        bad.write_text(dets.read_text() + row + "\n")
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                   "--detections", str(bad), "--landmarks", str(scene_dir / "landmarks.txt"),
                   "--out", str(tmp_path / "report.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("stage", ["localize", "evaluate"])
    @pytest.mark.parametrize("u, v", [("1e308", "10"), ("10", "-1e308"), ("320", "10"),
                                      ("10", "240"), ("-0.5", "10")])
    def test_detection_outside_its_image_names_the_file(self, scene_dir, pipeline, tmp_path,
                                                         capsys, stage, u, v):
        # The scene's images are 320 x 240 pixels, so u < 320 and v < 240. A
        # pixel past the float range would overflow in bearing.
        _, dets, poses = pipeline
        header, first, *rest = dets.read_text().splitlines()
        iid, lid, *_, conf = first.split(",")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, ",".join([iid, lid, u, v, conf]), *rest]) + "\n")
        out = tmp_path / "out.txt"
        argv = [stage, "--scene", str(scene_dir / "scene"), "--detections", str(bad),
                "--landmarks", str(scene_dir / "landmarks.txt"), "--out", str(out)]
        argv += ["--seed", "0"] if stage == "localize" else ["--estimates", str(poses)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: image {iid} has a detection outside its 320x240 pixels\n")
        assert not out.exists()

    def test_refinement_none_is_the_unrefined_winner(self, scene_dir, tmp_path):
        # "none" and "unweighted" share PROSAC, so statuses and inlier counts;
        # only "unweighted" runs LM, so every ok pose line differs.
        dets = tmp_path / "noisy.csv"
        assert main(["simulate", "--scene", str(scene_dir / "scene"),
                     "--landmarks", str(scene_dir / "landmarks.txt"),
                     "--visibility", str(scene_dir / "visibility.txt"),
                     "--noise-sigma", "1", "--outlier-rate", "0.3",
                     "--seed", "3", "--out", str(dets)]) == 0
        rows = {}
        for refinement in ("none", "unweighted"):
            out = tmp_path / f"poses_{refinement}.txt"
            assert main(["localize", "--scene", str(scene_dir / "scene"),
                         "--landmarks", str(scene_dir / "landmarks.txt"),
                         "--detections", str(dets), "--refinement", refinement,
                         "--min-inliers", "6", "--seed", "0", "--out", str(out)]) == 0
            rows[refinement] = [line.split() for line in out.read_text().splitlines()
                                if not line.startswith("#")]
        none, unweighted = rows["none"], rows["unweighted"]
        assert [r[0] + r[8] + r[9] for r in none] == [r[0] + r[8] + r[9] for r in unweighted]
        ok = [(a, b) for a, b in zip(none, unweighted) if a[8] == "ok"]
        assert len(ok) >= 10
        assert all(a[1:8] != b[1:8] and a[10] != b[10] for a, b in ok)

    def test_ensemble_detection_files_merge(self, scene_dir, pipeline, tmp_path):
        work, dets, poses = pipeline
        full = load_detections(dets)
        # Split detections into two partition files by landmark parity.
        from landmarkloc.detection import DetectionSet, save_detections

        def parity(k):
            sets = {}
            for i, ds in full.items():
                keep = ds.landmark_ids % 2 == k
                sets[i] = DetectionSet(i, ds.landmark_ids[keep], ds.uv[keep], ds.confidence[keep])
            return sets

        even, odd = parity(0), parity(1)
        p_even, p_odd = tmp_path / "even.csv", tmp_path / "odd.csv"
        save_detections(even, p_even)
        save_detections(odd, p_odd)
        merged_out = tmp_path / "poses_merged.txt"
        rc = main(
            ["localize", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--detections", str(p_even), str(p_odd), "--min-inliers", "6",
             "--seed", "0", "--out", str(merged_out)]
        )
        assert rc == 0
        ref_lines = [l for l in poses.read_text().splitlines() if not l.startswith("#")]
        got_lines = [l for l in merged_out.read_text().splitlines() if not l.startswith("#")]
        assert ref_lines == got_lines


class TestConfigFile:
    def test_config_supplies_defaults(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "partition:\n  groups: 4\n  criterion: random\n  seed: 13\n"
        )
        out = tmp_path / "part.txt"
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 0
        pa = load_partition(out)
        assert pa.g == 4
        assert pa.criterion == "random"
        assert pa.seed == 13

    def test_flags_win_over_config(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("partition:\n  groups: 4\n  seed: 13\n")
        out = tmp_path / "part.txt"
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--config", str(cfg), "--groups", "2", "--criterion", "default",
             "--out", str(out)]
        )
        assert rc == 0
        assert load_partition(out).g == 2

    def test_flag_equals_form_wins_over_config(self, scene_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("partition:\n  groups: 4\n  seed: 13\n"
                       "localize:\n  refinement: none\n")
        out = tmp_path / "part.txt"
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             f"--config={cfg}", "--groups=2", "--criterion=default",
             "--out", str(out)]
        )
        assert rc == 0
        assert load_partition(out).g == 2
        args = build_parser().parse_args(_apply_config(
            ["localize", "--scene", "s", "--landmarks", "l", "--detections", "d",
             "--out", "o", "--refinement=weighted", "--config", str(cfg)]
        ))
        assert args.refinement == "weighted"

    def test_missing_config_is_data_error(self, scene_dir, tmp_path):
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--groups", "2", "--config", str(tmp_path / "nope.yaml"),
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2


class TestFlagshipShapes:
    def test_partition_1000_landmarks_into_8_groups_of_125(self, tmp_path):
        from landmarkloc.landmarks import LandmarkSet, save_landmarks
        import numpy as np

        rng = np.random.default_rng(3)
        draws = [(rng.uniform(-3, 3, size=3), float(rng.uniform(1, 9))) for _ in range(1000)]
        ls = LandmarkSet(range(1000), [p for p, _ in draws], [s for _, s in draws])
        lm_path = tmp_path / "big.txt"
        save_landmarks(ls, lm_path)
        out = tmp_path / "part.txt"
        rc = main(["partition", "--landmarks", str(lm_path),
                   "--criterion", "default", "--groups", "8", "--out", str(out)])
        assert rc == 0
        pa = load_partition(out)
        assert pa.group_sizes() == [125] * 8


class TestLocalizeErrors:
    def test_unknown_image_in_detections(self, scene_dir, pipeline, tmp_path):
        _, dets, _ = pipeline
        bad = tmp_path / "bad.csv"
        lines = dets.read_text().splitlines()
        lines.append("9999,0,10.0,10.0,0.9")
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["localize", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--detections", str(bad), "--seed", "0",
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2

    def test_non_finite_detection_is_data_error(self, scene_dir, pipeline, tmp_path,
                                                capsys):
        _, dets, _ = pipeline
        bad = tmp_path / "bad.csv"
        lines = dets.read_text().splitlines()
        iid, lid, _, v, conf = lines[3].split(",")
        lines[3] = ",".join([iid, lid, "nan", v, conf])
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["localize", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--detections", str(bad), "--seed", "0",
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2
        assert "bad.csv:4: non-finite pixel coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iters", "0", "max iterations must be at least 1"),
        ("--max-iters", "-5", "max iterations must be at least 1"),
        ("--min-inliers", "3", "min inliers must be at least 4"),
        ("--confidence", "0", "confidence must lie in (0, 1]"),
        ("--confidence", "1.5", "confidence must lie in (0, 1]"),
        ("--weight-exp", "nan", "weight exponent must be >= 0"),
        ("--weight-exp", "inf", "weight exponent must be >= 0"),
        ("--threshold", "nan", "inlier threshold must be positive"),
        ("--threshold", "inf", "inlier threshold must be positive"),
    ])
    def test_solver_flag_out_of_range(self, scene_dir, pipeline, tmp_path, capsys,
                                      flag, value, message):
        _, dets, _ = pipeline
        out = tmp_path / "x.txt"
        rc = main(
            ["localize", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--detections", str(dets), "--seed", "0", flag, value, "--out", str(out)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_localize_requires_seed(self, scene_dir, pipeline, tmp_path):
        _, dets, _ = pipeline
        rc = main(
            ["localize", "--scene", str(scene_dir / "scene"),
             "--landmarks", str(scene_dir / "landmarks.txt"),
             "--detections", str(dets), "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 1
