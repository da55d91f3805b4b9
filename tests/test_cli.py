import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import landmarkloc
from landmarkloc import _io, cli, detection, landmarks, pose, scene_model, visibility
from landmarkloc.cli import _apply_config, build_parser, main
from landmarkloc.detection import load_detections
from landmarkloc.evaluation import report_from_csv
from landmarkloc.landmarks import LandmarkSet, load_landmarks, save_landmarks
from landmarkloc.partitioning import load_partition
from landmarkloc.scene_model import SceneModel, save_scene
from landmarkloc.visibility import VisibilityTable, load_visibility, save_visibility

from conftest import (
    disk_full_for,
    make_minimal_model,
    outcome,
    points_from_pairs,
    read_only_open,
)
from detection_reference import check_images_ref


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

    @pytest.mark.parametrize("seed, args", [
        ("-1", ["synth"]),
        ("-2", ["partition", "--criterion", "random", "--groups", "2", "--landmarks", "{sel}"]),
        ("-2", ["partition", "--criterion", "kmeans", "--groups", "2", "--landmarks", "{sel}"]),
        ("-5", ["simulate", "--scene", "{scene}", "--landmarks", "{sel}", "--visibility", "{vis}"]),
        ("-1", ["localize", "--scene", "{scene}", "--landmarks", "{sel}", "--detections", "{dets}"]),
    ], ids=["synth", "partition-random", "partition-kmeans", "simulate", "localize"])
    def test_negative_seed_is_usage_error(self, scene_dir, pipeline, tmp_path, capsys, seed, args):
        # numpy's refusal of each was a data error (exit 2) that named no flag.
        paths = {"scene": scene_dir / "scene", "sel": scene_dir / "landmarks.txt",
                 "vis": scene_dir / "visibility.txt", "dets": pipeline[1]}
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in args] + ["--seed", seed, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: --seed must be a non-negative integer, got {seed}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("name, edit, message", [
        ("points3D.txt", lambda tok: [tok[0], "1.3e154", *tok[2:]], None),
        ("points3D.txt", lambda tok: [tok[0], "1.4e154", *tok[2:]], "point coordinates overflow"),
        ("images.txt", lambda tok: [*tok[:5], "1.3e154", *tok[6:]], None),
        ("images.txt", lambda tok: [*tok[:5], "1.4e154", *tok[6:]], "camera centres overflow"),
    ], ids=["point-inside", "point-outside", "camera-inside", "camera-outside"])
    def test_squared_diameter_bound(self, scene_dir, tmp_path, capsys, name, edit, message):
        # A point x, or the first image's TX, at 1.3e154: the squared diameter
        # (about 1.7e308) is finite, and select runs without a warning. At
        # 1.4e154 it (about 2e308) overflows, and the file is refused.
        bad = overflowing_copy(scene_dir, tmp_path, name, edit)
        out = tmp_path / "x.txt"
        rc = main(["select", "--scene", str(tmp_path / "scene"), "--count", "10",
                   "--min-track", "2", "--out", str(out)])
        err = capsys.readouterr().err
        if message is None:
            assert rc == 0 and err == ""
            return
        assert rc == 2
        assert err.startswith(f"data error: {bad}: {message}")
        assert not out.exists()


class TestPartitionCommand:
    def test_file_without_landmarks_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# provenance count=0\n# id source_point_id x y z saliency\n")
        rc = main(["partition", "--landmarks", str(empty), "--groups", "3",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {empty}: no landmarks to partition\n"
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("criterion", ["kmeans", "fps"])
    @pytest.mark.parametrize("x", ["1e200", "7e76"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_coordinates_are_data_error(self, scene_dir, tmp_path, capsys,
                                                    criterion, x):
        # Both criteria are refused where 8 D**4 overflows (power 4), since
        # k-means++ sums n squared distances, which power 2 would let
        # overflow; 7e76 is just past (1.8e308 / 8) ** 0.25. At 1e200 kmeans
        # printed numpy's warnings and "data error: Probabilities contain
        # NaN", and fps never returned, so that case runs in a subprocess
        # with a time limit.
        bad = overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                               lambda tok: [*tok[:2], x, *tok[3:]])
        out = tmp_path / "part.txt"
        argv = ["partition", "--landmarks", str(bad), "--criterion", criterion, "--seed", "1",
                "--groups", "4", "--out", str(out)]
        message = (f"data error: {bad}: landmark coordinates overflow: with them, "
                   "products of four distances would not be finite\n")
        if criterion == "fps" and x == "1e200":
            src = str(Path(landmarkloc.__file__).resolve().parents[1])
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "landmarkloc.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (2, message)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("criterion", ["kmeans", "fps"])
    @pytest.mark.filterwarnings("error")
    def test_coordinates_just_within_the_bound_run(self, scene_dir, tmp_path, capsys,
                                                   criterion):
        # 8 D**4 at D = 6.8e76 is about 1.7e308: no warning, and full groups.
        bad = overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                               lambda tok: [*tok[:2], "6.8e76", *tok[3:]])
        out = tmp_path / "part.txt"
        assert main(["partition", "--landmarks", str(bad), "--criterion", criterion,
                     "--seed", "1", "--groups", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        sizes = load_partition(out).group_sizes()
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("criterion, rc", [("kmeans", 2), ("fps", 0)])
    @pytest.mark.filterwarnings("error")
    def test_coordinate_sums_that_overflow_are_data_error(self, scene_dir, tmp_path, capsys,
                                                          criterion, rc):
        # Every x at 1.5e307: the cloud is small, so the power-4 rule lets it
        # through, but k-means' centres are means of raw coordinates, and 132
        # such x sum past the largest double. Without a check numpy warned
        # "overflow encountered in reduce" and partition exited 0. fps only
        # takes distances, so it runs.
        ls = load_landmarks(scene_dir / "landmarks.txt")
        xyz = ls.xyz.copy()
        xyz[:, 0] = 1.5e307
        sel, out = tmp_path / "sel.txt", tmp_path / "part.txt"
        save_landmarks(LandmarkSet(ls.source_point_ids, xyz, ls.saliency), sel)
        assert main(["partition", "--landmarks", str(sel), "--criterion", criterion,
                     "--seed", "1", "--groups", "2", "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err == (f"data error: {sel}: landmark coordinates overflow: their sums "
                           "over all landmarks would not be finite\n")
            assert not out.exists()
        else:
            assert err == "" and load_partition(out).group_sizes() == [66, 66]

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


def overflowing_copy(scene_dir, tmp_path, name, edit):
    """The scene's inputs in tmp_path, with the first data row of name (a row
    with at least 3 tokens) rewritten by edit(tokens)."""
    inputs = {"images.txt": tmp_path / "scene" / "images.txt",
              "points3D.txt": tmp_path / "scene" / "points3D.txt",
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

    @pytest.mark.parametrize("name, edit, message", [
        ("landmarks.txt", lambda tok: [*tok[:2], "1e308", *tok[3:]],
         "landmark coordinates overflow"),
        ("mesh.ply", lambda tok: ["1e308", *tok[1:]], "vertex coordinates overflow"),
        ("images.txt", lambda tok: [*tok[:5], "1e308", *tok[6:]], "camera centres overflow"),
        # Just past 8 D**4: (1.8e308 / 8) ** 0.25 is about 6.9e76.
        pytest.param("landmarks.txt", lambda tok: [*tok[:2], "7e76", *tok[3:]],
                     "landmark coordinates overflow", id="landmarks.txt-7e76"),
        pytest.param("mesh.ply", lambda tok: ["7e76", *tok[1:]], "vertex coordinates overflow",
                     id="mesh.ply-7e76"),
        pytest.param("images.txt", lambda tok: [*tok[:5], "7e76", *tok[6:]],
                     "camera centres overflow", id="images.txt-7e76"),
    ])
    def test_overflowing_input_is_data_error(self, scene_dir, tmp_path, capsys,
                                             name, edit, message):
        # One coordinate set to 1e308: a landmark x, a mesh vertex x, or the
        # first image's TX (its centre is then about 1e308 away). The distances
        # the test multiplies overflow; no numpy warning may escape (pytest
        # turns RuntimeWarning into an error).
        bad = overflowing_copy(scene_dir, tmp_path, name, edit)
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
        overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                         lambda tok: [*tok[:2], "1e76", *tok[3:]])
        rc = main(["visibility", "--scene", str(tmp_path / "scene"),
                   "--mesh", str(tmp_path / "mesh.ply"), "--landmarks", str(tmp_path / "sel.txt"),
                   "--out", str(tmp_path / "v.txt")])
        assert rc == 0
        assert load_visibility(tmp_path / "v.txt").excluded.tolist() == [0]

    @pytest.mark.parametrize("name, edit", [
        ("landmarks.txt", lambda tok: [*tok[:2], "6.8e76", *tok[3:]]),
        ("mesh.ply", lambda tok: ["6.8e76", *tok[1:]]),
        ("images.txt", lambda tok: [*tok[:5], "6.8e76", *tok[6:]]),
    ], ids=["landmark", "vertex", "camera"])
    def test_input_just_within_the_bound_runs(self, scene_dir, tmp_path, capsys, name, edit):
        # 8 D**4 at D = 6.8e76 is about 1.7e308, still finite: the test runs
        # without a warning.
        overflowing_copy(scene_dir, tmp_path, name, edit)
        rc = main(["visibility", "--scene", str(tmp_path / "scene"),
                   "--mesh", str(tmp_path / "mesh.ply"), "--landmarks", str(tmp_path / "sel.txt"),
                   "--out", str(tmp_path / "v.txt")])
        assert rc == 0 and capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("focal", ["1e-300", "1e-320", "1e-3"])
    def test_focal_length_too_small_for_the_image(self, scene_dir, pipeline, tmp_path, capsys,
                                                  focal):
        # bearing squares (u - cx) / fx: with fx = fy = 1e-300 (and the
        # subnormal 1e-320) that overflows over a 320 x 240 image, and the
        # camera line is refused at load, without a warning. 1e-3 loads.
        _, dets, _ = pipeline
        scene = self.copy_with_focal(scene_dir, tmp_path, focal)
        if focal == "1e-3":
            assert scene_model.load_scene(scene).intrinsics[1].fx == 1e-3
            return
        out = tmp_path / "p.txt"
        rc = main(["localize", "--scene", str(scene), "--detections", str(dets),
                   "--landmarks", str(scene_dir / "landmarks.txt"), "--seed", "0",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {scene / 'cameras.txt'}:2: focal lengths too small for the image "
            "extent: a pixel's offset over them overflows when squared\n")
        assert not out.exists()

    def test_pixel_past_the_float_range_is_outside_the_image(self, scene_dir, tmp_path, capsys):
        # A table that calls every pair visible sends simulate pairs near a
        # camera plane too. With fx = fy = 1e306 their pixels overflow; they
        # are outside the image like any other, without a numpy warning.
        scene = self.copy_with_focal(scene_dir, tmp_path, "1e306")
        vt = load_visibility(scene_dir / "visibility.txt")
        vt = VisibilityTable(vt.image_ids, np.ones_like(vt.mask), vt.tolerances, vt.excluded)
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
            vt = VisibilityTable(vt.image_ids, vt.mask[:int(wanted)], vt.tolerances, vt.excluded)
        else:
            keep = vt.image_ids != int(wanted)
            vt = VisibilityTable(vt.image_ids[keep], vt.mask[:, keep], vt.tolerances, vt.excluded)
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

    def test_simulate_refuses_a_longer_table(self, scene_dir, tmp_path, capsys):
        # The table of all landmarks with a set of the first 40: its rows past
        # the set's would be dropped unread.
        ls = load_landmarks(scene_dir / "landmarks.txt")
        rows = len(load_visibility(scene_dir / "visibility.txt").mask)
        sel = tmp_path / "sel.txt"
        save_landmarks(LandmarkSet(ls.source_point_ids[:40], ls.xyz[:40], ls.saliency[:40]), sel)
        out = tmp_path / "x.csv"
        vis = scene_dir / "visibility.txt"
        rc = main(["simulate", "--scene", str(scene_dir / "scene"), "--landmarks", str(sel),
                   "--visibility", str(vis), "--seed", "1", "--out", str(out)])
        assert rc == 2 and rows > 40
        assert capsys.readouterr().err == (f"data error: {vis}: {rows} landmark rows, but {sel} "
                                           "holds 40 landmarks\n")
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

    def test_evaluate_detections_need_a_pose_line(self, scene_dir, pipeline, tmp_path, capsys):
        # poses.txt cut to its first half: the images after the cut have
        # detections, but no pose line.
        _, dets, poses = pipeline
        lines = poses.read_text().splitlines(keepends=True)
        body = [line for line in lines if not line.startswith("#")]
        half = len(body) // 2
        cut = tmp_path / "cut.txt"
        cut.write_text("".join([line for line in lines if line.startswith("#")] + body[:half]))
        out = tmp_path / "report.txt"
        argv = ["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(cut),
                "--out", str(out)]
        assert main(argv) == 0  # without detections, a run of the images it holds
        out.unlink()
        capsys.readouterr()
        rc = main(argv + ["--detections", str(dets)])
        assert rc == 2
        assert capsys.readouterr().err == (f"data error: {cut}: no pose line for image "
                                           f"{body[half].split()[0]}, which has detections in "
                                           f"{dets}\n")
        assert not out.exists()

    def test_evaluate_checks_pose_lines_before_the_report(self, scene_dir, pipeline, tmp_path,
                                                          monkeypatch, capsys):
        # The missing pose line is found before any report is built.
        _, dets, poses = pipeline
        cut = tmp_path / "cut.txt"
        cut.write_text("".join(poses.read_text().splitlines(keepends=True)[:-1]))
        missing = poses.read_text().splitlines()[-1].split()[0]

        def no_report(*args):
            raise AssertionError("build_report ran")

        monkeypatch.setattr(cli, "build_report", no_report)
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(cut),
                   "--detections", str(dets), "--out", str(tmp_path / "report.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (f"data error: {cut}: no pose line for image "
                                           f"{missing}, which has detections in {dets}\n")

    @pytest.mark.parametrize("target", ["report.txt", "report.csv", "errors.csv"])
    def test_evaluate_write_that_fails_leaves_the_old_files(self, scene_dir, pipeline, tmp_path,
                                                           monkeypatch, capsys, target):
        # Each output is written to a temp file and renamed into place: a
        # write that fails halfway leaves every old file whole, and no temp
        # file, and is a data error that names the output.
        _, _, poses = pipeline
        argv = ["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                "--out", str(tmp_path / "report.txt"), "--csv", str(tmp_path / "report.csv"),
                "--per-image", str(tmp_path / "errors.csv")]
        assert main(argv) == 0
        old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(_io, "open", disk_full_for(target), raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / target}: No space left on device\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old

    def test_evaluate_writes_through_a_link_and_a_fifo(self, scene_dir, pipeline, tmp_path):
        # A target that is no regular file (--out /dev/null, a FIFO from a
        # shell's process substitution) is written through, not replaced.
        _, _, poses = pipeline
        argv = ["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses)]
        report, csv = tmp_path / "report.txt", tmp_path / "report.csv"
        assert main(argv + ["--out", str(report), "--csv", str(csv)]) == 0
        real, link, fifo = tmp_path / "real.txt", tmp_path / "link.txt", tmp_path / "fifo"
        real.write_text("old\n")
        link.symlink_to(real)
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that the write end opens
        try:
            assert main(argv + ["--out", str(link), "--csv", str(fifo)]) == 0
            piped = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert link.is_symlink() and fifo.is_fifo()
        assert real.read_bytes() == report.read_bytes()
        assert piped == csv.read_bytes()

    @pytest.mark.parametrize("labels", [[], ["--labels", "x", "x"]], ids=["default", "explicit"])
    def test_evaluate_refuses_repeated_labels(self, scene_dir, pipeline, tmp_path, capsys,
                                              labels):
        # Two runs of one label would share a report row name and a per-image file.
        _, _, poses = pipeline
        copies = [tmp_path / run / "poses.txt" for run in ("a", "b")]
        for copy in copies:
            copy.parent.mkdir()
            copy.write_bytes(poses.read_bytes())
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"),
                   "--estimates", *map(str, copies), *labels, "--out", str(report),
                   "--csv", str(tmp_path / "report.csv"),
                   "--per-image", str(tmp_path / "err.csv")])
        assert rc == 1
        label = "x" if labels else "poses"
        assert f"two runs are labelled {label!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    @pytest.mark.parametrize("labels, outputs, message", [
        (["a/b", "c"], ["--per-image"], "run label 'a/b' cannot be a file-name suffix"),
        (["a", ""], ["--per-image"], "run label '' cannot be a file-name suffix"),
        (["a", "b\0"], ["--per-image"], "run label 'b\\x00' cannot be a file-name suffix"),
        (["x,y", "z"], ["--csv"], "label 'x,y' holds a comma or a line break"),
        (["x", "y\nz"], ["--csv"], "label 'y\\nz' holds a comma or a line break"),
        (["#x", "y"], ["--csv"], "label '#x' makes a row that reads as a comment"),
        (["label", "y"], ["--csv", "--per-image"], "label 'label' makes a row that reads as"),
    ], ids=["slash", "empty", "nul", "comma", "line-break", "comment", "header"])
    def test_evaluate_refuses_labels_before_writing(self, scene_dir, pipeline, tmp_path, capsys,
                                                    labels, outputs, message):
        # Such a label would fail mid-way, after report.txt was written, or
        # make a CSV that report_from_csv cannot read back.
        _, _, poses = pipeline
        paths = {"--csv": str(tmp_path / "report.csv"), "--per-image": str(tmp_path / "err.csv")}
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"),
                   "--estimates", str(poses), str(poses), "--labels", *labels,
                   "--out", str(tmp_path / "report.txt"),
                   *(arg for flag in outputs for arg in (flag, paths[flag]))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --labels: ") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_labels_that_suffix_and_read_back(self, scene_dir, pipeline, tmp_path):
        # A label is checked only for what the outputs asked for do with it.
        _, _, poses = pipeline
        labels = ["a b", "#x;y=z", "label-2"]
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"),
                   "--estimates", *[str(poses)] * 3, "--labels", *labels,
                   "--out", str(tmp_path / "report.txt"), "--csv", str(tmp_path / "report.csv")])
        assert rc == 1  # '#x;y=z' reads as a comment
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"),
                   "--estimates", *[str(poses)] * 3, "--labels", *labels,
                   "--out", str(tmp_path / "report.txt"),
                   "--per-image", str(tmp_path / "err.csv")])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "err_#x;y=z.csv", "err_a b.csv", "err_label-2.csv", "report.txt"]
        labels[1] = "x;y=z#"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"),
                   "--estimates", *[str(poses)] * 3, "--labels", *labels,
                   "--out", str(tmp_path / "report.txt"), "--csv", str(tmp_path / "report.csv")])
        assert rc == 0
        rows = report_from_csv((tmp_path / "report.csv").read_text()).rows
        assert [r.label for r in rows] == labels

    @pytest.mark.parametrize("flag", ["--rot-thresh", "--pos-thresh"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_evaluate_threshold_out_of_range(self, scene_dir, pipeline, tmp_path, capsys,
                                             flag, value):
        _, _, poses = pipeline
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                   flag, value, "--out", str(report)])
        assert rc == 2
        name = "rotation" if flag == "--rot-thresh" else "position"
        assert f"{name} threshold must be finite and > 0" in capsys.readouterr().err
        assert not report.exists()

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

    @pytest.mark.parametrize("row, message", [
        ("9999,0,10.0,10.0,0.9", "detections reference unknown image 9999"),
        ("0,100000,10.0,10.0,0.9", "detection references unknown landmark 100000"),
        ("0,-1,10.0,10.0,0.9", "detection references unknown landmark -1"),
    ], ids=["image", "landmark", "negative-landmark"])
    def test_localize_dangling_detection_names_the_file(self, scene_dir, pipeline, tmp_path,
                                                         monkeypatch, capsys, row, message):
        # The file is refused before any image is localized.
        _, dets, _ = pipeline
        bad = tmp_path / "bad.csv"
        bad.write_text(dets.read_text() + row + "\n")

        def localize(*args, **kwargs):
            raise AssertionError("an image was localized")

        monkeypatch.setattr(cli, "localize", localize)
        out = tmp_path / "poses.txt"
        rc = main(["localize", "--scene", str(scene_dir / "scene"), "--detections", str(bad),
                   "--landmarks", str(scene_dir / "landmarks.txt"), "--seed", "0",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
        assert not out.exists()

    def test_evaluate_unknown_image_names_the_poses_file(self, scene_dir, pipeline, tmp_path,
                                                          capsys):
        # The first pose line's image id set to 9999, which the scene lacks.
        _, _, poses = pipeline
        lines = poses.read_text().splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[k] = " ".join(["9999", *lines[k].split()[1:]]) + "\n"
        bad = tmp_path / "poses.txt"
        bad.write_text("".join(lines))
        out = tmp_path / "report.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(bad),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: estimates reference unknown images [9999]\n")
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["localize", "evaluate"])
    @pytest.mark.parametrize("target", ["directory", "read-only"])
    def test_output_that_cannot_be_written_is_data_error(self, scene_dir, pipeline, tmp_path,
                                                         monkeypatch, capsys, stage, target):
        # --out a directory, or in a directory that refuses new files: exit 2,
        # naming the path, without a traceback.
        _, dets, poses = pipeline
        out = tmp_path / "out"
        argv = [stage, "--scene", str(scene_dir / "scene"), "--out", str(out)]
        argv += (["--landmarks", str(scene_dir / "landmarks.txt"), "--detections", str(dets),
                  "--min-inliers", "6", "--seed", "0"] if stage == "localize"
                 else ["--estimates", str(poses)])
        if target == "directory":
            out.mkdir()
        else:
            monkeypatch.setattr(_io, "open", read_only_open, raising=False)
        assert main(argv) == 2
        err = capsys.readouterr().err
        if target == "directory":
            assert err == f"data error: {out}: Is a directory\n"
            assert list(out.iterdir()) == []
        else:
            # The temp file beside out is what the directory refuses; the
            # error names out, the file given.
            assert err == f"data error: {out}: Permission denied\n"
            assert list(tmp_path.iterdir()) == []

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

    def ensemble_files(self, dets, tmp_path):
        """dets split by landmark parity into two CSVs, as plain text."""
        header, *rows = dets.read_text().splitlines()
        paths = [tmp_path / "even.csv", tmp_path / "odd.csv"]
        for k, path in enumerate(paths):
            path.write_text("\n".join([header] + [r for r in rows
                                                  if int(r.split(",")[1]) % 2 == k]) + "\n")
        return paths

    def test_ensemble_is_merged_once_before_any_image(self, scene_dir, pipeline, tmp_path,
                                                      monkeypatch):
        # One merge_ensemble call for the run, ahead of the localize calls,
        # which take the images in ascending id order.
        _, dets, poses = pipeline
        calls = []

        def spy(name, original):
            def call(*args, **kwargs):
                calls.append((name, args[0].image_id if name == "localize" else None))
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, call)

        spy("merge_ensemble", cli.merge_ensemble)
        spy("localize", cli.localize)
        out = tmp_path / "poses.txt"
        assert main(["localize", "--scene", str(scene_dir / "scene"),
                     "--landmarks", str(scene_dir / "landmarks.txt"), "--detections",
                     *map(str, self.ensemble_files(dets, tmp_path)), "--min-inliers", "6",
                     "--seed", "0", "--out", str(out)]) == 0
        images = [iid for name, iid in calls[1:]]
        assert calls[0] == ("merge_ensemble", None) and len(calls) == 1 + len(images)
        assert images == sorted(load_detections(dets)) and "merge_ensemble" not in images
        assert out.read_text().splitlines()[2:] == poses.read_text().splitlines()[2:]

    def test_pair_in_two_ensemble_files_names_both(self, scene_dir, pipeline, tmp_path,
                                                   monkeypatch, capsys):
        # The odd file repeats a row of the even one: refused before any
        # image is localized, naming both files.
        _, dets, _ = pipeline
        even, odd = self.ensemble_files(dets, tmp_path)
        row = even.read_text().splitlines()[-1]
        odd.write_text(odd.read_text() + row + "\n")

        def localize(*args, **kwargs):
            raise AssertionError("an image was localized")

        monkeypatch.setattr(cli, "localize", localize)
        out = tmp_path / "poses.txt"
        rc = main(["localize", "--scene", str(scene_dir / "scene"),
                   "--landmarks", str(scene_dir / "landmarks.txt"), "--detections", str(even),
                   str(odd), "--seed", "0", "--out", str(out)])
        iid, lid = row.split(",")[:2]
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: landmark {lid} of image {iid} is in both {even} and {odd}\n")
        assert not out.exists()

    @pytest.mark.parametrize("with_landmarks", [True, False], ids=["landmarks", "no-landmarks"])
    def test_faults_in_several_images_name_the_first_in_the_file(
            self, scene_dir, pipeline, tmp_path, with_landmarks):
        # Rows shuffled, with faults planted in three rows: the checks on
        # whole columns give the message of the image-by-image referee, which
        # takes the images in the order of their first line.
        _, dets, _ = pipeline
        model = scene_model.load_scene(scene_dir / "scene")
        ls = load_landmarks(scene_dir / "landmarks.txt") if with_landmarks else None
        header, *rows = dets.read_text().splitlines()
        faults = [lambda r: ["9999", *r[1:]], lambda r: ["-3", *r[1:]],
                  lambda r: [r[0], "100000", *r[2:]], lambda r: [r[0], "-1", *r[2:]],
                  lambda r: [*r[:2], "320", *r[3:]], lambda r: [*r[:3], "-0.5", r[4]]]
        rng = np.random.default_rng(7)
        messages = set()
        for _ in range(40):
            bad = [row.split(",") for row in rows]
            for k in rng.choice(len(bad), size=3, replace=False):
                bad[k] = faults[rng.integers(len(faults))](bad[k])
            bad = [bad[k] for k in rng.permutation(len(bad))]
            path = tmp_path / "bad.csv"
            path.write_text("\n".join([header, *map(",".join, bad)]) + "\n")
            order = list(dict.fromkeys(int(r[0]) for r in bad))
            ref = outcome(lambda p: check_images_ref(p, load_detections(p), order, model, ls),
                          path)
            got = outcome(lambda p: cli._detections_in_images(p, model, ls) and None, path)
            assert got == ref
            messages.add(ref and ref[1].split(": ", 1)[1].split(" ")[0])
        assert messages >= ({"detection", "detections", "image"} if with_landmarks
                            else {"detections", "image", None})


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

    def test_default_config_matches_the_parser(self):
        # Each section of default_config.yaml is a subcommand and each key
        # one of its flags, whose parser default, where it has one, is the
        # file's value.
        config = yaml.safe_load((Path(__file__).parents[1] / "default_config.yaml").read_text())
        commands = build_parser()._subparsers._group_actions[0].choices
        checked = 0
        for command, section in config.items():
            assert command in commands
            actions = {flag: action for action in commands[command]._actions
                       for flag in action.option_strings}
            for key, value in section.items():
                flag = "--" + key.replace("_", "-")
                assert flag in actions, (command, key)
                assert actions[flag].default in (None, value), (command, key)
                checked += 1
        assert checked == 29

    def test_missing_config_is_data_error(self, scene_dir, tmp_path):
        rc = main(
            ["partition", "--landmarks", str(scene_dir / "landmarks.txt"),
             "--groups", "2", "--config", str(tmp_path / "nope.yaml"),
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_subcommand_help_is_that_of_the_full_parser(self, command, capsys):
        # main adds only the invoked subcommand's flags; its --help is the
        # text of that subparser of the parser with every flag.
        full = build_parser()._subparsers._group_actions[0].choices[command]
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == full.format_help()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_parser_lists_every_subcommand(self, command):
        assert build_parser(command).format_help() == build_parser().format_help()

    def test_subcommand_parser_reads_what_the_full_parser_reads(self):
        argv = ["localize", "--scene", "s", "--landmarks", "l", "--detections", "a", "b",
                "--threshold", "2.5", "--seed", "3", "--out", "o"]
        assert build_parser("localize").parse_args(argv) == build_parser().parse_args(argv)

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["localise", "--seed", "0"]) == 1
        assert "invalid choice: 'localise'" in capsys.readouterr().err


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


class TestLocalizeRun:
    @pytest.fixture(scope="class")
    def outlier_dets(self, tmp_path_factory, scene_dir):
        """A 30%-outlier draw on the shared scene: most images stop past 8
        PROSAC samples, and image 7 finds no consensus of 12 inliers."""
        dets = tmp_path_factory.mktemp("outliers") / "dets.csv"
        assert main(["simulate", "--scene", str(scene_dir / "scene"),
                     "--landmarks", str(scene_dir / "landmarks.txt"),
                     "--visibility", str(scene_dir / "visibility.txt"),
                     "--outlier-rate", "0.3", "--seed", "4", "--out", str(dets)]) == 0
        return dets

    def localize(self, scene_dir, out, *detections):
        return main(["localize", "--scene", str(scene_dir / "scene"),
                     "--landmarks", str(scene_dir / "landmarks.txt"),
                     "--detections", *map(str, detections), "--seed", "0", "--out", str(out)])

    def test_one_localize_call_per_image_in_id_order(self, scene_dir, outlier_dets, tmp_path,
                                                     monkeypatch):
        # perfbench's per-image clock times each cli.localize call, so the
        # stage makes exactly one per image with detections, in id order; the
        # images of two CSVs are merged first.
        lines = outlier_dets.read_text().splitlines()
        rows = [line for line in lines if line[:1].isdigit()]
        halves = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for k, path in enumerate(halves):
            head = [line for line in lines if not line[:1].isdigit()]
            path.write_text("\n".join(head + rows[k::2]) + "\n")
        seen, localize = [], cli.localize

        def clocked(ds, *args, **kwargs):
            seen.append(ds.image_id)
            return localize(ds, *args, **kwargs)

        monkeypatch.setattr(cli, "localize", clocked)
        assert self.localize(scene_dir, tmp_path / "poses.txt", *halves) == 0
        assert seen == sorted(load_detections(outlier_dets)) and len(seen) == 20

    def test_first_block_hint_moves_no_byte(self, scene_dir, outlier_dets, tmp_path,
                                            monkeypatch):
        # The hint sizes each image's first PROSAC block from the stops
        # before it; a fixed 8-sample first block gives the same file (but
        # for its timing line), with more P3P calls.
        p3p_block, calls = pose._p3p_block, []

        def counting(P, *args):
            calls.append(len(P))
            return p3p_block(P, *args)

        monkeypatch.setattr(pose, "_p3p_block", counting)
        files = []
        for hint in (cli._first_block, lambda estimates: pose._BLOCK):
            monkeypatch.setattr(cli, "_first_block", hint)
            calls.clear()
            out = tmp_path / f"poses{len(files)}.txt"
            assert self.localize(scene_dir, out, outlier_dets) == 0
            text = out.read_text()
            files.append(("".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("# sec_per_image=")), len(calls)))
        (hinted, hinted_calls), (fixed, fixed_calls) = files
        assert hinted == fixed
        assert "no_consensus" in hinted and hinted.count(" ok ") == 19
        # With 8-sample first blocks most images make two calls; with the hint
        # most make one.
        assert fixed_calls > 1.5 * 20 and hinted_calls < 0.7 * fixed_calls


class TestHugeCoordinates:
    """localize and evaluate refuse coordinates whose products overflow, and
    name their file, as select and visibility do. No numpy warning may escape
    (pytest turns RuntimeWarning into an error)."""

    def test_localize_refuses_a_far_landmark(self, scene_dir, pipeline, tmp_path, capsys):
        # One landmark x of 1e308: the products of its distances to the
        # others overflow, and so would its pixels under a pose.
        _, dets, _ = pipeline
        sel = overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                               lambda tok: [*tok[:2], "1e308", *tok[3:]])
        out = tmp_path / "p.txt"
        rc = main(["localize", "--scene", str(tmp_path / "scene"), "--landmarks", str(sel),
                   "--detections", str(dets), "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {sel}: landmark coordinates overflow")
        assert not out.exists()

    def test_evaluate_refuses_landmarks_far_from_the_cameras(self, scene_dir, pipeline,
                                                               tmp_path, capsys):
        # Every landmark x set to 1e200: the landmarks stay close together,
        # but their squared distances to the camera centres overflow.
        _, dets, poses = pipeline
        sel = tmp_path / "sel.txt"
        sel.write_text("".join(
            line if line.startswith("#") else " ".join([*line.split()[:2], "1e200",
                                                        *line.split()[3:]]) + "\n"
            for line in (scene_dir / "landmarks.txt").read_text().splitlines(keepends=True)))
        out = tmp_path / "r.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                   "--detections", str(dets), "--landmarks", str(sel), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {sel}: landmark coordinates overflow")
        assert not out.exists()

    def test_evaluate_refuses_a_far_camera(self, scene_dir, pipeline, tmp_path, capsys):
        # The first image's TX set to 1e308: its centre is about 1e308 from
        # the others.
        _, _, poses = pipeline
        images = overflowing_copy(scene_dir, tmp_path, "images.txt",
                                  lambda tok: [*tok[:5], "1e308", *tok[6:]])
        out = tmp_path / "r.txt"
        rc = main(["evaluate", "--scene", str(tmp_path / "scene"), "--estimates", str(poses),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {images}: camera centres overflow")
        assert not out.exists()


    def test_evaluate_refuses_a_far_estimated_camera(self, scene_dir, pipeline, tmp_path,
                                                     capsys):
        # The first ok pose line's tx set to 1e308: that estimated centre is
        # about 1e308 from the true ones.
        _, _, poses = pipeline
        lines = poses.read_text().splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if line.split()[8:9] == ["ok"])
        tokens = lines[k].split()
        lines[k] = " ".join([*tokens[:5], "1e308", *tokens[6:]]) + "\n"
        far = tmp_path / "poses.txt"
        far.write_text("".join(lines))
        out = tmp_path / "r.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(far),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {far}: camera centres overflow")
        assert not out.exists()

    @pytest.mark.parametrize("x, refused", [("6.8e76", False), ("7e76", True)])
    def test_localize_quartic_bound(self, scene_dir, pipeline, tmp_path, capsys, x, refused):
        # One landmark x at 6.8e76: 8 D**4 (about 1.7e308) is finite, and
        # localize runs without a warning. At 7e76 it overflows.
        _, dets, _ = pipeline
        sel = overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                               lambda tok: [*tok[:2], x, *tok[3:]])
        out = tmp_path / "p.txt"
        rc = main(["localize", "--scene", str(tmp_path / "scene"), "--landmarks", str(sel),
                   "--detections", str(dets), "--min-inliers", "6", "--seed", "0",
                   "--out", str(out)])
        err = capsys.readouterr().err
        if not refused:
            assert rc == 0 and err == ""
            return
        assert rc == 2
        assert err.startswith(f"data error: {sel}: landmark coordinates overflow")
        assert not out.exists()

    @pytest.mark.parametrize("name, x, refused", [
        ("landmarks", "1.3e154", False), ("landmarks", "1.4e154", True),
        ("poses", "1.3e154", False), ("poses", "1.4e154", True),
    ])
    def test_evaluate_squared_diameter_bound(self, scene_dir, pipeline, tmp_path, capsys,
                                             name, x, refused):
        # One landmark x, or the first ok pose line's tx, at 1.3e154: the
        # squared diameter with the camera centres (about 1.7e308) is finite,
        # and evaluate runs without a warning. At 1.4e154 it overflows.
        _, dets, poses = pipeline
        sel = scene_dir / "landmarks.txt"
        if name == "landmarks":
            sel = bad = overflowing_copy(scene_dir, tmp_path, "landmarks.txt",
                                         lambda tok: [*tok[:2], x, *tok[3:]])
        else:
            lines = poses.read_text().splitlines(keepends=True)
            k = next(i for i, line in enumerate(lines) if line.split()[8:9] == ["ok"])
            lines[k] = " ".join([*lines[k].split()[:5], x, *lines[k].split()[6:]]) + "\n"
            poses = bad = tmp_path / "poses.txt"
            poses.write_text("".join(lines))
        out = tmp_path / "r.txt"
        rc = main(["evaluate", "--scene", str(scene_dir / "scene"), "--estimates", str(poses),
                   "--detections", str(dets), "--landmarks", str(sel), "--out", str(out)])
        err = capsys.readouterr().err
        if not refused:
            assert rc == 0 and err == ""
            return
        what = "landmark coordinates" if name == "landmarks" else "camera centres"
        assert rc == 2
        assert err.startswith(f"data error: {bad}: {what} overflow")
        assert not out.exists()


class TestSidecars:
    def test_stages_read_what_the_writers_left(self, tmp_path, monkeypatch, capsys):
        # synth leaves the scene's, landmarks' and visibility's columns,
        # select the landmarks' and simulate the detections': no stage parses
        # the text of a file a writer left.
        parses = {"scene": 0, "detections": 0, "landmarks": 0, "visibility": 0}

        def counted(module, name, what):
            original = getattr(module, name)

            def call(*args):
                parses[what] += 1
                return original(*args)
            monkeypatch.setattr(module, name, call)

        counted(scene_model, "_parse_scene", "scene")
        counted(detection, "_bulk_columns", "detections")
        counted(landmarks, "_parse", "landmarks")
        counted(visibility, "_parse", "visibility")
        s, w = tmp_path / "synth", tmp_path / "work"
        w.mkdir()
        scene = str(s / "scene")
        assert main(["synth", "--out", str(s), "--seed", "3", "--sites", "120", "--cameras", "12",
                     "--width", "320", "--height", "240", "--focal", "200", "--margin", "1.4",
                     "--min-target-dist", "3.0"]) == 0
        assert main(["select", "--scene", scene, "--count", "40", "--min-track", "3",
                     "--out", str(w / "sel.txt")]) == 0
        assert parses["scene"] == 0
        assert main(["partition", "--landmarks", str(w / "sel.txt"), "--groups", "4",
                     "--out", str(w / "part.txt")]) == 0
        lms = str(s / "landmarks.txt")
        assert main(["simulate", "--scene", scene, "--landmarks", lms,
                     "--visibility", str(s / "visibility.txt"), "--seed", "2",
                     "--out", str(w / "dets.csv")]) == 0
        assert main(["localize", "--scene", scene, "--landmarks", lms,
                     "--detections", str(w / "dets.csv"), "--seed", "0",
                     "--out", str(w / "poses.txt")]) == 0
        assert main(["evaluate", "--scene", scene, "--estimates", str(w / "poses.txt"),
                     "--detections", str(w / "dets.csv"), "--landmarks", lms,
                     "--out", str(w / "report.txt")]) == 0
        assert parses == {"scene": 0, "detections": 0, "landmarks": 0, "visibility": 0}
        # The same stages without the copies parse the text, to the same report.
        report = (w / "report.txt").read_text()
        (s / "scene" / ".landmarkloc-scene").unlink()
        (w / ".dets.csv.landmarkloc").unlink()
        (s / ".landmarks.txt.landmarkloc").unlink()
        assert main(["evaluate", "--scene", scene, "--estimates", str(w / "poses.txt"),
                     "--detections", str(w / "dets.csv"), "--landmarks", lms,
                     "--out", str(w / "report.txt")]) == 0
        assert parses == {"scene": 1, "detections": 1, "landmarks": 1, "visibility": 0}
        assert (w / "report.txt").read_text() == report
