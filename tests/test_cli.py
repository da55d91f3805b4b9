import pytest

from landmarkloc.cli import _apply_config, build_parser, main
from landmarkloc.detection import load_detections
from landmarkloc.evaluation import report_from_csv
from landmarkloc.landmarks import load_landmarks
from landmarkloc.partitioning import load_partition
from landmarkloc.visibility import load_visibility


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
        assert [lm.id for lm in ls] == list(range(15))

    def test_rerun_is_byte_identical(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["select", "--scene", str(scene_dir / "scene"), "--count", "10",
                "--min-track", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_too_large_is_data_error(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["select", "--scene", str(scene_dir / "scene"), "--count", "10000",
             "--min-track", "2", "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 2
        assert "achievable" in capsys.readouterr().err


class TestPartitionCommand:
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

    def test_simulate_requires_seed(self, scene_dir, tmp_path):
        args = ["simulate", "--scene", str(scene_dir / "scene"),
                "--landmarks", str(scene_dir / "landmarks.txt"),
                "--visibility", str(scene_dir / "visibility.txt"),
                "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1

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

    def test_ensemble_detection_files_merge(self, scene_dir, pipeline, tmp_path):
        work, dets, poses = pipeline
        full = load_detections(dets)
        # Split detections into two partition files by landmark parity.
        from landmarkloc.detection import DetectionSet, save_detections

        even = {i: DetectionSet(i, [d for d in ds if d.landmark_id % 2 == 0])
                for i, ds in full.items()}
        odd = {i: DetectionSet(i, [d for d in ds if d.landmark_id % 2 == 1])
               for i, ds in full.items()}
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
        from landmarkloc.landmarks import Landmark, LandmarkSet, save_landmarks
        import numpy as np

        rng = np.random.default_rng(3)
        ls = LandmarkSet(
            [Landmark(i, i, rng.uniform(-3, 3, size=3), float(rng.uniform(1, 9)))
             for i in range(1000)]
        )
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
