import csv
import math

import numpy as np
import pytest

from landmarkloc import _io
from landmarkloc.detection import (
    CSV_HEADER,
    Detection,
    DetectionSet,
    Heatmap,
    _bulk_columns,
    _by_image,
    _row_columns,
    extract_detection,
    grid_shape,
    load_detections,
    merge_ensemble,
    render_gt_heatmap,
    save_detections,
    simulate_detections,
    simulate_detections_labeled,
)
from landmarkloc.errors import DuplicateLandmarkError, MalformedFileError
from landmarkloc.landmarks import Landmark, LandmarkSet
from landmarkloc.pose import localize
from landmarkloc.scene_model import ImageRecord, Intrinsics, Pose, SceneModel, project
from landmarkloc.visibility import VisibilityTable

from conftest import points_from_pairs

EXTENT = (640, 480)  # grid 80 x 60


class TestRender:
    def test_on_node_peak_is_one(self):
        hm = render_gt_heatmap(np.array([80.0, 160.0]), EXTENT, sigma=1.5)
        assert hm.grid[20, 10] == 1.0

    def test_invisible_landmark_all_zero(self):
        hm = render_gt_heatmap(None, EXTENT)
        assert not hm.grid.any()
        assert hm.grid.shape == grid_shape(EXTENT)

    def test_one_pixel_from_center(self):
        hm = render_gt_heatmap(np.array([80.0, 160.0]), EXTENT, sigma=1.0)
        assert abs(hm.grid[20, 11] - math.exp(-0.5)) < 1e-12

    def test_grid_shape_ceil(self):
        assert grid_shape((644, 480)) == (60, 81)


class TestExtract:
    def test_all_zero_empty(self):
        assert extract_detection(Heatmap(0, np.zeros((60, 80)))) is None

    def test_pruned_at_quarter(self):
        grid = np.zeros((60, 80))
        grid[30, 40] = 0.25
        assert extract_detection(Heatmap(0, grid)) is None

    def test_pruning_boundary_exact(self):
        grid = np.zeros((60, 80))
        grid[30, 40] = 0.3
        assert extract_detection(Heatmap(0, grid)) is None
        grid[30, 40] = 0.3 + 1e-9
        det = extract_detection(Heatmap(0, grid))
        assert det is not None
        assert np.allclose(det.uv, [40 * 8, 30 * 8])

    def test_render_extract_roundtrip(self):
        center = np.array([10.3, 20.7]) * 8
        hm = render_gt_heatmap(center, EXTENT, sigma=1.5, landmark_id=3)
        det = extract_detection(hm)
        err = np.abs(det.uv / 8 - center / 8)
        assert err.max() < 0.25
        assert det.landmark_id == 3

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(50)
        for sigma in (1.0, 1.5, 2.5):
            for _ in range(100):
                c = rng.uniform(8, 52, size=2) * 8  # >= 8 grid cells from borders
                det = extract_detection(render_gt_heatmap(c, EXTENT, sigma=sigma))
                assert np.abs(det.uv / 8 - c / 8).max() < 0.25

    def test_argmax_tie_breaks_row_major(self):
        grid = np.zeros((60, 80))
        grid[10, 50] = 0.9
        grid[40, 5] = 0.9
        det = extract_detection(Heatmap(0, grid))
        assert np.allclose(det.uv, [50 * 8, 10 * 8])

    def test_translation_equivariance(self):
        base = render_gt_heatmap(np.array([160.0, 200.0]), EXTENT, sigma=1.5)
        shifted = Heatmap(0, np.roll(base.grid, (3, 5), axis=(0, 1)))
        a = extract_detection(base)
        b = extract_detection(shifted)
        assert np.allclose(b.uv - a.uv, [5 * 8, 3 * 8], atol=1e-9)


def tiny_scene(n_landmarks=20, n_images=4, width=640, height=480):
    K = Intrinsics(500.0, 500.0, width / 2, height / 2, width, height)
    rng = np.random.default_rng(51)
    images = {
        iid: ImageRecord(iid, Pose(np.eye(3), np.zeros(3)), 1, f"i{iid}.png")
        for iid in range(n_images)
    }
    model = SceneModel({1: K}, images, points_from_pairs({}))
    pts = []
    for i in range(n_landmarks):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(-0.35, 0.35)
        pts.append(Landmark(i, i, np.array([x, y, 2.0]), 1.0))
    ls = LandmarkSet(pts)
    mask = np.ones((n_landmarks, n_images), dtype=bool)
    vt = VisibilityTable(list(range(n_landmarks)), list(range(n_images)), mask)
    return model, ls, vt


class TestSimulate:
    def test_noiseless_hits_truth(self):
        model, ls, vt = tiny_scene()
        dets = simulate_detections(model, ls, vt, noise_sigma_px=0.0, seed=1)
        for iid, ds in dets.items():
            img = model.images[iid]
            K = model.intrinsics[img.camera_id]
            for det in ds:
                truth = project(K, img.pose, ls[det.landmark_id].xyz)
                assert np.abs(det.uv - truth).max() < 1e-12
                assert det.confidence == 1.0

    def test_determinism(self):
        model, ls, vt = tiny_scene()
        a = simulate_detections(model, ls, vt, 1.0, 0.3, seed=9)
        b = simulate_detections(model, ls, vt, 1.0, 0.3, seed=9)
        for iid in a:
            assert len(a[iid]) == len(b[iid])
            for da, db in zip(a[iid], b[iid]):
                assert da.landmark_id == db.landmark_id
                assert np.array_equal(da.uv, db.uv)
                assert da.confidence == db.confidence

    def test_outlier_rate_monte_carlo(self):
        model, ls, vt = tiny_scene(n_landmarks=100, n_images=100)
        rate = 0.3
        dets, outliers = simulate_detections_labeled(
            model, ls, vt, noise_sigma_px=1.0, outlier_rate=rate, seed=7
        )
        n_total = sum(len(ds) for ds in dets.values())
        n_out = sum(len(s) for s in outliers.values())
        sigma = math.sqrt(n_total * rate * (1 - rate))
        assert abs(n_out - n_total * rate) < 3 * sigma

    def test_all_outliers_far_from_truth(self):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=20)
        dets, outliers = simulate_detections_labeled(
            model, ls, vt, noise_sigma_px=1.0, outlier_rate=1.0, seed=3
        )
        n_close = 0
        n_total = 0
        for iid, ds in dets.items():
            img = model.images[iid]
            K = model.intrinsics[img.camera_id]
            assert outliers[iid] == {d.landmark_id for d in ds}
            for det in ds:
                truth = project(K, img.pose, ls[det.landmark_id].xyz)
                n_total += 1
                if np.linalg.norm(det.uv - truth) < 3.0:
                    n_close += 1
        assert n_close / n_total < 0.01  # uniform placement rarely lands near truth

    def test_confidence_ranges(self):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        dets, outliers = simulate_detections_labeled(
            model, ls, vt, noise_sigma_px=2.0, outlier_rate=0.4, seed=4
        )
        for iid, ds in dets.items():
            for det in ds:
                if det.landmark_id in outliers[iid]:
                    assert 0.31 <= det.confidence <= 0.7
                else:
                    assert 0.31 <= det.confidence <= 1.0


class TestMerge:
    def d(self, lid, u=1.0):
        return Detection(lid, np.array([u, u]), 0.9)

    def test_identity(self):
        ds = DetectionSet(0, [self.d(1), self.d(2)])
        merged = merge_ensemble([ds])
        assert [x.landmark_id for x in merged] == [1, 2]

    def test_disjoint_union_ordered(self):
        a = DetectionSet(0, [self.d(5), self.d(1)])
        b = DetectionSet(0, [self.d(3)])
        merged = merge_ensemble([a, b])
        assert [x.landmark_id for x in merged] == [1, 3, 5]

    def test_collision_raises(self):
        a = DetectionSet(0, [self.d(1)])
        b = DetectionSet(0, [self.d(1)])
        with pytest.raises(DuplicateLandmarkError):
            merge_ensemble([a, b])

    def test_image_mismatch_raises(self):
        a = DetectionSet(0, [self.d(1)])
        b = DetectionSet(1, [self.d(2)])
        with pytest.raises(ValueError):
            merge_ensemble([a, b])


class TestDetectionIO:
    def test_roundtrip(self, tmp_path):
        model, ls, vt = tiny_scene()
        dets = simulate_detections(model, ls, vt, 1.0, 0.2, seed=2)
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        loaded = load_detections(path)
        assert set(loaded) == set(dets)
        for iid in dets:
            assert len(loaded[iid]) == len(dets[iid])
            for da, db in zip(
                sorted(dets[iid], key=lambda d: d.landmark_id), loaded[iid]
            ):
                assert da.landmark_id == db.landmark_id
                assert np.array_equal(da.uv, db.uv)
                assert da.confidence == db.confidence

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(Exception):
            load_detections(path)

    def test_repeated_pair_reports_location(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,landmark_id,u,v_coord,confidence\n"
                        "1,4,10.5,20.5,0.9\n"
                        "1,4,11.5,21.5,0.8\n")
        with pytest.raises(MalformedFileError, match=r"dets\.csv:3: .*landmark 4 twice"):
            load_detections(path)

    def test_repeated_pair_comes_before_later_checks(self, tmp_path):
        # The repeat is found on its own line, ahead of that line's confidence
        # and of any later line, with other images' rows in between.
        path = tmp_path / "dets.csv"
        path.write_text("image_id,landmark_id,u,v_coord,confidence\n"
                        "1,4,10.5,20.5,0.9\n"
                        "2,4,10.5,20.5,0.9\n"
                        "1,4,11.5,21.5,7\n"
                        "1,5,11.5,21.5,x\n")
        with pytest.raises(MalformedFileError, match=r"dets\.csv:4: .*image 1 lists landmark 4 twice"):
            load_detections(path)

    def test_columns_in_landmark_order_per_image(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("image_id,landmark_id,u,v_coord,confidence\n"
                        "5,9,1,2,0.5\n"
                        "2,3,3,4,0.25\n"
                        "5,1,5,6,1\n"
                        "2,0,7,8,0.75\n")
        loaded = load_detections(path)
        assert list(loaded) == [5, 2]  # images in order of first appearance
        assert loaded[5].landmark_ids.tolist() == [1, 9]
        assert loaded[5].uv.tolist() == [[5.0, 6.0], [1.0, 2.0]]
        assert loaded[2].confidence.tolist() == [0.75, 0.25]
        assert all(ds.uv.flags.c_contiguous and ds.confidence.flags.c_contiguous
                   for ds in loaded.values())


def save_detections_ref(detections, path):
    """The writer save_detections replaced: csv.writer over Detection rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for iid in sorted(detections):
            for det in sorted(detections[iid], key=lambda d: d.landmark_id):
                writer.writerow([iid, det.landmark_id, _io.fmt(det.uv[0]), _io.fmt(det.uv[1]),
                                 _io.fmt(det.confidence)])


def same_columns(a, b):
    assert a.image_id == b.image_id
    assert a.landmark_ids.dtype == b.landmark_ids.dtype
    for col in ("landmark_ids", "uv", "confidence"):
        assert np.array_equal(getattr(a, col), getattr(b, col))


class TestWriterBytes:
    EDGES = [0.1, 1 / 3, 1e-300, 5e-324, float(np.nextafter(640.0, 0.0)), 1.0]

    def test_edge_values_match_csv_writer(self, tmp_path):
        confs = [x for x in self.EDGES if 0 < x <= 1]
        rows = [Detection(lid, [u, v], confs[lid % len(confs)])
                for lid, (u, v) in enumerate(zip(self.EDGES, self.EDGES[::-1]))]
        dets = {7: DetectionSet(7, rows[::-1]), 2: DetectionSet(2, rows[1::2])}
        save_detections(dets, tmp_path / "got.csv")
        save_detections_ref(dets, tmp_path / "ref.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + len(rows) + len(rows[1::2])
        loaded = load_detections(tmp_path / "got.csv")
        for iid, ds in dets.items():
            same_columns(loaded[iid], ds)

    def test_simulated_detections_match_csv_writer(self, tmp_path):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        dets = simulate_detections(model, ls, vt, 1.0, 0.3, seed=12)
        save_detections(dets, tmp_path / "got.csv")
        save_detections_ref(dets, tmp_path / "ref.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRowOrder:
    """A DetectionSet is its columns in landmark-id order, whatever order its
    rows come in: from a file, from the groups of an ensemble, or as rows."""

    def scene(self):
        model, ls, vt = tiny_scene(n_landmarks=40)
        return model, ls, simulate_detections(model, ls, vt, 1.0, 0.2, seed=4)

    def same_estimate(self, a, b):
        assert a.status == b.status == "ok"
        assert a.inliers == b.inliers and a.num_iterations == b.num_iterations
        assert (a.pose.R == b.pose.R).all() and (a.pose.t == b.pose.t).all()
        assert a.mean_reproj_px == b.mean_reproj_px

    def test_shuffled_file_loads_and_localizes_the_same(self, tmp_path):
        model, ls, dets = self.scene()
        save_detections(dets, tmp_path / "sorted.csv")
        header, *rows = (tmp_path / "sorted.csv").read_bytes().split(b"\r\n")[:-1]
        rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        (tmp_path / "shuffled.csv").write_bytes(b"\r\n".join([header, *rows, b""]))
        ordered, shuffled = (load_detections(tmp_path / name)
                             for name in ("sorted.csv", "shuffled.csv"))
        assert set(ordered) == set(shuffled) == set(dets)
        for iid in dets:
            same_columns(shuffled[iid], ordered[iid])
            assert (np.diff(shuffled[iid].landmark_ids) > 0).all()
            K = model.intrinsics[model.images[iid].camera_id]
            self.same_estimate(localize(shuffled[iid], ls, K, seed=iid),
                               localize(ordered[iid], ls, K, seed=iid))

    def test_merge_of_unsorted_groups_is_the_single_set(self):
        model, ls, dets = self.scene()
        rng = np.random.default_rng(5)
        for iid, ds in dets.items():
            groups = []
            for g in rng.permutation(3):  # groups interleave in landmark id
                keep = np.flatnonzero(ds.landmark_ids % 3 == g)[::-1]
                groups.append(DetectionSet.from_columns(
                    iid, ds.landmark_ids[keep], ds.uv[keep], ds.confidence[keep]))
            merged = merge_ensemble(groups, iid)
            same_columns(merged, ds)
            K = model.intrinsics[model.images[iid].camera_id]
            self.same_estimate(localize(merged, ls, K, seed=iid), localize(ds, ls, K, seed=iid))

    def test_landmark_in_two_groups_is_named(self):
        _, _, dets = self.scene()
        ds = dets[0]
        lid = int(ds.landmark_ids[5])
        a = DetectionSet.from_columns(0, ds.landmark_ids[:8], ds.uv[:8], ds.confidence[:8])
        b = DetectionSet.from_columns(0, ds.landmark_ids[5:], ds.uv[5:], ds.confidence[5:])
        with pytest.raises(DuplicateLandmarkError, match=rf"landmark {lid}\b"):
            merge_ensemble([b, a])

    def test_rows_in_any_order(self):
        _, _, dets = self.scene()
        ds = dets[1]
        same_columns(DetectionSet(1, list(ds)[::-1]), ds)
        assert [d.landmark_id for d in ds] == ds.landmark_ids.tolist()


def same_bits(a: dict, b: dict):
    """Two loaded files: the same images in the same order, and columns with
    the same dtypes and bytes (so -0.0 and 0.0 differ)."""
    assert list(a) == list(b) and all(type(k) is int for k in a)
    for iid in a:
        assert a[iid].image_id == b[iid].image_id == iid
        for col in ("landmark_ids", "uv", "confidence"):
            x, y = getattr(a[iid], col), getattr(b[iid], col)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


class TestLoaderPaths:
    """load_detections parses a plain file in one np.loadtxt pass and any
    other through the row loop; both must give the same sets, bit for bit."""

    HEADER = ",".join(CSV_HEADER)
    ROWS = ["3,7,10.5,20.25,0.875", "1,2,1,2,1", "3,1,630.125,0.5,0.5", "1,0,4,5,0.25"]

    def load_both(self, path):
        bulk = _bulk_columns(path)
        loop = _by_image(*_row_columns(path))
        loaded = load_detections(path)
        same_bits(loaded, loop)
        if bulk is not None:
            same_bits(_by_image(*bulk), loop)
        return bulk is not None, loaded

    @pytest.mark.parametrize("body, bulk", [
        ("\r\n".join(ROWS) + "\r\n", True),                         # CRLF
        ("\n".join(ROWS), True),                                     # no final line end
        ("\n\n".join(ROWS) + "\n\n", True),                          # blank lines
        ("\n  \n".join(ROWS) + "\n", False),                         # whitespace-only lines
        ("\n".join(" , ".join(r.split(",")) for r in ROWS), True),  # padded fields
        ("+3,+7,+10.5,+20.25,+0.875\n" + "\n".join(ROWS[1:]), True),
        ("3,7,1.05e1,2025e-2,.875\n" + "\n".join(ROWS[1:]), True),  # exponents, no leading 0
        ("3,7,1_0.5,20.25,0.875\n" + "\n".join(ROWS[1:]), False),   # underscore: int()/float() only
        ("\r".join(ROWS), True),                                     # CR line ends
        ("\u0663,7,10.5,20.25,0.875\n" + "\n".join(ROWS[1:]), False),    # non-ASCII digit
        ("\n".join(ROWS[::-1]), True),                               # shuffled rows
        ("", False),                                                 # header only
    ])
    def test_variants_give_the_same_sets(self, tmp_path, body, bulk):
        path = tmp_path / "dets.csv"
        path.write_bytes((self.HEADER + "\n" + body).encode())
        took_bulk, loaded = self.load_both(path)
        assert took_bulk == bulk
        # Images in order of first row; each set as from the plain file.
        assert list(loaded) == list(dict.fromkeys(
            int(line.split(",")[0]) for line in body.splitlines() if line.strip()))
        plain = tmp_path / "plain.csv"
        plain.write_text(self.HEADER + "\n" + "\n".join(self.ROWS) + "\n")
        if body and "1_0.5" not in body:
            same_bits({iid: loaded[iid] for iid in (3, 1)}, load_detections(plain))

    TOKENS = ["1", "+1", "-1", " 1", "1 ", "\t1", "1\xa0", "\x0c1", "1\x1c", "1\x85", "1\u2028",
              "1.0", "1.", ".5", "5e-1", "5E-1", "1e+0", "-0", "-0.0", "0x10", "1_0", "\u0661",
              "\uff11", "nan", "inf", "-inf", "Infinity", "1e400", "1e-400", "", '"1"', "'1'",
              "1 2", "1d0", "0b1", "nan(1)", "+-1", "--1", "1.5.2", "1j", "\x001", "1\x00",
              "9223372036854775807", "9223372036854775808", "-9223372036854775808",
              "-9223372036854775809", "99999999999999999999", "4.9406564584124654e-324",
              "0.99999999999999994", "1.0000000000000001", "1\u01fe", "\u04ff1", "1\u0663"]

    @pytest.mark.parametrize("field", range(5))
    def test_bulk_takes_no_token_the_loop_refuses(self, tmp_path, field):
        # Whenever the one-pass parse takes a token, the row loop takes it too
        # and reads it to the same bits.
        path = tmp_path / "dets.csv"
        taken = 0
        for token in self.TOKENS:
            row = ["2", "5", "3.5", "4.5", "0.5"]
            row[field] = token
            path.write_text(f"{self.HEADER}\n1,1,1,1,1\n{','.join(row)}\n")
            if _bulk_columns(path) is None:
                continue
            taken += 1
            self.load_both(path)
        assert taken >= 10

    def test_random_doubles_read_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 3000
        bits = rng.integers(0, 0x7FF0000000000000, size=(n, 2), dtype=np.int64)  # finite, >= 0
        uv = bits.view(np.float64) * np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0)
        conf = rng.random(n)
        conf = np.where(conf == 0.0, 1.0, conf)
        conf[:3] = [1.0, 5e-324, float(np.nextafter(1.0, 0.0))]
        path = tmp_path / "dets.csv"
        for form in ("{:.17g}".format, repr):
            lines = [self.HEADER] + [f"{k % 7},{k},{form(u)},{form(v)},{form(c)}" for k, (u, v), c
                                     in zip(range(n), uv.tolist(), conf.tolist())]
            path.write_text("\n".join(lines) + "\n")
            took_bulk, loaded = self.load_both(path)
            assert took_bulk
            for iid, ds in loaded.items():
                rows = ds.landmark_ids
                assert (ds.uv.view(np.int64) == uv[rows].view(np.int64)).all()
                assert (ds.confidence.view(np.int64) == conf[rows].view(np.int64)).all()
