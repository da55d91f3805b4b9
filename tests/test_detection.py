import csv
import math
import os

import numpy as np
import pytest

from landmarkloc import _io, detection
from landmarkloc.detection import (
    CSV_HEADER,
    DetectionSet,
    DetectionTable,
    Heatmap,
    _bulk_columns,
    _parse,
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
from landmarkloc.pose import localize
from landmarkloc.scene_model import Intrinsics, Pose, SceneModel
from landmarkloc.visibility import VisibilityTable

from conftest import (
    LAYOUT_DAMAGE,
    edit_copy,
    image_set,
    landmark_set,
    loads_both_ways,
    points_from_pairs,
    project,
    read_only_open,
)
from detection_reference import merge_sets_ref

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
        assert extract_detection(Heatmap(np.zeros((60, 80)))) is None

    def test_pruned_at_quarter(self):
        grid = np.zeros((60, 80))
        grid[30, 40] = 0.25
        assert extract_detection(Heatmap(grid)) is None

    def test_pruning_boundary_exact(self):
        grid = np.zeros((60, 80))
        grid[30, 40] = 0.3
        assert extract_detection(Heatmap(grid)) is None
        grid[30, 40] = 0.3 + 1e-9
        uv, v = extract_detection(Heatmap(grid))
        assert np.allclose(uv, [40 * 8, 30 * 8])
        assert v == 0.3 + 1e-9

    def test_peak_above_one_rejected(self):
        # Heatmap admits values up to 1 + 1e-12; a detection's confidence is at most 1.
        grid = np.zeros((60, 80))
        grid[30, 40] = 1 + 1e-13
        with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\]"):
            extract_detection(Heatmap(grid))

    def test_render_extract_roundtrip(self):
        center = np.array([10.3, 20.7]) * 8
        uv, v = extract_detection(render_gt_heatmap(center, EXTENT, sigma=1.5))
        err = np.abs(uv / 8 - center / 8)
        assert err.max() < 0.25
        assert 0.3 < v <= 1

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(50)
        for sigma in (1.0, 1.5, 2.5):
            for _ in range(100):
                c = rng.uniform(8, 52, size=2) * 8  # >= 8 grid cells from borders
                uv, _ = extract_detection(render_gt_heatmap(c, EXTENT, sigma=sigma))
                assert np.abs(uv / 8 - c / 8).max() < 0.25

    def test_argmax_tie_breaks_row_major(self):
        grid = np.zeros((60, 80))
        grid[10, 50] = 0.9
        grid[40, 5] = 0.9
        uv, _ = extract_detection(Heatmap(grid))
        assert np.allclose(uv, [50 * 8, 10 * 8])

    def test_translation_equivariance(self):
        base = render_gt_heatmap(np.array([160.0, 200.0]), EXTENT, sigma=1.5)
        shifted = Heatmap(np.roll(base.grid, (3, 5), axis=(0, 1)))
        (a, _), (b, _) = extract_detection(base), extract_detection(shifted)
        assert np.allclose(b - a, [5 * 8, 3 * 8], atol=1e-9)


def tiny_scene(n_landmarks=20, n_images=4, width=640, height=480):
    K = Intrinsics(500.0, 500.0, width / 2, height / 2, width, height)
    rng = np.random.default_rng(51)
    images = image_set({iid: Pose(np.eye(3), np.zeros(3)) for iid in range(n_images)},
                       names=[f"i{iid}.png" for iid in range(n_images)])
    model = SceneModel({1: K}, images, points_from_pairs({}))
    pts = []
    for i in range(n_landmarks):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(-0.35, 0.35)
        pts.append([x, y, 2.0])
    ls = landmark_set(pts)
    mask = np.ones((n_landmarks, n_images), dtype=bool)
    vt = VisibilityTable(list(range(n_images)), mask)
    return model, ls, vt


class TestSimulate:
    def test_noiseless_hits_truth(self):
        model, ls, vt = tiny_scene()
        dets = simulate_detections(model, ls, vt, noise_sigma_px=0.0, seed=1)
        for iid, ds in dets.items():
            T, K = model.images.pose(iid), model.camera(iid)
            for lid, uv in zip(ds.landmark_ids, ds.uv):
                truth = project(K, T, ls.xyz[lid])
                assert np.abs(uv - truth).max() < 1e-12
            assert (ds.confidence == 1.0).all()

    def test_determinism(self):
        model, ls, vt = tiny_scene()
        a = simulate_detections(model, ls, vt, 1.0, 0.3, seed=9)
        b = simulate_detections(model, ls, vt, 1.0, 0.3, seed=9)
        assert list(a) == list(b)
        for iid in a:
            same_columns(a[iid], b[iid])

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
            T, K = model.images.pose(iid), model.camera(iid)
            assert outliers[iid] == set(ds.landmark_ids.tolist())
            for lid, uv in zip(ds.landmark_ids, ds.uv):
                truth = project(K, T, ls.xyz[lid])
                n_total += 1
                if np.linalg.norm(uv - truth) < 3.0:
                    n_close += 1
        assert n_close / n_total < 0.01  # uniform placement rarely lands near truth

    def test_confidence_ranges(self):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        dets, outliers = simulate_detections_labeled(
            model, ls, vt, noise_sigma_px=2.0, outlier_rate=0.4, seed=4
        )
        for iid, ds in dets.items():
            for lid, conf in zip(ds.landmark_ids.tolist(), ds.confidence):
                if lid in outliers[iid]:
                    assert 0.31 <= conf <= 0.7
                else:
                    assert 0.31 <= conf <= 1.0


class TestMerge:
    def table(self, image_id, *lids):
        return DetectionTable([image_id] * len(lids), lids, np.ones((len(lids), 2)),
                              np.full(len(lids), 0.9))

    def test_identity(self):
        merged = merge_ensemble([self.table(0, 1, 2)])
        assert merged[0].landmark_ids.tolist() == [1, 2]

    def test_disjoint_union_ordered(self):
        merged = merge_ensemble([self.table(2, 4), self.table(0, 5, 1), self.table(0, 3)])
        assert list(merged) == [0, 2]
        assert merged[0].landmark_ids.tolist() == [1, 3, 5]
        assert merged[2].landmark_ids.tolist() == [4]

    def test_collision_raises(self):
        a = self.table(0, 1)
        b = self.table(0, 1)
        with pytest.raises(DuplicateLandmarkError,
                           match="landmark 1 appears more than once in image 0"):
            merge_ensemble([a, b])

    def test_collision_names_the_two_tables(self):
        tables = [self.table(0, 2), self.table(3, 1), self.table(3, 1, 3)]
        with pytest.raises(DuplicateLandmarkError,
                           match=r"^landmark 1 of image 3 is in both b\.csv and c\.csv$"):
            merge_ensemble(tables, ["a.csv", "b.csv", "c.csv"])

    def test_equals_the_per_image_merge(self):
        # 8 group tables, each with its rows in reverse order, merge to what
        # the per-image merge of the groups' sets gives, image by image.
        model, ls, vt = tiny_scene(n_landmarks=64, n_images=6)
        dets = simulate_detections(model, ls, vt, 1.0, 0.2, seed=4)
        groups = [np.flatnonzero(dets.landmark_ids % 8 == g)[::-1] for g in range(8)]
        tables = [DetectionTable(dets.image_ids[k], dets.landmark_ids[k], dets.uv[k],
                                 dets.confidence[k]) for k in groups]
        merged = merge_ensemble(tables)
        assert list(merged) == list(dets)
        for iid in dets:
            ref = merge_sets_ref([t[iid] for t in tables if iid in t], iid)
            same_columns(merged[iid], ref)
            same_columns(merged[iid], dets[iid])


class TestDetectionTable:
    """A DetectionTable holds every image's rows, sorted by (image, landmark),
    and reads as a mapping of image id -> DetectionSet."""

    ROWS = ([5, 2, 5, 2, 9], [9, 3, 1, 0, 4],
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 1.0]],
            [0.5, 0.25, 1.0, 0.75, 0.125])

    def test_rows_sorted_and_indexed_per_image(self):
        table = DetectionTable(*self.ROWS)
        assert table.image_ids.tolist() == [2, 2, 5, 5, 9]
        assert table.landmark_ids.tolist() == [0, 3, 1, 9, 4]
        assert table.images.tolist() == [2, 5, 9] and table.offsets.tolist() == [0, 2, 4, 5]
        assert table.first_rows.tolist() == [1, 0, 4]
        assert list(table) == [2, 5, 9] and all(type(k) is int for k in table)
        assert len(table) == 3 and 5 in table and 3 not in table
        assert [len(ds) for ds in table.values()] == [2, 2, 1]
        ds = table[5]
        assert ds.image_id == 5 and ds.landmark_ids.tolist() == [1, 9]
        assert ds.uv.tolist() == [[5.0, 6.0], [1.0, 2.0]] and ds.confidence.tolist() == [1.0, 0.5]
        with pytest.raises(KeyError):
            table[3]
        for col in (table.image_ids, table.landmark_ids, table.uv, table.confidence,
                    table.images, table.offsets, table.first_rows, ds.uv):
            assert not col.flags.writeable

    def test_sorted_rows_are_views(self):
        table = DetectionTable(*self.ROWS)
        again = DetectionTable(table.image_ids, table.landmark_ids, table.uv, table.confidence)
        for col in ("image_ids", "landmark_ids", "uv", "confidence"):
            assert np.shares_memory(getattr(again, col), getattr(table, col))
        assert again.first_rows.tolist() == [0, 2, 4]

    def test_of_a_mapping_equals_its_sets(self):
        sets = {7: DetectionSet(7, [3, 1], [[1.0, 2.0], [3.0, 4.0]], [0.5, 1.0]),
                -2: DetectionSet(-2, [], np.zeros((0, 2)), [])}
        table = DetectionTable.of(sets)
        assert list(table) == [7]
        same_columns(table[7], sets[7])
        assert DetectionTable.of(table) is table

    @pytest.mark.parametrize("rows, error, message", [
        (([1], [1], [[np.nan, 2.0]], [0.5]), ValueError, "non-finite pixel coordinate"),
        (([1], [1], [[1.0, -np.inf]], [0.5]), ValueError, "non-finite pixel coordinate"),
        (([1], [1], [[1.0, 2.0]], [0.0]), ValueError, r"confidence must be in \(0, 1\]"),
        (([1, 2, 1], [3, 3, 3], np.ones((3, 2)), [0.5] * 3), DuplicateLandmarkError,
         "landmark 3 appears more than once in image 1"),
        (([2 ** 63], [1], [[1.0, 2.0]], [0.5]), ValueError, "image id out of the int64 range"),
        (([True], [1], [[1.0, 2.0]], [0.5]), ValueError, "image id True is not an integer"),
        (([1.0], [1], [[1.0, 2.0]], [0.5]), ValueError, "image id 1.0 is not an integer"),
        (([1], [1.5], [[1.0, 2.0]], [0.5]), ValueError, "landmark id 1.5 is not an integer"),
    ], ids=["nan-pixel", "inf-pixel", "confidence", "repeated", "id-past-int64", "bool-id",
            "float-id", "float-landmark"])
    def test_constructor_refuses_what_the_load_refuses(self, rows, error, message):
        with pytest.raises(error, match=message):
            DetectionTable(*rows)

    @pytest.mark.parametrize("keep", [True, False], ids=["copy", "text"])
    def test_values_are_the_files_rows_per_image(self, tmp_path, keep):
        # What the bench's loader observer counts: the sets' lengths sum to
        # the file's rows, and each set is its image's rows by landmark id.
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        path = tmp_path / "dets.csv"
        save_detections(simulate_detections(model, ls, vt, 1.0, 0.3, seed=12), path)
        if not keep:
            copy_of(path).unlink()
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        loaded = detection.load_detections(path)
        assert sum(len(ds) for ds in loaded.values()) == len(rows)
        by_image = {}
        for row in rows:
            by_image.setdefault(int(row[0]), []).append(row)
        assert list(loaded) == sorted(by_image)
        for iid, ds in loaded.items():
            ref = DetectionSet(iid, [int(r[1]) for r in by_image[iid]],
                               [[float(r[2]), float(r[3])] for r in by_image[iid]],
                               [float(r[4]) for r in by_image[iid]])
            same_columns(ds, ref)
        if keep:  # views of the copy's one buffer
            assert root(loaded.uv) is root(loaded.confidence) is root(loaded.image_ids)


def root(column):
    """The object that holds column's memory."""
    while isinstance(getattr(column, "base", None), np.ndarray):
        column = column.base
    return column


def count_parses(monkeypatch):
    """A list that gets one entry per parse of a detections file's text."""
    calls = []

    def parse(path):
        calls.append(path)
        return _parse(path)

    monkeypatch.setattr(detection, "_parse", parse)
    return calls


def copy_of(path):
    """Where save_detections keeps the columns of the file at path."""
    return detection._sidecar(path).path


@pytest.fixture(autouse=True)
def load_both_ways(monkeypatch, tmp_path_factory):
    """Makes each load_detections of a test in this module load the file
    as text and from a copy (conftest.loads_both_ways): the same sets, bit
    for bit, or the same error."""
    other = tmp_path_factory.mktemp("other") / "dets.csv"
    save_detections({1: DetectionSet(1, [0], [[1.0, 2.0]], [0.5])}, other)
    stale = copy_of(other).read_bytes()
    load = loads_both_ways(lambda path: detection.load_detections(path), copy_of, stale, same_bits)
    monkeypatch.setitem(globals(), "load_detections", load)


class TestDetectionIO:
    def test_roundtrip(self, tmp_path, monkeypatch):
        model, ls, vt = tiny_scene()
        dets = simulate_detections(model, ls, vt, 1.0, 0.2, seed=2)
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        parses = count_parses(monkeypatch)
        loaded = load_detections(path)
        assert len(parses) == 1  # of the two loads, the one of the text
        assert set(loaded) == set(dets)
        for iid in dets:
            same_columns(loaded[iid], dets[iid])

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
        assert list(loaded) == [2, 5]  # images in ascending id order
        assert loaded.first_rows.tolist() == [1, 0]  # where each image's first line is
        assert loaded[5].landmark_ids.tolist() == [1, 9]
        assert loaded[5].uv.tolist() == [[5.0, 6.0], [1.0, 2.0]]
        assert loaded[2].confidence.tolist() == [0.75, 0.25]
        assert all(ds.uv.flags.c_contiguous and ds.confidence.flags.c_contiguous
                   for ds in loaded.values())


def save_detections_ref(detections, path):
    """The writer save_detections replaced: csv.writer, one detection a row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for iid in sorted(detections):
            ds = detections[iid]
            for lid, (u, v), conf in zip(ds.landmark_ids.tolist(), ds.uv, ds.confidence):
                writer.writerow([iid, lid, _io.fmt(u), _io.fmt(v), _io.fmt(conf)])


def same_columns(a, b):
    assert a.image_id == b.image_id
    assert a.landmark_ids.dtype == b.landmark_ids.dtype
    for col in ("landmark_ids", "uv", "confidence"):
        assert np.array_equal(getattr(a, col), getattr(b, col))


class TestWriterBytes:
    EDGES = [0.1, 1 / 3, 1e-300, 5e-324, float(np.nextafter(640.0, 0.0)), 1.0]

    def test_edge_values_match_csv_writer(self, tmp_path):
        confs = [x for x in self.EDGES if 0 < x <= 1]
        n = len(self.EDGES)
        lids = np.arange(n)
        uv = np.column_stack([self.EDGES, self.EDGES[::-1]])
        conf = np.array([confs[lid % len(confs)] for lid in range(n)])
        dets = {7: DetectionSet(7, lids[::-1], uv[::-1], conf[::-1]),
                2: DetectionSet(2, lids[1::2], uv[1::2], conf[1::2])}
        save_detections(dets, tmp_path / "got.csv")
        save_detections_ref(dets, tmp_path / "ref.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + n + len(lids[1::2])
        loaded = load_detections(tmp_path / "got.csv")
        for iid, ds in dets.items():
            same_columns(loaded[iid], ds)

    def test_simulated_detections_match_csv_writer(self, tmp_path, monkeypatch):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        dets = simulate_detections(model, ls, vt, 1.0, 0.3, seed=12)
        save_detections(dets, tmp_path / "got.csv")
        save_detections_ref(dets, tmp_path / "ref.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        monkeypatch.setattr(detection, "_BLOCK_ROWS", 7)  # blocks that end inside an image
        save_detections(dets, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestRowOrder:
    """A DetectionSet is its columns in landmark-id order, whatever order its
    rows come in: from a file, from the groups of an ensemble, or as columns."""

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
            K = model.camera(iid)
            self.same_estimate(localize(shuffled[iid], ls, K, seed=iid),
                               localize(ordered[iid], ls, K, seed=iid))

    def test_merge_of_unsorted_groups_is_the_single_set(self):
        model, ls, dets = self.scene()
        rng = np.random.default_rng(5)
        groups = []
        for g in rng.permutation(3):  # groups interleave in landmark id
            keep = np.flatnonzero(dets.landmark_ids % 3 == g)[::-1]
            groups.append(DetectionTable(dets.image_ids[keep], dets.landmark_ids[keep],
                                         dets.uv[keep], dets.confidence[keep]))
        merged = merge_ensemble(groups)
        for iid, ds in dets.items():
            same_columns(merged[iid], ds)
            K = model.camera(iid)
            self.same_estimate(localize(merged[iid], ls, K, seed=iid),
                               localize(ds, ls, K, seed=iid))

    def test_landmark_in_two_groups_is_named(self):
        _, _, dets = self.scene()
        ds = dets[0]
        lid = int(ds.landmark_ids[5])
        a = DetectionTable.of({0: DetectionSet(0, ds.landmark_ids[:8], ds.uv[:8],
                                               ds.confidence[:8])})
        b = DetectionTable.of({0: DetectionSet(0, ds.landmark_ids[5:], ds.uv[5:],
                                               ds.confidence[5:])})
        with pytest.raises(DuplicateLandmarkError, match=rf"landmark {lid}\b"):
            merge_ensemble([b, a])

    def test_columns_in_any_order(self):
        # For a few seeds: any permutation of a set's columns builds the same
        # set, bit for bit; a repeated landmark, named, or a confidence of 0 or
        # above 1 raises.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            ids = rng.choice(1000, size=n, replace=False)
            uv = rng.uniform(0, 640, size=(n, 2))
            conf = np.append(rng.uniform(0.31, 1.0, size=n - 1), 1.0)
            ds = DetectionSet(3, ids, uv, conf)
            assert (np.diff(ds.landmark_ids) > 0).all()
            for _ in range(3):
                perm = rng.permutation(n)
                same_bits({3: DetectionSet(3, ids[perm], uv[perm], conf[perm])}, {3: ds})
            k, j = rng.choice(n, size=2, replace=False)
            repeated = ids.copy()
            repeated[j] = ids[k]
            with pytest.raises(DuplicateLandmarkError, match=rf"landmark {ids[k]} appears"):
                DetectionSet(3, repeated, uv, conf)
            for bad in (0.0, float(np.nextafter(1.0, 2.0)), 1.5):
                wrong = conf.copy()
                wrong[k] = bad
                with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\]"):
                    DetectionSet(3, ids, uv, wrong)

    @pytest.mark.parametrize("args, error, message", [
        ((1, [1], [[np.nan, 2.0]], [0.5]), ValueError, "non-finite pixel coordinate"),
        ((1, [1], [[1.0, np.inf]], [0.5]), ValueError, "non-finite pixel coordinate"),
        ((1, [1], [[1.0, 2.0]], [1.5]), ValueError, r"confidence must be in \(0, 1\]"),
        ((1, [3, 3], [[1.0, 2.0], [3.0, 4.0]], [0.5, 0.25]), DuplicateLandmarkError,
         "landmark 3 appears more than once in image 1"),
        ((2 ** 63, [1], [[1.0, 2.0]], [0.5]), ValueError, "image id out of the int64 range"),
        ((True, [1], [[1.0, 2.0]], [0.5]), ValueError, "image id True is not an integer"),
        ((1.0, [1], [[1.0, 2.0]], [0.5]), ValueError, "image id 1.0 is not an integer"),
    ], ids=["nan-pixel", "inf-pixel", "confidence", "repeated", "id-past-int64", "bool-id",
            "float-id"])
    def test_constructor_refuses_what_the_load_refuses(self, args, error, message):
        with pytest.raises(error, match=message):
            DetectionSet(*args)


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

    @staticmethod
    def bulk_sets(path):
        """The sets of the one-pass parse; None when np.loadtxt does not take
        the file or its columns break a rule of DetectionSet."""
        try:
            return DetectionTable(*_bulk_columns(path))
        except (ValueError, Warning):
            return None

    def load_both(self, path):
        bulk = self.bulk_sets(path)
        loop = DetectionTable(*_row_columns(path))
        loaded = load_detections(path)
        same_bits(loaded, loop)
        if bulk is not None:
            same_bits(bulk, loop)
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
        # Images in ascending id order; each set as from the plain file.
        assert list(loaded) == sorted({
            int(line.split(",")[0]) for line in body.splitlines() if line.strip()})
        plain = tmp_path / "plain.csv"
        plain.write_text(self.HEADER + "\n" + "\n".join(self.ROWS) + "\n")
        if body and "1_0.5" not in body:
            same_bits({iid: loaded[iid] for iid in (1, 3)}, load_detections(plain))

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
            if self.bulk_sets(path) is None:
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


class TestDetectionsCopy:
    """save_detections leaves the columns a load of its text gives, and
    load_detections reads them in place of the text."""

    def simulated(self, tmp_path):
        model, ls, vt = tiny_scene(n_landmarks=50, n_images=10)
        path = tmp_path / "dets.csv"
        save_detections(simulate_detections(model, ls, vt, 1.0, 0.3, seed=12), path)
        return path

    def test_copy_equals_parse(self, tmp_path, monkeypatch):
        path = self.simulated(tmp_path)
        assert copy_of(path).exists()
        parses = count_parses(monkeypatch)
        copied = detection.load_detections(path)
        assert parses == []
        same_bits(copied, _parse(path))
        assert all(ds.uv.flags.c_contiguous and ds.confidence.flags.c_contiguous
                   for ds in copied.values())

    @pytest.mark.parametrize("dets", [
        {},
        {7: DetectionSet(7, [], np.zeros((0, 2)), [])},
        {np.int64(4): DetectionSet(4, [2, 1], [[1.5, -0.0], [5e-324, 639.5]], [1.0, 0.3125]),
         -3: DetectionSet(-3, [9], [[1e-300, 2.0]], [5e-324])},
        {1: DetectionSet(1, np.array([3, 1]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                         np.array([0.5, 0.25]))},
    ], ids=["empty", "image-without-rows", "edge-values", "out-of-order"])
    def test_small_sets_copy_equals_parse(self, tmp_path, monkeypatch, dets):
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        assert copy_of(path).exists()
        parses = count_parses(monkeypatch)
        copied = detection.load_detections(path)
        assert parses == []
        same_bits(copied, _parse(path))

    @pytest.mark.parametrize("dets, message", [
        ({2 ** 63: DetectionSet(0, [1], [[1.0, 2.0]], [0.5])}, "image id out of the int64 range"),
        ({True: DetectionSet(1, [1], [[1.0, 2.0]], [0.5])}, "image id True is not an integer"),
        ({1.0: DetectionSet(1, [1], [[1.0, 2.0]], [0.5])}, "image id 1.0 is not an integer"),
    ], ids=["id-past-int64", "bool-id", "float-id"])
    def test_key_that_is_no_int64_is_refused(self, tmp_path, dets, message):
        # A key is each row's image id: one that no table holds writes nothing.
        with pytest.raises(ValueError, match=message):
            save_detections(dets, tmp_path / "dets.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # a damaged copy gives no warning either
    @pytest.mark.parametrize("damage", [
        lambda data, foreign: data[:len(data) // 2],                 # truncated
        lambda data, foreign: (data[:len(data) // 2] + bytes(200)     # corrupt
                               + data[len(data) // 2 + 200:]),
        lambda data, foreign: b"",                                   # empty
        lambda data, foreign: b"not a zip file\n",                   # foreign format
        lambda data, foreign: foreign,                               # another file's key
        *LAYOUT_DAMAGE.values(),
    ], ids=["truncated", "corrupt", "empty", "foreign-format", "foreign-key", *LAYOUT_DAMAGE])
    def test_bad_copy_gives_the_parse(self, tmp_path, monkeypatch, damage):
        other = tmp_path / "other.csv"
        save_detections({1: DetectionSet(1, [0], [[1.0, 2.0]], [0.5])}, other)
        path = self.simulated(tmp_path)
        copy = copy_of(path)
        good = copy.read_bytes()
        copy.write_bytes(damage(good, copy_of(other).read_bytes()))
        kept = copy.read_bytes()
        assert kept != good
        parses = count_parses(monkeypatch)
        same_bits(detection.load_detections(path), _parse(path))
        assert len(parses) == 1 and copy.read_bytes() == kept  # a load never keeps a copy

    @pytest.mark.parametrize("column, value", [
        ("uv", np.zeros((3, 3))),                            # a row of the wrong shape
        ("ids", np.array([7.0])),                            # the wrong dtype
        ("ids", np.zeros(2, np.int64)),                      # columns of unequal length
        ("uv", np.array([[np.nan, 0.0]])),                   # what the load rejects
        ("conf", np.array([0.0])),
        ("extra", np.zeros(1)),                              # a column the loader does not know
    ])
    def test_malformed_copy_gives_the_parse(self, tmp_path, monkeypatch, column, value):
        # A copy under the right key whose columns do not make the sets.
        path = tmp_path / "dets.csv"
        save_detections({1: DetectionSet(1, [0], [[1.0, 2.0]], [0.5])}, path)
        edit_copy(detection._sidecar(path), column, value)
        parses = count_parses(monkeypatch)
        same_bits(detection.load_detections(path), _parse(path))
        assert len(parses) == 1

    def test_repeated_pair_in_copy_gives_the_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "dets.csv"
        save_detections({1: DetectionSet(1, [0, 1], [[1.0, 2.0], [3.0, 4.0]], [0.5, 1.0])}, path)
        edit_copy(detection._sidecar(path), "ids", np.array([1, 1]))
        assert detection.load_detections(path)[1].landmark_ids.tolist() == [0, 1]

    @pytest.mark.parametrize("old, new", [(b"\r\n2,", b"\r\n3,"), (b"0.5", b"0.6")])
    def test_one_byte_edit_forces_a_parse(self, tmp_path, monkeypatch, old, new):
        path = tmp_path / "dets.csv"
        save_detections({1: DetectionSet(1, [0], [[1.0, 2.0]], [0.5]),
                         2: DetectionSet(2, [4], [[3.0, 4.0]], [1.0])}, path)
        kept = copy_of(path).read_bytes()
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        parses = count_parses(monkeypatch)
        edited = detection.load_detections(path)
        assert len(parses) == 1 and copy_of(path).read_bytes() == kept
        same_bits(edited, _parse(path))

    def test_loader_edit_forces_a_parse(self, tmp_path, monkeypatch):
        path = self.simulated(tmp_path)
        edited = tmp_path / "detection.py"
        edited.write_bytes(open(detection.__file__, "rb").read() + b"\n")
        monkeypatch.setattr(detection, "__file__", str(edited))
        parses = count_parses(monkeypatch)
        detection.load_detections(path)
        assert len(parses) == 1

    def test_no_copy_file_costs_one_stat(self, tmp_path, monkeypatch):
        path = self.simulated(tmp_path)
        copy_of(path).unlink()
        keys = []
        monkeypatch.setattr(_io.Sidecar, "key", lambda self: keys.append(self))
        parses = count_parses(monkeypatch)
        detection.load_detections(path)
        assert keys == [] and len(parses) == 1
        assert sorted(os.listdir(tmp_path)) == ["dets.csv"]

    @pytest.mark.parametrize("keep", [True, False], ids=["copy", "text"])
    def test_read_only_directory(self, tmp_path, monkeypatch, keep):
        # A load writes nothing, whether it reads the copy or parses.
        path = self.simulated(tmp_path)
        if not keep:
            copy_of(path).unlink()
        files = sorted(os.listdir(tmp_path))
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):  # permission bits do not bind root
                monkeypatch.setattr(_io, "open", read_only_open, raising=False)
            parses = count_parses(monkeypatch)
            for _ in range(2):
                same_bits(detection.load_detections(path), _parse(path))
            assert len(parses) == (0 if keep else 2)
            assert sorted(os.listdir(tmp_path)) == files
        finally:
            tmp_path.chmod(0o755)

    def test_unwritable_copy_leaves_the_text(self, tmp_path, monkeypatch):
        path = tmp_path / "dets.csv"
        copy_of(path).mkdir()  # cannot be replaced
        save_detections({1: DetectionSet(1, [0], [[1.0, 2.0]], [0.5])}, path)
        assert sorted(os.listdir(tmp_path)) == sorted([copy_of(path).name, "dets.csv"])
        parses = count_parses(monkeypatch)
        assert detection.load_detections(path)[1].landmark_ids.tolist() == [0]
        assert len(parses) == 1
