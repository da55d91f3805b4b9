"""Every loader rejects malformed or non-finite input with a path:line error.

For each writer/loader pair a small valid file is written. Each numeric field
of each content line is then replaced, in turn, by `abc` and by `nan`, and
the loader must raise MalformedFileError naming that file and line.
Hand-written lines cover what a field replacement cannot reach.

The landmarks and visibility writers leave a copy of the columns a load of
their text gives (an _io.Sidecar); TestWriterCopies checks that a load of the
copy gives what the parse gives, and that any copy that does not fit means a
parse.
"""

import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (LAYOUT_DAMAGE, disk_full_for, edit_copy, make_minimal_model, outcome,
                      same_landmarks, same_table)
from landmarkloc import _io, detection, landmarks, visibility
from landmarkloc.detection import DetectionSet, load_detections, save_detections
from landmarkloc.errors import MalformedFileError
from landmarkloc.landmarks import LandmarkSet, load_landmarks, save_landmarks
from landmarkloc.mesh import TriangleMesh, load_mesh, save_mesh_ply
from landmarkloc.partitioning import PartitionAssignment, load_partition, save_partition
from landmarkloc.pose import PoseEstimate, PoseTable, load_poses, save_poses
from landmarkloc.scene_model import ImageSet, PointSet, Pose, load_scene, save_scene
from landmarkloc.visibility import VisibilityTable, load_visibility, save_visibility


def write_scene(d):
    save_scene(make_minimal_model(), d)
    return ["cameras.txt", "images.txt", "points3D.txt"]


def write_landmarks(d):
    lms = LandmarkSet([7, 9], [[0.0, 0.0, 2.0], [1.0, 0.5, 2.0]], [3.5, 2.25], {"count": 2})
    save_landmarks(lms, d / "sel.txt")
    return ["sel.txt"]


def write_partition(d):
    save_partition(PartitionAssignment([0, 1, 0, 1], 2, "default"), d / "part.txt")
    return ["part.txt"]


def write_visibility(d):
    mask = [[True, False], [True, True]]
    save_visibility(VisibilityTable([1, 2], mask, {"tol_depth": 0.05}, [1]),
                    d / "vis.txt")
    return ["vis.txt"]


def write_detections(d):
    save_detections({
        1: DetectionSet(1, [0, 3], [[10.5, 20.25], [1, 2]], [0.875, 1.0]),
        2: DetectionSet(2, [3], [[30.0, 4.5]], [0.5]),
    }, d / "dets.csv")
    return ["dets.csv"]


def write_detections_text(d):
    """write_detections without the copy save_detections leaves beside the file."""
    files = write_detections(d)
    detection._sidecar(d / "dets.csv").path.unlink()
    return files


def write_landmarks_text(d):
    """write_landmarks without the copy save_landmarks leaves beside the file."""
    files = write_landmarks(d)
    landmarks._sidecar(d / "sel.txt").path.unlink()
    return files


def write_visibility_text(d):
    """write_visibility without the copy save_visibility leaves beside the file."""
    files = write_visibility(d)
    visibility._sidecar(d / "vis.txt").path.unlink()
    return files


def write_poses(d):
    # Only ok lines: save_poses writes nan for the pose of any other status.
    save_poses(PoseTable.of({iid: PoseEstimate(Pose(np.eye(3), [0.1 * iid, 0.0, 0.0]),
                                               frozenset({0, 1}), 5, 0.5, "ok")
                             for iid in (1, 2)}),
               d / "poses.txt", sec_per_image=0.01)
    return ["poses.txt"]


def write_ply(d):
    save_mesh_ply(TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]), d / "tri.ply")
    return ["tri.ply"]


# name -> (write valid files into a directory and return their names, load them)
FORMATS = {
    "scene": (write_scene, load_scene),
    "landmarks": (write_landmarks, lambda d: load_landmarks(d / "sel.txt")),
    "landmarks-text": (write_landmarks_text, lambda d: load_landmarks(d / "sel.txt")),
    "partition": (write_partition, lambda d: load_partition(d / "part.txt")),
    "visibility": (write_visibility, lambda d: load_visibility(d / "vis.txt")),
    "visibility-text": (write_visibility_text, lambda d: load_visibility(d / "vis.txt")),
    "detections": (write_detections, lambda d: load_detections(d / "dets.csv")),
    "detections-text": (write_detections_text, lambda d: load_detections(d / "dets.csv")),
    "poses": (write_poses, lambda d: load_poses(d / "poses.txt")),
    "ply": (write_ply, lambda d: load_mesh(d / "tri.ply")),
}


@pytest.mark.parametrize("name", ["scene", "landmarks", "partition", "visibility", "detections",
                                  "poses", "ply"])
def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path, monkeypatch, name):
    # Each writer writes a temp file beside its target and renames it into
    # place: a write that fails halfway leaves the old bytes and no temp file.
    write, _ = FORMATS[name]
    files = write(tmp_path)
    old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(_io, "open", disk_full_for(files[-1]), raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write(tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old


@pytest.mark.parametrize("name", ["scene", "landmarks", "partition", "visibility", "detections",
                                  "poses", "ply"])
def test_a_symlinked_target_is_written_through(tmp_path, name):
    # A rename would replace a link (or a device or a FIFO) with a regular
    # file: such a target is written through, so the link keeps pointing at
    # its file, which gets the new bytes.
    write, _ = FORMATS[name]
    real, links = tmp_path / "real", tmp_path / "links"
    real.mkdir()
    links.mkdir()
    files = write(real)
    new = {file: (real / file).read_bytes() for file in files}
    for file in files:
        (real / file).write_bytes(b"old\n")
        (links / file).symlink_to(real / file)
    write(links)
    for file in files:
        assert (links / file).is_symlink()
        assert (real / file).read_bytes() == new[file]


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_numeric_field_is_checked(tmp_path, name):
    write, load = FORMATS[name]
    checked = 0
    for file in write(tmp_path):
        path = tmp_path / file
        good = path.read_bytes().decode()
        lines = good.split("\n")
        for i, line in enumerate(lines):
            if line.startswith("#"):
                continue
            parts = re.split(r"([ ,\r])", line)  # tokens at even positions
            for j in range(0, len(parts), 2):
                if not _is_number(parts[j]):
                    continue
                for bad in ("abc", "nan"):
                    edited = parts[:j] + [bad] + parts[j + 1:]
                    path.write_bytes("\n".join(lines[:i] + ["".join(edited)] + lines[i + 1:])
                                     .encode())
                    with pytest.raises(MalformedFileError,
                                       match=rf"{re.escape(file)}:{i + 1}: "):
                        load(tmp_path)
                    checked += 1
        path.write_bytes(good.encode())
        load(tmp_path)
    assert checked >= 8


# Lines that load_visibility refuses, by line number in the file that
# write_visibility writes.
BAD_VISIBILITY_LINES = [
    (4, "# excluded 2"),                       # excluded >= L
    (4, "# excluded -1"),                      # excluded < 0
    (4, "# excluded 0 1 0"),                   # excluded twice
    (6, "0 2"),                                # id repeated
    (3, "# image_ids 1 1"),                    # image repeated
    (3, "# image_ids 1 9223372036854775808"),  # image id > int64
    (6, "# image_ids 2 1"),                    # second header
    (6, "# image_ids 1"),                      # second header
    (6, "# visibility landmarks=2 images=2"),  # second header
    (6, "# tolerances tol_depth=0.5"),         # second header
    (6, "# excluded 0"),                       # second header
    (6, "2 1 2"),                              # id skipped
    (1, "# visibility landmarks=3 images=2"),  # too few lines
    (1, "# visibility landmarks=1 images=2"),  # too many lines
    (1, "# visibility landmarks=2 images=3"),  # image count
    (1, "# visibility landmarks=2"),           # no image count
    (1, "# visibility landmarks=2 images=x"),  # image count
]


@pytest.mark.parametrize("name, file, line_no, line", [
    ("partition", "part.txt", 3, "x 1"),                                       # landmark id
    ("partition", "part.txt", 1, "# criterion=default groups=two seed=none"),  # group count
    ("partition", "part.txt", 3, "1 5"),                                       # group >= g
    ("partition", "part.txt", 3, "1 -1"),                                      # group < 0
    ("partition", "part.txt", 3, "0 1"),                                       # id repeated
    ("partition", "part.txt", 3, "2 1"),                                       # id skipped
    ("detections", "dets.csv", 3, "1,99999999999999999999,3,4,0.5"),          # id > int64
    ("detections", "dets.csv", 3, "-9223372036854775809,7,3,4,0.5"),          # id < int64
    ("detections-text", "dets.csv", 3, "1,99999999999999999999,3,4,0.5"),
    ("detections-text", "dets.csv", 3, "-9223372036854775809,7,3,4,0.5"),
    *[(name, "vis.txt", line_no, line) for name in ("visibility", "visibility-text")
      for line_no, line in BAD_VISIBILITY_LINES],
    ("scene", "images.txt", 3, "1 0.5 -1e308 -0.49 0.52 0 0 0 1 img0.png"),    # norm overflows
    ("scene", "images.txt", 5, "2 1e200 1e200 1e200 1e200 0 0 0 1 img1.png"),  # norm overflows
    ("poses", "poses.txt", 3, "1 0.5 -1e308 -0.49 0.52 0 0 0 ok 2 0.5"),       # norm overflows
    ("poses", "poses.txt", 4, "2 inf 0 0 0 0 0 0 ok 2 0.5"),                   # norm is inf
    ("ply", "tri.ply", 3, "element vertex"),                                   # no count
    ("ply", "tri.ply", 7, "element face 1.5"),                                 # count
    ("ply", "tri.ply", 13, "3 0 1"),                                           # short face
    ("ply", "tri.ply", 13, "3 0 1 x"),                                         # face index
    ("ply", "tri.ply", 13, "3 0 1 3"),                                         # out of range
    ("ply", "tri.ply", 13, "3 0 1 -1"),                                        # out of range
])
def test_bad_line_reports_location(tmp_path, name, file, line_no, line):
    write, load = FORMATS[name]
    write(tmp_path)
    path = tmp_path / file
    lines = path.read_text().splitlines()
    lines[line_no - 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError, match=rf"{re.escape(file)}:{line_no}: "):
        load(tmp_path)


def count_parses(monkeypatch, module):
    """A list that gets one entry per parse of a file's text by module's loader."""
    calls, parse = [], module._parse
    monkeypatch.setattr(module, "_parse", lambda path: calls.append(path) or parse(path))
    return calls


_rng = np.random.default_rng(25)
# name -> the module whose writer leaves a copy, its file name, writer and
# loader, how two loads compare, the values whose copies a load reads, the
# values whose text cannot carry them (no copy), and columns that make no
# value from the copy of the file FORMATS writes.
COPIED = {
    "landmarks": (landmarks, "sel.txt", save_landmarks, same_landmarks, {
        "selected": LandmarkSet(_rng.permutation(10**6)[:300], _rng.normal(size=(300, 3)) * 10,
                                _rng.uniform(1, 40, 300),
                                {"count": 300, "r_init": 0.5, "min_track": 8, "r_final": 0.0625}),
        "empty": LandmarkSet([], [], []),
        "edge-values": LandmarkSet([-2**63, 2**63 - 1], [[-0.0, 5e-324, 1e308], [1e-300, -1e308, 0]],
                                   [0.0, -0.0], {"two words": "a=b", "": "", "\t": "\x0c"}),
    }, {
        "line-break": LandmarkSet([1], [[0, 0, 0]], [1.0], {"note": "a\nb"}),
        "carriage-return": LandmarkSet([1], [[0, 0, 0]], [1.0], {"a\r": "b"}),
    }, [
        ("xyz", np.zeros((2, 2))),                         # a row of the wrong shape
        ("source", np.array([7.0, 9.0])),                  # the wrong dtype
        ("saliency", np.array([1.0])),                     # columns of unequal length
        ("source", np.array([7, 7])),                      # a repeated source point
        ("xyz", np.array([[np.nan, 0, 0], [0, 0, 0]])),    # what the load rejects
        ("provenance", np.frombuffer(b"\xff", np.uint8)),  # not UTF-8
        ("extra", np.zeros(1)),                            # a column the loader does not know
    ]),
    "visibility": (visibility, "vis.txt", save_visibility, same_table, {
        "computed": VisibilityTable(
            _rng.permutation(5000)[:30].tolist(), _rng.random((200, 30)) < 0.3,
            {"tol_depth": 0.05, "tol_normal_deg": 30.0, "decimation": 2, "mode": "fast",
             "odd": "1=2"}, [3, 0, 17]),
        "empty": VisibilityTable([], np.zeros((0, 0), bool)),
        "no-images": VisibilityTable([], np.zeros((3, 0), bool), {}, [2]),
        "edge-values": VisibilityTable([-2**63, 2**63 - 1, 0], np.eye(2, 3, dtype=bool),
                                       {"": "", "x": "nan", "y": "-inf", "two words": "a b"}),
    }, {
        "line-break": VisibilityTable([1], [[True]], {"a": "x\ny"}),
    }, [
        ("shape", np.array([2, 3])),                       # more cells than the mask
        ("shape", np.array([4])),                          # a mask of one dimension
        ("mask", np.zeros(4, np.int64)),                   # the wrong dtype
        ("image_ids", np.array([1, 1])),                   # a repeated image
        ("excluded", np.array([2])),                       # what the load rejects
        ("tolerances", np.frombuffer(b"\xff", np.uint8)),  # not UTF-8
        ("extra", np.zeros(1)),                            # a column the loader does not know
    ]),
}


# Values whose text the loaders refuse, which the constructors refuse too,
# with the start of their error.
REFUSED = {
    "nan-position": (lambda: LandmarkSet([1], [[np.nan, 0, 0]], [1.0]),
                     "non-finite coordinate or saliency"),
    "inf-saliency": (lambda: LandmarkSet([1], [[0, 0, 0]], [np.inf]),
                     "non-finite coordinate or saliency"),
    "id-past-int64": (lambda: VisibilityTable([2**63], [[True]]),
                      "image id out of the int64 range"),
    "bool-id": (lambda: VisibilityTable([True], [[True]]), "image id True is not an integer"),
    "bool-after-int-id": (lambda: VisibilityTable([2, True], [[True, True]]),
                          "image id True is not an integer"),
    "float-id": (lambda: VisibilityTable([1.0], [[True]]), "image id 1.0 is not an integer"),
    "repeated-id": (lambda: VisibilityTable([1, 1], [[True, False]]), "repeated image id 1"),
    "bool-excluded": (lambda: VisibilityTable([1], [[True], [False]], {}, [True]),
                      "excluded landmark id True is not an integer"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_constructor_refuses_what_the_load_refuses(name):
    make, message = REFUSED[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def _eyes(n):
    return np.tile(np.eye(3), (n, 1, 1))


# Each table's constructor with ids in place of one of its int64 columns, the
# column's name in _io.int64's errors, and its attribute.
ID_COLUMNS = {
    "ImageSet": (lambda ids, n: ImageSet(ids, [1] * n, _eyes(n), np.zeros((n, 3)), ["a"] * n),
                 "image id", "ids"),
    "PoseTable": (lambda ids, n: PoseTable(range(n), ["ok"] * n, _eyes(n), np.zeros((n, 3)),
                                           ids, [0.5] * n), "inlier count", "num_inliers"),
    "PointSet": (lambda ids, n: PointSet(ids, np.zeros((n, 3)), np.zeros((n, 3), np.int64),
                                         [1] * n, [1] * n, np.zeros((n, 2))),
                 "point id", "ids"),
    "LandmarkSet": (lambda ids, n: LandmarkSet(ids, np.zeros((n, 3)), np.ones(n)),
                    "source point id", "source_point_ids"),
    "DetectionSet": (lambda ids, n: DetectionSet(1, ids, np.ones((n, 2)), np.full(n, 0.5)),
                     "landmark id", "landmark_ids"),
    "DetectionTable": (lambda ids, n: detection.DetectionTable(ids, range(n), np.ones((n, 2)),
                                                               np.full(n, 0.5)),
                       "image id", "image_ids"),
    "VisibilityTable": (lambda ids, n: VisibilityTable(ids, np.zeros((1, n), bool)),
                        "image id", "image_ids"),
    "TriangleMesh": (lambda ids, n: TriangleMesh(np.zeros((3, 3)), ids), "triangle index",
                     "triangles"),
    "PartitionAssignment": (lambda ids, n: PartitionAssignment(ids, 3, "default"),
                            "group index", "group"),
}


@pytest.mark.parametrize("ids, error", [
    (1.5, "1.5 is not an integer"),
    (np.array([1.0]), "1.0 is not an integer"),   # whole numbers, but no int64 column
    ([2, True], "True is not an integer"),        # which np.asarray makes an int64 array
    (2**63, "out of the int64 range"),
], ids=["float", "float-array", "bool-after-int", "past-int64"])
@pytest.mark.parametrize("name", sorted(ID_COLUMNS))
def test_every_table_refuses_ids_that_are_no_int64(name, ids, error):
    make, what, _ = ID_COLUMNS[name]
    with pytest.raises(ValueError, match=re.escape(f"{what} {error}")):
        make(ids, np.size(ids))


@pytest.mark.parametrize("name", sorted(ID_COLUMNS))
def test_ints_and_int64_arrays_build_the_same_table(name):
    make, _, column = ID_COLUMNS[name]
    from_ints, from_array = (getattr(make(ids, 3), column) for ids in ([0, 1, 2],
                                                                       np.arange(3)))
    assert from_ints.dtype == from_array.dtype == np.int64
    assert from_ints.tolist() == from_array.tolist()
    assert from_ints.reshape(-1).tolist() == [0, 1, 2]


@pytest.mark.parametrize("make, message", [
    (lambda ids: ImageSet(ids, [1] * 4, _eyes(4), np.zeros((4, 3)), ["a"] * 4),
     "repeated image id 3"),
    (lambda ids: PoseTable(ids, ["ok"] * 4, _eyes(4), np.zeros((4, 3)), [1] * 4, [0.5] * 4),
     "repeated image id 3"),
    (lambda ids: PointSet(ids, np.zeros((4, 3)), np.zeros((4, 3), np.int64), [1] * 4, [1] * 4,
                          np.zeros((4, 2))), "repeated point id 3"),
    (lambda ids: LandmarkSet(ids, np.zeros((4, 3)), np.ones(4)), "source point 3 repeated"),
    (lambda ids: VisibilityTable(ids, np.zeros((1, 4), bool)), "repeated image id 3"),
    (lambda ids: VisibilityTable([1], np.zeros((8, 1), bool), {}, ids),
     "excluded landmark id 3 repeated"),
], ids=["ImageSet", "PoseTable", "PointSet", "LandmarkSet", "VisibilityTable",
        "VisibilityTable-excluded"])
def test_two_repeated_ids_name_the_least(make, message):
    # 7 repeats first in the order given; 3 is the least value that repeats.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make([7, 3, 7, 3])


@pytest.mark.parametrize("name, file", [("landmarks", "sel.txt"), ("partition", "part.txt"),
                                        ("visibility", "vis.txt"), ("poses", "poses.txt")])
def test_a_cut_last_line_is_refused(tmp_path, name, file):
    # Each writer ends every line with a line end; a file whose last line
    # lacks one was cut, even where what is left of that line still parses.
    write, load = FORMATS[name]
    write(tmp_path)
    path = tmp_path / file
    data = path.read_bytes()
    last = data.count(b"\n")
    for cut, message in ((1, "no line end: the file is cut"), (3, "")):
        path.write_bytes(data[:-cut])
        with pytest.raises(MalformedFileError, match=rf"{re.escape(file)}:{last}: {message}"):
            load(tmp_path)


@pytest.mark.parametrize("name", ["detections-text", "scene"])
def test_files_of_other_tools_may_lack_the_last_line_end(tmp_path, name):
    # dets.csv and the COLMAP files are written by external tools too.
    write, load = FORMATS[name]
    for file in write(tmp_path):
        (tmp_path / file).write_bytes((tmp_path / file).read_bytes().rstrip(b"\r\n"))
    load(tmp_path)


@pytest.mark.parametrize("header, line_no, line, message", [
    ("# criterion=default groups=2 seed=none", 3, "1 1 0", "expected `landmark_id group`"),
    ("0 0", 1, "1 1", "landmark line before the partition header"),
    ("# groups=2 seed=none", 5, "1 1", "missing partition header"),
], ids=["field-count", "line-before-header", "no-header"])
def test_partition_file_errors(tmp_path, header, line_no, line, message):
    path = tmp_path / "part.txt"
    path.write_text(f"{header}\n0 0\n{line}\n2 0\n3 1\n")
    with pytest.raises(MalformedFileError, match=rf"part\.txt:{line_no}: {message}"):
        load_partition(path)


def copied_cases(k):
    return [pytest.param(name, key, id=f"{name}-{key}")
            for name, entry in COPIED.items() for key in entry[k]]


class TestWriterCopies:
    """save_landmarks and save_visibility leave the columns a parse of their
    text gives; a load reads them through the same constructors and checks."""

    def saved(self, tmp_path, name, value):
        module, file, save = COPIED[name][:3]
        save(value, tmp_path / file)
        return module, tmp_path / file, module._sidecar(tmp_path / file).path

    @pytest.mark.parametrize("name, key", copied_cases(4))
    def test_copy_equals_parse(self, tmp_path, monkeypatch, name, key):
        module, path, copy = self.saved(tmp_path, name, COPIED[name][4][key])
        assert copy.exists()
        parses = count_parses(monkeypatch, module)
        copied = module._sidecar(path).read(lambda: None, module._from_columns)
        COPIED[name][3](copied, module._parse(path))
        load = getattr(module, f"load_{name}")
        COPIED[name][3](load(path), copied)
        assert len(parses) == 1  # the parse above

    @pytest.mark.parametrize("name, key", copied_cases(5))
    def test_no_copy_for_text_that_reads_back_otherwise(self, tmp_path, name, key):
        module, path, copy = self.saved(tmp_path, name, COPIED[name][5][key])
        assert not copy.exists()
        load = getattr(module, f"load_{name}")
        got, want = outcome(load, path), outcome(module._parse, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            COPIED[name][3](got, want)

    @pytest.mark.filterwarnings("error")  # a damaged copy gives no warning either
    @pytest.mark.parametrize("damage", [
        lambda data, foreign: data[:len(data) // 2],                 # truncated
        lambda data, foreign: data[:300] + bytes(200) + data[500:],  # corrupt
        lambda data, foreign: b"",                                   # empty
        lambda data, foreign: b"not a zip file\n",                   # foreign format
        lambda data, foreign: foreign,                               # another file's key
        *LAYOUT_DAMAGE.values(),
    ], ids=["truncated", "corrupt", "empty", "foreign-format", "foreign-key", *LAYOUT_DAMAGE])
    @pytest.mark.parametrize("name", sorted(COPIED))
    def test_bad_copy_gives_the_parse(self, tmp_path, monkeypatch, name, damage):
        module, file = COPIED[name][:2]
        (tmp_path / "other").mkdir()
        _, _, foreign = self.saved(tmp_path / "other", name, COPIED[name][4]["empty"])
        write, load = FORMATS[name]
        write(tmp_path)
        copy = module._sidecar(tmp_path / file).path
        good = copy.read_bytes()
        copy.write_bytes(damage(good, foreign.read_bytes()))
        kept = copy.read_bytes()
        assert kept != good
        parses = count_parses(monkeypatch, module)
        COPIED[name][3](load(tmp_path), module._parse(tmp_path / file))
        assert len(parses) == 2 and copy.read_bytes() == kept  # a load never keeps a copy

    @pytest.mark.parametrize("name, column, value", [
        pytest.param(name, column, value, id=f"{name}-{k}")
        for name, entry in COPIED.items() for k, (column, value) in enumerate(entry[6])])
    def test_malformed_copy_gives_the_parse(self, tmp_path, monkeypatch, name, column, value):
        # A copy under the right key whose columns make no value.
        module, file = COPIED[name][:2]
        write, load = FORMATS[name]
        write(tmp_path)
        sidecar = module._sidecar(tmp_path / file)
        assert column == "extra" or column in sidecar.columns
        edit_copy(sidecar, column, value)
        parses = count_parses(monkeypatch, module)
        COPIED[name][3](load(tmp_path), module._parse(tmp_path / file))
        assert len(parses) == 2

    @pytest.mark.parametrize("name", sorted(COPIED))
    def test_a_load_reads_the_copy_once_into_one_buffer(self, tmp_path, monkeypatch, name):
        module, path, copy = self.saved(tmp_path, name, next(iter(COPIED[name][4].values())))
        opened = []
        monkeypatch.setattr(_io, "open", lambda file, *args, **kwargs: opened.append(file)
                            or open(file, *args, **kwargs), raising=False)
        columns = module._sidecar(path).read(lambda: None, lambda c: c)
        assert opened == [copy]
        whole = columns[next(iter(columns))].base
        assert all(c.base is whole and np.shares_memory(c, whole) for c in columns.values())

    @pytest.mark.parametrize("name", sorted(COPIED))
    def test_one_byte_edit_forces_a_parse(self, tmp_path, monkeypatch, name):
        module, file = COPIED[name][:2]
        write, load = FORMATS[name]
        write(tmp_path)
        path = tmp_path / file
        data = path.read_bytes()
        edited = data.replace(b" 2.25\n", b" 2.26\n").replace(b"\n1 1 2\n", b"\n1 2\n")
        assert len(edited) >= len(data) - 2 and edited != data
        path.write_bytes(edited)
        parses = count_parses(monkeypatch, module)
        edited = load(tmp_path)
        assert len(parses) == 1
        COPIED[name][3](edited, module._parse(path))

    @pytest.mark.parametrize("name", sorted(COPIED))
    def test_loader_edit_forces_a_parse(self, tmp_path, monkeypatch, name):
        module, file = COPIED[name][:2]
        write, load = FORMATS[name]
        write(tmp_path)
        edited = tmp_path / "loader.py"
        edited.write_bytes(open(module.__file__, "rb").read() + b"\n")
        monkeypatch.setattr(module, "__file__", str(edited))
        parses = count_parses(monkeypatch, module)
        load(tmp_path)
        assert len(parses) == 1


def loader_source(tmp_path):
    """A Sidecar whose loader source is a file last changed an hour ago, and
    that source."""
    source = tmp_path / "loader.py"
    source.write_bytes(b"# loader 1\n")
    an_hour_ago = time.time_ns() - 3600 * 10**9
    os.utime(source, ns=(an_hour_ago, an_hour_ago))
    (tmp_path / "a.txt").write_bytes(b"1\n")
    return _io.Sidecar(tmp_path / ".a.txt.landmarkloc", [tmp_path / "a.txt"], [source], {}), source


def test_two_keys_read_a_source_once(tmp_path, monkeypatch):
    sidecar, source = loader_source(tmp_path)
    reads, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
    assert sidecar.key() == sidecar.key()
    assert reads.count(source) == 1 and reads.count(tmp_path / "a.txt") == 2


def test_rewriting_a_source_in_place_changes_the_key(tmp_path):
    # The same path and size: the new modification time gives a new digest.
    sidecar, source = loader_source(tmp_path)
    key = sidecar.key()
    with open(source, "r+b") as fh:
        fh.write(b"# loader 2\n")
    assert sidecar.key() != key


@pytest.mark.parametrize("old", [b"0 1 2 3 4 5\n", None], ids=["replaced", "new"])
def test_writer_that_dies_leaves_no_cut_file(tmp_path, old):
    # Each text file is written to a temp file beside it and renamed into
    # place: a writer whose chunks stop midway leaves the old file, or none,
    # and no copy and no temp file.
    path = tmp_path / "sel.txt"
    if old is not None:
        path.write_bytes(old)

    def chunks():
        yield b"# id source_point_id x y z saliency\n"
        raise RuntimeError("writer died")

    sidecar = landmarks._sidecar(path)
    with pytest.raises(RuntimeError, match="writer died"):
        sidecar.write([chunks()], {"source": np.zeros(0, np.int64), "xyz": np.zeros((0, 3)),
                                   "saliency": np.zeros(0), "provenance": np.zeros(0, np.uint8)})
    assert os.listdir(tmp_path) == ([] if old is None else ["sel.txt"])
    if old is not None:
        assert path.read_bytes() == old
