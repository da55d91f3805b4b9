"""Every loader rejects malformed or non-finite input with a path:line error.

For each writer/loader pair a small valid file is written. Each numeric field
of each content line is then replaced, in turn, by `abc` and by `nan`, and
the loader must raise MalformedFileError naming that file and line.
Hand-written lines cover what a field replacement cannot reach.
"""

import re

import numpy as np
import pytest

from conftest import make_minimal_model
from landmarkloc import detection
from landmarkloc.detection import DetectionSet, load_detections, save_detections
from landmarkloc.errors import MalformedFileError
from landmarkloc.landmarks import LandmarkSet, load_landmarks, save_landmarks
from landmarkloc.mesh import TriangleMesh, load_mesh, save_mesh_ply
from landmarkloc.partitioning import PartitionAssignment, load_partition, save_partition
from landmarkloc.pose import PoseEstimate, load_poses, save_poses
from landmarkloc.scene_model import Pose, load_scene, save_scene
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


def write_poses(d):
    # Only ok lines: save_poses writes nan for the pose of any other status.
    save_poses({iid: PoseEstimate(Pose(np.eye(3), [0.1 * iid, 0.0, 0.0]), frozenset({0, 1}),
                                  5, 0.5, "ok") for iid in (1, 2)},
               d / "poses.txt", sec_per_image=0.01)
    return ["poses.txt"]


def write_ply(d):
    save_mesh_ply(TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]), d / "tri.ply")
    return ["tri.ply"]


# name -> (write valid files into a directory and return their names, load them)
FORMATS = {
    "scene": (write_scene, load_scene),
    "landmarks": (write_landmarks, lambda d: load_landmarks(d / "sel.txt")),
    "partition": (write_partition, lambda d: load_partition(d / "part.txt")),
    "visibility": (write_visibility, lambda d: load_visibility(d / "vis.txt")),
    "detections": (write_detections, lambda d: load_detections(d / "dets.csv")),
    "detections-text": (write_detections_text, lambda d: load_detections(d / "dets.csv")),
    "poses": (write_poses, lambda d: load_poses(d / "poses.txt")),
    "ply": (write_ply, lambda d: load_mesh(d / "tri.ply")),
}


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
    ("visibility", "vis.txt", 4, "# excluded 2"),                              # excluded >= L
    ("visibility", "vis.txt", 4, "# excluded -1"),                             # excluded < 0
    ("visibility", "vis.txt", 4, "# excluded 0 1 0"),                          # excluded twice
    ("visibility", "vis.txt", 6, "0 2"),                                       # id repeated
    ("visibility", "vis.txt", 3, "# image_ids 1 1"),                           # image repeated
    ("visibility", "vis.txt", 6, "# image_ids 2 1"),                           # second header
    ("visibility", "vis.txt", 6, "# image_ids 1"),                             # second header
    ("visibility", "vis.txt", 6, "# visibility landmarks=2 images=2"),         # second header
    ("visibility", "vis.txt", 6, "# tolerances tol_depth=0.5"),                # second header
    ("visibility", "vis.txt", 6, "# excluded 0"),                              # second header
    ("visibility", "vis.txt", 6, "2 1 2"),                                     # id skipped
    ("visibility", "vis.txt", 1, "# visibility landmarks=3 images=2"),         # too few lines
    ("visibility", "vis.txt", 1, "# visibility landmarks=1 images=2"),         # too many lines
    ("visibility", "vis.txt", 1, "# visibility landmarks=2 images=3"),         # image count
    ("visibility", "vis.txt", 1, "# visibility landmarks=2"),                  # no image count
    ("visibility", "vis.txt", 1, "# visibility landmarks=2 images=x"),         # image count
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
