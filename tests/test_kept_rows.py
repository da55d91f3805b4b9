"""Loaders keep each line's row in _io.lines, and the table's constructor
judges the rows' values: a file's first line whose row the table refuses is
the line its error names.

_io.lines finds that line by bisection over the runs of kept rows from the
first. That needs each loader's make to refuse every run that holds a row
that it refuses (test_a_refused_row_refuses_every_longer_run). Each loader
then names the first bad line of a file, whatever follows that line
(test_the_first_bad_line_is_named). Last, a seeded fuzz of the same files:
each case loads, or raises a DataError that names a file of the case, at the
mutated line when it names that file's line.
"""

import math
import random
import re
import zlib

import numpy as np
import pytest

from conftest import random_rotation
from landmarkloc import _io, detection, landmarks, scene_model
from landmarkloc.detection import DetectionTable, load_detections, save_detections
from landmarkloc.errors import DataError, MalformedFileError
from landmarkloc.landmarks import LandmarkSet, load_landmarks, save_landmarks
from landmarkloc.mesh import TriangleMesh, load_mesh, save_mesh_ply
from landmarkloc.pose import PoseTable, load_poses, save_poses
from landmarkloc.scene_model import Intrinsics, SceneModel, load_scene, save_scene
from landmarkloc.synth import SynthConfig, generate_scene

N = 16  # data lines of each seeded file
# 6 images and 19 points, 6 of them seen twice or more.
SCENE = generate_scene(SynthConfig(num_landmark_sites=20, num_cameras=6, seed=3)).model


def seeded(*names):
    """A generator seeded by names, the same in every run."""
    return np.random.default_rng(zlib.crc32("/".join(names).encode()))


def write_landmarks(d, rng):
    path = d / "sel.txt"
    save_landmarks(LandmarkSet(rng.permutation(1000)[:N], rng.normal(size=(N, 3)),
                               rng.uniform(1, 40, N), {"count": N}), path)
    landmarks._sidecar(path).path.unlink()
    return path


def write_poses(d, rng):
    path = d / "poses.txt"
    status = ["ok" if ok else "no_consensus" for ok in rng.random(N) < 0.7]
    save_poses(PoseTable(rng.permutation(100)[:N], status,
                         [random_rotation(rng) for _ in range(N)], rng.normal(size=(N, 3)),
                         rng.integers(0, 50, N), rng.uniform(0, 3, N)), path, 0.01)
    return path


def write_detections(d, rng):
    path = d / "dets.csv"
    pairs = rng.permutation(40)[:N]  # image pair // 8, landmark pair % 8
    save_detections(DetectionTable(pairs // 8, pairs % 8, rng.uniform(0, 640, (N, 2)),
                                   rng.uniform(0.31, 1.0, N)), path)
    detection._sidecar(path).path.unlink()
    return path


def write_scene(d, rng, warm=False):
    """SCENE's files in d, with the copy of the good files when warm (loaded
    once from it), without any copy when cold."""
    save_scene(SCENE, d)
    if warm:
        load_scene(d)
    else:
        scene_model._sidecar(d).path.unlink()
    return d


def write_cameras(d, rng):
    """SCENE's files in d, with N - 1 seeded cameras beside its own, without
    any copy."""
    cameras = {int(cam_id): Intrinsics(*rng.uniform(300, 400, 2), *rng.uniform(200, 300, 2),
                                       640, 480) for cam_id in rng.permutation(100)[:N - 1] + 2}
    save_scene(SceneModel({**SCENE.intrinsics, **cameras}, SCENE.images, SCENE.points), d)
    scene_model._sidecar(d).path.unlink()
    return d


def seeded_mesh(rng):
    return TriangleMesh(rng.normal(size=(N, 3)), [[k, k + 1, k + 2] for k in range(N - 2)])


def write_ply(d, rng):
    path = d / "mesh.ply"
    save_mesh_ply(seeded_mesh(rng), path)
    return path


def write_obj(d, rng):
    path = d / "mesh.obj"
    mesh = seeded_mesh(rng)
    path.write_text("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
                    + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.triangles))
    return path


def kept(monkeypatch, load):
    """(make, kept rows) of each _io.lines with a make that load() reads, in order."""
    seen = []

    class Recording(_io.lines):
        def __exit__(self, *exc):
            if self.make is not None:
                seen.append((self.make, list(self.rows)))
            return super().__exit__(*exc)

    with monkeypatch.context() as m:
        m.setattr(_io, "lines", Recording)
        load()
    return seen


def refused(make, rows) -> bool:
    try:
        make(rows)
    except (ValueError, DataError):
        return True
    return False


EYE, ZERO = np.eye(3), [0.0, 0.0, 0.0]
# name -> (write a seeded valid file, the kept rows' reader of its path (their
# position among the reader's makes), {rule: a row that breaks it, of a row
# and the first row}).
MAKES = {
    "landmarks": (write_landmarks, (landmarks._parse, 0), {
        "repeat": lambda row, first: (first[0], *row[1:]),
        "nan-position": lambda row, first: (row[0], [0.0, math.nan, 0.0], row[2]),
        "inf-saliency": lambda row, first: (*row[:2], math.inf),
        "id-past-int64": lambda row, first: (2**63, *row[1:]),
    }),
    "poses": (write_poses, (load_poses, 0), {
        "repeat": lambda row, first: (first[0], *row[1:]),
        "unknown-status": lambda row, first: (row[0], "lost", *row[2:]),
        "no-pose": lambda row, first: (row[0], "ok", 2 * EYE, ZERO, row[4], 0.5),
        "negative-count": lambda row, first: (*row[:4], -1, row[5]),
        "nan-error": lambda row, first: (row[0], "ok", EYE, ZERO, row[4], math.nan),
        "id-past-int64": lambda row, first: (2**63, *row[1:]),
    }),
    "detections": (write_detections, (detection._row_columns, 0), {
        "repeat": lambda row, first: (*first[:2], *row[2:]),
        "nan-pixel": lambda row, first: (*row[:2], (math.nan, 1.0), row[3]),
        "zero-confidence": lambda row, first: (*row[:3], 0.0),
        "id-past-int64": lambda row, first: (row[0], 2**63, *row[2:]),
    }),
    "cameras": (write_cameras, (scene_model._parse_scene, 0), {
        "repeat": lambda row, first: (first[0], *row[1:]),
        "nan-focal-length": lambda row, first: (row[0], math.nan, *row[2:]),
        "nan-principal-point": lambda row, first: (*row[:3], math.nan, *row[4:]),
        "width-past-int64": lambda row, first: (*row[:5], 2**63, row[6]),
        "id-past-int64": lambda row, first: (2**63, *row[1:]),
    }),
    "images": (write_scene, (scene_model._parse_scene, 1), {
        "repeat": lambda row, first: (first[0], *row[1:]),
        "inf-translation": lambda row, first: (*row[:3], [math.inf, 0.0, 0.0], row[4]),
        "reflection": lambda row, first: (*row[:2], np.diag([1.0, 1.0, -1.0]), *row[3:]),
        "camera-past-int64": lambda row, first: (row[0], 2**63, *row[2:]),
    }),
    "points": (write_scene, (scene_model._parse_scene, 2), {
        "repeat": lambda row, first: (first[0], *row[1:]),
        "nan-position": lambda row, first: (row[0], [math.nan, 0.0, 0.0], *row[2:]),
        "colour-past-int64": lambda row, first: (*row[:2], [2**63, 0, 0], *row[3:]),
        "empty-track": lambda row, first: (*row[:3], [], []),
    }),
    "ply": (write_ply, (load_mesh, 0), {
        "nan": lambda row, first: (math.nan, *row[1:]),
        "inf": lambda row, first: (*row[:2], -math.inf),
    }),
    "obj": (write_obj, (load_mesh, 0), {
        "nan": lambda row, first: (row[0], math.nan, row[2]),
    }),
}


@pytest.mark.parametrize("name, rule", [(name, rule) for name, (*_, rules) in MAKES.items()
                                        for rule in rules])
def test_a_refused_row_refuses_every_longer_run(tmp_path, monkeypatch, name, rule):
    write, (read, which), rules = MAKES[name]
    rng = seeded(name, rule)
    path = write(tmp_path, rng)
    make, rows = kept(monkeypatch, lambda: read(path))[which]
    assert len(rows) >= 6 and not refused(make, rows)
    k = int(rng.integers(1, len(rows)))
    rows[k] = rules[rule](rows[k], rows[0])
    runs = range(len(rows) + 1)
    assert [refused(make, rows[:n]) for n in runs] == [n > k for n in runs]


def edit(tokens, at, value):
    return [*tokens[:at], value, *tokens[at + 1:]]


# name -> (write a seeded valid file, the file's name when the writer gives a
# directory, its load, its separator, the 0-based numbers of its data lines
# among all its lines, a data line's tokens with a value its table refuses,
# and with a token that does not parse).
FILES = {
    "landmarks": (write_landmarks, None, load_landmarks, " ",
                  lambda lines: [i for i, line in enumerate(lines) if line[0] != "#"],
                  lambda t: edit(t, 2, "nan"), lambda t: edit(t, 3, "x")),
    "poses": (write_poses, None, load_poses, " ",
              lambda lines: [i for i, line in enumerate(lines) if line[0] != "#"],
              lambda t: edit(t, 9, "-1"), lambda t: edit(t, 9, "x")),
    "detections": (write_detections, None, load_detections, ",",
                   lambda lines: list(range(1, len(lines))),
                   lambda t: edit(t, 4, "0"), lambda t: edit(t, 4, "x")),
    "images": (write_scene, "images.txt", load_scene, " ",
               lambda lines: list(range(2, len(lines), 2)),  # the image lines
               lambda t: edit(t, 5, "inf"), lambda t: edit(t, 0, "x")),
    "points": (write_scene, "points3D.txt", load_scene, " ",
               lambda lines: list(range(1, len(lines))),
               lambda t: edit(t, 1, "nan"), lambda t: edit(t, 0, "x")),
    "ply": (write_ply, None, load_mesh, " ",
            lambda lines: list(range(lines.index("end_header") + 1,
                                     lines.index("end_header") + 1 + N)),
            lambda t: edit(t, 0, "nan"), lambda t: edit(t, 0, "x")),
    "obj": (write_obj, None, load_mesh, " ",
            lambda lines: [i for i, line in enumerate(lines) if line[0] == "v"],
            lambda t: edit(t, 1, "nan"), lambda t: edit(t, 1, "x")),
}


@pytest.mark.parametrize("name, warm", [
    *[pytest.param(name, False, id=name) for name in FILES],
    *[pytest.param(name, True, id=f"warm-{name}") for name in ("images", "points")]])
def test_the_first_bad_line_is_named(tmp_path, name, warm):
    # A bad row at a seeded line, alone, then before a line that does not
    # parse, then before a second bad row: each gives the first one's error.
    write, file, load, sep, data, bad, malformed = FILES[name]
    rng = seeded(name)
    target = write(tmp_path, rng, warm) if file else write(tmp_path, rng)
    path = target / file if file else target
    lines = path.read_text().splitlines()
    rows = data(lines)
    first = int(rng.choice(rows[:-1]))
    second = int(rng.choice([i for i in rows if i > first]))
    errors = []
    for later in (None, malformed, bad):
        edited = list(lines)
        edited[first] = sep.join(bad(lines[first].split(sep)))
        if later is not None:
            edited[second] = sep.join(later(lines[second].split(sep)))
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(MalformedFileError) as err:
            load(target)
        errors.append(str(err.value))
    assert errors[0].startswith(f"{path}:{first + 1}: ")
    assert errors == [errors[0]] * 3


# The tokens that a fuzz case puts in place of one token of a line.
TOKENS = ["nan", "inf", str(2**63), "-1", "1.5", "x"]
CASES = 150  # per file

# name -> (write the seeded valid files into a directory, the files that
# the fuzz mutates, the load of the directory)
FUZZED = {
    "landmarks": (write_landmarks, ["sel.txt"], lambda d: load_landmarks(d / "sel.txt")),
    "poses": (write_poses, ["poses.txt"], lambda d: load_poses(d / "poses.txt")),
    "detections": (write_detections, ["dets.csv"], lambda d: load_detections(d / "dets.csv")),
    "scene": (write_scene, ["cameras.txt", "images.txt", "points3D.txt"], load_scene),
}


def mutations(rng, lines):
    """CASES (line number, mutated lines, kind): one token of a line swapped
    for one of TOKENS, the line deleted, or the line repeated after itself."""
    for _ in range(CASES):
        i, kind = rng.randrange(len(lines)), rng.choice(["swap", "swap", "delete", "repeat"])
        if kind == "swap":
            parts = re.split(r"([ ,])", lines[i])  # tokens at even positions
            j = 2 * rng.randrange((len(parts) + 1) // 2)
            yield i, [*lines[:i], "".join(edit(parts, j, rng.choice(TOKENS))), *lines[i + 1:]], kind
        elif kind == "delete":
            yield i, [*lines[:i], *lines[i + 1:]], kind
        else:
            yield i, [*lines[:i + 1], *lines[i:]], kind


@pytest.mark.parametrize("name", sorted(FUZZED))
def test_fuzzed_files_load_or_name_their_line(tmp_path, name):
    write, files, load = FUZZED[name]
    write(tmp_path, seeded(name))
    texts = {file: (tmp_path / file).read_text().splitlines() for file in files}
    rng = random.Random(name)
    for file in files:
        path = tmp_path / file
        for i, lines, kind in mutations(rng, texts[file]):
            for other in files:
                (tmp_path / other).write_text("\n".join(texts[other]) + "\n")
            # A line of one non-ASCII blank, which the row loop skips, keeps
            # the CSV from the one-pass parse.
            path.write_text("\n".join(lines) + ("\n \n" if file.endswith(".csv") else "\n"))
            for copy in tmp_path.glob(".*landmarkloc*"):
                copy.unlink()
            try:
                load(tmp_path)
            except DataError as exc:
                message = str(exc)
                assert any(message.startswith(f"{tmp_path / f}") for f in files), message
                named = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
                if named:
                    # The mutated line; for a repeat, the copy after it; for a
                    # deletion, a line beside the gap.
                    lines_named = {"swap": [i + 1], "repeat": [i + 2], "delete": [i, i + 1]}
                    assert int(named[1]) in lines_named[kind], (kind, i, message)
