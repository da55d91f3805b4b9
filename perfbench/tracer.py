"""Out-of-program tracing for the traced benchmark run.

The tracer replaces a module attribute (``landmarkloc.pose.p3p_solve``,
``landmarkloc.cli.localize``, ...) with a wrapper that records one span per
call. Callers inside the package look these names up at call time, so
wrapping the attribute a caller uses sees every call it makes without any
change to the package itself. Spans stay in memory; the traced run writes
them out once, when it ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "attrs")

    def __init__(self, id, parent, request, name, start):
        self.id = id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder with a parent stack; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, request=None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        sp = Span(len(self.spans), parent.id if parent else None, request, name,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: str, name: str, observe=None, request=None):
        """Replace ``module.attr`` (or ``module.Class.attr``) by a traced wrapper.

        ``observe(args, kwargs, result)`` returns span attributes taken from
        the call; ``request(args, kwargs)`` returns the request id a call
        starts. A call that raises gets ``{"raised": <exception name>}``.
        """
        package, module, *path, attr = target.split(".")
        owner = importlib.import_module(f"{package}.{module}")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            req = request(args, kwargs) if request else None
            with self.span(name, req) as sp:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    sp.attrs = {"raised": type(exc).__name__}
                    raise
                if observe is not None:
                    sp.attrs = observe(args, kwargs, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self, label: str):
        """Every span as a JSON-ready dict tagged with ``label``."""
        for sp in self.spans:
            yield {"pass": label, "id": sp.id, "parent": sp.parent,
                   "request": sp.request, "name": sp.name,
                   "start": sp.start, "end": sp.end, "attrs": sp.attrs}


def self_times(spans) -> list:
    """Per span, its duration minus the time its child spans cover.

    The pipeline runs on one thread, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    return [sp.duration - child_time[sp.id] for sp in spans]


# --- the wrapped layers ----------------------------------------------------

def _p3p(args, kwargs, result):
    return {"hypotheses": len(result)}


def _refine(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _prosac(args, kwargs, result):
    return {"iterations": result.num_iterations}


def _localize(args, kwargs, result):
    return {"status": result.status}


def _rasterize(args, kwargs, result):
    return {"triangles": len(args[0]), "pixels": result.width * result.height}


def _ray_cast(args, kwargs, result):
    mesh = args[0]
    rays = len(result[0])
    return {"rays": rays, "tests": rays * len(mesh)}


def _load_scene(args, kwargs, result):
    path = Path(args[0])
    size = sum(os.path.getsize(path / name)
               for name in ("cameras.txt", "images.txt", "points3D.txt"))
    return {"bytes": size}


def _load_detections(args, kwargs, result):
    return {"rows": sum(len(ds) for ds in result.values())}


def _lookup(args, kwargs, result):
    return {"pixels": len(result[0])}


# (attribute the caller looks up, layer name, observer). Each layer is wrapped
# where its in-package caller finds it, so nested calls are seen.
LAYERS = [
    ("landmarkloc.cli.generate_scene", "synth.generate_scene", None),
    ("landmarkloc.cli.write_scene", "synth.write_scene", None),
    ("landmarkloc.synth.ray_cast", "mesh.ray_cast", _ray_cast),
    ("landmarkloc.synth.score_saliency", "landmarks.score_saliency", None),
    ("landmarkloc.cli.load_scene", "scene_model.load_scene", _load_scene),
    ("landmarkloc.cli.load_landmarks", "landmarks.load_landmarks", None),
    ("landmarkloc.cli.select_landmarks", "landmarks.select_landmarks", None),
    ("landmarkloc.landmarks.score_saliency", "landmarks.score_saliency", None),
    ("landmarkloc.cli.make_partition", "partitioning.make_partition", None),
    ("landmarkloc.cli.load_mesh", "mesh.load_mesh", None),
    ("landmarkloc.cli.compute_visibility", "visibility.compute_visibility", None),
    ("landmarkloc.visibility.landmark_reference_normals",
     "visibility.landmark_reference_normals", None),
    ("landmarkloc.visibility.nearest_surface_point", "mesh.nearest_surface_point", None),
    ("landmarkloc.visibility.rasterize_depth", "visibility.rasterize_depth", _rasterize),
    ("landmarkloc.visibility.DepthMap.lookup", "visibility.DepthMap.lookup", _lookup),
    ("landmarkloc.cli.simulate_detections", "detection.simulate_detections", None),
    ("landmarkloc.cli.save_detections", "detection.save_detections", None),
    ("landmarkloc.cli.load_detections", "detection.load_detections", _load_detections),
    ("landmarkloc.cli.merge_ensemble", "detection.merge_ensemble", None),
    ("landmarkloc.pose.prosac_estimate", "pose.prosac_estimate", _prosac),
    ("landmarkloc.pose.p3p_solve", "pose.p3p_solve", _p3p),
    ("landmarkloc.pose.reprojection_errors", "pose.reprojection_errors", None),
    ("landmarkloc.pose.refine_pose", "pose.refine_pose", _refine),
    ("landmarkloc.pose.pose_residuals_jacobian", "pose.pose_residuals_jacobian", None),
    ("landmarkloc.cli.build_report", "evaluation.build_report", None),
    ("landmarkloc.evaluation.detection_angular_error",
     "evaluation.detection_angular_error", None),
]

IMAGE_SPAN = "pose.localize"


def install(tracer: Tracer) -> None:
    for target, name, observe in LAYERS:
        tracer.wrap(target, name, observe)
    # One span per image: the request. The image id is its request id.
    tracer.wrap("landmarkloc.cli.localize", IMAGE_SPAN, _localize,
                request=lambda args, kwargs: int(args[0].image_id))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass: ``<module>.<function>.<quantity>``
    -> (value, unit)."""
    spans = tracer.spans
    by = defaultdict(list)
    for sp, st in zip(spans, self_times(spans)):
        by[sp.name].append((sp, st))

    def calls(name):
        return len(by[name])

    def total(name):
        return sum(sp.duration for sp, _ in by[name])

    def self_total(name):
        return sum(st for _, st in by[name])

    def attr_sum(name, key, value=None):
        """Sum of an attribute, or the number of spans where it equals value."""
        attrs = [(sp.attrs or {}).get(key, 0) for sp, _ in by[name]]
        return sum(attrs) if value is None else sum(1 for a in attrs if a == value)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def calls_and_time(name, unit, scale):
        m[name + ".calls"] = (calls(name), "count")
        m[f"{name}.{unit}_per_call"] = (ratio(total(name) * scale, calls(name)), unit)

    p3p = "pose.p3p_solve"
    calls_and_time(p3p, "us", 1e6)
    m[p3p + ".hypotheses_per_call"] = (
        ratio(attr_sum(p3p, "hypotheses"), calls(p3p)), "count")
    m[p3p + ".degenerate_ratio"] = (
        ratio(attr_sum(p3p, "raised", "DegeneracyError"), calls(p3p)), "ratio")
    calls_and_time("pose.reprojection_errors", "us", 1e6)
    rp = "pose.refine_pose"
    calls_and_time(rp, "ms", 1e3)
    m[rp + ".iterations_per_call"] = (ratio(attr_sum(rp, "iterations"), calls(rp)), "count")
    m[rp + ".converged_ratio"] = (ratio(attr_sum(rp, "converged"), calls(rp)), "ratio")
    calls_and_time("pose.pose_residuals_jacobian", "us", 1e6)
    pe = "pose.prosac_estimate"
    m[pe + ".iterations"] = (attr_sum(pe, "iterations"), "count")
    m[pe + ".self_ms_per_image"] = (ratio(self_total(pe) * 1e3, calls(IMAGE_SPAN)), "ms")
    for status in ("ok", "degenerate", "insufficient", "no_consensus"):
        m[f"{IMAGE_SPAN}.status.{status}"] = (attr_sum(IMAGE_SPAN, "status", status), "count")

    rd = "visibility.rasterize_depth"
    calls_and_time(rd, "ms", 1e3)
    m[rd + ".triangles_per_call"] = (ratio(attr_sum(rd, "triangles"), calls(rd)), "count")
    m[rd + ".pixels_per_call"] = (ratio(attr_sum(rd, "pixels"), calls(rd)), "count")
    m["visibility.depth_pixels_used_ratio"] = (
        ratio(attr_sum("visibility.DepthMap.lookup", "pixels"), attr_sum(rd, "pixels")),
        "ratio")
    m["visibility.landmark_reference_normals.ms"] = (
        total("visibility.landmark_reference_normals") * 1e3, "ms")
    m["visibility.compute_visibility.self_ms"] = (
        self_total("visibility.compute_visibility") * 1e3, "ms")

    rc = "mesh.ray_cast"
    m[rc + ".calls"] = (calls(rc), "count")
    m[rc + ".rays"] = (attr_sum(rc, "rays"), "count")
    m[rc + ".ray_triangle_tests"] = (attr_sum(rc, "tests"), "count")
    m[rc + ".ns_per_test"] = (ratio(total(rc) * 1e9, attr_sum(rc, "tests")), "ns")
    calls_and_time("mesh.nearest_surface_point", "us", 1e6)

    ls = "scene_model.load_scene"
    calls_and_time(ls, "ms", 1e3)
    m[ls + ".mb_per_s"] = (ratio(attr_sum(ls, "bytes") / 1e6, total(ls)), "MB/s")
    calls_and_time("landmarks.load_landmarks", "ms", 1e3)
    calls_and_time("landmarks.score_saliency", "us", 1e6)
    ld = "detection.load_detections"
    m[ld + ".calls"] = (calls(ld), "count")
    m[ld + ".rows_per_s"] = (ratio(attr_sum(ld, "rows"), total(ld)), "1/s")
    calls_and_time("detection.merge_ensemble", "us", 1e6)
    calls_and_time("evaluation.detection_angular_error", "us", 1e6)
    for name in ("mesh.load_mesh", "landmarks.select_landmarks",
                 "detection.save_detections", "detection.simulate_detections",
                 "evaluation.build_report", "partitioning.make_partition",
                 "synth.generate_scene", "synth.write_scene"):
        m[name + ".ms"] = (total(name) * 1e3, "ms")
    return m


def call_counts(tracer: Tracer) -> dict:
    """Calls per span name; equal inputs must give equal counts."""
    counts = defaultdict(int)
    for sp in tracer.spans:
        counts[sp.name] += 1
    return dict(sorted(counts.items()))
