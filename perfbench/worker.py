"""One benchmark run of one workload, in its own process.

``run.py`` starts this file once per workload so that peak RSS covers a
single run. It generates the scene, runs the pipeline stages through
``landmarkloc.cli.main`` (one client, closed loop: each stage starts when
the previous one has returned), checks the outputs and prints one JSON
object as its last line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "landmarkloc").is_dir():
    # Measure the checkout's own source, never an installed copy.
    sys.exit(f"landmarkloc sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from landmarkloc import cli, visibility  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402

SYNTH_SEED = 7
MIN_ROUNDS = 2  # rounds per run, at least
STAGES = ("select", "partition", "visibility", "simulate", "localize", "evaluate")
DRAW_STAGES = STAGES[3:]  # the stages a detection draw changes
OTHER_STAGES = ("select", "partition", "simulate", "evaluate")
DRAW_FILES = ("dets.csv", "poses.txt")
HASHED = ("sel.txt", "part.txt", "vis.txt", "dets.csv", "poses.txt")
# stage -> the function it calls once per image, under the name it looks up.
# An untraced pass reads the probe and puts one clock pair around each of
# these calls, and nothing else.
PER_IMAGE = {"visibility": (visibility, "rasterize_depth"), "localize": (cli, "localize")}

# Shared by every workload: the README room (6 x 4 x 3 m), 100 cameras at
# 640 x 480, cameras kept 1.4 m from the walls and aimed at least 3 m away.
ROOM = ["--cameras", "100", "--width", "640", "--height", "480",
        "--margin", "1.4", "--min-target-dist", "3.0"]

# name -> synth flags, select (count, min track), groups, outlier rate,
# whether localize reads one CSV per partition group.
WORKLOADS = {
    "demo": (["--sites", "250"], (200, 8), 8, 0.3, False),
    "occluders": (["--sites", "1000", "--occluders", "6"], (250, 5), 8, 0.0, False),
    "ensemble1000": (["--sites", "1400"], (1000, 8), 8, 0.1, True),
}


class Shape(NamedTuple):
    """How many samples a timed run takes of each part of a workload.

    A run makes ``--seconds // round_s`` rounds. round_s is what one round
    took on a 2-vCPU Xeon at 2.1 GHz in a slow spell of the host, so the
    number of samples behind each figure is fixed by the settings, never
    by how fast the code is. Each draw is another detection draw; more
    draws average out how much work a seed's outliers cause.
    """
    round_s: float  # seconds of one round
    synth_runs: int  # synth runs per round
    draws: int  # detection draws per pass
    repeats: dict  # stage -> runs per draw on the same inputs, if not 1


SHAPE = {
    "demo": Shape(24.0, 3, 4, {"select": 3, "partition": 3}),
    "occluders": Shape(17.0, 2, 2, {"select": 3, "partition": 3, "simulate": 2,
                                    "evaluate": 2}),
    "ensemble1000": Shape(28.0, 2, 2, {"partition": 3, "evaluate": 2}),
}


def rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds // SHAPE[workload].round_s))


def stage_seeds(seed: int, draw: int) -> dict:
    """Stage seeds of one detection draw, derived from the workload seed.

    The scene (synth seed 7) belongs to the workload: another scene changes
    the work itself, by up to 40% of localize time, which would drown any
    change a run is meant to show. The workload seed varies what a detector
    and the robust solver see. Seed 0, draw 0 gives the README's seeds.
    """
    return {"synth": SYNTH_SEED, "simulate": 3 + 100 * seed + draw,
            "localize": 100 * seed + draw}


class StageFailed(Exception):
    pass


class Timing(NamedTuple):
    """One run of a stage: its wall time less the time spent reading the
    probe during it, and the same in reference seconds (see ``speed``)."""
    raw_s: float
    ref_s: float


def reference_s(raw_s: float, probe_s: float, images=()) -> float:
    """A stage run in reference seconds. Each per-image call scales by the
    probe readings taken during it; the rest of the run by ``probe_s``, the
    mean reading over the whole run."""
    inner_s = sum(ms for ms, _ in images) / 1e3
    return ((raw_s - inner_s) * speed.scale(probe_s)
            + sum(ms * speed.scale(p) for ms, p in images) / 1e3)


def run_stage(argv, log) -> float:
    """Run one CLI stage and return its wall time; a non-zero exit fails the run."""
    with redirect_stdout(log):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise StageFailed(f"{argv[0]} exited {code}")
    return elapsed


def synth_argv(workload, out):
    flags = WORKLOADS[workload][0]
    return ["synth", "--out", str(out), "--seed", str(SYNTH_SEED)] + ROOM + flags


def pipeline_argvs(workload, seeds, scene, work):
    _, (count, min_track), groups, outliers, split = WORKLOADS[workload]
    s, w = scene, work
    dets = ([str(w / f"dets_g{g}.csv") for g in range(groups)] if split
            else [str(w / "dets.csv")])
    return {
        "select": ["select", "--scene", str(s / "scene"), "--count", str(count),
                   "--min-track", str(min_track), "--out", str(w / "sel.txt")],
        "partition": ["partition", "--landmarks", str(w / "sel.txt"),
                      "--criterion", "default", "--groups", str(groups),
                      "--out", str(w / "part.txt")],
        "visibility": ["visibility", "--scene", str(s / "scene"),
                       "--mesh", str(s / "mesh.ply"), "--landmarks", str(w / "sel.txt"),
                       "--out", str(w / "vis.txt")],
        "simulate": ["simulate", "--scene", str(s / "scene"),
                     "--landmarks", str(w / "sel.txt"), "--visibility", str(w / "vis.txt"),
                     "--noise-sigma", "1", "--outlier-rate", str(outliers),
                     "--seed", str(seeds["simulate"]), "--out", str(w / "dets.csv")],
        "localize": ["localize", "--scene", str(s / "scene"),
                     "--landmarks", str(w / "sel.txt"), "--detections", *dets,
                     "--seed", str(seeds["localize"]), "--out", str(w / "poses.txt")],
        "evaluate": ["evaluate", "--scene", str(s / "scene"),
                     "--estimates", str(w / "poses.txt"), "--detections", str(w / "dets.csv"),
                     "--landmarks", str(w / "sel.txt"), "--out", str(w / "report.txt"),
                     "--csv", str(w / "report.csv"), "--per-image", str(w / "errors.csv")],
    }


def split_detections(work: Path, groups: int) -> None:
    """Write one detection CSV per partition group, by plain text, untimed."""
    group_of = {}
    for line in (work / "part.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            lid, grp = line.split()
            group_of[lid] = int(grp)
    header, *rows = (work / "dets.csv").read_text().splitlines()
    out = [[header] for _ in range(groups)]
    for row in rows:
        out[group_of[row.split(",")[1]]].append(row)
    for g, lines in enumerate(out):
        (work / f"dets_g{g}.csv").write_text("\n".join(lines) + "\n")


def file_hash(path: Path) -> str:
    h = hashlib.sha256()
    for line in path.read_text().splitlines(keepends=True):
        if not line.startswith("# sec_per_image="):  # wall time, differs per run
            h.update(line.encode())
    return h.hexdigest()


def read_visibility(path: Path) -> tuple:
    """(image ids, {row id: set of visible image ids}) from a visibility table."""
    image_ids, rows = None, {}
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "#":
            if tokens[1:2] == ["image_ids"]:
                image_ids = [int(t) for t in tokens[2:]]
            continue
        rows[int(tokens[0])] = {int(t) for t in tokens[1:]}
    return image_ids, rows


def source_ids(path: Path) -> dict:
    """Landmark id -> source point id from a landmarks file."""
    out = {}
    for line in path.read_text().splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            out[int(tokens[0])] = int(tokens[1])
    return out


def visibility_agreement(scene: Path, work: Path) -> float:
    """Share of (landmark, image) pairs where vis.txt matches the synth's
    exact ray-cast table, joined on source_point_id."""
    gt_images, gt_rows = read_visibility(scene / "visibility.txt")
    images, rows = read_visibility(work / "vis.txt")
    if images != gt_images:
        raise StageFailed("vis.txt and visibility.txt list different images")
    gt_by_source = {src: gt_rows[lid] for lid, src in source_ids(scene / "landmarks.txt").items()}
    sel = source_ids(work / "sel.txt")
    agree = 0
    for lid, src in sel.items():
        mine, truth = rows[lid], gt_by_source[src]
        agree += len(images) - len(mine ^ truth)
    return agree / (len(sel) * len(images))


def detected_images(work: Path) -> set:
    return {int(row.split(",", 1)[0])
            for row in (work / "dets.csv").read_text().splitlines()[1:] if row}


def pose_lines(work: Path) -> list:
    """(image id, status) per line of poses.txt."""
    out = []
    for line in (work / "poses.txt").read_text().splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            out.append((int(tokens[0]), tokens[8]))
    return out


def read_report(work: Path) -> dict:
    lines = [l for l in (work / "report.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    return dict(zip(lines[0].split(","), lines[1].split(",")))


class Pass:
    """One pass: select, partition and visibility once, then simulate,
    localize and evaluate once per detection draw. Records the times of
    every run of every stage, per draw, the per-image times and the outputs.

    With ``repeat``, each stage runs as often as the workload's Shape says,
    on the same inputs; otherwise once. An untraced pass runs under a
    ``speed.Sampler`` and records every time both raw and in reference
    seconds; a traced pass records raw stage times only.
    """

    def __init__(self, workload, seed, scene, work, log, draws, tracer=None,
                 repeat=False, sampler=None):
        self.stage_s = {}  # (stage, draw) -> raw seconds of each run
        self.stage_ref_s = {}  # (stage, draw) -> reference seconds of each run
        # (stage, draw) -> per run of a PER_IMAGE stage, (ms, probe s) of each
        # image in order
        self.image_ms = {}
        self.hashes, self.statuses, self.reports = {}, [], []
        self.one_pose_per_image = self.report_counts_detected = True
        groups, split = WORKLOADS[workload][2], WORKLOADS[workload][4]
        repeats = SHAPE[workload].repeats if repeat else {}
        current = []  # (ms, probe s) of each image of this stage run
        originals = [(module, name, getattr(module, name))
                     for module, name in PER_IMAGE.values()]

        def timed(original):
            def call(*args, **kwargs):
                mark = sampler.mark()
                result = original(*args, **kwargs)
                seconds, probe_s = sampler.since(mark)
                current.append((seconds * 1e3, probe_s))
                return result
            return call

        if tracer is None:
            for module, name, original in originals:
                setattr(module, name, timed(original))
        try:
            for k in draws:
                argvs = pipeline_argvs(workload, stage_seeds(seed, k), scene, work)
                for stage in (STAGES if k == draws[0] else DRAW_STAGES):
                    runs = self.stage_s.setdefault((stage, k), [])
                    for _ in range(repeats.get(stage, 1)):
                        current = []
                        if stage in PER_IMAGE:
                            self.image_ms.setdefault((stage, k), []).append(current)
                        if tracer is None:
                            mark = sampler.mark()
                            run_stage(argvs[stage], log)
                            raw_s, probe_s = sampler.since(mark)
                            runs.append(raw_s)
                            self.stage_ref_s.setdefault((stage, k), []).append(
                                reference_s(raw_s, probe_s, current))
                        else:
                            with tracer.span("stage." + stage):
                                runs.append(run_stage(argvs[stage], log))
                    if stage == "simulate" and split:
                        split_detections(work, groups)
                self.record_draw(work, k)
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def record_draw(self, work, k):
        for name in HASHED:
            if k == 0 or name in DRAW_FILES:
                self.hashes[f"draw{k}/{name}"] = file_hash(work / name)
        lines = pose_lines(work)
        self.statuses += [status for _, status in lines]
        ids = [iid for iid, _ in lines]
        detected = detected_images(work)
        self.one_pose_per_image &= len(ids) == len(set(ids)) and set(ids) == detected
        report = read_report(work)
        self.report_counts_detected &= int(report["n_images"]) == len(detected)
        self.reports.append(report)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def environment(workload, seed) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "stage_seeds": [stage_seeds(seed, k) for k in range(SHAPE[workload].draws)],
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(workload, work, log, runs=1, sampler=None) -> tuple:
    """Generate the scene ``runs`` times; returns (scene dir, Timing of each
    run, if a sampler is given)."""
    out = work / "scene"
    times = []
    for _ in range(runs):
        shutil.rmtree(out, ignore_errors=True)
        mark = sampler and sampler.mark()
        run_stage(synth_argv(workload, out), log)
        if sampler:
            raw_s, probe_s = sampler.since(mark)
            times.append(Timing(raw_s, reference_s(raw_s, probe_s)))
    return out, times


def stage_time(passes, stage, field="stage_ref_s") -> float:
    """A stage's median run over all passes, averaged over draws."""
    keys = [key for key in passes[0].stage_s if key[0] == stage]
    return statistics.fmean(
        statistics.median(t for p in passes for t in getattr(p, field)[key]) for key in keys)


def image_ms(passes, stage) -> list:
    """Per image of a PER_IMAGE stage, in each draw, its median time in
    reference ms over all runs of that draw."""
    out = []
    for key in passes[0].image_ms:
        if key[0] == stage:
            runs = [[ms * speed.scale(p) for ms, p in run]
                    for pas in passes for run in pas.image_ms[key]]
            out += list(np.median(np.asarray(runs), axis=0))
    return out


def fastest_stage(passes, stage) -> float:
    """A stage's fastest run over all passes, averaged over draws."""
    keys = [key for key in passes[0].stage_s if key[0] == stage]
    return statistics.fmean(min(t for p in passes for t in p.stage_s[key]) for key in keys)


def outcome(passes) -> tuple:
    """(images attempted, images whose status is not ok) over the passes."""
    statuses = [s for p in passes for s in p.statuses]
    return len(statuses), sum(1 for s in statuses if s != "ok")


def timed_run(workload, seed, seconds, work, log) -> dict:
    """Rounds of set-up then a pass; ``seconds`` sets how many rounds.

    Set-up repeats in every round so that its samples, like the passes',
    spread over the whole run. Every time is in reference seconds (see
    ``speed``), so that slow spells of the host, which last seconds to
    minutes and reach 2x, cancel. Each figure is a median over the runs on
    the same inputs: setup_s over all synth runs, a stage over its runs in
    each draw, and each image of localize over its runs; stage times are
    then averaged over the draws.
    """
    passes, setup_times = [], []
    for _ in range(rounds(workload, seconds)):
        with speed.Sampler() as sampler:
            scene, times = setup(workload, work, log, SHAPE[workload].synth_runs, sampler)
            setup_times.append(times)
            passes.append(Pass(workload, seed, scene, work, log,
                               tuple(range(SHAPE[workload].draws)), repeat=True,
                               sampler=sampler))
    first = passes[0]
    mean = lambda key, scale=1.0: statistics.fmean(
        float(r[key]) * scale for r in first.reports)
    images = image_ms(passes, "localize")
    stage_s = {stage: stage_time(passes, stage) for stage in STAGES}
    raw_s = {stage: stage_time(passes, stage, "stage_s") for stage in STAGES}
    other_s = sum(stage_s[stage] for stage in OTHER_STAGES)
    metrics = {
        "setup_s": (statistics.median(t.ref_s for times in setup_times for t in times), "s"),
        "pipeline_s": (sum(stage_s.values()), "s"),
        "visibility_s": (stage_s["visibility"], "s"),
        "localize_s": (stage_s["localize"], "s"),
        "other_stages_s": (other_s, "s"),
        "localize_image_ms.p50": (percentile(images, 50), "ms"),
        "localize_image_ms.p90": (percentile(images, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "recall_5cm5deg": (mean("recall"), "ratio"),
        "median_rot_deg": (mean("median_rot_deg"), "deg"),
        "median_pos_cm": (mean("median_pos_m", 100.0), "cm"),
        "visibility_agreement": (visibility_agreement(scene, work), "ratio"),
    }
    attempted, failed = outcome(passes)
    checks = {
        "one_pose_line_per_detected_image": all(p.one_pose_per_image for p in passes),
        "report_counts_every_detected_image": all(p.report_counts_detected for p in passes),
        "outputs_repeat": all(p.hashes == first.hashes for p in passes),
        "metrics_finite": all(math.isfinite(v) for v, _ in metrics.values()),
    }
    return {
        "workload": workload,
        "trace": 0,
        "environment": environment(workload, seed),
        "passes": len(passes),
        # Raw wall times next to the reference ones, and the host's speed:
        # the reference probe time over the median probe reading.
        "raw_s": {"setup": statistics.median(t.raw_s for times in setup_times for t in times),
                  **raw_s},
        "host_speed": speed.REF_S / statistics.median(
            p for pas in passes for runs in pas.image_ms.values() for run in runs
            for _, p in run),
        "setup_s_each": setup_times,
        "stage_s_each": [{f"{stage}/draw{k}": list(zip(runs, p.stage_ref_s[(stage, k)]))
                          for (stage, k), runs in p.stage_s.items()} for p in passes],
        "localize_image_samples": len(images),
        "localize_runs": sum(len(runs) for p in passes
                             for (stage, _), runs in p.image_ms.items() if stage == "localize"),
        "localize_fail_rate": failed / attempted,
        "statuses": [dict(Counter(p.statuses)) for p in passes],
        "hashes": first.hashes,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(workload, seed, seconds, work, log) -> dict:
    """Untraced and traced passes in turn (traced ones include synth) on the
    first detection draw. A traced round holds two passes, so ``seconds``
    gives half as many rounds as in a timed run, and at least two."""
    span_file = work / "spans.jsonl"
    scene, _ = setup(workload, work, log)

    def plain_pass():
        with speed.Sampler() as sampler:
            return Pass(workload, seed, scene, work, log, (0,), sampler=sampler)

    plain = [plain_pass()]
    traced, tracers = [], []
    for _ in range(max(MIN_ROUNDS, rounds(workload, seconds) // 2)):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            with tracer.span("stage.synth"):
                setup(workload, work, log)
            traced.append(Pass(workload, seed, scene, work, log, (0,), tracer))
        finally:
            tracer.unwrap_all()
        tracers.append(tracer)
        plain.append(plain_pass())
    with open(span_file, "w") as fh:
        for i, tracer in enumerate(tracers):
            for record in tracer.records(f"traced{i + 1}"):
                fh.write(json.dumps(record) + "\n")
    layer = [tracing.layer_metrics(t) for t in tracers]
    counts = [tracing.call_counts(t) for t in tracers]
    units = {k: u for k, (_, u) in layer[0].items()}
    metrics = {k: statistics.median(m[k][0] for m in layer) for k in layer[0]}
    pipeline_s = lambda passes: sum(fastest_stage(passes, stage) for stage in STAGES)
    metrics["trace.overhead_ratio"] = pipeline_s(traced) / pipeline_s(plain) - 1.0
    units["trace.overhead_ratio"] = "ratio"
    checks = {
        "call_counts_repeat": all(c == counts[0] for c in counts),
        "one_pose_line_per_detected_image": all(
            p.one_pose_per_image for p in plain + traced),
        "report_counts_every_detected_image": all(
            p.report_counts_detected for p in plain + traced),
        "outputs_repeat": all(p.hashes == plain[0].hashes for p in plain + traced),
    }
    attempted, failed = outcome(plain + traced)
    return {
        "workload": workload,
        "trace": 1,
        "environment": environment(workload, seed),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "call_counts": counts[0],
        "span_file": str(span_file.relative_to(ROOT)),
        "hashes": plain[0].hashes,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv) -> int:
    workload, seed, seconds, trace, work = argv
    seed, seconds, trace, work = int(seed), float(seconds), int(trace), Path(work)
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with open(work / "stages.log", "w") as log:
        try:
            run = (traced_run if trace else timed_run)(workload, seed, seconds, work, log)
        except StageFailed as exc:
            print(f"stage failed: {exc}", file=sys.stderr)
            return 1
    run["run_s"] = time.perf_counter() - t0
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
