"""Benchmark of the landmarkloc pipeline.

    python3 perfbench/run.py [--workload demo|occluders|ensemble1000|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (``worker.py``), one at a time.
The child generates its inputs from the workload seed, runs the CLI stages
for a fixed number of rounds, which ``--seconds`` sets so that the run
measures about that long, and checks the outputs.
This script prints every metric with its unit and, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--workload all`` the metric names carry the workload as a prefix.
Per-run records (seed, versions, stage times, hashes, checks) are written
to ``perfbench/results/``; spans of traced runs to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("demo", "occluders", "ensemble1000")
TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    work = HERE / "work" / workload
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(seconds), str(trace), str(work)],
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    for name, ok in run["checks"].items():
        print(f"{workload}: check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in run["metrics"].items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    if "raw_s" in run:
        print(f"{workload}: host speed {run['host_speed']:.3f} of the reference; raw wall "
              "seconds: " + ", ".join(f"{k} {v:.4g}" for k, v in run["raw_s"].items()))
    print(f"{workload}: localize_fail_rate = {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} of {run['attempted']} images not ok)")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace)
        if run is None:
            return 1
        runs[name] = run
    prefix = len(runs) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {(f"{w}.{k}" if prefix else k): m
                    for w, r in runs.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
