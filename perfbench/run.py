"""Benchmark of qaoa_locality: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. Every pass of a workload
runs in a fresh, single-threaded Python process (worker.py), one at a time.
Passes repeat until the next one would end after ``--seconds``; at least one
always runs. The run also times ``import qaoa_locality`` in several fresh
processes.

``--trace 0`` reports the end-to-end metrics: median pass wall time corrected
toward a reference machine speed (``wall_cal_s``, see speed.py), median peak
RSS of the pass processes and median import time, corrected the same way
(``setup_s``); raw times, CPU time,
``opt_gap`` and op counts are printed alongside. ``--trace 1`` makes
the same untraced passes and then one traced pass, and reports per-layer
self times and counts (tracing.py). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from speed import calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("ensemble", "angles", "census", "sample-prune")
SETUP_SAMPLES = 9
# Median time of speed.calibration_s on the 2-vCPU Xeon VM where the seed
# baseline was taken. wall_cal_s scales a pass's wall time by the square root
# of (this / the kernel's time around the pass): measured elasticities of
# pass time to kernel time were 0.39 (ensemble), 0.64 (sample-prune) and
# 1.12 (census), so the square root removes about half of the drift of a
# typical workload without over-correcting the numpy-bound ones.
CAL_REFERENCE_S = 0.215
DEADLINE_S = 170.0  # the whole run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(SRC), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return f"numpy {np.__version__}, blas {blas_desc}"


def at_reference_speed(seconds: float, cal_s: float) -> float:
    """Correct a time taken while the calibration kernel took ``cal_s``."""
    return seconds * math.sqrt(CAL_REFERENCE_S / cal_s)


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (n={n}; a percentile needs n >= 11), max {max(values):.4f}"
    k = n - 11
    return f"p{100.0 * k / (n - 1):.0f} {sorted(values)[k]:.4f} (n={n})"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    print(f"# workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"# nproc {nproc} (os.cpu_count {os.cpu_count()}), {blas_info()}, "
          f"BLAS/OpenMP threads per worker {env['OPENBLAS_NUM_THREADS']}, one worker at a time")

    cal_before = calibration_s()
    imports = [run_worker(["--import-only"], env, deadline)["import_s"] for _ in range(SETUP_SAMPLES)]
    setup_cal_s = 0.5 * (cal_before + calibration_s())

    def timed_pass(traced: bool) -> dict:
        # The calibration brackets the pass, in this process, so the pass
        # process's peak RSS stays the workload's own.
        before = calibration_s()
        result = run_worker([workload, str(seed), "1" if traced else "0"], env, deadline)
        result["cal_s"] = 0.5 * (before + calibration_s())
        result["wall_cal_s"] = at_reference_speed(result["wall_s"], result["cal_s"])
        return result

    passes = []
    loop_start = time.monotonic()
    while True:
        passes.append(timed_pass(False))
        now = time.monotonic()
        typical = statistics.median(p["wall_s"] + 2 * p["cal_s"] for p in passes)
        if now - loop_start + typical > seconds or now + typical > deadline:
            break
    traced = timed_pass(True) if trace else None
    runs = passes + ([traced] if traced else [])

    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    metrics = {
        "wall_cal_s": statistics.median(p["wall_cal_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": at_reference_speed(statistics.median(imports), setup_cal_s),
    }
    attempted = sum(p["ops"] for p in runs)
    failed = sum(p["ops_failed"] for p in runs)
    problems = sorted({(kind, msg) for p in runs for kind, msg in p["problems"]})
    correct = not any(kind == "exact" for kind, _ in problems)

    print(f"wall_s        median {wall:.4f} s over {len(walls)} passes; "
          f"highest percentile {high_percentile(walls)}")
    print("              passes " + " ".join(f"{w:.4f}" for w in walls))
    print(f"wall_cal_s    median {metrics['wall_cal_s']:.4f} s: wall_s x sqrt({CAL_REFERENCE_S} s / "
          f"calibration kernel s), kernel per pass " + " ".join(f"{p['cal_s']:.4f}" for p in passes))
    print(f"peak_rss_mib  median {metrics['peak_rss_mib']:.1f} MiB")
    print(f"setup_s       median {metrics['setup_s']:.4f} s over {len(imports)} fresh imports, "
          f"corrected like wall_cal_s from a raw {statistics.median(imports):.4f} s")
    print(f"cpu_s         median {statistics.median(p['cpu_s'] for p in passes):.4f} s")
    gaps = [p["opt_gap"] for p in runs if p["opt_gap"] is not None]
    if gaps:
        print(f"opt_gap       {gaps[0]:.6e} (p=2 d=3 optimum minus best_value; < 1e-9 reads 0)")
    print(f"ops           {attempted} attempted, ops_failed {failed}")
    for kind, msg in problems:
        print(f"problem [{kind}] {msg}")

    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_cal_s"] - metrics["wall_cal_s"]
        layers["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        print(f"traced pass   {traced['wall_s']:.4f} s, {layers['trace.spans']} spans, "
              f"wrapped self time covers {100.0 * layers['trace.coverage']:.1f}% of it")
        for name, value in layers.items():
            print(f"  {name:28s} {value}")
        metrics = layers

    # BENCHMARK.json declares which metrics the result line carries, and their units.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "qaoa_locality" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'qaoa_locality'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
