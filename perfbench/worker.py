"""One pass of one workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py <src-dir> <workload> <seed> <trace 0|1>
       python3 perfbench/worker.py <src-dir> --import-only

The parent (run.py) sets PYTHONPATH to <src-dir> and pins every BLAS and
OpenMP pool to one thread. ``import_s`` times ``import qaoa_locality`` in
this fresh interpreter; ``wall_s`` and ``cpu_s`` time the workload's ops,
including ``report_json``, and exclude the oracles, which run afterwards.
"""
from __future__ import annotations

import time

_t0 = time.perf_counter()
import qaoa_locality  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _check_origin(src: str) -> None:
    # Measure the checkout's own sources, never an installed copy.
    here = os.path.realpath(os.path.dirname(qaoa_locality.__file__))
    want = os.path.realpath(os.path.join(src, "qaoa_locality"))
    if here != want:
        sys.exit(f"qaoa_locality imported from {here}, expected {want}")


def _peak_rss_mib() -> float:
    # ru_maxrss survives execve on Linux, so a child starts from its parent's
    # high-water mark; VmHWM belongs to this process's own address space.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer
    from workloads import WORKLOADS

    ops = WORKLOADS[workload](seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    outputs = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append((op.call(qaoa_locality, [o for o, _ in outputs]), None))
        except Exception:  # a raising op is counted as failed, and the pass goes on
            outputs.append((None, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mib = _peak_rss_mib()
    layers = tracer.summary(wall) if tracer else None

    failed = 0
    problems = []
    gap = None
    for op, (out, error) in zip(ops, outputs):
        if error is None:
            try:
                found = op.check(out)
            except Exception:  # a malformed result fails its op
                found = [("exact", f"oracle raised:\n{traceback.format_exc(limit=3)}")]
            if op.gap is not None:
                gap = op.gap(out)
        else:
            found = [("exact", f"raised:\n{error}")]
        if found:
            failed += 1
            problems += [(kind, f"{op.name}: {msg}") for kind, msg in found]
    return {
        "workload": workload,
        "seed": seed,
        "import_s": IMPORT_S,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "ops": len(ops),
        "ops_failed": failed,
        "problems": problems,
        "opt_gap": gap,
        "layers": layers,
    }


def main(argv: list[str]) -> None:
    _check_origin(argv[0])
    if argv[1:] == ["--import-only"]:
        print(json.dumps({"import_s": IMPORT_S}))
        return
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    print(json.dumps(run_pass(workload, seed, trace)))


if __name__ == "__main__":
    main(sys.argv[1:])
