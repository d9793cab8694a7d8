"""A fixed calibration kernel: how fast this machine runs at the moment.

On a host whose cores are shared, the same pass of the same workload ran up
to 30% faster or slower from one ten-minute stretch to the next, with CPU
time equal to wall time and no steal time, so the processor itself was
slower. run.py times this kernel in its own process just before and just
after each pass and corrects the pass's wall time by it. The kernel calls no qaoa_locality code, so a change to the package cannot
move it; it mixes the two kinds of work the package does: interpreter-bound
graph code and numpy sweeps over complex amplitudes.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np


def _interpreter_work() -> int:
    # breadth-first search over a fixed 3-out-regular graph of 2**14 vertices
    n = 1 << 14
    adj = [((7 * i + 1) % n, (13 * i + 5) % n, (i * i + 3) % n) for i in range(n)]
    reached = 0
    for start in range(12):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)
        reached += len(dist)
    return reached


def _array_work() -> float:
    # phase and mixer sweeps over 2**18 complex128 amplitudes (4 MiB)
    m = 18
    amps = np.full(1 << m, 2.0 ** (-m / 2.0), dtype=np.complex128)
    table = (np.arange(1 << m) % 7).astype(np.float64)
    for _ in range(2):
        amps *= np.exp(-0.3j * table)
        for k in range(m):
            view = amps.reshape(-1, 2, 1 << k)
            a0 = view[:, 0, :].copy()
            view[:, 0, :] = 0.8 * a0 - 0.6j * view[:, 1, :]
            view[:, 1, :] = 0.8 * view[:, 1, :] - 0.6j * a0
    return float(np.vdot(amps, amps).real)


def calibration_s() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - start
