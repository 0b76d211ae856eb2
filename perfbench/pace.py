"""How fast the CPU runs while a timed call runs, and times scaled to a fixed speed.

A shared host's CPU speed drifts by 20-40% over seconds to minutes, so two
sets of runs of the same code can differ by more than any useful bound. A
``Probe`` runs a fixed kernel in a side thread every ``INTERVAL_S`` seconds
while the timed call runs, and records the thread CPU time each kernel took.
The benchmark pins itself to one CPU (see ``bootstrap.py``), so the probe and
the program share that CPU and slow down together. A wall time ``w`` spent
while the kernel's median time was ``k`` is reported as ``w * REFERENCE_S / k``:
the time the call would take on a CPU that runs the kernel in ``REFERENCE_S``.
The raw wall time and ``k`` are kept in the full record.

The kernel mixes interpreter bytecode, small numpy calls and k-d tree
queries, as the program does. Each part alone tracked ``run_pipeline``'s
wall time on ``collage`` with an elasticity of 0.74-1.13 over a period whose
raw spread was 16%; together at the weights below they track it at 0.93 and
leave a spread of 3% (2-vCPU Xeon VM). The kernel takes about 2 ms and so costs
the timed call about 2% of a CPU.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
from scipy.spatial import cKDTree

REFERENCE_S = 2e-3
INTERVAL_S = 0.1
_LOOP = 12_000
_ARRAY_REPEATS = 16
_RNG = np.random.default_rng(0)
_DATA = _RNG.random(4096)
_TREE = cKDTree(_RNG.random((2000, 3)))
_QUERIES = _RNG.random((300, 3))


def kernel() -> float:
    """Thread CPU seconds spent on a fixed piece of work."""
    start = time.thread_time()
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    for _ in range(_ARRAY_REPEATS):
        np.sort(_DATA)
        np.cumsum(_DATA)
        _DATA * _DATA
    _TREE.query(_QUERIES, k=8)
    return time.thread_time() - start


class Probe:
    """Context manager that samples ``kernel`` until it exits; at least once."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="pace-probe", daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(kernel())
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def kernel_s(self) -> float:
        """Median kernel time over the probe's life."""
        return statistics.median(self.samples)

    def scale(self, wall_s: float) -> float:
        """``wall_s`` at the reference speed."""
        return wall_s * REFERENCE_S / self.kernel_s
