"""A fixed calibration kernel, for scaling measured times to one CPU speed.

On a shared 2-vCPU Xeon virtual machine, other tenants' work lands on the
same cores: for tens of seconds at a time every CPU-bound step, crowdwise's
and this kernel's alike, takes up to twice as long.  Run-to-run medians of
raw wall time then spread by 12-37% across seeds, which no bound a
regression check can use would hold.  So the loop times this kernel right
before and after each op, in the same process, and reports the op's wall
and CPU time multiplied by ``reference_s() / kernel time``: the time the op
would have taken at the speed where the kernel takes ``reference_s()``.
The raw medians are printed next to the scaled ones.

The kernel does the kinds of work crowdwise spends its time in.  Its serial
part parses decimal text with the ``csv`` module and ``float`` and runs a
Python loop of small matrix-vector products.  Its threaded part is one
matrix product large enough for BLAS to spread over its threads, so that a
busy second core shows in it as it does in ops that use both cores.
Workloads whose ops run on one core are scaled by the serial part alone:
adding the threaded part widened their spread from 2.5% to 22%.  Workloads
whose ops keep both cores busy are scaled by the sum, which narrowed their
spread from 12-16% to 4-9%.  The kernel uses nothing from crowdwise, so no
change to the program can move it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# Seconds each part takes on an idle 2-vCPU Xeon virtual machine (about the
# fastest of 400 timings); scaled times are seconds at that speed.
REFERENCE_SERIAL_S = 0.008
REFERENCE_THREADED_S = 0.008


def reference_s(threaded: bool) -> float:
    return REFERENCE_SERIAL_S + (REFERENCE_THREADED_S if threaded else 0.0)


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-5.0, 5.0, size=(1000, 21))
        self._text = "\n".join(",".join("%.6f" % v for v in row) for row in values)
        self._square = rng.standard_normal((300, 300))
        self._tall = rng.standard_normal((10000, 64))
        self._small = rng.standard_normal((64, 64))

    def seconds(self) -> tuple[float, float]:
        """Wall times of one pass of the serial and the threaded part."""
        start = time.perf_counter()
        rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self._text))]
        v = np.array(rows)[:300, 0]
        for _ in range(150):
            v = self._square @ v
            v = v / np.linalg.norm(v)
        middle = time.perf_counter()
        for _ in range(6):
            self._tall @ self._small
        return middle - start, time.perf_counter() - middle
