"""Closed loop of CLI invocations in one interpreter, one client.

    python3 perfbench/loop.py PLAN.json RESULT.json

Run by ``run.py`` in a child interpreter that imports crowdwise and the
small calibration and tracing modules, and reads files generated
beforehand, so that the peak RSS and CPU time this process reads from its
own ``getrusage`` belong to the program under test.

PLAN holds ``ops`` (argv lists), ``cycle``, ``seconds`` and ``trace``.  One
untimed warm-up op runs first.  Then ops run back to back, op ``i`` being
``ops[i % len(ops)]``, until ``seconds`` have passed at the end of a whole
cycle.  With ``trace`` each op runs twice, untraced and then traced, so the
ratio of the two gives the tracing overhead.  The calibration kernel runs
between ops; each op records the mean of the kernel times on either side,
serial and threaded part apiece.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import crowdwise.cli as cli
from calib import Kernel
from tracing import Tracer


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "wall_s": wall, "cpu_s": cpu}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg": os.getloadavg(),
    }


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as handle:
        plan = json.load(handle)
    ops, cycle = plan["ops"], plan["cycle"]
    tracer = Tracer() if plan["trace"] else None
    kernel = Kernel()
    records = []

    warmup = run_op(ops[0])
    warmup.update(index=0, warmup=True, traced=False, calib_s=kernel.seconds())
    records.append(warmup)
    start = time.perf_counter()
    calib_before = kernel.seconds()
    i = 0
    while True:
        argv = ops[i % len(ops)]
        rec = run_op(argv)
        rec.update(index=i % len(ops), warmup=False, traced=False)
        batch = [rec]
        if tracer is not None:
            tracer.op = i
            tracer.install()
            try:
                rec = run_op(argv)
            finally:
                tracer.uninstall()
            rec.update(index=i % len(ops), warmup=False, traced=True)
            batch.append(rec)
        calib_after = kernel.seconds()
        for rec in batch:
            rec["calib_s"] = [(a + b) / 2.0 for a, b in zip(calib_before, calib_after)]
        records.extend(batch)
        calib_before = calib_after
        i += 1
        if i % cycle == 0 and time.perf_counter() - start >= plan["seconds"]:
            break
    loop_s = time.perf_counter() - start
    result = {
        "crowdwise": os.path.dirname(cli.__file__),
        "records": records,
        "loop_s": loop_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
