"""End-to-end benchmark of the crowdwise command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Times a fresh interpreter importing
``crowdwise.cli`` several times (``setup_s``), generates the workload's
inputs from the seed (``gen.py``, numpy only), then runs ``loop.py`` in a
child interpreter: a closed loop, one client, calling ``crowdwise.cli.main``
for ``S`` seconds.  Every op's output is checked (``check.py``) and must
match the output of every other op with the same arguments.  Prints one
line per metric, then the environment, then a JSON object as the last line:
the end-to-end metrics with ``--trace 0`` (times scaled to a reference CPU
speed, see ``calib.py``), and with ``--trace 1`` the per-layer metrics of a
run in which every op runs untraced and then traced.  Exits 2 without a
result if the checkout has no crowdwise sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calib import reference_s  # noqa: E402
from tracing import layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0

SELF_LAYERS = (
    "cli.main", "cli.ingest_csv", "cli.load_model", "cli.read_candidates",
    "model.estimate_model", "model.validate_model", "schemes.optimal_weights",
    "schemes.selection", "wisdom.evaluate", "diversity.rank_candidates",
    "diversity.extend_model", "montecarlo.simulate",
)
COUNTED_CALLS = ("model.validate_model", "schemes.optimal_weights", "wisdom.evaluate")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``crowdwise.cli``.

    Not scaled by the calibration kernel: process start-up did not track
    the kernel, and scaling widened the spread of set-up times.  No timeout:
    with one, ``subprocess`` polls for the exit in steps of up to 50 ms,
    which showed as 50 ms jumps in the set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import crowdwise.cli"],
                       env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters (user ... steal) of the machine."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:9]]
    except OSError:
        return None


def run_loop(work: Path, argvs: list[list[str]], cycle: int, seconds: int,
             trace: bool, timeout: float) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan = {"ops": argvs, "cycle": cycle, "seconds": seconds, "trace": trace}
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "loop.py"), str(plan_path), str(result_path)],
                   env=child_env(), check=True, timeout=timeout)
    return json.loads(result_path.read_text())


def count_failures(records: list[dict], ops) -> tuple[int, list[str]]:
    """Failed ops, and the first few reasons."""
    failed, reasons = 0, []
    first_stdout: dict[int, str] = {}
    for rec in records:
        problems = []
        if rec["error"] is not None:
            problems.append("escaped exception:\n" + rec["error"])
        elif rec["code"] != 0:
            problems.append(f"exit code {rec['code']}: {rec['stderr'].strip()}")
        else:
            try:
                problems += ops[rec["index"]].check(rec["stdout"])
            except (KeyError, ValueError) as err:
                problems.append(f"malformed report: {err!r}")
            expected = first_stdout.setdefault(rec["index"], rec["stdout"])
            if rec["stdout"] != expected:
                problems.append("stdout differs from an earlier op with the same arguments")
        if problems:
            failed += 1
            reasons.extend(problems[: max(0, 5 - len(reasons))])
    return failed, reasons


def kernel_s(rec: dict, threaded: bool) -> float:
    serial, threaded_part = rec["calib_s"]
    return serial + (threaded_part if threaded else 0.0)


def end_to_end(result: dict, setup_s: float, attempted: int, failed: int,
               cycle: int, threaded: bool) -> dict:
    """Times are scaled to the reference speed of the kernel part(s) that
    match the workload's use of cores (see calib.py).  The ops of a cycle
    differ by design, so the medians are taken over whole cycles of the
    mean time per op in each; with one op per cycle that is the per-op
    median."""
    measured = [r for r in result["records"] if not r["warmup"]]

    def per_cycle(key: str) -> list[float]:
        scaled = [r[key] * reference_s(threaded) / kernel_s(r, threaded) for r in measured]
        return [statistics.fmean(scaled[i:i + cycle]) for i in range(0, len(scaled), cycle)]

    walls = per_cycle("wall_s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_p50_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(measured) / (sum(walls) * cycle), "1/s"),
        "cpu_per_op_s": (statistics.median(per_cycle("cpu_s")), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(result: dict) -> dict:
    records = [r for r in result["records"] if not r["warmup"]]
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    totals = layer_totals(result["spans"])
    metrics = {f"{name}.self_s": (totals[name]["self_s"] / n, "s") for name in SELF_LAYERS}
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = (totals[name]["calls"] / n, "count")
    solver = totals["schemes.optimal_weights"]
    ranking = totals["diversity.rank_candidates"]
    ingest = totals["cli.ingest_csv"]
    simulate = totals["montecarlo.simulate"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics.update({
        "schemes.optimal_weights.iterations": (solver["iterations"] / n, "count"),
        "schemes.optimal_weights.distinct_ratio": (ratio(solver["distinct"], solver["calls"]), "ratio"),
        "diversity.failed_ratio": (ratio(ranking["failed"], ranking["candidates"]), "ratio"),
        "cli.ingest_csv.rows_per_s": (ratio(ingest["rows"], ingest["self_s"]), "1/s"),
        "montecarlo.simulate.trials_per_s": (ratio(simulate["trials"], simulate["self_s"]), "1/s"),
        "trace.overhead_ratio": (sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain),
                                 "ratio"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "crowdwise" / "cli.py").is_file():
        print(f"error: no crowdwise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = 0.0 if args.trace else measure_setup()
        ops = workload.build(args.seed, work)
        timeout = DEADLINE_S - (time.perf_counter() - started)
        ticks_before = cpu_ticks()
        result = run_loop(work, [op.argv for op in ops], workload.cycle, args.seconds,
                          bool(args.trace), timeout)
        ticks_after = cpu_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if Path(result["crowdwise"]).resolve() != (ROOT / "src" / "crowdwise").resolve():
        print(f"error: the loop imported crowdwise from {result['crowdwise']}", file=sys.stderr)
        return 2

    if ticks_before and ticks_after:
        delta = [b - a for a, b in zip(ticks_before, ticks_after)]
        result["environment"]["cpu_steal_share"] = delta[7] / max(sum(delta), 1)
    records = result["records"]
    attempted = len(records)
    failed, reasons = count_failures(records, ops)
    if args.trace:
        metrics = per_layer(result)
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps(result["spans"]))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(result, setup_s, attempted, failed, workload.cycle,
                             workload.threaded)

    measured = sum(1 for r in records if not r["warmup"] and not r["traced"])
    print(f"workload {workload.name}: {workload.summary}")
    print(f"seed {args.seed}, {measured} measured ops over {result['loop_s']:.2f} s "
          f"(closed loop, 1 client), {attempted} ops checked, {failed} failed")
    for reason in reasons:
        print(f"  failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not args.trace:
        plain = [r for r in records if not r["warmup"]]
        print(f"unscaled: wall_p50_s {statistics.median(r['wall_s'] for r in plain):.6g} s, "
              f"cpu_per_op_s {statistics.median(r['cpu_s'] for r in plain):.6g} s; "
              f"calibration kernel median "
              f"{statistics.median(kernel_s(r, workload.threaded) for r in plain):.6g} s "
              f"against {reference_s(workload.threaded)} s at the reference speed")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
