"""The four workloads: seeded inputs, the CLI invocations, and their checks.

Each layer likely to be optimised does most of the work in one workload and
almost none in another:

* ``csv_analyze``: CSV ingest and moment estimation; never calls the solver,
  so it is the control for any ``schemes`` change.
* ``large_optimize``: one solve at N=1000 plus parsing a 10^6-entry model
  file; no CSV ingest.
* ``candidate_rank``: forty medium solves per op of near-identical crowds
  (the base crowd is re-solved for every candidate).
* ``simulate_mc``: ``montecarlo.simulate`` alone; no solver calls.

An op is one CLI invocation.  A workload cycles through a list of distinct
invocations, and a run always ends on a whole cycle, so every invocation
weighs the same in the medians and the per-op counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

CSV_ROWS = 100_000
CSV_JUDGES = 20
LARGE_N = 1000
LARGE_ACTIVE = 40
LARGE_MARGIN = 0.03
LARGE_MODELS = 2
RANK_N = 50
RANK_CANDIDATES = 20
RANK_CROWDS = 4
SIM_N = 20
SIM_TRIALS = 1_000_000
SIM_SEEDS = 64
# Crowds that are the same for every seed draw from this seed, under stream
# tags (2 and 3) that no seeded draw uses.
FIXED_SEED = 0


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    summary: str
    build: Callable[[int, Path], list[Op]]
    cycle: int  # ops per whole cycle
    threaded: bool  # ops keep both cores busy (BLAS threads); see calib.py


def _write(path: Path, content: str | bytes) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def build_csv_analyze(seed: int, work: Path) -> list[Op]:
    rng = gen.rng_for(seed, 1)
    crowd = gen.factor_crowd(rng, CSV_JUDGES)
    data = gen.quantize(crowd.sample(rng, CSV_ROWS))
    path = _write(work / "judgments.csv", gen.judgments_csv(data, gen.judge_labels(CSV_JUDGES)))
    moments = check.sample_moments(data)
    argv = ["analyze", "--data", path, "--weights", "skill", "--selection", "best",
            "--format", "machine"]
    return [Op(argv, lambda text: check.check_analyze_skill_best(text, moments))]


def build_large_optimize(seed: int, work: Path) -> list[Op]:
    """The crowds are the same for every seed; the seed shuffles their
    judges.  Solve time differed by 14-16% (quartile distance over median)
    between pairs of random crowds of this family."""
    ops = []
    for k in range(LARGE_MODELS):
        moments, w_star = gen.planted_crowd(gen.rng_for(FIXED_SEED, 2, k), LARGE_N, LARGE_ACTIVE,
                                            LARGE_MARGIN)
        order = gen.rng_for(seed, 21, k).permutation(LARGE_N)
        moments, w_star = moments.permuted(order), w_star[order]
        path = _write(work / f"large{k}.model", gen.model_text(moments, gen.judge_labels(LARGE_N)))
        ops.append(Op(
            ["optimize", "--model", path, "--format", "machine"],
            lambda text, m=moments, w=w_star: check.check_optimize(text, m, w),
        ))
    return ops


def build_candidate_rank(seed: int, work: Path) -> list[Op]:
    """The base crowds are the same for every seed; the seed draws the
    candidates.  Solver work differs eight-fold from one random crowd to
    the next (100 to 870 iterations per solve), which made per-seed medians
    spread by 41% when the base crowds were drawn from the seed too."""
    ops = []
    n_total = RANK_N + RANK_CANDIDATES
    labels = gen.judge_labels(n_total)
    for k in range(RANK_CROWDS):
        base = gen.factor_crowd(gen.rng_for(FIXED_SEED, 3, k), RANK_N)
        crowd = gen.join(base, gen.factor_crowd(gen.rng_for(seed, 31, k), RANK_CANDIDATES))
        model = _write(work / f"rank{k}.model",
                       gen.model_text(crowd.moments(slice(RANK_N)), labels[:RANK_N]))
        cands = _write(work / f"rank{k}.csv", gen.candidates_csv(crowd, RANK_N, labels))
        ops.append(Op(
            ["candidate", "--model", model, "--candidates", cands, "--format", "machine"],
            lambda text: check.check_candidate(text, labels[RANK_N:]),
        ))
    return ops


def build_simulate_mc(seed: int, work: Path) -> list[Op]:
    crowd = gen.factor_crowd(gen.rng_for(seed, 4), SIM_N)
    moments = crowd.moments()
    path = _write(work / "sim.model", gen.model_text(moments, gen.judge_labels(SIM_N)))
    ops = []
    for k in range(SIM_SEEDS):
        sim_seed = seed * SIM_SEEDS + k
        ops.append(Op(
            ["simulate", "--model", path, "--trials", str(SIM_TRIALS), "--seed", str(sim_seed),
             "--format", "machine"],
            lambda text, s=sim_seed: check.check_simulate(text, moments, SIM_TRIALS, s),
        ))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("csv_analyze",
                 f"analyze --data <{CSV_ROWS}x{CSV_JUDGES} CSV> --weights skill --selection best",
                 build_csv_analyze, 1, False),
        Workload("large_optimize",
                 f"optimize --model <N={LARGE_N} model>, {LARGE_MODELS} fixed models in turn, "
                 "seeded judge order",
                 build_large_optimize, LARGE_MODELS, True),
        Workload("candidate_rank",
                 f"candidate --model <N={RANK_N} model> --candidates <{RANK_CANDIDATES} rows>, "
                 f"{RANK_CROWDS} fixed crowds in turn, seeded candidates",
                 build_candidate_rank, RANK_CROWDS, False),
        Workload("simulate_mc",
                 f"simulate --model <N={SIM_N} model> --trials {SIM_TRIALS}, a new --seed per op",
                 # The per-op seeds change no count the trace reports.
                 build_simulate_mc, 1, True),
    )
}

