#!/usr/bin/env python3
"""Spot-check the analytic error formulas against seeded simulation.

Generates a handful of random crowds, computes crowd and individual MSE
and the wisdom gap between them analytically under uniform and optimal
weights, simulates the same quantities, and prints both with the Monte Carlo
standard error.  Large deviations (beyond 4 standard errors) are flagged
loudly.

Usage:
    python scripts/verify_by_simulation.py [--models 8] [--trials 200000]
"""

import argparse
import sys

from crowdwise.montecarlo import GENERATORS, SimulationSpec, random_model, simulate
from crowdwise.schemes import optimal_weights, uniform_selection, uniform_weights
from crowdwise.wisdom import evaluate


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--models", type=int, default=8)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--generator", default="gaussian", choices=tuple(GENERATORS))
    args = parser.parse_args(argv)

    print(
        f"{'model':<7} {'N':<3} {'scheme':<8} {'quantity':<16} "
        f"{'analytic':<14} {'empirical':<14} {'std err':<12} ok"
    )
    failures = 0
    for k in range(args.models):
        n = 2 + k % 6
        model = random_model(
            n, seed=args.seed * 7919 + k, bias_scale=0.5, criterion_var=1.0
        )
        schemes = {
            "uniform": uniform_weights(n),
            "optimal": optimal_weights(model).weights,
        }
        for name, w in schemes.items():
            p = uniform_selection(n)
            analytic = evaluate(model, w, p)
            spec = SimulationSpec(
                model,
                trials=args.trials,
                seed=args.seed * 104_729 + k,
                distribution=args.generator,
            )
            result = simulate(spec, w, p)
            rows = (
                ("crowd MSE", analytic.crowd_mse,
                 result.empirical_crowd_mse, result.standard_errors[0]),
                ("individual MSE", analytic.individual_mse,
                 result.empirical_individual_mse, result.standard_errors[1]),
                ("wisdom gap", analytic.wisdom_gap,
                 result.empirical_wisdom_gap, result.wisdom_gap_se),
            )
            for quantity, expected, observed, se in rows:
                ok = abs(observed - expected) <= 4.0 * max(se, 1e-12)
                failures += not ok
                print(
                    f"{k:<7} {n:<3} {name:<8} {quantity:<16} "
                    f"{expected:<14.6g} {observed:<14.6g} {se:<12.3g} "
                    f"{'yes' if ok else 'NO <-- check'}"
                )
    if failures:
        print(f"{failures} quantities fell outside 4 standard errors", file=sys.stderr)
        return 1
    print("all quantities within 4 standard errors")
    return 0


if __name__ == "__main__":
    sys.exit(run())
