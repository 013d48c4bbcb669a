"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit PASS lines).  Every expected value below is either a closed form
checked by hand, an independent brute-force oracle computed inside the test,
or a seeded simulation whose tolerance comes from its own standard error.
"""

import numpy as np
import pytest

from conftest import grid_minimum, model_corpus, random_simplex_points
from crowdwise.cli import main, save_model
from crowdwise.diversity import CandidateMember, rank_candidates
from crowdwise.model import fixed_criterion_model
from crowdwise.montecarlo import SimulationSpec, simulate
from crowdwise.schemes import (
    best_member_selection,
    objective_gradient,
    optimal_weights,
    uniform_selection,
    uniform_weights,
)
from crowdwise.wisdom import WeightVector, crowd_mse, evaluate, per_judge_mse


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def raw_objective(model, w):
    w = np.asarray(w, dtype=float)
    bias = model.judge_means @ w - model.criterion_mean
    return float(
        bias * bias
        + w @ model.judge_cov @ w
        - 2.0 * (model.cross_cov @ w)
        + model.criterion_var
    )


def test_criterion_1_vertex_consistency():
    """Point-mass crowd weights reproduce per-judge errors to 1e-12 relative."""
    models = model_corpus(200, base_seed=1000)
    checked = 0
    for model in models:
        n = model.n_judges
        per_judge = per_judge_mse(model)
        for i in range(n):
            vertex = crowd_mse(model, WeightVector.point_mass(i, n)).total
            scale = max(abs(vertex), abs(per_judge[i]), 1e-300)
            assert abs(vertex - per_judge[i]) <= 1e-12 * scale
            checked += 1
    _pass(1, f"vertex consistency on 200 models ({checked} vertices)")


@pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
def test_criterion_2_averaging_law(n):
    """Unbiased independent unit-variance judges: crowd MSE 1/N, gap 1 - 1/N."""
    model = fixed_criterion_model(np.zeros(n), np.eye(n), 0.0)
    report = evaluate(model, uniform_weights(n), uniform_selection(n))
    assert abs(report.crowd_mse - 1.0 / n) <= 1e-12
    assert abs(report.wisdom_gap - (1.0 - 1.0 / n)) <= 1e-12
    _pass(2, f"classic averaging law at N={n}")


def test_criterion_3_bias_robustness():
    """Common bias leaves the wisdom gap at 0.75 for N=4 unit-variance judges."""
    for bias in (0.0, 1.0, 10.0, 100.0):
        model = fixed_criterion_model(np.full(4, bias), np.eye(4), 0.0)
        report = evaluate(model, uniform_weights(4), uniform_selection(4))
        assert abs(report.wisdom_gap - 0.75) <= 1e-9
    _pass(3, "gap independent of common bias across b in {0, 1, 10, 100}")


def test_criterion_4_hedging():
    """Two correlated unit-variance judges: crowd MSE (1 + rho)/2; zero at rho=-1."""
    for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
        model = fixed_criterion_model(
            [0.0, 0.0], [[1.0, rho], [rho, 1.0]], 0.0
        )
        result = crowd_mse(model, uniform_weights(2))
        assert abs(result.total - (1.0 + rho) / 2.0) <= 1e-12
    hedge = fixed_criterion_model([0.0, 0.0], [[1.0, -1.0], [-1.0, 1.0]], 0.0)
    assert optimal_weights(hedge).objective <= 1e-12
    _pass(4, "anticorrelation cuts crowd error; perfect hedge reaches zero")


def test_criterion_5_always_wise():
    """Optimal weights beat every selection distribution on 1000 random models."""
    models = model_corpus(1000, base_seed=5000)
    rng = np.random.default_rng(987)
    comparisons = 0
    for model in models:
        n = model.n_judges
        solution = optimal_weights(model)
        selections = [uniform_selection(n), best_member_selection(model)]
        selections += [
            WeightVector(p) for p in random_simplex_points(rng, n, 10)
        ]
        for p in selections:
            report = evaluate(model, solution.weights, p)
            assert report.wisdom_gap >= -1e-9
            comparisons += 1
    _pass(5, f"always-wise across 1000 models ({comparisons} selection rules)")


def test_criterion_6_qp_oracle():
    """Solver matches exhaustive 1e-4 grid search; KKT and gradient checks."""
    models = model_corpus(100, base_seed=6000, sizes=(2, 3))
    rng = np.random.default_rng(606)
    for model in models:
        solution = optimal_weights(model)
        assert solution.kkt_residual <= 1e-8
        oracle = grid_minimum(model)
        assert abs(solution.objective - oracle) <= 1e-6
        # Analytic gradient against central finite differences.
        w = rng.dirichlet(np.ones(model.n_judges))
        analytic = objective_gradient(model, w)
        fd = np.empty_like(analytic)
        h = 1e-6
        for i in range(len(w)):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (raw_objective(model, up) - raw_objective(model, down)) / (2 * h)
        # The gradient of the centred objective: compared up to a multiple
        # of ones, which no step along the simplex sees.
        analytic, fd = analytic - analytic.mean(), fd - fd.mean()
        scale = max(float(np.linalg.norm(analytic)), 1e-8)
        assert float(np.linalg.norm(analytic - fd)) / scale <= 1e-5
    _pass(6, "grid-search oracle, KKT residuals, and gradient checks on 100 models")


def test_criterion_7_monte_carlo_agreement():
    """Empirical MSEs within 4 standard errors of analytic; runs bit-identical."""
    models = model_corpus(50, base_seed=7000, criterion_vars=(0.5, 1.0, 4.0))
    for k, model in enumerate(models):
        n = model.n_judges
        p = uniform_selection(n)
        schemes = {
            "uniform": uniform_weights(n),
            "optimal": optimal_weights(model).weights,
        }
        for name, w in schemes.items():
            spec = SimulationSpec(model, trials=100_000, seed=70_000 + k)
            result = simulate(spec, w, p)
            analytic = evaluate(model, w, p)
            se_crowd, se_indiv = result.standard_errors
            assert abs(result.empirical_crowd_mse - analytic.crowd_mse) <= 4.0 * max(
                se_crowd, 1e-12
            ), f"crowd MSE disagrees under {name} weights on model {k}"
            assert abs(
                result.empirical_individual_mse - analytic.individual_mse
            ) <= 4.0 * max(se_indiv, 1e-12), (
                f"individual MSE disagrees under {name} weights on model {k}"
            )
        spec = SimulationSpec(model, trials=100_000, seed=70_000 + k)
        again = simulate(spec, schemes["uniform"], p)
        reference = simulate(spec, schemes["uniform"], p)
        assert again == reference  # dataclass equality: bit-identical floats
    _pass(7, "simulation agrees with analytics on 50 models at 1e5 trials")


def test_criterion_8_diversity_fixture():
    """Hedging candidate (after-MSE 0) outranks low-variance one (after-MSE 0.2)."""
    crowd = fixed_criterion_model([0.0], [[1.0]], 0.0)
    hedge = CandidateMember(
        mean=0.0, variance=1.0, cov_with_members=[-1.0], cov_with_criterion=0.0
    )
    steady = CandidateMember(
        mean=0.0, variance=0.25, cov_with_members=[0.0], cov_with_criterion=0.0
    )
    ranking = rank_candidates(crowd, [steady, hedge], labels=["steady", "hedge"])
    assert [ev.label for ev in ranking.evaluations] == ["hedge", "steady"]
    hedge_ev, steady_ev = ranking.evaluations
    assert abs(hedge_ev.after.crowd_mse) <= 1e-9
    assert steady_ev.after.crowd_mse == pytest.approx(0.2, abs=1e-9)
    _pass(8, "hedging candidate beats the lower-variance independent one")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    """CSV fixture reproduces the hand-computed report; exit codes conform."""
    data = tmp_path / "data.csv"
    data.write_text("a,b,criterion\n1,2,2\n3,4,3\n")
    assert main(["analyze", "--data", str(data), "--format", "machine"]) == 0
    fields = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    assert float(fields["crowd_mse"]) == pytest.approx(0.5, abs=1e-9)
    assert float(fields["individual_mse"]) == pytest.approx(0.75, abs=1e-9)
    assert float(fields["wisdom_gap"]) == pytest.approx(0.25, abs=1e-9)
    assert fields["is_wise"] == "true"

    # Exit codes: usage 1, data/validation 2, numerical 3.
    assert main(["analyze"]) == 1
    missing = tmp_path / "no_such.csv"
    assert main(["analyze", "--data", str(missing)]) == 2
    nocrit = tmp_path / "nocrit.csv"
    nocrit.write_text("a,b\n1,2\n3,4\n")
    assert main(["analyze", "--data", str(nocrit)]) == 2
    badcell = tmp_path / "badcell.csv"
    badcell.write_text("a,criterion\nN/A,2\n3,4\n")
    assert main(["analyze", "--data", str(badcell)]) == 2
    non_psd = tmp_path / "non_psd.txt"
    non_psd.write_text(
        "judge_labels = a, b\n"
        "judge_means = 0.0, 0.0\n"
        "judge_cov = 1.0, 2.0, 2.0, 1.0\n"
        "criterion_mean = 0.0\n"
        "criterion_var = 0.0\n"
        "cross_cov = 0.0, 0.0\n"
    )
    assert main(["optimize", "--model", str(non_psd)]) == 2
    slow = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
    slow_path = tmp_path / "slow.txt"
    save_model(slow, str(slow_path))
    assert main(["optimize", "--model", str(slow_path), "--max-iterations", "0"]) == 3
    capsys.readouterr()
    _pass(9, "CLI reproduces the hand-computed report and exit-code table")
