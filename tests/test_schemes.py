"""Weight/selection constructors and the simplex-constrained QP solver."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_model,
    grid_minimum,
    matrix_with_spectrum,
    model_corpus,
    random_simplex_points,
)
from exact_oracle import exact_optimum, exact_qp, objective
from crowdwise import schemes
from crowdwise.errors import (
    NoConvergence,
    ShapeMismatch,
    SkillDegenerateWarning,
    UndefinedSkill,
    ValidationFailed,
    ZeroCriterionVariance,
    ZeroJudges,
)
from crowdwise.model import PSD_RTOL, CrowdModel, fixed_criterion_model
from crowdwise.montecarlo import random_model
from crowdwise.schemes import (
    _certificate_residual,
    best_member_selection,
    inverse_mse_weights,
    objective_gradient,
    optimal_weights,
    skill_scores,
    skill_selection,
    skill_weights,
    uniform_selection,
    uniform_weights,
)
from crowdwise.wisdom import WeightVector, crowd_mse, evaluate, per_judge_mse


def raw_objective(model, w):
    """Direct evaluation of the crowd squared error, independent of the solver."""
    w = np.asarray(w, dtype=float)
    bias = model.judge_means @ w - model.criterion_mean
    return (
        bias * bias
        + w @ model.judge_cov @ w
        - 2.0 * (model.cross_cov @ w)
        + model.criterion_var
    )


def face_system(model):
    """The solver's Hessian q2 and linear term b."""
    mu = model.judge_means
    q2 = 2.0 * (model.judge_cov + np.outer(mu, mu))
    b = -2.0 * (model.criterion_mean * mu + model.cross_cov)
    return q2, b


def with_twin(model, judge, perturb=None, size=0.0):
    """The model with ``judge`` appended again as its last judge.  ``perturb``
    "row" scales the copy's covariances by 1 + size, "variance" only its
    variance."""
    order = list(range(model.n_judges)) + [judge]
    cov = model.judge_cov[np.ix_(order, order)].copy()
    if perturb == "row":
        cov[-1, :] *= 1.0 + size
        cov[:, -1] *= 1.0 + size
    elif perturb == "variance":
        cov[-1, -1] *= 1.0 + size
    return CrowdModel(
        judge_means=model.judge_means[order],
        judge_cov=cov,
        criterion_mean=model.criterion_mean,
        criterion_var=model.criterion_var,
        cross_cov=model.cross_cov[order],
    )


def skill_model(skills, criterion_var=1.0):
    """Unit-variance judges whose correlations with the criterion are given."""
    skills = np.asarray(skills, dtype=float)
    return CrowdModel(
        judge_means=np.zeros(len(skills)),
        judge_cov=np.eye(len(skills)),
        criterion_mean=0.0,
        criterion_var=criterion_var,
        cross_cov=skills * math.sqrt(criterion_var),
    )


def planted_crowd(seed, n, n_active, margin=0.03):
    """A crowd whose optimal weights are known, and those weights.

    The recipe of the benchmark's planted N=1000 crowds: factor-model
    covariances, weights on ``n_active`` random judges, and criterion
    covariances solved for so that every other judge's partial exceeds the
    multiplier by ``margin`` to twice that.
    """
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.6, size=(n, 4))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.5, 2.0, size=n) ** 2)
    cov = (cov + cov.T) / 2.0
    means = rng.normal(0.0, 0.5, size=n)
    active = rng.choice(n, size=n_active, replace=False)
    w = np.zeros(n)
    w[active] = rng.uniform(0.5, 1.5, size=n_active)
    w /= w.sum()
    grad = 2.0 * (cov @ w + means * float(means @ w))
    excess = margin * rng.uniform(1.0, 2.0, size=n)
    excess[active] = 0.0
    cross = (grad - grad[active].mean() - excess) / 2.0
    explained = float(cross @ np.linalg.solve(cov, cross))
    return CrowdModel(means, cov, 0.0, explained + 1.0, cross), w


class TestUniform:
    def test_single_judge(self):
        np.testing.assert_array_equal(uniform_weights(1).weights, [1.0])

    def test_four_judges(self):
        np.testing.assert_array_equal(uniform_weights(4).weights, np.full(4, 0.25))

    def test_three_judges_sum_exact(self):
        assert math.fsum(uniform_weights(3).weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_judges_rejected(self):
        with pytest.raises(ZeroJudges):
            uniform_weights(0)
        with pytest.raises(ZeroJudges):
            uniform_selection(0)

    def test_one_shared_read_only_vector_per_size(self):
        for n in (1, 3, 51):
            assert uniform_weights(n) is uniform_weights(n) is uniform_selection(n)
            assert not uniform_weights(n).weights.flags.writeable
            with pytest.raises(ValueError):
                uniform_weights(n).weights[0] = 0.0


class TestSkillScores:
    def test_perfect_validity(self):
        model = skill_model([1.0])
        assert skill_scores(model)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_covariance_means_zero_skill(self):
        model = skill_model([0.0, 0.4])
        assert skill_scores(model)[0] == 0.0

    def test_estimated_two_judge_model(self):
        # sigma_yx = 1, sigma_x = sqrt(2), sigma_y = sqrt(0.5): skill is 1.
        model = CrowdModel(
            judge_means=[2.0, 3.0],
            judge_cov=[[2.0, 2.0], [2.0, 2.0]],
            criterion_mean=2.5,
            criterion_var=0.5,
            cross_cov=[1.0, 1.0],
        )
        np.testing.assert_allclose(skill_scores(model), [1.0, 1.0], rtol=1e-12)

    def test_fixed_criterion_has_no_skill(self):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0)
        with pytest.raises(ZeroCriterionVariance):
            skill_scores(model)

    def test_zero_variance_judges_reported(self):
        model = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=[[0.0, 0.0], [0.0, 1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.0, 0.5],
        )
        with pytest.raises(UndefinedSkill) as exc:
            skill_scores(model)
        assert exc.value.judge_indices == [0]

    def test_skills_bounded_on_validated_models(self):
        for model in model_corpus(40, criterion_vars=(0.5, 1.0, 4.0)):
            if np.diag(model.judge_cov).min() <= 0.0:
                continue
            skills = skill_scores(model)
            assert np.all(skills >= -1.0 - 1e-9)
            assert np.all(skills <= 1.0 + 1e-9)


class TestSkillWeights:
    def test_proportional(self):
        w = skill_weights(skill_model([0.8, 0.2]))
        np.testing.assert_allclose(w.weights, [0.8, 0.2], rtol=1e-12)

    def test_negative_skill_clipped(self):
        w = skill_weights(skill_model([0.5, -0.5]))
        np.testing.assert_allclose(w.weights, [1.0, 0.0], atol=1e-15)

    def test_all_negative_falls_back_to_uniform(self):
        with pytest.warns(SkillDegenerateWarning):
            w = skill_weights(skill_model([-0.1, -0.2]))
        np.testing.assert_array_equal(w.weights, [0.5, 0.5])


class TestSkillSelection:
    def test_selection_rules_are_the_weight_rules(self):
        assert uniform_selection is uniform_weights
        assert skill_selection is skill_weights

    def test_proportional(self):
        p = skill_selection(skill_model([0.8, 0.2]))
        np.testing.assert_allclose(p.weights, [0.8, 0.2], rtol=1e-12)

    def test_equal_skills_uniform(self):
        p = skill_selection(skill_model([0.7, 0.7]))
        np.testing.assert_allclose(p.weights, [0.5, 0.5], rtol=1e-12)

    def test_zero_skills_fall_back(self):
        with pytest.warns(SkillDegenerateWarning):
            p = skill_selection(skill_model([0.0, 0.0]))
        np.testing.assert_array_equal(p.weights, [0.5, 0.5])


class TestBestMember:
    def test_argmin(self):
        model = fixed_criterion_model([0.0, 0.0, 0.0], np.diag([2.0, 0.5, 1.0]), 0.0)
        choice = best_member_selection(model)
        assert isinstance(choice, WeightVector)
        np.testing.assert_array_equal(choice.weights, [0.0, 1.0, 0.0])

    def test_tie_goes_to_the_lowest_index(self):
        model = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0)
        np.testing.assert_array_equal(best_member_selection(model).weights, [1.0, 0.0])

    def test_single_judge(self):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0)
        np.testing.assert_array_equal(best_member_selection(model).weights, [1.0])


class TestInverseMseWeights:
    def test_proportional_to_reciprocal_error(self):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 2.0]), 0.0)
        w = inverse_mse_weights(model)
        np.testing.assert_allclose(w.weights, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_zero_error_judge_takes_all_mass(self):
        model = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=[[1.0, 0.0], [0.0, 1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[1.0, 0.0],
        )
        w = inverse_mse_weights(model)
        np.testing.assert_array_equal(w.weights, [1.0, 0.0])


class TestProjectToSimplex:
    def test_symmetric_point(self):
        np.testing.assert_allclose(
            schemes._project(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15
        )

    def test_exterior_point_brute_force(self):
        # Nearest point on the 2-simplex by scanning a 1e-4 grid.
        v = np.array([1.5, -0.5])
        grid = np.linspace(0.0, 1.0, 10_001)
        points = np.column_stack([grid, 1.0 - grid])
        distances = ((points - v) ** 2).sum(axis=1)
        brute = points[np.argmin(distances)]
        np.testing.assert_allclose(brute, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(schemes._project(v), brute, atol=1e-12)

    def test_simplex_points_unchanged(self):
        for v in ([1.0], [0.25, 0.75], [0.2, 0.0, 0.8]):
            np.testing.assert_allclose(schemes._project(np.array(v)), v, atol=1e-12)

    @given(
        v=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, v, seed):
        v = np.array(v)
        out = schemes._project(v)
        assert np.all(out >= 0.0)
        assert abs(math.fsum(out) - 1.0) <= 1e-12
        again = schemes._project(out)
        np.testing.assert_allclose(again, out, atol=1e-12)
        # No random feasible point may be closer to v than the projection.
        rng = np.random.default_rng(seed)
        candidates = random_simplex_points(rng, len(v), 50)
        best = (np.square(candidates - v).sum(axis=1)).min()
        assert np.square(out - v).sum() <= best + 1e-9


class TestOptimalWeights:
    def test_two_judges_closed_form(self):
        # Minimum-variance split of independent variances 1 and 4.
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        solution = optimal_weights(model)
        np.testing.assert_allclose(solution.weights.weights, [0.8, 0.2], atol=1e-9)
        assert solution.objective == pytest.approx(0.8, abs=1e-9)
        # Fine 1-d grid agrees.
        t = np.linspace(0.0, 1.0, 100_001)
        vals = t * t + 4.0 * (1.0 - t) ** 2
        assert solution.objective == pytest.approx(float(vals.min()), abs=1e-6)

    def test_perfect_hedge_reaches_zero(self):
        model = fixed_criterion_model([0.0, 0.0], [[1.0, -1.0], [-1.0, 1.0]], 0.0)
        solution = optimal_weights(model)
        np.testing.assert_allclose(solution.weights.weights, [0.5, 0.5], atol=1e-9)
        assert solution.objective <= 1e-12
        # Q is singular, but its only sum-zero direction, (1, -1), has
        # curvature 8, so the optimum (0.5, 0.5) is unique.
        assert not solution.possibly_nonunique

    def test_single_judge(self):
        model = fixed_criterion_model([0.5], [[2.0]], 0.0)
        solution = optimal_weights(model)
        np.testing.assert_array_equal(solution.weights.weights, [1.0])
        assert solution.objective == pytest.approx(2.25, abs=1e-12)
        assert solution.iterations == 0

    def test_iteration_cap_raises_with_best_iterate(self):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        with pytest.raises(NoConvergence) as exc:
            # One move, cold or from a start, solves two judges exactly.
            optimal_weights(model, max_iterations=0)
        best = exc.value.best
        assert best.kkt_residual > 1e-10
        assert abs(math.fsum(best.weights.weights) - 1.0) <= 1e-12

    @pytest.mark.parametrize("cap", [0, 1, 7, 60])
    def test_capped_iterate_carries_its_own_certificate(self, cap, certificate_calls):
        model = model_corpus(1, base_seed=4, sizes=(8,))[0]
        with pytest.raises(NoConvergence) as exc:
            optimal_weights(model, tolerance=1e-300, max_iterations=cap)
        best = exc.value.best
        w = best.weights.weights
        # The iterations made: the cap, or where no step lowered f any more
        # (iteration 5 here, at the rounding floor).
        assert best.iterations == len(certificate_calls) - 2
        assert best.iterations == cap or str(exc.value).startswith(
            f"optimizer stopped at iteration {best.iterations}: "
        )
        assert best.kkt_residual == _certificate_residual(w, objective_gradient(model, w))
        assert best.objective == crowd_mse(model, best.weights).total

    def test_capped_objective_never_rises(self):
        # Every accepted move lowers the objective: a nonnegative face
        # minimizer is the minimum of f over a face that holds the iterate,
        # and a projected search passes the Armijo rule.  So the last iterate
        # at each cap is the best one seen so far.
        for model in model_corpus(12, base_seed=6, sizes=(5, 8)):
            previous = math.inf
            for cap in range(40):
                try:
                    # Certifies only where the certificate is exactly zero.
                    solution = optimal_weights(model, tolerance=1e-300, max_iterations=cap)
                except NoConvergence as exc:
                    solution = exc.best
                objective = solution.objective
                assert objective <= previous + 1e-13 * abs(previous)
                previous = objective

    def test_cold_solves_certify_within_200_iterations(self):
        # Each combination of size, bias, correlation range and criterion
        # variance once; the corpus's fourth range, (-0.5, -0.1), has no PSD
        # matrix past 11 judges.
        corpus = model_corpus(
            216,
            base_seed=71,
            sizes=(2, 5, 13, 34, 89, 100),
            correlation_ranges=((-0.3, 0.8), (-0.9, 0.2), (0.0, 0.0)),
        )
        for model in corpus:
            assert optimal_weights(model).iterations <= 200

    @pytest.mark.parametrize("exponent", range(20, 301, 20))
    def test_huge_scales_certify_or_stop_at_a_fixed_point(
        self, exponent, monkeypatch, certificate_calls
    ):
        # Correlated judges with nonzero means: second moments at scale s,
        # means at sqrt(s).  The absolute tolerance is out of reach at most of
        # these scales; the solver must see that in a few steps, not run to
        # the cap.
        s = 10.0**exponent
        r = math.sqrt(s)
        model = CrowdModel(
            judge_means=[0.3 * r, -0.2 * r],
            judge_cov=[[s, 0.6 * s], [0.6 * s, 2.0 * s]],
            criterion_mean=0.1 * r,
            criterion_var=1.5 * s,
            cross_cov=[0.5 * s, 0.4 * s],
        )
        projections = []
        project = schemes._project
        monkeypatch.setattr(
            schemes, "_project", lambda v: projections.append(1) or project(v)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                optimal_weights(model)
            except NoConvergence as err:
                assert err.best.iterations == len(certificate_calls) - 2
                assert str(err).startswith(
                    f"optimizer stopped at iteration {err.best.iterations}: "
                )
        assert len(projections) <= 10 * schemes.MAX_HALVINGS

    def test_every_scale_certifies_or_stops_at_a_fixed_point(self):
        # The crowd of the test above at every scale 10^0 .. 10^307.  Where
        # the tolerance lies below the certificate's rounding, no move can
        # reach it; the solve must then stop where the face step lands on
        # its own iterate or its search fails, far below the cap, never run
        # into the cap.
        for exponent in range(308):
            s = 10.0**exponent
            r = math.sqrt(s)
            model = CrowdModel(
                judge_means=[0.3 * r, -0.2 * r],
                judge_cov=[[s, 0.6 * s], [0.6 * s, 2.0 * s]],
                criterion_mean=0.1 * r,
                criterion_var=1.5 * s,
                cross_cov=[0.5 * s, 0.4 * s],
            )
            try:
                optimal_weights(model, max_iterations=1000)
            except NoConvergence as err:
                assert str(err).startswith("optimizer stopped at iteration ")

    def test_face_step_onto_the_iterate_itself_is_no_move(self):
        # The crowd of the tests above at 10^100: the solve stops where the
        # face minimizer comes back as the iterate, entry for entry.
        s, r = 1e100, 1e50
        model = CrowdModel(
            judge_means=[0.3 * r, -0.2 * r],
            judge_cov=[[s, 0.6 * s], [0.6 * s, 2.0 * s]],
            criterion_mean=0.1 * r,
            criterion_var=1.5 * s,
            cross_cov=[0.5 * s, 0.4 * s],
        )
        with pytest.raises(NoConvergence, match="^optimizer stopped at iteration 2: ") as exc:
            optimal_weights(model)
        w = exc.value.best.weights.weights
        q2, b, _ = schemes._scaled_qp(model)
        grad = q2 @ w + b
        assert schemes._face_step(q2, b, w, grad - grad.min()) is None

    def test_matches_grid_oracle_small_models(self):
        models = model_corpus(24, base_seed=3, sizes=(2, 3))
        for model in models:
            solution = optimal_weights(model)
            grid_min = grid_minimum(model)
            assert solution.objective <= grid_min + 1e-9
            assert abs(solution.objective - grid_min) <= 1e-6

    def test_beats_vertices_and_random_points(self):
        rng = np.random.default_rng(23)
        for model in model_corpus(15, base_seed=9):
            n = model.n_judges
            solution = optimal_weights(model)
            per_judge = per_judge_mse(model)
            assert solution.objective <= per_judge.min() + 1e-9
            points = random_simplex_points(rng, n, 1000)
            q = model.judge_cov + np.outer(model.judge_means, model.judge_means)
            b = -2.0 * (model.criterion_mean * model.judge_means + model.cross_cov)
            c = model.criterion_mean**2 + model.criterion_var
            values = ((points @ q) * points).sum(axis=1) + points @ b + c
            assert solution.objective <= float(values.min()) + 1e-9

    def test_kkt_certificate(self):
        for model in model_corpus(40, base_seed=31):
            solution = optimal_weights(model)
            assert solution.kkt_residual <= 1e-8
            grad = objective_gradient(model, solution.weights.weights)
            tau = grad.min()
            active = solution.weights.weights > 1e-12
            # Active partial derivatives agree; inactive ones sit above.
            assert np.all(grad[active] - tau <= 1e-6)
            assert np.all(grad >= tau)

    def test_always_wise_against_any_selection(self):
        rng = np.random.default_rng(41)
        for model in model_corpus(60, base_seed=77):
            n = model.n_judges
            solution = optimal_weights(model)
            selections = [uniform_selection(n), best_member_selection(model)]
            if model.criterion_var > 0.0 and np.diag(model.judge_cov).min() > 0.0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SkillDegenerateWarning)
                    selections.append(skill_selection(model))
            selections += [
                WeightVector(p) for p in random_simplex_points(rng, n, 5)
            ]
            for p in selections:
                report = evaluate(model, solution.weights, p)
                assert report.wisdom_gap >= -1e-9

    def test_affine_invariance_of_argmin(self):
        for k, model in enumerate(model_corpus(15, base_seed=13)):
            base = optimal_weights(model)
            scaled = optimal_weights(affine_model(model, 2.5, -3.0))
            np.testing.assert_allclose(
                scaled.weights.weights, base.weights.weights, atol=1e-6
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        for model in model_corpus(20, base_seed=19):
            n = model.n_judges
            w = rng.dirichlet(np.ones(n))
            analytic = objective_gradient(model, w)
            fd = np.empty(n)
            h = 1e-6
            for i in range(n):
                up, down = w.copy(), w.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (raw_objective(model, up) - raw_objective(model, down)) / (2 * h)
            # Off the simplex the centred objective differs from the raw
            # formula; their gradients differ by a multiple of ones, which no
            # sum-zero step sees, so both are compared less their means.
            analytic, fd = analytic - analytic.mean(), fd - fd.mean()
            scale = max(float(np.linalg.norm(analytic)), 1e-8)
            assert np.linalg.norm(analytic - fd) / scale <= 1e-5

    def test_non_finite_model_rejected_before_solving(self):
        model = CrowdModel(
            judge_means=[0.0, 1.0],
            judge_cov=[[np.nan, 0.2], [0.2, 1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.3, 0.1],
        )
        with pytest.raises(ValidationFailed, match="non-finite values in judge_cov"):
            optimal_weights(model)


    def test_possibly_nonunique_is_decided_on_the_optimal_face(self, linalg_calls):
        # Judge 0 is duplicated: as judge 1 beside an independent judge of
        # variance 4 both twins carry weight, so (1, -1, 0) moves along the
        # optimum.  Beside a judge of variance 4 and covariance 1.5 the twins
        # sit at zero weight with excess 1, so the optimum (0, 0, 1) is
        # unique although Q is singular.
        on_face = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 4.0]]
        off_face = [[4.0, 4.0, 1.5], [4.0, 4.0, 1.5], [1.5, 1.5, 1.0]]
        cases = [
            (fixed_criterion_model(np.zeros(3), on_face, 0.0), True),
            (fixed_criterion_model(np.zeros(3), off_face, 0.0), False),
            # One judge without curvature: Q = 0, but its face is one point.
            (fixed_criterion_model([0.0], [[0.0]], 0.0), False),
            # Definite curvatures far below any absolute threshold.
            (fixed_criterion_model([0.0, 0.0], np.diag([1e-20, 4e-20]), 0.0), False),
        ]
        for model, expected in cases:
            unvalidated = CrowdModel(
                model.judge_means,
                model.judge_cov,
                model.criterion_mean,
                model.criterion_var,
                model.cross_cov,
            )
            for crowd in (unvalidated, model):
                before = linalg_calls["eigvalsh"]
                assert optimal_weights(crowd).possibly_nonunique == expected
                assert linalg_calls["eigvalsh"] == before
        off = optimal_weights(cases[1][0])
        np.testing.assert_array_equal(off.weights.weights, [0.0, 0.0, 1.0])
        # A NoConvergence iterate is tested where it stopped: at the uniform
        # start the twins carry weight.
        with pytest.raises(NoConvergence) as caught:
            optimal_weights(cases[1][0], max_iterations=0)
        assert caught.value.best.possibly_nonunique

    def test_search_stops_when_a_trial_projects_back_onto_w(self, monkeypatch):
        projections = []
        project = schemes._project
        monkeypatch.setattr(schemes, "_project", lambda v: projections.append(v) or project(v))
        # From a vertex, a direction out of the simplex projects back onto it.
        w = np.array([1.0, 0.0, 0.0])
        grad = np.array([-1.0, 1.0, 1.0])
        assert schemes._projected_search(np.eye(3), grad, w, -grad) is None
        assert len(projections) == 1


class TestConjugateOpening:
    @staticmethod
    def opening_iterates(monkeypatch):
        """The number of conjugate-gradient iterates of each opening move:
        each one is projected once."""
        counts = []
        project, opening = schemes._project, schemes._conjugate_opening

        def counted(*args):
            projections = []
            monkeypatch.setattr(schemes, "_project", lambda v: projections.append(1) or project(v))
            try:
                return opening(*args)
            finally:
                monkeypatch.setattr(schemes, "_project", project)
                counts.append(len(projections))

        monkeypatch.setattr(schemes, "_conjugate_opening", counted)
        return counts

    def test_cold_solve_factors_no_face_of_more_than_half_the_crowd(self, monkeypatch):
        # Gradient steps from uniform weights kept every judge of this crowd
        # on the first face factored; the opening move leaves about the
        # planted 20.
        model, planted = planted_crowd(seed=1, n=400, n_active=20)
        orders = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda m: orders.append(m.shape[0]) or cholesky(m)
        )
        solution = optimal_weights(model)
        assert solution.kkt_residual <= 1e-10
        np.testing.assert_allclose(solution.weights.weights, planted, rtol=0.0, atol=1e-9)
        assert max(orders) <= model.n_judges // 2

    def test_cold_solves_end_no_higher_than_solves_without_it(self):
        # A start skips the opening move.
        for model in model_corpus(400):
            cold = optimal_weights(model)
            assert cold.kkt_residual <= 1e-10
            warm = optimal_weights(model, start=uniform_weights(model.n_judges))
            assert cold.objective <= warm.objective + 1e-10

    def test_opening_stops_once_no_iterate_lowers_f(self, monkeypatch):
        # Every judge carries weight, and judge_cov has three eigenvalues;
        # restricted to the steps that sum to zero it has at most five, so
        # conjugate gradients reach the face minimizer in at most five
        # iterates, and the next lowers f by rounding at most.
        n = 300
        cov = matrix_with_spectrum(np.repeat([1.0, 3.0, 9.0], n // 3), seed=7)
        planted = np.random.default_rng(7).uniform(0.5, 1.5, size=n)
        planted /= planted.sum()
        cross = cov @ planted - 0.1
        criterion_var = float(cross @ np.linalg.solve(cov, cross)) + 1.0
        model = CrowdModel(np.zeros(n), cov, 0.0, criterion_var, cross)
        iterates = self.opening_iterates(monkeypatch)
        solution = optimal_weights(model)
        np.testing.assert_allclose(solution.weights.weights, planted, rtol=0.0, atol=1e-9)
        assert len(iterates) == 1 and iterates[0] <= 10

    def test_warm_solves_make_no_opening_move(self, monkeypatch):
        iterates = self.opening_iterates(monkeypatch)
        model = model_corpus(1, base_seed=5, sizes=(8,))[0]
        optimal_weights(model, start=uniform_weights(8))
        assert iterates == []
        optimal_weights(model)
        assert len(iterates) == 1


class TestCertificateFieldsOnFirstRead:
    @staticmethod
    def direct_fields(model, solution, tolerance=1e-10):
        """The objective and uniqueness flag computed at the returned weights."""
        q2, b, shift = schemes._scaled_qp(model)
        w = solution.weights.weights
        tol = schemes._ldexp(tolerance, shift)
        return (
            crowd_mse(model, solution.weights).total,
            schemes._nonunique_on_face(q2, w, q2 @ w + b, tol),
        )

    def test_equal_a_direct_computation_at_the_weights(self):
        corpus = model_corpus(12, base_seed=101, sizes=(2, 5, 13))
        flags = set()
        for model in corpus + [with_twin(model, 0) for model in corpus]:
            solution = optimal_weights(model)
            got = (solution.objective, solution.possibly_nonunique)
            assert got == self.direct_fields(model, solution)
            flags.add(solution.possibly_nonunique)
            with pytest.raises(NoConvergence) as caught:
                optimal_weights(model, max_iterations=0)
            best = caught.value.best
            assert (best.objective, best.possibly_nonunique) == self.direct_fields(model, best)
        assert flags == {False, True}

    def test_uniqueness_is_tested_once_and_only_when_read(self, monkeypatch):
        calls = []
        original = schemes._nonunique_on_face
        monkeypatch.setattr(
            schemes, "_nonunique_on_face", lambda *args: calls.append(1) or original(*args)
        )
        solution = optimal_weights(random_model(6, seed=3))
        assert calls == []
        assert solution.possibly_nonunique is solution.possibly_nonunique
        assert len(calls) == 1


class TestScaledQP:
    def test_overflowing_means_solve_without_a_warning(self):
        # (1e200)^2 overflows, but the QP is scaled before any square forms.
        model = CrowdModel(
            judge_means=[1e200, 3.0],
            judge_cov=np.eye(2),
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.0, 0.0],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = optimal_weights(model)
        np.testing.assert_array_equal(solution.weights.weights, [0.0, 1.0])
        assert solution.objective == 11.0

    def test_asymmetric_judge_cov_within_tolerance_certifies(self):
        # validate_model accepts an asymmetry within PSD_RTOL; the solve
        # reads the symmetric part, so it certifies as the symmetrised crowd.
        for seed in range(300):
            model = random_model(3 + seed % 10, seed=seed)
            cov = model.judge_cov.copy()
            cov[0, 1] += 0.5 * PSD_RTOL * np.abs(cov).max()
            asymmetric, symmetric = (
                CrowdModel(
                    model.judge_means,
                    judge_cov,
                    model.criterion_mean,
                    model.criterion_var,
                    model.cross_cov,
                )
                for judge_cov in (cov, 0.5 * cov + 0.5 * cov.T)
            )
            np.testing.assert_allclose(
                optimal_weights(asymmetric).weights.weights,
                optimal_weights(symmetric).weights.weights,
                rtol=0.0,
                atol=1e-8,
            )

    def test_power_of_two_scaling_moves_no_bit(self):
        # Scaling by 2^j multiplies every second moment by 4^j, exactly; with
        # the tolerance scaled alike, the solve is the same solve, the
        # least-squares face solve of a twinned crowd included.
        corpus = model_corpus(12, base_seed=97, sizes=(2, 5, 13))
        for model in corpus + [with_twin(model, 0) for model in corpus]:
            unit = optimal_weights(model)
            for j in range(-60, 61):
                scaled = optimal_weights(
                    affine_model(model, 2.0**j, 0.0), tolerance=1e-10 * 4.0**j
                )
                assert scaled.iterations == unit.iterations
                assert scaled.weights.weights.tobytes() == unit.weights.weights.tobytes()


class TestFaceSolve:
    def test_cholesky_step_equals_least_squares_on_definite_faces(self):
        rng = np.random.default_rng(73)
        corpus = model_corpus(
            40,
            base_seed=79,
            sizes=(2, 5, 13, 34),
            correlation_ranges=((-0.3, 0.8), (0.0, 0.0)),
        )
        for model in corpus:
            q2, b = face_system(model)
            n = model.n_judges
            for _ in range(3):
                k = int(rng.integers(1, n + 1))
                active = np.sort(rng.choice(n, size=k, replace=False))
                q_face = q2[np.ix_(active, active)]
                lower = schemes._definite_factor(q_face)
                assert lower is not None
                x = schemes._face_minimizer(lower, b[active])
                kkt = np.block([[q_face, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
                rhs = np.append(-b[active], 1.0)
                reference = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
                scale = np.abs(reference).max()
                np.testing.assert_allclose(x, reference, rtol=0.0, atol=1e-12 * scale)

    def test_exact_duplicates_take_the_least_squares_fallback(self, linalg_calls):
        for model in model_corpus(20, base_seed=83, sizes=(3, 5, 8)):
            judge = int(np.argmax(optimal_weights(model).weights.weights))
            twin = with_twin(model, judge)
            q2, _ = face_system(twin)
            assert schemes._definite_factor(q2) is None
            w = optimal_weights(twin).weights.weights
            assert abs(w[judge] - w[-1]) <= 1e-12
        assert linalg_calls["lstsq"] > 0

    def test_duplicates_solve_alike_at_every_scale(self):
        # Scaling by s multiplies f and its certificate by s^2; the
        # least-squares face solve must not let s move the answer.
        for seed in range(40):
            twin = with_twin(random_model(2 + seed % 5, seed=seed), 0)
            unit = optimal_weights(twin)
            for exponent in range(-30, 31, 10):
                s = 10.0**exponent
                scaled = optimal_weights(affine_model(twin, s, 0.0), tolerance=1e-10 * s * s)
                assert scaled.iterations == unit.iterations
                np.testing.assert_allclose(
                    scaled.weights.weights, unit.weights.weights, rtol=0.0, atol=1e-12
                )

    @pytest.mark.parametrize("perturb", ["row", "variance"])
    def test_near_duplicates_certify_and_split_evenly(self, perturb):
        corpus = model_corpus(
            60,
            base_seed=89,
            sizes=(3, 5, 8, 13),
            correlation_ranges=((-0.3, 0.8), (-0.9, 0.2), (0.0, 0.0)),
        )
        for model in corpus:
            judge = int(np.argmax(optimal_weights(model).weights.weights))
            # Raises NoConvergence unless it certifies.
            w = optimal_weights(with_twin(model, judge, perturb, 1e-15)).weights.weights
            assert abs(w[judge] - w[-1]) <= 1e-9


@pytest.fixture(scope="module")
def exact_corpus():
    """model_corpus(400): each crowd, its solved weights, its exact QP, and
    its exact w* and f*, found first at the solved weights' support."""
    cases = []
    for model in model_corpus(400):
        w = optimal_weights(model).weights.weights
        qp = exact_qp(model)
        cases.append((model, w, qp, *exact_optimum(qp, np.nonzero(w > 0.0)[0].tolist())))
    return cases


class TestExactOptimum:
    """optimal_weights against the exact optimum of ``exact_oracle``.

    The contract is the absolute one: f(w) - f* <= tolerance, in the caller's
    units.  Crowds scaled by c = 1e-6 meet it too, yet 336 of these 400 then
    certify with f(w) - f* above 1e-6 times f*, up to 7.1 times it.  A
    certificate relative to the crowd's own error (ROADMAP item 2) is to be
    tested on them; this test is not that one.
    """

    def test_corpus_meets_the_exact_optimum(self, exact_corpus):
        for _, w, qp, exact, f_star in exact_corpus:
            # f(w / sum(w)) >= f* holds for any point, so it checks f*.
            assert 0 <= objective(qp, w.tolist()) - f_star <= Fraction(1e-10)
            assert np.nonzero(w > 0.0)[0].tolist() == [i for i, x in enumerate(exact) if x > 0]
            # Q is positive definite, so w* is unique.
            assert np.abs(w - np.array(exact, dtype=float)).max() <= 1e-9

    def test_twinned_corpus_meets_the_base_optimum(self, exact_corpus):
        # A copy of judge 0 leaves the values f takes on the simplex as they
        # are: f* is the base crowd's, and every split of w*_0 between the
        # twins is optimal.  The solver splits it evenly, or leaves it all on
        # judge 0 when the copy's partial certifies without the copy entering.
        for model, _, _, exact, f_star in exact_corpus:
            twin = with_twin(model, 0)
            qp = exact_qp(twin)
            assert objective(qp, [exact[0] / 2, *exact[1:], exact[0] / 2]) == f_star
            w = optimal_weights(twin).weights.weights
            assert 0 <= objective(qp, w.tolist()) - f_star <= Fraction(1e-10)
            merged = np.append(w[0] + w[-1], w[1:-1])
            assert np.abs(merged - np.array(exact, dtype=float)).max() <= 1e-9
            assert w[-1] == 0.0 or abs(w[0] - w[-1]) <= 1e-9


class TestWarmStart:
    def test_any_simplex_start_certifies_at_the_cold_optimum(self):
        rng = np.random.default_rng(61)
        for model in model_corpus(30, base_seed=43):
            cold = optimal_weights(model)
            for w0 in random_simplex_points(rng, model.n_judges, 3):
                warm = optimal_weights(model, start=WeightVector(w0))
                assert warm.kkt_residual <= 1e-10
                assert abs(warm.objective - cold.objective) <= 1e-9

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_start_rejected(self, length):
        model = fixed_criterion_model([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 4.0]), 0.0)
        with pytest.raises(ShapeMismatch):
            optimal_weights(model, start=uniform_weights(length))

    def test_none_start_is_the_uniform_cold_start(self):
        for model in model_corpus(20, base_seed=47):
            default = optimal_weights(model)
            explicit = optimal_weights(model, start=None)
            assert explicit.weights.weights.tobytes() == default.weights.weights.tobytes()
            assert explicit.iterations == default.iterations

    def test_residual_certifies_the_stored_weights(self):
        # Converged, warm-started, face-polished and capped solves alike.
        rng = np.random.default_rng(67)
        for model in model_corpus(30, base_seed=59, sizes=(3, 5, 8, 13)):
            solutions = [optimal_weights(model)]
            for w0 in random_simplex_points(rng, model.n_judges, 2):
                solutions.append(optimal_weights(model, start=WeightVector(w0)))
            try:
                solutions.append(optimal_weights(model, tolerance=0.0, max_iterations=3))
            except NoConvergence as err:
                solutions.append(err.best)
            for sol in solutions:
                w = sol.weights.weights
                assert sol.kkt_residual == _certificate_residual(
                    w, objective_gradient(model, w)
                )

    def test_certified_start_returned_bit_for_bit(self):
        # A start that already certifies takes no step and is not renormalized.
        for model in model_corpus(20, base_seed=53, sizes=(3, 5, 8)):
            cold = optimal_weights(model)
            warm = optimal_weights(model, start=cold.weights)
            assert warm.iterations == 0
            assert warm.weights.weights.tobytes() == cold.weights.weights.tobytes()
