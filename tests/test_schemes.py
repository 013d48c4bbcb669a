"""Weight/selection constructors and the simplex-constrained QP solver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_model, grid_minimum, model_corpus, random_simplex_points
from crowdwise.errors import (
    NoConvergence,
    ShapeMismatch,
    SkillDegenerateWarning,
    UndefinedSkill,
    ValidationFailed,
    ZeroCriterionVariance,
    ZeroJudges,
)
from crowdwise.model import CrowdModel, fixed_criterion_model
from crowdwise.schemes import (
    _certificate_residual,
    best_member_selection,
    inverse_mse_weights,
    objective_gradient,
    optimal_weights,
    project_to_simplex,
    skill_scores,
    skill_selection,
    skill_weights,
    uniform_selection,
    uniform_weights,
)
from crowdwise.wisdom import SelectionDistribution, WeightVector, crowd_mse, evaluate, individual_mse


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


class TestSkillScores:
    def test_perfect_validity(self):
        model = skill_model([1.0])
        assert skill_scores(model).skills[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_covariance_means_zero_skill(self):
        model = skill_model([0.0, 0.4])
        assert skill_scores(model).skills[0] == 0.0

    def test_estimated_two_judge_model(self):
        # sigma_yx = 1, sigma_x = sqrt(2), sigma_y = sqrt(0.5): skill is 1.
        model = CrowdModel(
            judge_means=[2.0, 3.0],
            judge_cov=[[2.0, 2.0], [2.0, 2.0]],
            criterion_mean=2.5,
            criterion_var=0.5,
            cross_cov=[1.0, 1.0],
        )
        np.testing.assert_allclose(skill_scores(model).skills, [1.0, 1.0], rtol=1e-12)

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
            skills = skill_scores(model).skills
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

    def test_shift_mode_keeps_order(self):
        w = skill_weights(skill_model([0.5, -0.5]), floor_at_zero=False)
        np.testing.assert_allclose(w.weights, [1.0, 0.0], atol=1e-15)
        w2 = skill_weights(skill_model([0.6, 0.2]), floor_at_zero=False)
        np.testing.assert_allclose(w2.weights, [0.75, 0.25], rtol=1e-12)


class TestSkillSelection:
    def test_proportional(self):
        p = skill_selection(skill_model([0.8, 0.2]))
        np.testing.assert_allclose(p.probs, [0.8, 0.2], rtol=1e-12)

    def test_equal_skills_uniform(self):
        p = skill_selection(skill_model([0.7, 0.7]))
        np.testing.assert_allclose(p.probs, [0.5, 0.5], rtol=1e-12)

    def test_zero_skills_fall_back(self):
        with pytest.warns(SkillDegenerateWarning):
            p = skill_selection(skill_model([0.0, 0.0]))
        np.testing.assert_array_equal(p.probs, [0.5, 0.5])


class TestBestMember:
    def test_argmin(self):
        model = fixed_criterion_model([0.0, 0.0, 0.0], np.diag([2.0, 0.5, 1.0]), 0.0)
        choice = best_member_selection(model)
        np.testing.assert_array_equal(choice.selection.probs, [0.0, 1.0, 0.0])
        assert choice.best_index == 1
        assert not choice.is_tie

    def test_tie_breaks_low_and_is_flagged(self):
        model = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0)
        choice = best_member_selection(model)
        np.testing.assert_array_equal(choice.selection.probs, [1.0, 0.0])
        assert choice.tied_indices == (0, 1)
        assert choice.is_tie

    def test_single_judge(self):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0)
        np.testing.assert_array_equal(best_member_selection(model).selection.probs, [1.0])


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
            project_to_simplex([0.6, 0.6]).weights, [0.5, 0.5], atol=1e-15
        )

    def test_exterior_point_brute_force(self):
        # Nearest point on the 2-simplex by scanning a 1e-4 grid.
        v = np.array([1.5, -0.5])
        grid = np.linspace(0.0, 1.0, 10_001)
        points = np.column_stack([grid, 1.0 - grid])
        distances = ((points - v) ** 2).sum(axis=1)
        brute = points[np.argmin(distances)]
        np.testing.assert_allclose(brute, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(project_to_simplex(v).weights, brute, atol=1e-12)

    def test_simplex_points_unchanged(self):
        for v in ([1.0], [0.25, 0.75], [0.2, 0.0, 0.8]):
            np.testing.assert_allclose(
                project_to_simplex(v).weights, v, atol=1e-12
            )

    @given(
        v=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, v, seed):
        v = np.array(v)
        out = project_to_simplex(v).weights
        assert np.all(out >= 0.0)
        assert abs(math.fsum(out) - 1.0) <= 1e-12
        again = project_to_simplex(out).weights
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
        assert solution.possibly_nonunique  # singular curvature

    def test_single_judge(self):
        model = fixed_criterion_model([0.5], [[2.0]], 0.0)
        solution = optimal_weights(model)
        np.testing.assert_array_equal(solution.weights.weights, [1.0])
        assert solution.objective == pytest.approx(2.25, abs=1e-12)
        assert solution.iterations == 0

    def test_iteration_cap_raises_with_best_iterate(self):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        with pytest.raises(NoConvergence) as exc:
            optimal_weights(model, max_iterations=1)
        best = exc.value.best
        assert best.kkt_residual > 1e-10
        assert abs(math.fsum(best.weights.weights) - 1.0) <= 1e-12

    @pytest.mark.parametrize("cap", [0, 1, 7, 60])
    def test_capped_iterate_carries_its_own_certificate(self, cap):
        model = model_corpus(1, base_seed=5, sizes=(8,))[0]
        with pytest.raises(NoConvergence) as exc:
            optimal_weights(model, tolerance=1e-300, max_iterations=cap)
        best = exc.value.best
        w = best.weights.weights
        assert best.iterations == cap
        assert best.kkt_residual == _certificate_residual(w, objective_gradient(model, w))
        assert best.objective == crowd_mse(model, best.weights).total

    def test_capped_objective_never_rises(self):
        # Projected gradient with step 1/L descends monotonically, so the last
        # iterate at each cap is the best one seen so far.
        for model in model_corpus(12, base_seed=6, sizes=(5, 8)):
            previous = math.inf
            for cap in range(40):
                with pytest.raises(NoConvergence) as exc:
                    optimal_weights(model, tolerance=1e-300, max_iterations=cap)
                objective = exc.value.best.objective
                assert objective <= previous + 1e-13 * abs(previous)
                previous = objective

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
            per_judge = individual_mse(model, uniform_selection(n)).per_judge
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
            selections = [uniform_selection(n), best_member_selection(model).selection]
            if model.criterion_var > 0.0 and np.diag(model.judge_cov).min() > 0.0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SkillDegenerateWarning)
                    selections.append(skill_selection(model))
            selections += [
                SelectionDistribution(p) for p in random_simplex_points(rng, n, 5)
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

    def test_certified_start_returned_bit_for_bit(self):
        # A start that already certifies takes no step and is not renormalized.
        for model in model_corpus(20, base_seed=53, sizes=(3, 5, 8)):
            cold = optimal_weights(model)
            warm = optimal_weights(model, start=cold.weights)
            assert warm.iterations == 0
            assert warm.weights is cold.weights
