"""Both sides of the squared-error comparison and their exact decomposition."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_model, model_corpus, random_simplex_points
from crowdwise.errors import ShapeMismatch, ValidationFailed
from crowdwise.model import CrowdModel, fixed_criterion_model
from crowdwise.wisdom import (
    TIE_ROUNDING,
    SelectionDistribution,
    WeightVector,
    crowd_mse,
    evaluate,
    individual_mse,
    per_judge_mse,
)


def biased_independent_model(n: int, bias: float, variance: float = 1.0) -> CrowdModel:
    """n independent judges, common bias, fixed criterion at zero."""
    return fixed_criterion_model(
        np.full(n, bias), variance * np.eye(n), 0.0
    )


class TestSimplexTypes:
    def test_weights_normalized_on_construction(self):
        w = WeightVector([2.0, 2.0])
        np.testing.assert_array_equal(w.weights, [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationFailed):
            WeightVector([0.5, -0.5])

    def test_tiny_negative_clamped(self):
        w = WeightVector([1.0, -1e-13])
        assert w.weights[1] == 0.0

    def test_zero_sum_rejected(self):
        with pytest.raises(ValidationFailed):
            SelectionDistribution([0.0, 0.0])

    def test_sum_within_tolerance(self):
        for values in ([0.3, 0.3, 0.4], [1.0], [5.0, 3.0]):
            assert abs(sum(WeightVector(values).weights) - 1.0) <= 1e-12
            assert abs(sum(SelectionDistribution(values).probs) - 1.0) <= 1e-12


class TestCrowdMse:
    def test_perfect_predictor_is_zero(self):
        model = CrowdModel(
            judge_means=[0.0],
            judge_cov=[[1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[1.0],
        )
        assert crowd_mse(model, WeightVector([1.0])).total == 0.0

    def test_perfect_hedge_is_zero(self):
        model = fixed_criterion_model(
            [0.0, 0.0], [[1.0, -1.0], [-1.0, 1.0]], 0.0
        )
        assert crowd_mse(model, WeightVector([0.5, 0.5])).total == 0.0

    def test_four_biased_judges_closed_form(self):
        # b^2 + sigma^2 / N = 1 + 1/4 under uniform weights.
        model = biased_independent_model(4, bias=1.0)
        result = crowd_mse(model, WeightVector(np.full(4, 0.25)))
        assert result.total == pytest.approx(1.25, abs=1e-12)
        assert result.bias_sq == pytest.approx(1.0, abs=1e-12)
        assert result.variance == pytest.approx(0.25, abs=1e-12)
        assert result.cross_term == 0.0
        assert result.criterion_var == 0.0

    def test_decomposition_sums_to_total(self):
        rng = np.random.default_rng(5)
        for model in model_corpus(30):
            w = WeightVector(rng.dirichlet(np.ones(model.n_judges)))
            r = crowd_mse(model, w)
            assert r.total == r.bias_sq + r.variance + r.cross_term + r.criterion_var

    def test_wrong_length_rejected(self):
        model = biased_independent_model(3, 0.0)
        with pytest.raises(ShapeMismatch):
            crowd_mse(model, WeightVector([0.5, 0.5]))


class TestIndividualMse:
    def test_four_biased_judges(self):
        model = biased_independent_model(4, bias=1.0)
        result = individual_mse(model, SelectionDistribution(np.full(4, 0.25)))
        assert result.total == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(result.per_judge, np.full(4, 2.0), atol=1e-12)

    def test_point_mass_selects_one_judge(self):
        model = fixed_criterion_model([0.0, 0.0], np.diag([0.5, 1.5]), 0.0)
        result = individual_mse(model, SelectionDistribution([1.0, 0.0]))
        assert result.total == 0.5

    def test_uniform_selection_is_arithmetic_mean(self):
        for model in model_corpus(20):
            n = model.n_judges
            result = individual_mse(model, SelectionDistribution(np.full(n, 1.0 / n)))
            assert result.total == pytest.approx(result.per_judge.mean(), rel=1e-12)

    def test_right_side_is_linear_in_selection(self):
        rng = np.random.default_rng(11)
        for model in model_corpus(20):
            n = model.n_judges
            p = SelectionDistribution(rng.dirichlet(np.ones(n)))
            vertex_values = [
                crowd_mse(model, WeightVector.point_mass(i, n)).total
                for i in range(n)
            ]
            expected = float(np.dot(p.probs, vertex_values))
            assert individual_mse(model, p).total == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestVertexConsistency:
    def test_point_mass_weight_equals_per_judge_error(self):
        for model in model_corpus(60):
            n = model.n_judges
            per_judge = individual_mse(
                model, SelectionDistribution(np.full(n, 1.0 / n))
            ).per_judge
            for i in range(n):
                vertex = crowd_mse(model, WeightVector.point_mass(i, n)).total
                scale = max(abs(vertex), abs(per_judge[i]), 1e-300)
                assert abs(vertex - per_judge[i]) <= 1e-12 * scale


class TestCompensatedReference:
    def test_numpy_reductions_stay_within_tie_allowance(self):
        # Reference: one judge at a time for the per-judge errors, and math.fsum
        # over every product for the N-term and N^2-term reductions.
        rng = np.random.default_rng(29)
        for model in model_corpus(200, base_seed=4):
            n = model.n_judges
            wv = WeightVector(rng.dirichlet(np.ones(n)))
            pv = SelectionDistribution(rng.dirichlet(np.ones(n)))
            w, p = wv.weights, pv.probs
            per_judge = np.empty(n)
            for i in range(n):
                bias = model.judge_means[i] - model.criterion_mean
                cross = -2.0 * model.cross_cov[i]
                variance = model.judge_cov[i, i]
                per_judge[i] = bias * bias + variance + cross + model.criterion_var
            np.testing.assert_array_equal(per_judge_mse(model), per_judge)
            bias = math.fsum(model.judge_means * w) - model.criterion_mean
            variance = math.fsum((np.outer(w, w) * model.judge_cov).ravel())
            cross = -2.0 * math.fsum(model.cross_cov * w)
            crowd = bias * bias + variance + cross + model.criterion_var
            individual = math.fsum(p * per_judge)
            report = evaluate(model, wv, pv)
            scale = abs(bias * bias) + abs(variance) + abs(cross)
            scale += model.criterion_var + abs(individual)
            allowance = TIE_ROUNDING * n * sys.float_info.epsilon * scale
            assert abs(report.wisdom_gap - (individual - crowd)) <= allowance


class TestEvaluate:
    def test_four_biased_judges_gap(self):
        model = biased_independent_model(4, bias=1.0)
        report = evaluate(
            model,
            WeightVector(np.full(4, 0.25)),
            SelectionDistribution(np.full(4, 0.25)),
        )
        assert report.wisdom_gap == pytest.approx(0.75, abs=1e-12)
        assert report.is_wise

    def test_crowd_of_one_ties(self):
        model = biased_independent_model(1, bias=0.3)
        report = evaluate(model, WeightVector([1.0]), SelectionDistribution([1.0]))
        assert report.wisdom_gap == 0.0
        assert report.is_wise

    def test_symmetric_judges_tie(self):
        model = biased_independent_model(2, bias=0.0)
        report = evaluate(
            model, WeightVector([1.0, 0.0]), SelectionDistribution([0.0, 1.0])
        )
        assert report.crowd_mse == 1.0
        assert report.individual_mse == 1.0
        assert report.wisdom_gap == 0.0
        assert report.is_wise

    def test_identical_judges_tie_up_to_rounding(self):
        # Identical, perfectly correlated judges: averaging them changes
        # nothing, so the true gap is exactly zero, but rounding may leave a
        # tiny negative one.
        rng = np.random.default_rng(11)
        for _ in range(3000):
            n = int(rng.integers(2, 60))
            sd, sd_y = rng.uniform(0.01, 30.0, size=2)
            model = CrowdModel(
                judge_means=np.full(n, rng.normal(0.0, 20.0)),
                judge_cov=np.full((n, n), sd * sd),
                criterion_mean=rng.normal(0.0, 20.0),
                criterion_var=sd_y * sd_y,
                cross_cov=np.full(n, rng.uniform(-1.0, 1.0) * sd * sd_y),
            )
            uniform = np.full(n, 1.0 / n)
            report = evaluate(
                model, WeightVector(uniform), SelectionDistribution(uniform)
            )
            assert abs(report.wisdom_gap) <= 1e-12 * report.individual_mse
            assert report.is_wise

    def test_loss_beyond_rounding_is_unwise(self):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0 + 1e-12, 1.0]), 0.0)
        report = evaluate(
            model, WeightVector([1.0, 0.0]), SelectionDistribution([0.0, 1.0])
        )
        assert report.wisdom_gap < 0.0
        assert not report.is_wise

    def test_report_fields_recompose(self):
        rng = np.random.default_rng(3)
        for model in model_corpus(20):
            n = model.n_judges
            w = WeightVector(rng.dirichlet(np.ones(n)))
            p = SelectionDistribution(rng.dirichlet(np.ones(n)))
            report = evaluate(model, w, p)
            assert report.crowd_mse == (
                report.crowd_bias_sq
                + report.crowd_variance
                + report.crowd_cross_term
                + report.criterion_var
            )
            assert report.wisdom_gap == report.individual_mse - report.crowd_mse
            assert report.is_wise == (report.wisdom_gap >= 0.0)


class TestClassicalLaws:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_unbiased_independent_judges(self, n):
        model = biased_independent_model(n, bias=0.0)
        report = evaluate(
            model,
            WeightVector(np.full(n, 1.0 / n)),
            SelectionDistribution(np.full(n, 1.0 / n)),
        )
        assert report.crowd_mse == pytest.approx(1.0 / n, abs=1e-12)
        assert report.wisdom_gap == pytest.approx(1.0 - 1.0 / n, abs=1e-12)

    @pytest.mark.parametrize("bias", [0.0, 1.0, 10.0, 100.0])
    def test_common_bias_does_not_change_gap(self, bias):
        # Aggregation cuts variance by 1/N while the bias term cancels in the
        # gap, so the gap stays sigma^2 (1 - 1/N) at any bias level.
        model = biased_independent_model(4, bias=bias)
        report = evaluate(
            model,
            WeightVector(np.full(4, 0.25)),
            SelectionDistribution(np.full(4, 0.25)),
        )
        assert report.wisdom_gap == pytest.approx(0.75, abs=1e-9)


class TestAffineInvariance:
    @given(
        a=st.floats(-20.0, 20.0).filter(lambda a: abs(a) > 1e-3),
        b=st.floats(-50.0, 50.0),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdict_scale_free(self, a, b, seed):
        rng = np.random.default_rng(seed)
        model = model_corpus(1, base_seed=seed)[0]
        n = model.n_judges
        w = WeightVector(rng.dirichlet(np.ones(n)))
        p = SelectionDistribution(rng.dirichlet(np.ones(n)))
        base = evaluate(model, w, p)
        scaled = evaluate(affine_model(model, a, b), w, p)
        assert scaled.crowd_mse == pytest.approx(a * a * base.crowd_mse, rel=1e-9, abs=1e-9)
        assert scaled.individual_mse == pytest.approx(
            a * a * base.individual_mse, rel=1e-9, abs=1e-9
        )
        assert scaled.wisdom_gap == pytest.approx(
            a * a * base.wisdom_gap, rel=1e-9, abs=1e-9
        )


class TestNonnegativity:
    def test_expected_squared_errors_never_negative(self):
        rng = np.random.default_rng(17)
        for model in model_corpus(50):
            n = model.n_judges
            per_judge = individual_mse(
                model, SelectionDistribution(np.full(n, 1.0 / n))
            ).per_judge
            assert per_judge.min() >= -1e-9
            for w in random_simplex_points(rng, n, 10):
                assert crowd_mse(model, WeightVector(w)).total >= -1e-9
