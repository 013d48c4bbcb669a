"""Simulation oracle: seeded reproducibility and agreement with analytics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_corpus
from crowdwise.errors import InfeasibleCorrelationRange, ShapeMismatch
from crowdwise.model import CrowdModel, fixed_criterion_model, validate_model
from crowdwise.montecarlo import (
    SimulationSpec,
    random_model,
    simulate,
)
from crowdwise.schemes import (
    best_member_selection,
    optimal_weights,
    uniform_selection,
    uniform_weights,
)
from crowdwise.wisdom import SelectionDistribution, WeightVector, evaluate


def perfect_predictor_model():
    return CrowdModel(
        judge_means=[0.0],
        judge_cov=[[1.0]],
        criterion_mean=0.0,
        criterion_var=1.0,
        cross_cov=[1.0],
    )


class TestSimulate:
    def test_perfect_predictor_is_exactly_zero(self):
        spec = SimulationSpec(perfect_predictor_model(), trials=5_000, seed=1)
        result = simulate(spec, WeightVector([1.0]), SelectionDistribution([1.0]))
        assert result.empirical_crowd_mse == 0.0

    def test_biased_crowd_matches_closed_forms(self):
        # Four independent unit-variance judges with bias 1 and a fixed
        # criterion: crowd MSE 1.25 under uniform weights, individual 2.0.
        model = fixed_criterion_model(np.ones(4), np.eye(4), 0.0)
        spec = SimulationSpec(model, trials=1_000_000, seed=9)
        result = simulate(spec, uniform_weights(4), uniform_selection(4))
        se_crowd, se_indiv = result.standard_errors
        assert abs(result.empirical_crowd_mse - 1.25) <= 3.0 * se_crowd
        assert abs(result.empirical_individual_mse - 2.0) <= 3.0 * se_indiv

    def test_single_trial_flags_degenerate_se(self):
        spec = SimulationSpec(perfect_predictor_model(), trials=1, seed=4)
        result = simulate(spec, WeightVector([1.0]), SelectionDistribution([1.0]))
        assert result.standard_errors == (0.0, 0.0)
        assert result.wisdom_gap_se == 0.0
        assert result.degenerate_se

    def test_fixed_seed_is_bit_identical(self):
        model = random_model(3, seed=55)
        spec = SimulationSpec(model, trials=70_000, seed=123)  # spans 2 chunks
        w, p = uniform_weights(3), uniform_selection(3)
        first = simulate(spec, w, p)
        second = simulate(spec, w, p)
        assert first.empirical_crowd_mse == second.empirical_crowd_mse
        assert first.empirical_individual_mse == second.empirical_individual_mse
        assert first.standard_errors == second.standard_errors
        assert first.wisdom_gap_se == second.wisdom_gap_se

    def test_point_mass_on_one_judge_has_no_gap(self):
        # With w = p = e_j the crowd is judge j, and averaging over p picks
        # the same judge's error from the same draw.
        model = random_model(4, seed=12)
        w = WeightVector([0.0, 0.0, 1.0, 0.0])
        spec = SimulationSpec(model, trials=70_000, seed=3)
        result = simulate(spec, w, SelectionDistribution(w.weights))
        assert result.empirical_crowd_mse == result.empirical_individual_mse
        assert result.standard_errors[0] == result.standard_errors[1]
        assert result.wisdom_gap_se == 0.0

    def test_gap_spread_is_not_cancelled_away(self):
        # Perfectly correlated judges one unit apart: the per-trial gap is
        # constant up to the factor's rounding (about 1e-9 here).  A raw sum
        # of squares minus the squared mean cancels that spread to zero,
        # while the mean gap still misses the closed form by about 1e-10.
        model = CrowdModel(
            judge_means=[2.0, 3.0],
            judge_cov=[[2.0, 2.0], [2.0, 2.0]],
            criterion_mean=2.5,
            criterion_var=0.5,
            cross_cov=[1.0, 1.0],
        )
        w, p = uniform_weights(2), uniform_selection(2)
        analytic = evaluate(model, w, p)
        for seed in range(8):
            result = simulate(SimulationSpec(model, trials=1_000, seed=seed), w, p)
            gap = result.empirical_individual_mse - result.empirical_crowd_mse
            assert abs(gap - analytic.wisdom_gap) <= 4.0 * result.wisdom_gap_se

    def test_standard_errors_are_calibrated(self):
        # Across seeds, each estimate's miss of its closed form, in units of
        # its own standard error, should spread like a standard normal.
        z = {"crowd": [], "individual": [], "gap": []}
        for k, n in enumerate((2, 3, 5)):
            model = random_model(n, seed=400 + k)
            w = optimal_weights(model).weights if k % 2 else uniform_weights(n)
            p = SelectionDistribution(np.arange(1.0, n + 1.0))
            analytic = evaluate(model, w, p)
            for seed in range(40):
                spec = SimulationSpec(model, trials=1 << 12, seed=seed)
                result = simulate(spec, w, p)
                crowd = result.empirical_crowd_mse
                indiv = result.empirical_individual_mse
                se_crowd, se_indiv = result.standard_errors
                z["crowd"].append((crowd - analytic.crowd_mse) / se_crowd)
                z["individual"].append((indiv - analytic.individual_mse) / se_indiv)
                z["gap"].append(
                    (indiv - crowd - analytic.wisdom_gap) / result.wisdom_gap_se
                )
        for quantity, scores in z.items():
            assert 0.75 <= np.std(scores, ddof=1) <= 1.25, quantity

    def test_different_seeds_differ(self):
        model = random_model(3, seed=55)
        w, p = uniform_weights(3), uniform_selection(3)
        a = simulate(SimulationSpec(model, trials=1_000, seed=1), w, p)
        b = simulate(SimulationSpec(model, trials=1_000, seed=2), w, p)
        assert a.empirical_crowd_mse != b.empirical_crowd_mse

    def test_shape_mismatch_rejected(self):
        model = random_model(3, seed=0)
        with pytest.raises(ShapeMismatch):
            simulate(
                SimulationSpec(model, trials=10, seed=0),
                uniform_weights(2),
                uniform_selection(3),
            )

    def test_standard_error_halves_when_trials_quadruple(self):
        model = random_model(4, seed=8)
        w, p = uniform_weights(4), uniform_selection(4)
        small = simulate(SimulationSpec(model, trials=20_000, seed=5), w, p)
        large = simulate(SimulationSpec(model, trials=80_000, seed=5), w, p)
        for s, l in zip(small.standard_errors, large.standard_errors):
            assert l == pytest.approx(s / 2.0, rel=0.2)

    def test_uniform_generator_matches_moments_too(self):
        # Moment matching holds for any unit-variance source, so the analytic
        # values must agree with a uniform-margin simulation as well.
        model = random_model(3, seed=91, criterion_var=2.0)
        analytic = evaluate(model, uniform_weights(3), uniform_selection(3))
        spec = SimulationSpec(model, trials=200_000, seed=17, distribution="uniform")
        result = simulate(spec, uniform_weights(3), uniform_selection(3))
        se_crowd, se_indiv = result.standard_errors
        assert abs(result.empirical_crowd_mse - analytic.crowd_mse) <= 4.0 * se_crowd
        assert (
            abs(result.empirical_individual_mse - analytic.individual_mse)
            <= 4.0 * se_indiv
        )

    def test_unknown_generator_rejected(self):
        with pytest.raises(ShapeMismatch):
            SimulationSpec(perfect_predictor_model(), trials=5, seed=0, distribution="cauchy")

    def test_agreement_small_corpus(self):
        # Broader agreement sweep lives in the acceptance suite.
        for k, model in enumerate(model_corpus(6, base_seed=71)):
            n = model.n_judges
            pairings = (
                (uniform_weights(n), uniform_selection(n)),
                (optimal_weights(model).weights, uniform_selection(n)),
                (uniform_weights(n), best_member_selection(model).selection),
            )
            for j, (w, p) in enumerate(pairings):
                analytic = evaluate(model, w, p)
                result = simulate(
                    SimulationSpec(model, trials=50_000, seed=10 * k + j), w, p
                )
                se_crowd, se_indiv = result.standard_errors
                assert abs(
                    result.empirical_crowd_mse - analytic.crowd_mse
                ) <= 4.0 * max(se_crowd, 1e-12)
                assert abs(
                    result.empirical_individual_mse - analytic.individual_mse
                ) <= 4.0 * max(se_indiv, 1e-12)
                gap = result.empirical_individual_mse - result.empirical_crowd_mse
                assert abs(gap - analytic.wisdom_gap) <= 4.0 * max(
                    result.wisdom_gap_se, 1e-12
                )


class TestRandomModel:
    def test_zero_bias_means_match_criterion(self):
        model = random_model(1, seed=3, bias_scale=0.0)
        assert model.judge_means[0] == model.criterion_mean

    def test_all_common_correlations_below_floor_rejected(self):
        # The equicorrelation floor for three judges is -1/2.
        with pytest.raises(InfeasibleCorrelationRange):
            random_model(3, seed=0, correlation_range=(-0.6, -0.6))

    def test_floor_itself_is_feasible(self):
        model = random_model(3, seed=0, correlation_range=(-0.5, -0.5))
        assert validate_model(model) == []

    def test_fixed_seed_reproducible(self):
        a = random_model(4, seed=77)
        b = random_model(4, seed=77)
        np.testing.assert_array_equal(a.judge_means, b.judge_means)
        np.testing.assert_array_equal(a.judge_cov, b.judge_cov)
        np.testing.assert_array_equal(a.cross_cov, b.cross_cov)

    def test_requested_criterion_variance_exact(self):
        model = random_model(3, seed=21, criterion_var=2.5)
        assert model.criterion_var == 2.5

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 5_000),
        bias=st.sampled_from([0.0, 0.5, 2.0]),
        cv=st.sampled_from([0.0, 1.0, 4.0]),
        corr=st.sampled_from([(-0.3, 0.8), (0.0, 0.0), (-0.9, -0.2), (0.5, 0.5)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_models_always_validate(self, n, seed, bias, cv, corr):
        floor = -1.0 / (n - 1) if n > 1 else -1.0
        if corr[1] < floor:
            with pytest.raises(InfeasibleCorrelationRange):
                random_model(n, seed=seed, bias_scale=bias,
                             correlation_range=corr, criterion_var=cv)
            return
        model = random_model(
            n, seed=seed, bias_scale=bias, correlation_range=corr, criterion_var=cv
        )
        assert validate_model(model) == []

    def test_correlations_land_in_range(self):
        for seed in range(10):
            model = random_model(5, seed=seed, correlation_range=(-0.2, 0.3))
            sd = np.sqrt(np.diag(model.judge_cov))
            corr = model.judge_cov / np.outer(sd, sd)
            off = corr[~np.eye(5, dtype=bool)]
            assert np.all(off >= -0.2 - 1e-9)
            assert np.all(off <= 0.3 + 1e-9)

    def test_exact_common_correlation(self):
        model = random_model(4, seed=2, correlation_range=(0.25, 0.25))
        sd = np.sqrt(np.diag(model.judge_cov))
        corr = model.judge_cov / np.outer(sd, sd)
        off = corr[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=1e-9)
