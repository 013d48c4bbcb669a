"""Simulation oracle: seeded reproducibility and agreement with analytics."""

import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_corpus
from crowdwise.errors import InfeasibleCorrelationRange, ShapeMismatch
from crowdwise.model import CrowdModel, fixed_criterion_model, validate_model
from crowdwise import montecarlo
from crowdwise.montecarlo import (
    CHUNK_TRIALS,
    GENERATORS,
    SimulationResult,
    SimulationSpec,
    _chunk_rng,
    _moment_factor,
    random_model,
    simulate,
)
from crowdwise.schemes import (
    best_member_selection,
    optimal_weights,
    uniform_selection,
    uniform_weights,
)
from crowdwise.wisdom import WeightVector, evaluate


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
        result = simulate(spec, WeightVector([1.0]), WeightVector([1.0]))
        assert result.empirical_crowd_mse == 0.0

    def test_overflow_on_pool_threads_warns_nothing(self):
        # Means of 1e200 overflow every squared error; the chunks run on pool
        # threads, which start with numpy's default error state.
        model = CrowdModel([1e200, 3.0], np.eye(2), 0.0, 1.0, [0.0, 0.0])
        spec = SimulationSpec(model, trials=1000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(spec, uniform_weights(2), uniform_selection(2))
        assert result.empirical_crowd_mse == math.inf

    @pytest.mark.parametrize(
        "variance, nan_means",
        # 1e160: each chunk's squares about its mean overflow, and so does the
        # square of a chunk mean's distance from the pooled mean.  1e303:
        # three finite chunk sums of individual errors overflow in fsum.
        [(1e160, ()), (1e303, ("individual",))],
    )
    def test_overflowing_pool_leaves_nan_not_an_exception(self, variance, nan_means):
        model = CrowdModel([0.0, 0.0], np.diag([variance] * 2), 0.0, 1.0, [0.0, 0.0])
        spec = SimulationSpec(model, trials=3 * CHUNK_TRIALS, seed=0)
        result = simulate(spec, uniform_weights(2), uniform_selection(2))
        means = {
            "crowd": result.empirical_crowd_mse,
            "individual": result.empirical_individual_mse,
            "gap": result.empirical_wisdom_gap,
        }
        assert {k for k, v in means.items() if math.isnan(v)} == set(nan_means)
        assert all(math.isfinite(v) for k, v in means.items() if k not in nan_means)
        assert all(map(math.isnan, (*result.standard_errors, result.wisdom_gap_se)))

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
        result = simulate(spec, WeightVector([1.0]), WeightVector([1.0]))
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
        result = simulate(spec, w, WeightVector(w.weights))
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
            gap = result.empirical_wisdom_gap
            assert abs(gap - analytic.wisdom_gap) <= 4.0 * result.wisdom_gap_se

    def test_standard_errors_are_calibrated(self):
        # Across seeds, each estimate's miss of its closed form, in units of
        # its own standard error, should spread like a standard normal.
        z = {"crowd": [], "individual": [], "gap": []}
        for k, n in enumerate((2, 3, 5)):
            model = random_model(n, seed=400 + k)
            w = optimal_weights(model).weights if k % 2 else uniform_weights(n)
            p = WeightVector(np.arange(1.0, n + 1.0))
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

    def test_no_trials_rejected(self):
        with pytest.raises(ShapeMismatch, match="trials must be >= 1, got 0"):
            SimulationSpec(perfect_predictor_model(), trials=0, seed=0)

    def test_agreement_small_corpus(self):
        # Broader agreement sweep lives in the acceptance suite.
        for k, model in enumerate(model_corpus(6, base_seed=71)):
            n = model.n_judges
            optimal = optimal_weights(model).weights
            pairings = (
                (uniform_weights(n), uniform_selection(n), "gaussian"),
                (optimal, uniform_selection(n), "gaussian"),
                (uniform_weights(n), best_member_selection(model), "gaussian"),
                (optimal, uniform_selection(n), "uniform"),
            )
            for j, (w, p, distribution) in enumerate(pairings):
                analytic = evaluate(model, w, p)
                spec = SimulationSpec(
                    model, trials=50_000, seed=10 * k + j, distribution=distribution
                )
                result = simulate(spec, w, p)
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


def serial_reference(spec, w, p):
    """The chunked algorithm with neither blocks nor threads: each chunk is
    one product of all its draws, and the chunks run one after another."""
    model = spec.model
    n = model.n_judges
    factor = _moment_factor(model.joint_covariance())
    error_map = (factor[:n] - factor[n]).T
    bias = model.judge_means - model.criterion_mean
    t = spec.trials
    chunks = []
    for start in range(0, t, CHUNK_TRIALS):
        m = min(t - start, CHUNK_TRIALS)
        rng = _chunk_rng(spec.seed, start // CHUNK_TRIALS)
        errors = GENERATORS[spec.distribution](rng, (m, n + 1)) @ error_map
        errors += bias
        crowd_err = (errors @ w.weights) ** 2
        errors *= errors
        indiv_err = errors @ p.weights
        per_trial = (crowd_err, indiv_err, indiv_err - crowd_err)
        sums = [float(np.sum(e)) for e in per_trial]
        squares = [float(np.sum((e - s / m) ** 2)) for e, s in zip(per_trial, sums)]
        chunks.append((m, sums, squares))
    stats = []
    for k in range(3):
        mean = math.fsum(totals[k] for _, totals, _ in chunks) / t
        spread = math.fsum(centred[k] for _, _, centred in chunks) + math.fsum(
            size * (totals[k] / size - mean) ** 2 for size, totals, _ in chunks
        )
        stats.append((mean, math.sqrt(spread / (t - 1) / t) if t > 1 else 0.0))
    (crowd_mean, crowd_se), (indiv_mean, indiv_se), (gap_mean, gap_se) = stats
    return SimulationResult(
        crowd_mean, indiv_mean, gap_mean, (crowd_se, indiv_se), gap_se, t, spec.seed, t < 2
    )


class TestChunkPool:
    @pytest.mark.parametrize("distribution", sorted(GENERATORS))
    def test_block_draws_continue_one_stream(self, distribution):
        draw = GENERATORS[distribution]
        whole = draw(_chunk_rng(5, 2), (1000, 21))
        rng = _chunk_rng(5, 2)
        blocks = [draw(rng, (rows, 21)) for rows in (576, 64, 360)]
        assert np.array_equal(whole, np.concatenate(blocks))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 50, 63, 120])
    def test_bits_match_serial_whole_chunks(self, n):
        # Blocks of 64-row multiples and any number of workers must give
        # every bit of the serial, whole-chunk algorithm.
        model = random_model(n, seed=700 + n)
        rng = np.random.default_rng(n)
        w = WeightVector(rng.dirichlet(np.ones(n)))
        p = WeightVector(rng.dirichlet(np.ones(n)))
        for trials in (1, 2, 999, 65535, 65536, 65537, 3 * 65536 + 5):
            for distribution in sorted(GENERATORS):
                spec = SimulationSpec(model, trials, trials % 97, distribution)
                assert simulate(spec, w, p) == serial_reference(spec, w, p), (
                    trials, distribution
                )

    def test_failing_chunk_raises_and_cancels_the_rest(self, monkeypatch):
        # Chunk 1 of 40 fails at once while the others take a while: its
        # error reaches the caller, and chunks not yet started never start.
        started = []

        def chunk_rng(seed, index):
            started.append(index)
            return index

        def draw(index, shape):
            if index == 1:
                raise RuntimeError("chunk 1 failed")
            time.sleep(0.02)
            return np.zeros(shape)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(montecarlo, "_chunk_rng", chunk_rng)
        monkeypatch.setitem(GENERATORS, "failing", draw)
        model = perfect_predictor_model()
        spec = SimulationSpec(model, 40 * CHUNK_TRIALS, seed=0, distribution="failing")
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            simulate(spec, WeightVector([1.0]), WeightVector([1.0]))
        assert 1 in started
        assert len(started) < 20


class TestRandomModel:
    def test_zero_bias_means_match_criterion(self):
        model = random_model(1, seed=3, bias_scale=0.0)
        assert model.judge_means[0] == model.criterion_mean

    def test_all_common_correlations_below_floor_rejected(self):
        # The equicorrelation floor for three judges is -1/2.
        with pytest.raises(InfeasibleCorrelationRange):
            random_model(3, seed=0, correlation_range=(-0.6, -0.6))

    @pytest.mark.parametrize(
        "n, correlation_range, message",
        [
            (0, (-1.0, 1.0), "n_judges must be >= 1, got 0"),
            (3, (0.5, 0.2), "correlation_range must satisfy"),
            (3, (-1.5, 0.2), "correlation_range must satisfy"),
            (3, (0.0, 1.5), "correlation_range must satisfy"),
        ],
        ids=["no-judges", "reversed", "below-minus-one", "above-one"],
    )
    def test_bad_arguments_rejected(self, n, correlation_range, message):
        with pytest.raises(ShapeMismatch, match=message):
            random_model(n, seed=0, correlation_range=correlation_range)

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
