"""Marginal value of candidate members: extension, evaluation, ranking."""

import numpy as np
import pytest

from conftest import model_corpus
from crowdwise.diversity import (
    CandidateMember,
    evaluate_candidate,
    extend_model,
    rank_candidates,
)
from crowdwise.errors import JointNotPSD, ShapeMismatch, ValidationFailed
from crowdwise.model import CrowdModel, fixed_criterion_model, validate_model
from crowdwise.montecarlo import random_model
from crowdwise.schemes import (
    SELECTION_RULES,
    best_member_selection,
    optimal_weights,
    skill_selection,
    uniform_selection,
)
from crowdwise.wisdom import individual_mse


def one_judge_crowd(variance=1.0):
    return fixed_criterion_model([0.0], [[variance]], 0.0)


def candidate_from_model(model: CrowdModel) -> tuple[CrowdModel, CandidateMember]:
    """Split a model's last judge off as a candidate for the remaining crowd."""
    n = model.n_judges - 1
    base = CrowdModel(
        judge_means=model.judge_means[:n],
        judge_cov=model.judge_cov[:n, :n],
        criterion_mean=model.criterion_mean,
        criterion_var=model.criterion_var,
        cross_cov=model.cross_cov[:n],
        judge_labels=model.judge_labels[:n],
    )
    candidate = CandidateMember(
        mean=model.judge_means[n],
        variance=model.judge_cov[n, n],
        cov_with_members=model.judge_cov[n, :n],
        cov_with_criterion=model.cross_cov[n],
    )
    return base, candidate


def two_asset_optimal_mse(v1, v2, cov):
    """Optimal crowd MSE of two unbiased fixed-criterion judges."""
    return (v1 * v2 - cov * cov) / (v1 + v2 - 2.0 * cov)


class TestExtendModel:
    def test_duplicate_of_existing_judge(self):
        model = CrowdModel(
            judge_means=[1.0, 2.0],
            judge_cov=[[1.0, 0.3], [0.3, 2.0]],
            criterion_mean=1.0,
            criterion_var=1.0,
            cross_cov=[0.5, 0.2],
        )
        clone = CandidateMember(
            mean=1.0,
            variance=1.0,
            cov_with_members=model.judge_cov[0],
            cov_with_criterion=0.5,
        )
        extended = extend_model(model, clone, "clone")
        assert extended.n_judges == 3
        assert validate_model(extended) == []
        np.testing.assert_array_equal(extended.judge_cov[2, :2], [1.0, 0.3])
        assert extended.judge_labels[2] == "clone"

    def test_perfect_hedge_is_consistent(self):
        # Extended covariance has eigenvalues 0 and 2: PSD.
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-1.0], cov_with_criterion=0.0
        )
        extended = extend_model(one_judge_crowd(), candidate)
        assert validate_model(extended) == []

    def test_impossible_covariance_rejected(self):
        # Eigenvalues 3 and -1: no joint distribution exists.
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-2.0], cov_with_criterion=0.0
        )
        with pytest.raises(JointNotPSD) as exc:
            extend_model(one_judge_crowd(), candidate)
        assert exc.value.eigenvalue == pytest.approx(-1.0, abs=1e-9)

    def test_wrong_covariance_length_rejected(self):
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0, 0.0], cov_with_criterion=0.0
        )
        with pytest.raises(ShapeMismatch):
            extend_model(one_judge_crowd(), candidate)


class TestEvaluateCandidate:
    def test_hedging_candidate_reaches_zero(self):
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-1.0], cov_with_criterion=0.0
        )
        result = evaluate_candidate(one_judge_crowd(), candidate)
        assert result.before.crowd_mse == pytest.approx(1.0, abs=1e-12)
        assert result.after.crowd_mse == pytest.approx(0.0, abs=1e-9)
        assert result.marginal_gain == pytest.approx(1.0, abs=1e-9)
        assert result.candidate_skill is None

    def test_low_variance_candidate_beaten_by_hedge(self):
        # Independent low-variance candidate: optimal split 0.2/0.8 and MSE
        # 0.2 by the two-asset closed form, less gain than the hedge's 1.0.
        candidate = CandidateMember(
            mean=0.0, variance=0.25, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        result = evaluate_candidate(one_judge_crowd(), candidate)
        assert two_asset_optimal_mse(1.0, 0.25, 0.0) == pytest.approx(0.2)
        np.testing.assert_allclose(
            result.after.per_judge_mse, [1.0, 0.25], atol=1e-12
        )
        assert result.after.crowd_mse == pytest.approx(0.2, abs=1e-9)
        assert result.marginal_gain == pytest.approx(0.8, abs=1e-9)
        assert result.candidate_weight == pytest.approx(0.8, abs=1e-6)

    def test_two_asset_closed_form_against_grid(self):
        v1, v2, cov = 1.0, 0.25, 0.0
        t = np.linspace(0.0, 1.0, 200_001)
        vals = (1 - t) ** 2 * v1 + t * t * v2 + 2.0 * t * (1 - t) * cov
        assert float(vals.min()) == pytest.approx(
            two_asset_optimal_mse(v1, v2, cov), abs=1e-9
        )

    def test_duplicate_candidate_adds_nothing(self):
        model = fixed_criterion_model(
            [0.2, -0.1], [[1.0, 0.4], [0.4, 2.0]], 0.0
        )
        clone = CandidateMember(
            mean=model.judge_means[0],
            variance=model.judge_cov[0, 0],
            cov_with_members=model.judge_cov[0],
            cov_with_criterion=0.0,
        )
        result = evaluate_candidate(model, clone)
        assert abs(result.marginal_gain) <= 1e-9

    def test_skill_reported_when_criterion_random(self):
        model = CrowdModel(
            judge_means=[0.0],
            judge_cov=[[1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.5],
        )
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.6
        )
        result = evaluate_candidate(model, candidate)
        assert result.candidate_skill == pytest.approx(0.6, abs=1e-12)


class TestHedgingDominance:
    def test_optimal_mse_increases_with_covariance(self):
        # With matched unit variances the optimal crowd MSE is
        # (1 - c^2) / (2 - 2c), strictly increasing on (-1, 1).
        covs = np.linspace(-0.95, 0.95, 20)
        values = []
        for c in covs:
            candidate = CandidateMember(
                mean=0.0, variance=1.0, cov_with_members=[c], cov_with_criterion=0.0
            )
            result = evaluate_candidate(one_judge_crowd(), candidate)
            expected = (1.0 - c * c) / (2.0 - 2.0 * c)
            assert result.after.crowd_mse == pytest.approx(expected, abs=1e-8)
            values.append(result.after.crowd_mse)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestMarginalGainNonnegative:
    def test_feasible_set_nesting(self):
        # Splitting any (N+1)-judge model into crowd + candidate gives a valid
        # candidate; the optimal crowd never worsens by considering it.
        for k, full in enumerate(model_corpus(40, base_seed=101, sizes=(2, 3, 4, 6))):
            base, candidate = candidate_from_model(full)
            result = evaluate_candidate(base, candidate)
            assert result.marginal_gain >= -1e-9


class TestRankCandidates:
    def test_hedge_outranks_low_variance(self):
        hedge = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-1.0], cov_with_criterion=0.0
        )
        steady = CandidateMember(
            mean=0.0, variance=0.25, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        ranking = rank_candidates(
            one_judge_crowd(), [steady, hedge], labels=["steady", "hedge"]
        )
        assert [ev.label for ev in ranking.evaluations] == ["hedge", "steady"]
        gains = [ev.marginal_gain for ev in ranking.evaluations]
        assert gains[0] == pytest.approx(1.0, abs=1e-9)
        assert gains[1] == pytest.approx(0.8, abs=1e-9)
        assert ranking.failures == ()

    def test_singleton(self):
        hedge = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-0.5], cov_with_criterion=0.0
        )
        ranking = rank_candidates(one_judge_crowd(), [hedge])
        assert len(ranking.evaluations) == 1

    def test_duplicate_ranks_last(self):
        model = one_judge_crowd()
        clone = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[1.0], cov_with_criterion=0.0
        )
        helper = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        ranking = rank_candidates(model, [clone, helper], labels=["clone", "helper"])
        assert ranking.evaluations[-1].label == "clone"
        assert abs(ranking.evaluations[-1].marginal_gain) <= 1e-9

    def test_ties_keep_input_order(self):
        model = one_judge_crowd()
        twin = dict(mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0)
        ranking = rank_candidates(
            model,
            [CandidateMember(**twin), CandidateMember(**twin)],
            labels=["first", "second"],
        )
        assert [ev.label for ev in ranking.evaluations] == ["first", "second"]

    def test_bad_candidate_collected_not_fatal(self):
        impossible = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[-2.0], cov_with_criterion=0.0
        )
        fine = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        ranking = rank_candidates(
            one_judge_crowd(), [impossible, fine], labels=["impossible", "fine"]
        )
        assert [ev.label for ev in ranking.evaluations] == ["fine"]
        assert len(ranking.failures) == 1
        assert ranking.failures[0].label == "impossible"
        assert isinstance(ranking.failures[0].error, JointNotPSD)

    def test_output_is_permutation_of_successes(self):
        full = random_model(5, seed=404, criterion_var=1.0)
        base, candidate = candidate_from_model(full)
        others = [
            CandidateMember(
                mean=0.1,
                variance=2.0,
                cov_with_members=np.zeros(base.n_judges),
                cov_with_criterion=0.0,
            ),
            candidate,
        ]
        ranking = rank_candidates(base, others, labels=["indep", "split"])
        assert sorted(ev.label for ev in ranking.evaluations) == ["indep", "split"]

    @pytest.mark.parametrize("rule", sorted(SELECTION_RULES))
    def test_every_selection_rule(self, rule):
        expected = {
            "uniform": lambda m: uniform_selection(m.n_judges),
            "skill": skill_selection,
            "best": lambda m: best_member_selection(m).selection,
        }[rule]
        full = random_model(6, seed=77, bias_scale=0.5, criterion_var=1.0)
        base, split = candidate_from_model(full)
        indep = CandidateMember(
            mean=0.2,
            variance=1.5,
            cov_with_members=np.zeros(base.n_judges),
            cov_with_criterion=0.3,
        )
        ranking = rank_candidates(base, [split, indep], p_rule=rule)
        assert ranking.failures == ()
        before = optimal_weights(base).objective
        for ev in ranking.evaluations:
            assert ev.before.crowd_mse == pytest.approx(before, rel=1e-12)
            assert ev.before.individual_mse == individual_mse(base, expected(base)).total
        split_after = next(ev for ev in ranking.evaluations if ev.label == "candidate_1")
        assert split_after.after.individual_mse == individual_mse(full, expected(full)).total

    def test_unknown_selection_rule_fails_every_candidate(self):
        fine = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        ranking = rank_candidates(one_judge_crowd(), [fine, fine], p_rule="median")
        assert ranking.evaluations == ()
        assert [f.index for f in ranking.failures] == [0, 1]
        assert all(isinstance(f.error, ShapeMismatch) for f in ranking.failures)
        with pytest.raises(ShapeMismatch, match="median"):
            evaluate_candidate(one_judge_crowd(), fine, p_rule="median")


class TestCandidateMember:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean", np.nan),
            ("variance", np.inf),
            ("cov_with_criterion", -np.inf),
            ("cov_with_members", [np.nan]),
        ],
    )
    def test_non_finite_moments_rejected(self, field, value):
        moments = dict(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        moments[field] = value
        with pytest.raises(ValidationFailed):
            CandidateMember(**moments)
