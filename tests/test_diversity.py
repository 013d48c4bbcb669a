"""Marginal value of candidate members: extension, evaluation, ranking."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import model_corpus
from crowdwise import diversity, schemes
from crowdwise import model as model_module
from crowdwise.diversity import (
    CandidateMember,
    extend_model,
    rank_candidates,
)
from crowdwise.errors import (
    CrowdwiseError,
    JointNotPSD,
    NoConvergence,
    ShapeMismatch,
    ValidationFailed,
)
from crowdwise.model import PSD_RTOL, CrowdModel, fixed_criterion_model, validate_model
from crowdwise.montecarlo import random_model
from crowdwise.schemes import (
    SELECTION_RULES,
    best_member_selection,
    objective_gradient,
    optimal_weights,
    skill_scores,
    skill_selection,
    uniform_selection,
)
from crowdwise.wisdom import per_judge_mse


def evaluate_one(model, candidate):
    """The one-candidate ranking's evaluation; its failure is raised."""
    ranking = rank_candidates(model, [candidate])
    if ranking.failures:
        raise ranking.failures[0].error
    return ranking.evaluations[0]


def one_judge_crowd(variance=1.0):
    return fixed_criterion_model([0.0], [[variance]], 0.0)


def split_candidates(model: CrowdModel, k: int) -> tuple[CrowdModel, list[CandidateMember]]:
    """The first N - k judges as a crowd, and each of the last k as a candidate."""
    n = model.n_judges - k
    base = CrowdModel(
        judge_means=model.judge_means[:n],
        judge_cov=model.judge_cov[:n, :n],
        criterion_mean=model.criterion_mean,
        criterion_var=model.criterion_var,
        cross_cov=model.cross_cov[:n],
        judge_labels=model.judge_labels[:n],
    )
    candidates = [
        CandidateMember(
            mean=model.judge_means[j],
            variance=model.judge_cov[j, j],
            cov_with_members=model.judge_cov[j, :n],
            cov_with_criterion=model.cross_cov[j],
        )
        for j in range(n, model.n_judges)
    ]
    return base, candidates


def candidate_from_model(model: CrowdModel) -> tuple[CrowdModel, CandidateMember]:
    """Split a model's last judge off as a candidate for the remaining crowd."""
    base, (candidate,) = split_candidates(model, 1)
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

    @pytest.mark.parametrize("asymmetry", [0.0, 1e-10], ids=["symmetric", "asymmetric"])
    def test_extended_crowd_carries_the_symmetry_flag(self, asymmetry):
        base = random_model(5, seed=41, criterion_var=1.0)
        cov = base.judge_cov.copy()
        cov[0, 1] *= 1.0 + asymmetry
        base = dataclasses.replace(base, judge_cov=cov)
        assert validate_model(base) == []
        candidate = CandidateMember(0.5, 1.0, 0.1 * np.sqrt(np.diag(cov)), 0.2)
        extended = extend_model(base, candidate, certified=True)
        # Carried over from the crowd, not compared again.
        assert "exactly_symmetric" in vars(extended)
        fresh = dataclasses.replace(extended)
        assert extended.exactly_symmetric is fresh.exactly_symmetric is (asymmetry == 0.0)

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

    @pytest.mark.parametrize(
        "variance, scale, cov_with_criterion",
        [
            (1.0, 3.0, 0.0),
            (-1.0, 0.0, 0.0),
            (1.0, 0.0, 10.0),
            (1e-12, 1e-3, 0.0),
            (1e308, 0.0, 1.7e308),
        ],
    )
    def test_failure_carries_the_joint_matrix_s_smallest_eigenvalue(
        self, variance, scale, cov_with_criterion
    ):
        # judge_cov fails, criterion-free; judge_cov fails on the diagonal;
        # only the joint matrix fails; judge_cov fails at rounding scale;
        # only the joint matrix fails, and its largest eigenvalue overflows.
        base = random_model(4, seed=37, criterion_var=1.0)
        candidate = CandidateMember(
            mean=0.5,
            variance=variance,
            cov_with_members=scale * np.sqrt(np.diag(base.judge_cov)),
            cov_with_criterion=cov_with_criterion,
        )
        with pytest.raises(JointNotPSD) as exc:
            extend_model(base, candidate, label="x")
        cov = np.zeros((5, 5))
        cov[:4, :4] = base.judge_cov
        cov[:4, 4] = cov[4, :4] = candidate.cov_with_members
        cov[4, 4] = variance
        extended = CrowdModel(
            judge_means=np.append(base.judge_means, 0.5),
            judge_cov=cov,
            criterion_mean=base.criterion_mean,
            criterion_var=base.criterion_var,
            cross_cov=np.append(base.cross_cov, cov_with_criterion),
        )
        assert exc.value.eigenvalue == float(np.linalg.eigvalsh(extended.joint_covariance())[0])
        assert str(exc.value) == "candidate 'x' is inconsistent with the crowd: " + "; ".join(
            validate_model(extended)
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("judge_means", [np.nan, 1.0]),
            ("judge_cov", [[np.nan, 0.2], [0.2, 1.0]]),
            ("cross_cov", [0.3, np.inf]),
        ],
    )
    def test_non_finite_crowd_rejected_without_eigen_solve(self, field, value):
        # The crowd's own constructor refuses the nan, before extend_model.
        moments = dict(
            judge_means=[0.0, 1.0],
            judge_cov=[[1.0, 0.2], [0.2, 1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.3, 0.1],
        )
        moments[field] = value
        candidate = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0, 0.0], cov_with_criterion=0.0
        )
        with pytest.raises(ValidationFailed, match=f"non-finite values in {field}"):
            extend_model(CrowdModel(**moments), candidate)

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
        result = evaluate_one(one_judge_crowd(), candidate)
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
        result = evaluate_one(one_judge_crowd(), candidate)
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
        result = evaluate_one(model, clone)
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
        result = evaluate_one(model, candidate)
        assert result.candidate_skill == pytest.approx(0.6, abs=1e-12)


class TestCandidateSkill:
    def test_zero_variance_judge_in_the_crowd_leaves_it_defined(self):
        model = CrowdModel([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], 0.0, 1.0, [0.5, 0.0])
        candidate = CandidateMember(0.1, 1.5, [0.2, 0.0], 0.3)
        assert evaluate_one(model, candidate).candidate_skill == 0.24494897427831783

    def test_bits_equal_skill_scores_of_the_grown_crowd(self):
        corpus = model_corpus(60, base_seed=303, sizes=(3, 6), criterion_vars=(0.5, 4.0))
        for full in corpus:
            base, candidate = candidate_from_model(full)
            grown = skill_scores(extend_model(base, candidate))[-1]
            assert evaluate_one(base, candidate).candidate_skill == grown

    def test_undefined_for_a_constant_candidate(self):
        model = CrowdModel([0.0], [[1.0]], 0.0, 1.0, [0.5])
        constant = CandidateMember(0.0, 0.0, [0.0], 0.0)
        assert evaluate_one(model, constant).candidate_skill is None


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
            result = evaluate_one(one_judge_crowd(), candidate)
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
            result = evaluate_one(base, candidate)
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
            "best": best_member_selection,
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
        base_individual, full_individual = (
            expected(m).weights @ per_judge_mse(m) for m in (base, full)
        )
        for ev in ranking.evaluations:
            assert ev.before.crowd_mse == pytest.approx(before, rel=1e-12)
            assert ev.before.individual_mse == base_individual
        split_after = next(ev for ev in ranking.evaluations if ev.label == "candidate_1")
        assert split_after.after.individual_mse == full_individual

    def test_wrong_label_count_rejected(self):
        fine = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        with pytest.raises(ShapeMismatch, match="1 labels for 2 candidates"):
            rank_candidates(one_judge_crowd(), [fine, fine], labels=["only"])

    def test_unknown_selection_rule_fails_every_candidate(self):
        fine = CandidateMember(
            mean=0.0, variance=1.0, cov_with_members=[0.0], cov_with_criterion=0.0
        )
        ranking = rank_candidates(one_judge_crowd(), [fine, fine], p_rule="median")
        assert ranking.evaluations == ()
        assert [f.index for f in ranking.failures] == [0, 1]
        assert all(isinstance(f.error, ShapeMismatch) for f in ranking.failures)
        assert "median" in str(ranking.failures[0].error)


class TestRankingReusesTheBaseSolve:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Every (model, solution) the ranking solves, in call order."""
        log = []

        def counting(model, *args, **kwargs):
            solution = optimal_weights(model, *args, **kwargs)
            log.append((model, solution))
            return solution

        monkeypatch.setattr(diversity, "optimal_weights", counting)
        return log

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_base_solved_once(self, k, solves):
        full = random_model(6, seed=88, bias_scale=0.5, criterion_var=1.0)
        base, split = candidate_from_model(full)
        indep = CandidateMember(
            mean=0.1, variance=2.0, cov_with_members=np.zeros(5), cov_with_criterion=0.2
        )
        ranking = rank_candidates(base, [split, indep] * k)
        assert len(ranking.evaluations) == 2 * k
        assert sum(model is base for model, _ in solves) == 1
        assert len(solves) == 2 * k + 1

    def test_redundant_candidate_certifies_at_the_start(self, solves):
        # Which seeds meet both premises rests on the solver's last bits, so
        # every seed that does is checked, and enough of them must.
        checked = 0
        for seed in range(60, 140):
            full = random_model(6, seed=seed, bias_scale=0.5, criterion_var=1.0)
            base = candidate_from_model(full)[0]
            w_base = optimal_weights(base).weights.weights
            grad = objective_gradient(base, w_base)
            worst = int(np.argmax(grad))
            # The premises: weights that normalizing again would move, and a
            # worst judge that carries no weight.
            if math.fsum(w_base) == 1.0 or grad[worst] <= grad.min() + 1e-3:
                continue
            checked += 1
            # That judge plus independent noise: same gradient at zero weight.
            redundant = CandidateMember(
                mean=base.judge_means[worst],
                variance=base.judge_cov[worst, worst] + 1.0,
                cov_with_members=base.judge_cov[worst],
                cov_with_criterion=base.cross_cov[worst],
            )
            ranking = rank_candidates(base, [redundant])
            (ev,) = ranking.evaluations
            _, after = solves[-1]
            assert after.iterations == 0
            assert after.weights.weights.tobytes() == np.append(w_base, 0.0).tobytes()
            assert ev.candidate_weight == 0.0
            assert abs(ev.marginal_gain) <= 1e-12
        assert checked >= 5

    def test_no_solve_tests_uniqueness(self, monkeypatch):
        # The ranking reads neither flag nor objective of any solve.
        calls = []
        monkeypatch.setattr(schemes, "_nonunique_on_face", lambda *args: calls.append(1))
        full = random_model(9, seed=5, criterion_var=1.0)
        base, candidates = split_candidates(full, 3)
        ranking = rank_candidates(base, candidates + [candidates[0]])
        assert len(ranking.evaluations) == 4
        assert calls == []

    def test_base_failure_fails_every_candidate(self, monkeypatch):
        full = random_model(6, seed=91, criterion_var=1.0)
        base, split = candidate_from_model(full)
        failure = NoConvergence(optimal_weights(base))

        def solve(model, *args, **kwargs):
            if model is base:
                raise failure
            return optimal_weights(model, *args, **kwargs)

        monkeypatch.setattr(diversity, "optimal_weights", solve)
        ranking = rank_candidates(base, [split, split], labels=["a", "b"])
        assert ranking.evaluations == ()
        assert [(f.index, f.label) for f in ranking.failures] == [(0, "a"), (1, "b")]
        assert all(f.error is failure for f in ranking.failures)

    def test_non_finite_base_fails_every_candidate(self):
        # The constructor refuses the base crowd, so there is none to rank.
        with pytest.raises(ValidationFailed, match="non-finite values in judge_cov"):
            CrowdModel(
                judge_means=[0.0, 1.0],
                judge_cov=[[np.nan, 0.2], [0.2, 1.0]],
                criterion_mean=0.0,
                criterion_var=1.0,
                cross_cov=[0.3, 0.1],
            )


def with_judge_cov(model: CrowdModel, cov: np.ndarray) -> CrowdModel:
    return CrowdModel(
        judge_means=model.judge_means,
        judge_cov=cov,
        criterion_mean=model.criterion_mean,
        criterion_var=model.criterion_var,
        cross_cov=model.cross_cov,
    )


def ranking_cases() -> list[tuple[CrowdModel, list[CandidateMember]]]:
    """Base crowds and candidates on both sides of the bordered certificate."""
    cases = []
    for seed in range(8):
        full = random_model(7, seed=500 + seed, bias_scale=0.5, criterion_var=1.0)
        base, split = candidate_from_model(full)
        n = base.n_judges
        sd = np.sqrt(np.diag(base.judge_cov))
        joint = base.joint_covariance()
        rng = np.random.default_rng(seed)
        border = joint @ rng.dirichlet(np.ones(n + 1))
        schur = float(border @ np.linalg.solve(joint, border))
        candidates = [
            split,
            CandidateMember(0.1, 2.0, np.zeros(n), 0.2),
            # Covariances beyond the judges' standard deviations, at unit
            # scale, at rounding scale and where the substitution overflows.
            CandidateMember(0.0, 1.0, 3.0 * sd, 0.0),
            CandidateMember(0.0, 1e-12, 1e-3 * sd, 0.0),
            CandidateMember(0.0, 1.0, 1e300 * sd, 0.0),
            CandidateMember(0.0, -1.0, np.zeros(n), 0.0),
            # A copy of judge 1, and a judge whose last pivot is near zero
            # on either side.
            CandidateMember(base.judge_means[0], base.judge_cov[0, 0], base.judge_cov[0],
                            base.cross_cov[0]),
            *(CandidateMember(0.3, schur * (1.0 + rel), border[:n], border[n])
              for rel in (-1e-6, -1e-13, 1e-15, 1e-13, 1e-6)),
        ]
        cases.append((base, candidates))
        # The same crowd with a judge_cov asymmetric within and beyond
        # PSD_RTOL; beyond it, a large enough border would hide that.
        for asym in (0.5 * PSD_RTOL, 2.0 * PSD_RTOL):
            cov = base.judge_cov.copy()
            cov[0, 1] += asym * np.abs(cov).max()
            large = CandidateMember(0.0, 1e4, np.zeros(n), 0.0)
            cases.append((with_judge_cov(base, cov), candidates + [large]))
        # A fixed criterion, a singular crowd (judge 1 twice) and a candidate
        # with a huge variance.
        fixed = fixed_criterion_model(base.judge_means, base.judge_cov, 0.5)
        cases.append((fixed, [dataclasses.replace(c, cov_with_criterion=0.0)
                              for c in candidates]))
        twin = np.append(np.arange(n), 0)
        singular = CrowdModel(
            judge_means=base.judge_means[twin],
            judge_cov=base.judge_cov[np.ix_(twin, twin)],
            criterion_mean=base.criterion_mean,
            criterion_var=base.criterion_var,
            cross_cov=base.cross_cov[twin],
        )
        cases.append((singular, [CandidateMember(c.mean, c.variance,
                                                 c.cov_with_members[twin],
                                                 c.cov_with_criterion)
                                 for c in candidates]))
        huge = CandidateMember(0.0, 1e300, np.zeros(n), 0.0)
        cases.append((base, candidates + [huge]))
    return cases


class TestBorderedCertificate:
    def test_every_candidate_gets_extend_model_s_verdict(self):
        certified_total = candidates_total = 0
        for base, candidates in ranking_cases():
            labels = [f"c{i}" for i in range(len(candidates))]
            ranking = rank_candidates(base, candidates, labels=labels)
            failed = {f.label: f.error for f in ranking.failures}
            evaluated = {ev.label for ev in ranking.evaluations}
            # A judge_cov asymmetric within PSD_RTOL can leave a solve, the
            # base's included, at a fixed point short of the tolerance.
            try:
                optimal_weights(base)
            except NoConvergence:
                base_solved = False
            else:
                base_solved = True
            certified = diversity._certified(base, candidates)
            for candidate, label, valid in zip(candidates, labels, certified):
                try:
                    extend_model(base, candidate, label)
                except CrowdwiseError as err:
                    assert not valid
                    got = failed[label]
                    if base_solved:
                        assert (type(got), str(got)) == (type(err), str(err))
                        assert getattr(got, "eigenvalue", None) == getattr(
                            err, "eigenvalue", None
                        )
                else:
                    assert label in evaluated or isinstance(failed[label], NoConvergence)
            certified_total += int(certified.sum())
            candidates_total += len(candidates)
        assert 0 < certified_total < candidates_total

    def test_huge_candidate_leaves_the_others_certified(self):
        base, candidates = split_candidates(random_model(9, seed=5, criterion_var=1.0), 3)
        huge = CandidateMember(0.0, 1e300, np.zeros(base.n_judges), 0.0)
        assert diversity._certified(base, candidates).tolist() == [True] * 3
        assert diversity._certified(base, candidates + [huge]).tolist() == [True] * 3 + [False]
        assert diversity._certified(base, [huge]).tolist() == [False]

    def test_noisy_candidate_keeps_the_one_shared_factor(self, monkeypatch):
        # Independent noise of 100 and 1000 times the crowd's largest joint
        # variance keeps a candidate consistent; one factor still covers it.
        base, candidates = split_candidates(random_model(9, seed=5, criterion_var=1.0), 3)
        largest = max(base.judge_cov.diagonal().max(), base.criterion_var)
        noisy = [
            dataclasses.replace(candidates[0], variance=candidates[0].variance + k * largest)
            for k in (100.0, 1000.0)
        ]
        factors = []
        shifted_factor = model_module._shifted_factor
        monkeypatch.setattr(
            model_module,
            "_shifted_factor",
            lambda m, shift: factors.append(shift) or shifted_factor(m, shift),
        )
        assert diversity._certified(base, candidates + noisy).tolist() == [True] * 5
        assert len(factors) == 1

    def test_wrong_length_candidate_is_reported_by_extend_model(self):
        fine = CandidateMember(0.0, 1.0, [0.0], 0.0)
        short = CandidateMember(0.0, 1.0, [0.0, 0.0], 0.0)
        ranking = rank_candidates(one_judge_crowd(), [fine, short], labels=["fine", "short"])
        assert [ev.label for ev in ranking.evaluations] == ["fine"]
        assert isinstance(ranking.failures[0].error, ShapeMismatch)

    def test_batch_validation_factors_once_without_eigensolve(self, monkeypatch, linalg_calls):
        base, candidates = split_candidates(random_model(64, seed=3, criterion_var=1.0), 4)
        n = base.n_judges
        factors, faces = [], []
        cholesky, shifted_factor = np.linalg.cholesky, model_module._shifted_factor

        def counted(m):
            faces.append(m.shape[0])
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(
            model_module,
            "_shifted_factor",
            lambda m, shift: factors.append(m.shape[0]) or shifted_factor(m, shift),
        )
        ranking = rank_candidates(base, candidates)
        assert len(ranking.evaluations) == 4
        assert linalg_calls["eigvalsh"] == 0
        # One factor of the base joint matrix; the solver factors only the
        # faces of judges carrying weight.
        assert factors == [n + 1]
        assert faces and max(faces) <= n


class TestBorderedScaledQP:
    @staticmethod
    def formed_afresh(model):
        """The same moments in a new model, whose scaled QP is formed, not bordered."""
        return CrowdModel(
            model.judge_means,
            model.judge_cov,
            model.criterion_mean,
            model.criterion_var,
            model.cross_cov,
        )

    def assert_bordered_where_the_shift_stays(self, base, candidate):
        """Extend ``base``, whose QP is formed, and compare the extended QP
        with a fresh one; whether it was bordered."""
        shift = base.scaled_qp[2]
        extended = extend_model(base, candidate, certified=True)
        bordered = "scaled_qp" in vars(extended)
        q2, b, *rest = extended.scaled_qp
        fresh_q2, fresh_b, *fresh_rest = self.formed_afresh(extended).scaled_qp
        assert q2.tobytes() == fresh_q2.tobytes()
        assert b.tobytes() == fresh_b.tobytes()
        assert rest == fresh_rest
        assert bordered == (fresh_rest[0] == shift)
        return bordered

    def test_bordered_qp_equals_a_fresh_one_bit_for_bit(self):
        # Every candidate of every case, valid or not, the asymmetric bases
        # and the 1e300-variance candidate, which moves the shift, included.
        taken = [
            self.assert_bordered_where_the_shift_stays(base, candidate)
            for base, candidates in ranking_cases()
            for candidate in candidates
        ]
        assert any(taken) and not all(taken)
        base = ranking_cases()[0][0]
        huge = CandidateMember(0.0, 1e300, np.zeros(base.n_judges), 0.0)
        assert not self.assert_bordered_where_the_shift_stays(base, huge)

    def test_all_zero_crowd_borders_until_the_shift_moves(self):
        # The crowd's top is -inf and its shift 0; a judge of unit scale
        # keeps that shift, one of variance 100 does not.
        zero = CrowdModel(np.zeros(3), np.zeros((3, 3)), 0.0, 1.0, np.zeros(3))
        assert zero.scaled_qp[2:] == (0, -math.inf)
        taken = [
            self.assert_bordered_where_the_shift_stays(
                zero, CandidateMember(0.0, variance, np.zeros(3), 0.0)
            )
            for variance in (0.0, 1.0, 100.0)
        ]
        assert taken == [True, True, False]

    def test_a_crowd_with_no_formed_qp_lends_none(self):
        base, (candidate,) = split_candidates(random_model(6, seed=3, criterion_var=1.0), 1)
        assert "scaled_qp" not in vars(extend_model(base, candidate))

    def test_ranking_solves_read_bordered_qps(self, monkeypatch):
        qps = []
        border = diversity._bordered_qp
        monkeypatch.setattr(
            diversity,
            "_bordered_qp",
            lambda model, extended: qps.append(border(model, extended)) or qps[-1],
        )
        base, candidates = split_candidates(random_model(9, seed=5, criterion_var=1.0), 3)
        ranking = rank_candidates(base, candidates)
        assert len(ranking.evaluations) == len(qps) == 3
        assert all(qp is not None for qp in qps)


class TestCandidatesOfAnotherScale:
    """Candidates whose variance dwarfs the crowd's: the weight they take or
    give up lies far below the rounding of the crowd's weights."""

    @pytest.mark.parametrize("case", [0, 6, 12])
    def test_variance_sweep_certifies_cold(self, case):
        base = ranking_cases()[case][0]
        n = base.n_judges
        variances = [10.0**e for e in range(2, 21, 2)] + [1e40, 1e100, 1e300]
        for variance in variances:
            extended = extend_model(base, CandidateMember(0.0, variance, np.zeros(n), 0.0))
            # Raises NoConvergence unless it certifies.
            solution = optimal_weights(extended)
            assert solution.weights.weights[-1] <= 1.0 / variance

    def test_huge_variance_candidates_rank(self):
        ranked = 0
        for base, candidates in ranking_cases():
            if candidates[-1].variance != 1e300:
                continue
            labels = [f"c{i}" for i in range(len(candidates))]
            ranking = rank_candidates(base, candidates, labels=labels)
            (huge,) = [ev for ev in ranking.evaluations if ev.label == labels[-1]]
            assert huge.candidate_weight <= 1e-299
            assert abs(huge.marginal_gain) <= 1e-12
            ranked += 1
        assert ranked == 8


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
