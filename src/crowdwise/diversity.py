"""Marginal value of adding a candidate member to an existing crowd.

Adding a member can only help under optimal weighting: the old optimum stays
feasible with zero weight on the newcomer, so the optimal crowd squared error
never rises.  How much it falls is the accuracy-diversity trade-off made
concrete.  A candidate that hedges the crowd (negative covariance with the
incumbents) can be worth more than a lower-variance but redundant one, and
the ranking here scores exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CrowdwiseError,
    JointNotPSD,
    ShapeMismatch,
    UndefinedSkill,
    ValidationFailed,
    ZeroCriterionVariance,
)
from .model import CrowdModel, _readonly, validate_model
from .schemes import SELECTION_RULES, optimal_weights, skill_scores, uniform_weights
from .wisdom import WisdomReport, crowd_mse, evaluate


@dataclass(frozen=True)
class CandidateMember:
    """Moments of a prospective judge relative to an existing crowd (finite)."""

    mean: float
    variance: float
    cov_with_members: np.ndarray
    cov_with_criterion: float

    def __post_init__(self):
        object.__setattr__(
            self,
            "cov_with_members",
            _readonly(np.atleast_1d(self.cov_with_members)),
        )
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "cov_with_criterion", float(self.cov_with_criterion))
        moments = (self.mean, self.variance, self.cov_with_criterion)
        if not (np.isfinite(moments).all() and np.isfinite(self.cov_with_members).all()):
            raise ValidationFailed(["candidate moments must be finite"])


@dataclass(frozen=True)
class CandidateEvaluation:
    """Optimal-weight wisdom before and after adding one candidate.

    ``marginal_gain`` is the drop in optimal crowd squared error; it is never
    meaningfully negative.  ``uniform_marginal_gain`` is the same comparison
    under simple averaging, where adding a member genuinely can hurt.
    ``candidate_skill`` is None when the criterion is fixed.
    """

    label: str
    before: WisdomReport
    after: WisdomReport
    marginal_gain: float
    candidate_weight: float
    candidate_skill: float | None
    uniform_marginal_gain: float


@dataclass(frozen=True)
class CandidateFailure:
    """A candidate that could not be evaluated, with the reason."""

    index: int
    label: str
    error: CrowdwiseError


@dataclass(frozen=True)
class CandidateRanking:
    """Evaluations sorted by marginal gain, plus any per-candidate failures."""

    evaluations: tuple[CandidateEvaluation, ...]
    failures: tuple[CandidateFailure, ...]


def extend_model(
    model: CrowdModel, candidate: CandidateMember, label: str = "candidate"
) -> CrowdModel:
    """Append the candidate as judge N+1.

    Raises:
        ShapeMismatch: covariance vector length disagrees with the crowd.
        JointNotPSD: the extended covariance admits no joint distribution.
    """
    n = model.n_judges
    if candidate.cov_with_members.shape != (n,):
        raise ShapeMismatch(
            f"candidate covariance vector has length "
            f"{candidate.cov_with_members.shape[0]} for {n} judges"
        )
    cov = np.zeros((n + 1, n + 1))
    cov[:n, :n] = model.judge_cov
    cov[:n, n] = candidate.cov_with_members
    cov[n, :n] = candidate.cov_with_members
    cov[n, n] = candidate.variance
    extended = CrowdModel(
        judge_means=np.concatenate([model.judge_means, [candidate.mean]]),
        judge_cov=cov,
        criterion_mean=model.criterion_mean,
        criterion_var=model.criterion_var,
        cross_cov=np.concatenate(
            [model.cross_cov, [candidate.cov_with_criterion]]
        ),
        judge_labels=model.judge_labels + (label,),
    )
    violations = validate_model(extended)
    if violations:
        smallest = float(np.linalg.eigvalsh(extended.joint_covariance())[0])
        raise JointNotPSD(
            smallest,
            f"candidate {label!r} is inconsistent with the crowd: "
            + "; ".join(violations),
        )
    return extended


def evaluate_candidate(
    model: CrowdModel,
    candidate: CandidateMember,
    p_rule: str = "uniform",
    label: str = "candidate",
) -> CandidateEvaluation:
    """Compare optimal-weight wisdom with and without the candidate.

    The selection rule is re-derived on each model so both reports answer
    the same question at their own crowd size.
    """
    if p_rule not in SELECTION_RULES:
        raise ShapeMismatch(
            f"unknown selection rule {p_rule!r}; "
            f"choose one of {tuple(SELECTION_RULES)}"
        )
    select = SELECTION_RULES[p_rule]
    extended = extend_model(model, candidate, label)
    before_sol = optimal_weights(model)
    after_sol = optimal_weights(extended)
    before = evaluate(model, before_sol.weights, select(model))
    after = evaluate(extended, after_sol.weights, select(extended))
    try:
        skill = float(skill_scores(extended).skills[-1])
    except (ZeroCriterionVariance, UndefinedSkill):
        skill = None
    uniform_before = crowd_mse(model, uniform_weights(model.n_judges)).total
    uniform_after = crowd_mse(extended, uniform_weights(extended.n_judges)).total
    return CandidateEvaluation(
        label=label,
        before=before,
        after=after,
        marginal_gain=before.crowd_mse - after.crowd_mse,
        candidate_weight=float(after_sol.weights.weights[-1]),
        candidate_skill=skill,
        uniform_marginal_gain=uniform_before - uniform_after,
    )


def rank_candidates(
    model: CrowdModel,
    candidates: list[CandidateMember],
    p_rule: str = "uniform",
    labels: list[str] | None = None,
) -> CandidateRanking:
    """Evaluate every candidate and sort by marginal gain, best first.

    Ties keep input order.  A candidate that fails (inconsistent covariance,
    solver failure) is reported in ``failures`` without sinking the batch.
    """
    if labels is None:
        labels = [f"candidate_{i + 1}" for i in range(len(candidates))]
    if len(labels) != len(candidates):
        raise ShapeMismatch(
            f"{len(labels)} labels for {len(candidates)} candidates"
        )
    evaluations: list[CandidateEvaluation] = []
    failures: list[CandidateFailure] = []
    for i, (candidate, label) in enumerate(zip(candidates, labels)):
        try:
            evaluations.append(
                evaluate_candidate(model, candidate, p_rule, label)
            )
        except CrowdwiseError as err:
            failures.append(CandidateFailure(index=i, label=label, error=err))
    evaluations.sort(key=lambda ev: -ev.marginal_gain)
    return CandidateRanking(
        evaluations=tuple(evaluations), failures=tuple(failures)
    )
