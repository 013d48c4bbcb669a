"""Marginal value of adding a candidate member to an existing crowd.

Adding a member can only help under optimal weighting: the old optimum stays
feasible with zero weight on the newcomer, so the optimal crowd squared error
never rises.  How much it falls is the accuracy-diversity trade-off made
concrete.  A candidate that hedges the crowd (negative covariance with the
incumbents) can be worth more than a lower-variance but redundant one, and
the ranking here scores exactly that.

The same nesting makes ranking cheap.  ``rank_candidates`` solves and
evaluates the base crowd once, then starts each extended crowd's solve at the
base optimum padded with zero weight on the candidate.  That point is
feasible and usually almost optimal, and it is already certified when the
candidate is redundant (its gradient there is at least the base multiplier).
Validity is settled from the base crowd too: one shifted Cholesky factor of
its joint matrix, bordered by each candidate's covariances in one forward
substitution, certifies every consistent candidate at once (a bordered
Cholesky factor, or Schur complement; Golub & Van Loan, Matrix Computations,
ch. 4).  Only a candidate it cannot certify pays ``extend_model``'s full
validation, which reports every failure.  If one huge candidate's share of
the shift sinks the factor, it is taken again at the crowd's own scale, for
the candidates within it.

Each candidate then costs a copy of the moments grown by one judge, the
finiteness scan of that copy's constructor, one column of the substitution,
the base crowd's scaled QP bordered by one row and column (formed afresh
only when the candidate moves its power-of-two shift), one warm-started
solve (a face factor per face step), one evaluation, its skill and its
uniform crowd error.  The solve's objective and uniqueness flag are never
read, so they are never computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CrowdwiseError,
    JointNotPSD,
    ShapeMismatch,
    ValidationFailed,
)
from .model import (
    CrowdModel,
    _bordered_qp,
    _certified_extensions,
    _readonly,
    validate_model,
)
from .schemes import SELECTION_RULES, optimal_weights, uniform_weights
from .wisdom import WeightVector, WisdomReport, crowd_mse, evaluate


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
    ``candidate_skill`` is None for a fixed criterion or a constant candidate.
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
    model: CrowdModel,
    candidate: CandidateMember,
    label: str = "candidate",
    *,
    certified: bool = False,
) -> CrowdModel:
    """Append the candidate as judge N+1.

    ``certified`` says the extension is already proven valid (by
    ``model._certified_extensions``), so ``validate_model`` is skipped.

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
    # The border is written on both sides, so the extended judge_cov equals
    # its transpose exactly when the crowd's does.
    object.__setattr__(extended, "exactly_symmetric", model.exactly_symmetric)
    if not certified:
        violations = validate_model(extended)
        if violations:
            raise JointNotPSD(
                extended.joint_spectrum[0],
                f"candidate {label!r} is inconsistent with the crowd: "
                + "; ".join(violations),
            )
    # A crowd whose scaled QP is formed lends it to the extended crowd,
    # bordered by the candidate, unless the candidate moves its shift.
    bordered = _bordered_qp(model, extended)
    if bordered is not None:
        object.__setattr__(extended, "scaled_qp", bordered)
    return extended


def _certified(model: CrowdModel, candidates: list[CandidateMember]) -> np.ndarray:
    """Which candidates provably extend ``model`` to a valid crowd.

    All False when some candidate's covariance vector has the wrong length,
    which only ``extend_model`` reports.
    """
    n = model.n_judges
    if not candidates or any(c.cov_with_members.shape != (n,) for c in candidates):
        return np.zeros(len(candidates), dtype=bool)
    borders = np.column_stack(
        [np.append(c.cov_with_members, c.cov_with_criterion) for c in candidates]
    )
    corners = np.array([c.variance for c in candidates])
    return _certified_extensions(model, borders, corners)


def rank_candidates(
    model: CrowdModel,
    candidates: list[CandidateMember],
    p_rule: str = "uniform",
    labels: list[str] | None = None,
) -> CandidateRanking:
    """Evaluate every candidate and sort by marginal gain, best first.

    The base crowd is solved and evaluated once; each extended crowd is
    solved from the base optimum with zero weight on the candidate.  The
    selection rule is derived on each model, so the before and after reports
    answer the same question at their own crowd size.  One bordered factor
    of the base crowd's joint matrix certifies the consistent candidates
    (``model._certified_extensions``), and ``extend_model`` skips their
    validation; the rest are validated there, and its errors are the
    failures reported.

    Ties keep input order.  A candidate that fails (inconsistent covariance,
    solver failure) is reported in ``failures`` without sinking the batch; a
    failure on the base crowd (unknown selection rule, base solve) is
    reported for every candidate.
    """
    if labels is None:
        labels = [f"candidate_{i + 1}" for i in range(len(candidates))]
    if len(labels) != len(candidates):
        raise ShapeMismatch(
            f"{len(labels)} labels for {len(candidates)} candidates"
        )
    try:
        if p_rule not in SELECTION_RULES:
            raise ShapeMismatch(
                f"unknown selection rule {p_rule!r}; "
                f"choose one of {tuple(SELECTION_RULES)}"
            )
        select = SELECTION_RULES[p_rule]
        base = optimal_weights(model)
        before = evaluate(model, base.weights, select(model))
        uniform_before = crowd_mse(model, uniform_weights(model.n_judges)).total
    except CrowdwiseError as err:
        failures = tuple(
            CandidateFailure(index=i, label=label, error=err)
            for i, label in enumerate(labels)
        )
        return CandidateRanking(evaluations=(), failures=failures)
    start = WeightVector(np.append(base.weights.weights, 0.0))
    certified = _certified(model, candidates)

    def assess(
        candidate: CandidateMember, label: str, valid: bool
    ) -> CandidateEvaluation:
        extended = extend_model(model, candidate, label, certified=valid)
        after_sol = optimal_weights(extended, start=start)
        after = evaluate(extended, after_sol.weights, select(extended))
        skill = None
        if model.criterion_var > 0.0 and candidate.variance > 0.0:
            # skill_scores' operations, on the candidate's moments alone.
            sd = np.sqrt(candidate.variance) * np.sqrt(model.criterion_var)
            skill = float(candidate.cov_with_criterion / sd)
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

    evaluations: list[CandidateEvaluation] = []
    failures: list[CandidateFailure] = []
    for i, (candidate, label, valid) in enumerate(zip(candidates, labels, certified)):
        try:
            evaluations.append(assess(candidate, label, valid))
        except CrowdwiseError as err:
            failures.append(CandidateFailure(index=i, label=label, error=err))
    evaluations.sort(key=lambda ev: -ev.marginal_gain)
    return CandidateRanking(
        evaluations=tuple(evaluations), failures=tuple(failures)
    )
