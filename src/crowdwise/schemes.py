"""Weight and selection constructors, including optimal simplex weights.

The optimal aggregate solves

    minimize  f(w) = (mu_x' w - mu_y)^2 + w' Sigma w - 2 w' sigma_xy + sigma_y^2
    over      w >= 0,  sum w = 1

a convex quadratic program (the Hessian 2(Sigma + mu mu') is PSD).  It is
solved by projected gradient descent with exact Euclidean projection onto the
simplex and fixed step 1/L, L the largest eigenvalue of the Hessian.  With
that step no iteration raises the objective (the sufficient-decrease lemma
of projected gradient methods), so the last iterate is the best one.
Convergence is certified by the first-order residual over the simplex: with
tau = min_i df/dw_i, the residual is the largest excess df/dw_i - tau over
judges carrying weight.  A residual of r guarantees the objective is within
r of the true minimum, so a converged solution beats every single judge and
hence every selection distribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    ShapeMismatch,
    SkillDegenerateWarning,
    UndefinedSkill,
    ValidationFailed,
    ZeroCriterionVariance,
    ZeroJudges,
)
from .model import CrowdModel, _nonfinite_violation, _readonly
from .wisdom import SelectionDistribution, WeightVector, crowd_mse, per_judge_mse

# Weights above this threshold count as active when certifying optimality.
ACTIVE_WEIGHT = 1e-12


@dataclass(frozen=True)
class SkillProfile:
    """Predictive validity of each judge: corr(judge prediction, criterion)."""

    skills: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "skills", _readonly(self.skills))


@dataclass(frozen=True)
class QPSolution:
    """Optimal weights with a convergence certificate.

    ``kkt_residual`` bounds the objective suboptimality.  When the Hessian is
    singular the minimizer may be a face of the simplex rather than a point;
    ``possibly_nonunique`` flags that case (one valid argmin is still
    returned).
    """

    weights: WeightVector
    objective: float
    iterations: int
    kkt_residual: float
    possibly_nonunique: bool


@dataclass(frozen=True)
class BestMemberChoice:
    """Point mass on the judge with least expected squared error."""

    selection: SelectionDistribution
    best_index: int
    tied_indices: tuple[int, ...]

    @property
    def is_tie(self) -> bool:
        return len(self.tied_indices) > 1


def uniform_weights(n: int) -> WeightVector:
    if n < 1:
        raise ZeroJudges("cannot build weights for zero judges")
    return WeightVector(np.full(n, 1.0 / n))


def uniform_selection(n: int) -> SelectionDistribution:
    if n < 1:
        raise ZeroJudges("cannot build a selection distribution for zero judges")
    return SelectionDistribution(np.full(n, 1.0 / n))


def skill_scores(model: CrowdModel) -> SkillProfile:
    """Each judge's correlation with the criterion.

    Raises:
        ZeroCriterionVariance: the criterion is fixed, so no correlation exists.
        UndefinedSkill: some judge has zero prediction variance.
    """
    if model.criterion_var <= 0.0:
        raise ZeroCriterionVariance(
            "skill is undefined for a zero-variance criterion; "
            "consider inverse-MSE weighting instead"
        )
    variances = np.diag(model.judge_cov)
    degenerate = [int(i) for i in np.nonzero(variances <= 0.0)[0]]
    if degenerate:
        raise UndefinedSkill(degenerate)
    sd_y = math.sqrt(model.criterion_var)
    return SkillProfile(model.cross_cov / (np.sqrt(variances) * sd_y))


def _clipped_skill_simplex(model: CrowdModel, floor_at_zero: bool) -> np.ndarray:
    s = skill_scores(model).skills
    if floor_at_zero:
        v = np.maximum(s, 0.0)
    else:
        v = s - min(float(s.min()), 0.0)
    if v.sum() <= 0.0:
        warnings.warn(
            "all clipped skills are zero; falling back to uniform",
            SkillDegenerateWarning,
            stacklevel=3,
        )
        return np.full(len(v), 1.0 / len(v))
    return v


def skill_weights(model: CrowdModel, floor_at_zero: bool = True) -> WeightVector:
    """Weights proportional to skill, clipped to be nonnegative.

    With ``floor_at_zero`` negative skills are clipped to zero; otherwise all
    skills are shifted up so the least becomes zero.  If every clipped skill
    is zero a uniform vector is returned and a SkillDegenerateWarning issued.
    """
    return WeightVector(_clipped_skill_simplex(model, floor_at_zero))


def skill_selection(
    model: CrowdModel, floor_at_zero: bool = True
) -> SelectionDistribution:
    """Selection probabilities proportional to clipped skill; uniform fallback."""
    return SelectionDistribution(_clipped_skill_simplex(model, floor_at_zero))


def inverse_mse_weights(model: CrowdModel) -> WeightVector:
    """Weights proportional to 1 / per-judge expected squared error.

    The documented substitute for skill weighting when the criterion is fixed.
    Judges with (numerically) zero error share all the mass.
    """
    mse = per_judge_mse(model)
    scale = max(float(mse.max()), 1.0)
    exact = mse <= 1e-15 * scale
    if exact.any():
        v = exact.astype(float)
    else:
        v = 1.0 / mse
    return WeightVector(v)


def best_member_selection(model: CrowdModel) -> BestMemberChoice:
    """Deterministically select the judge with minimal expected squared error.

    Ties go to the lowest index and are recorded in ``tied_indices``.
    """
    mse = per_judge_mse(model)
    best = int(np.argmin(mse))
    tied = tuple(int(i) for i in np.nonzero(mse == mse[best])[0])
    return BestMemberChoice(
        selection=SelectionDistribution.point_mass(best, model.n_judges),
        best_index=best,
        tied_indices=tied,
    )


# Named selection rules: each derives a selection distribution from a model.
# The lambdas look each function up when called, so a wrapper installed on the
# module name (perfbench's tracer installs one) sees every call.
SELECTION_RULES = {
    "uniform": lambda model: uniform_selection(model.n_judges),
    "skill": lambda model: skill_selection(model),
    "best": lambda model: best_member_selection(model).selection,
}


def _project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex (sort-and-threshold, exact)."""
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, v.shape[0] + 1)
    support = np.nonzero(u - shifted / counts > 0.0)[0][-1]
    theta = shifted[support] / (support + 1.0)
    return np.maximum(v - theta, 0.0)


def project_to_simplex(v) -> WeightVector:
    """Nearest point of the simplex to ``v`` in Euclidean distance."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape[0] < 1:
        raise ShapeMismatch("cannot project an empty vector")
    return WeightVector(_project(arr))


def objective_gradient(model: CrowdModel, w: np.ndarray) -> np.ndarray:
    """Gradient 2(mu' w - mu_y) mu + 2 Sigma w - 2 sigma_xy."""
    w = np.asarray(w, dtype=float)
    bias = float(model.judge_means @ w) - model.criterion_mean
    return (
        2.0 * bias * model.judge_means
        + 2.0 * (model.judge_cov @ w)
        - 2.0 * model.cross_cov
    )


def _certificate_residual(w: np.ndarray, grad: np.ndarray) -> float:
    """Max first-order violation over the simplex at ``w``.

    tau = min_i grad_i never exceeds any partial, so only judges carrying
    weight can violate stationarity; the residual is their largest excess,
    taken together with the weighted excess w'grad - tau, which by convexity
    bounds how far the objective sits above the true minimum.
    """
    tau = float(grad.min())
    active = w > ACTIVE_WEIGHT
    weighted_excess = float(w @ grad) - tau
    return max(float((grad[active] - tau).max()), weighted_excess)


def _face_polish(
    q2: np.ndarray, b: np.ndarray, w: np.ndarray
) -> np.ndarray | None:
    """Solve the equality-constrained problem on the current active face.

    Returns a feasible candidate supported on the face, or None if the face
    solution leaves the simplex.  Singular systems take the least-squares
    solution, which spreads weight evenly over duplicated judges.
    """
    active = np.nonzero(w > ACTIVE_WEIGHT)[0]
    k = active.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = q2[np.ix_(active, active)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([-b[active], [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    w_face = sol[:k]
    if w_face.min() < -1e-12 or not np.all(np.isfinite(w_face)):
        return None
    candidate = np.zeros_like(w)
    candidate[active] = np.maximum(w_face, 0.0)
    return candidate


def optimal_weights(
    model: CrowdModel,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    start: WeightVector | None = None,
) -> QPSolution:
    """Minimize the crowd squared error over the simplex.

    Projected gradient descent from ``start`` (uniform weights when None),
    with a periodic exact solve on the current active face to sharpen the
    last digits.  Descent never raises the objective from any feasible start,
    so a start near the optimum, such as a smaller crowd's optimum padded
    with zero weights, can certify in few iterations or none, and then comes
    back bit for bit.  Any candidate is accepted only once its own
    first-order certificate is within ``tolerance``, so the result is
    guaranteed wise against every selection distribution up to that slack;
    ``kkt_residual`` is that certificate, taken at the stored weights.

    Raises:
        ValidationFailed: some moment of the model is nan or inf.
        ShapeMismatch: ``start`` does not have one weight per judge.
        NoConvergence: iteration cap reached; carries the last iterate, which
            descent makes the best one, certified at its stored weights.
    """
    nonfinite = _nonfinite_violation(model)
    if nonfinite:
        raise ValidationFailed(nonfinite)
    n = model.n_judges
    if start is not None and len(start) != n:
        raise ShapeMismatch(f"start has {len(start)} weights for {n} judges")
    mu = model.judge_means
    q2 = 2.0 * (model.judge_cov + np.outer(mu, mu))
    b = -2.0 * (model.criterion_mean * mu + model.cross_cov)
    curvatures = np.linalg.eigvalsh(q2)
    lipschitz = float(curvatures[-1])
    nonunique = float(curvatures[0]) < 1e-10

    def build(w: np.ndarray, iterations: int) -> QPSolution:
        wv = WeightVector(w)
        return QPSolution(
            weights=wv,
            objective=crowd_mse(model, wv).total,
            iterations=iterations,
            kkt_residual=_certificate_residual(
                wv.weights, objective_gradient(model, wv.weights)
            ),
            possibly_nonunique=nonunique,
        )

    w = np.full(n, 1.0 / n) if start is None else start.weights
    if lipschitz <= 0.0:
        # Zero curvature: the objective is affine, so a vertex minimizes it.
        grad = objective_gradient(model, w)
        w = np.zeros(n)
        w[int(np.argmin(grad))] = 1.0
        return build(w, 0)

    step = 1.0 / lipschitz
    for iteration in range(max_iterations + 1):
        grad = objective_gradient(model, w)
        residual = _certificate_residual(w, grad)
        if residual <= tolerance:
            return build(w, iteration)
        if iteration % 50 == 0 and iteration > 0:
            candidate = _face_polish(q2, b, w)
            if candidate is not None:
                cand_grad = objective_gradient(model, candidate)
                cand_residual = _certificate_residual(candidate, cand_grad)
                if cand_residual <= tolerance:
                    return build(candidate, iteration)
        if iteration == max_iterations:
            break
        w = _project(w - step * grad)
    raise NoConvergence(build(w, max_iterations))
