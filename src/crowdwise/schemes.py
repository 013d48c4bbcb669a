"""Weight and selection constructors, including optimal simplex weights.

The optimal aggregate solves

    minimize  f(w) = (mu_x' w - mu_y)^2 + w' Sigma w - 2 w' sigma_xy + sigma_y^2
    over      w >= 0,  sum w = 1

a convex quadratic program (the Hessian 2(Sigma + mu mu') is PSD).  It is
solved by projected search with exact Euclidean projection onto the simplex,
after Bertsekas (1982) and the GPCG method of Moré and Toraldo (1991).  Each
iteration makes one of two moves.  A gradient step tries first the length
that minimizes f along the negative gradient and halves it until the Armijo
rule holds; no Lipschitz constant is needed.  Once two steps in a row have
kept the set of judges carrying weight (the support), or gradient steps
stall, a face step searches toward the exact minimizer on the current face
instead.  That minimizer comes from a Cholesky factor of the face's Hessian
and the Schur complement of its sum-to-one row; a singular face, such as one
holding duplicated judges, takes the minimum-norm least-squares solution.
Every accepted move lowers the objective, so the last iterate is the best
one; when neither move lowers it the iterate is a fixed point, and the
solver stops there.
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
from .model import EIGEN_ROUNDING, CrowdModel, _nonfinite_violation, _readonly
from .wisdom import SelectionDistribution, WeightVector, crowd_mse, per_judge_mse

# Weights above this threshold count as active when certifying optimality.
ACTIVE_WEIGHT = 1e-12
# A step must lower the objective by this fraction of its first-order
# decrease (the Armijo rule); a search tries at most MAX_HALVINGS lengths,
# halving each time, to find one.
ARMIJO = 1e-4
MAX_HALVINGS = 60
# Gradient steps have stalled, and the solver turns to the face, once the
# latest lowers the objective by at most this fraction of the largest fall
# since the last face move (the progress test of Moré and Toraldo's GPCG).
STALL = 0.1
# Rows per block of the face solve's triangular substitutions.
_SOLVE_BLOCK = 64


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


def _decrease(q2: np.ndarray, grad: np.ndarray, d: np.ndarray) -> float:
    """f(w + d) - f(w) for the quadratic objective with gradient ``grad`` at w.

    Taken from the step itself, so it keeps its digits when f is large.
    """
    return float(grad @ d) + 0.5 * float(d @ (q2 @ d))


def _projected_search(
    q2: np.ndarray, grad: np.ndarray, w: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """The first of P(w + d), P(w + d/2), P(w + d/4), ... that passes Armijo.

    Armijo: f falls by at least ARMIJO times the first-order decrease
    -grad'(x - w).  Returns the point and how far f fell there, or None if
    none of the first MAX_HALVINGS passes, or a trial projects back onto w
    itself: steps that short only reach the rounding floor.
    """
    for _ in range(MAX_HALVINGS):
        x = _project(w + d)
        step = x - w
        if not step.any():
            return None  # shorter trials stay at w, up to rounding
        slope = float(grad @ step)
        change = _decrease(q2, grad, step)
        if slope < 0.0 and change <= ARMIJO * slope:
            return x, -change
        d = 0.5 * d
    return None


def _lower_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = rhs`` for a lower-triangular, nonsingular ``lower``.

    Forward substitution by blocks of _SOLVE_BLOCK rows: each block takes a
    matrix product with the rows already solved and a small dense solve.
    """
    x = np.empty_like(rhs)
    for i in range(0, rhs.shape[0], _SOLVE_BLOCK):
        j = i + _SOLVE_BLOCK
        x[i:j] = np.linalg.solve(lower[i:j, i:j], rhs[i:j] - lower[i:j, :i] @ x[:i])
    return x


def _definite_factor(q_face: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor of a face Hessian, or None for a singular face.

    A face holding duplicated judges is singular.  Cholesky then either
    fails or finishes with a pivot at rounding level, which would put the
    weight of a duplicated pair on one judge of it.  A squared pivot counts
    as that at or below lstsq's own rank cutoff, (k + 1) eps times the
    largest eigenvalue, taken here at its upper bound, the trace.
    """
    try:
        lower = np.linalg.cholesky(q_face)
    except np.linalg.LinAlgError:
        return None
    k = q_face.shape[0]
    cutoff = (k + 1) * np.finfo(float).eps * float(np.trace(q_face))
    return lower if float(np.diagonal(lower).min()) ** 2 > cutoff else None


def _newton_face_step(lower: np.ndarray, g_face: np.ndarray, total: float) -> np.ndarray:
    """The d minimizing g'd + d'Hd/2 subject to sum d = total, with H = LL'.

    One forward solve gives z = L^-1 1 and y = -L^-1 g, the Schur complement
    z'z = 1'H^-1 1 gives the multiplier (z'y - total) / z'z of the sum row,
    and one backward solve gives d.  Solving for the step from the gradient,
    rather than for the face minimizer itself, keeps its digits when it is
    small beside the weights.
    """
    k = g_face.shape[0]
    z, y = _lower_solve(lower, np.column_stack([np.ones(k), -g_face])).T
    multiplier = (float(z @ y) - total) / float(z @ z)
    # L' is lower triangular with its rows and columns reversed.
    upper_reversed = lower.T[::-1, ::-1]
    return _lower_solve(upper_reversed, (y - multiplier * z)[::-1])[::-1]


def _least_squares_face(q_face: np.ndarray, b_face: np.ndarray) -> np.ndarray | None:
    """The minimum-norm minimizer of x'Hx/2 + b'x subject to sum x = 1.

    The least-squares solution of the KKT system spreads weight evenly over
    duplicated judges.  The curvature rows are scaled by the power of 16
    that brings their largest entry into [1, 16).  That is exact, the same
    weights solve the scaled system, and its sum-to-one row no longer falls
    below the SVD's rank cutoff beside curvatures far from one; unit-scale
    crowds, whose curvatures already lie in that range, are solved unscaled.
    None when the scaled system leaves the float range, where LAPACK may not
    return.
    """
    k = b_face.shape[0]
    exponent = -4 * ((math.frexp(float(np.abs(q_face).max()))[1] - 1) // 4)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = np.ldexp(q_face, exponent)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([np.ldexp(-b_face, exponent), [1.0]])
    if not (np.isfinite(kkt).all() and np.isfinite(rhs).all()):
        return None
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def _face_step(
    q2: np.ndarray, b: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Projected search toward the minimizer of f on the affine hull of w's face.

    Weights that would turn negative on the way stay at zero, and judges
    off the face go to zero.  On a face whose Hessian has a Cholesky factor
    the step is the constrained Newton step from w (``_newton_face_step``);
    a singular face takes the least-squares minimizer instead
    (``_least_squares_face``).  A poor factor of a nearly singular face only
    costs iterations: the search accepts no step that fails Armijo.  None
    when there is no finite step or it is not downhill from w.
    """
    on_face = w > ACTIVE_WEIGHT
    active = np.nonzero(on_face)[0]
    q_face = q2[np.ix_(active, active)]
    if not (np.isfinite(q_face).all() and np.isfinite(grad).all()):
        return None  # curvatures past the float range; LAPACK may not return
    d = np.where(on_face, 0.0, -w)
    lower = _definite_factor(q_face)
    if lower is not None:
        g_face = (grad + q2 @ d)[active] if d.any() else grad[active]
        d[active] = _newton_face_step(lower, g_face, -float(d.sum()))
    else:
        x = _least_squares_face(q_face, b[active])
        if x is None:
            return None
        d[active] = x - w[active]
    if not (np.isfinite(d).all() and float(grad @ d) < 0.0):
        return None
    return _projected_search(q2, grad, w, d)


def _gradient_step(
    q2: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Projected search along -grad.

    The first trial length minimizes f along -grad, g'g / g'Qg, evaluated on
    grad scaled by a power of two so that neither product overflows; the
    scaling is exact, so the length is the unscaled one wherever that is
    finite.  Where f has no curvature along grad it falls linearly, and the
    first trial is the length that empties the judge with the largest
    partial.
    """
    exponent = -math.frexp(float(np.abs(grad).max()))[1]
    g = np.ldexp(grad, exponent)
    curvature = float(g @ (q2 @ g))
    if curvature > 0.0:
        t = float(g @ g) / curvature
    else:
        t = math.ldexp(2.0 / (float(np.ptp(g)) or 2.0), exponent)
    return _projected_search(q2, grad, w, -t * grad)


def _possibly_nonunique(model: CrowdModel, q2: np.ndarray) -> bool:
    """Whether the smallest computed eigenvalue of ``q2`` falls below 1e-10.

    Q = 2(Sigma + mu mu') and mu mu' is PSD, so by interlacing the exact
    lambda_min(Q) is at least twice the smallest eigenvalue of the model's
    joint covariance.  When that bound, less the rounding of both
    eigensolves, clears 1e-10, the answer is no without factoring Q.  Only a
    joint spectrum ``validate_model`` already computed is used: computing it
    here would cost a second eigensolve wherever the bound falls short.
    """
    spectrum = model.computed_joint_spectrum()
    if spectrum is not None:
        smallest, largest = spectrum
        mu = model.judge_means
        norm_bound = 2.0 * largest + float(mu @ mu)  # ||joint|| + ||Q|| / 2
        rounding = EIGEN_ROUNDING * (model.n_judges + 1) * norm_bound
        if smallest - rounding >= 0.5e-10:
            return False
    return float(np.linalg.eigvalsh(q2)[0]) < 1e-10


def optimal_weights(
    model: CrowdModel,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    start: WeightVector | None = None,
) -> QPSolution:
    """Minimize the crowd squared error over the simplex.

    Each iteration from ``start`` (uniform weights when None) makes one move.
    Once two steps in a row have kept the support, or the latest gradient
    step lowered f by at most STALL times the largest fall since the last
    face move, it searches toward the exact minimizer on the current face;
    weights that would turn negative on the way stay at zero.  Otherwise, or
    if that would not lower the objective, it takes a projected gradient step
    under the Armijo rule.  No move raises the objective, from any feasible
    start, so a start near the optimum, such as a smaller crowd's optimum
    padded with zero weights, can certify in few iterations or none, and
    then comes back bit for bit.  The iterate is accepted only once its own
    first-order certificate is within ``tolerance``, so the result is
    guaranteed wise against every selection distribution up to that slack;
    ``kkt_residual`` is that certificate, taken at the stored weights.

    Raises:
        ValidationFailed: some moment of the model is nan or inf.
        ShapeMismatch: ``start`` does not have one weight per judge.
        NoConvergence: iteration cap reached, or neither move lowers the
            objective any more, so every later iteration would repeat the
            last one.  Carries the last iterate, which is the best one,
            certified at its stored weights, with ``iterations`` the cap.
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
    nonunique = _possibly_nonunique(model, q2)

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
    # ``kept``: steps in a row that kept the support.  ``best_fall`` and
    # ``last_fall``: the largest and the latest fall in f over the gradient
    # steps since the last face move.  A failed gradient step falls by zero,
    # so the next iteration tries the face from the same w.
    support, kept = None, 0
    best_fall, last_fall = 0.0, math.inf
    for iteration in range(max_iterations + 1):
        grad = objective_gradient(model, w)
        if _certificate_residual(w, grad) <= tolerance:
            return build(w, iteration)
        if iteration == max_iterations:
            break
        active = w > ACTIVE_WEIGHT
        kept = kept + 1 if np.array_equal(active, support) else 0
        support = active
        face_tried = kept >= 2 or last_fall <= STALL * best_fall
        if face_tried:
            kept, best_fall, last_fall = 0, 0.0, math.inf
            moved = _face_step(q2, b, w, grad)
            if moved is not None:
                w = moved[0]
                continue
        moved = _gradient_step(q2, w, grad)
        if moved is not None:
            w, last_fall = moved
            best_fall = max(best_fall, last_fall)
        elif face_tried:
            # Neither move lowers f from w, so every later iteration would
            # repeat this one.
            break
        else:
            last_fall = 0.0
    raise NoConvergence(build(w, max_iterations))
