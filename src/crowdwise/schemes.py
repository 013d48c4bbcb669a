"""Weight and selection constructors, including optimal simplex weights.

The optimal aggregate solves

    minimize  f(w) = (mu_x' w - mu_y)^2 + w' Sigma w - 2 w' sigma_xy + sigma_y^2
    over      w >= 0,  sum w = 1

a convex quadratic program.  Each solve builds it once (``_scaled_qp``):
centred, symmetric and scaled by one power of two, so that the certificate,
the Armijo test and the face systems all read one gradient q2 w + b near
unit scale, while the tolerance, objective and residual keep the caller's
units.  The QP is solved by projected search with exact Euclidean projection
onto the simplex, after Bertsekas (1982) and the GPCG method of Moré and
Toraldo (1991).  Each iteration makes one of two moves.  A gradient step tries
first the length that minimizes f along the negative gradient and halves it
until the Armijo rule holds; no Lipschitz constant is needed.  Once two steps
in a row have kept the set of judges carrying weight (the support), or
gradient steps stall, a face step searches toward the exact minimizer on the
current face instead.  That face is the support plus the judge with the
smallest partial, the one that most wants to enter, so an active-set step
can grow the support as well as shrink it.  An accepted face step is followed
by another one, and a solve from a given start begins with one, so a start
near the optimum finishes in a face step or two.  The face minimizer comes
from a Cholesky factor of the face's Hessian and the Schur complement of its
sum-to-one row; a singular face, such as one holding duplicated judges,
takes the minimum-norm least-squares solution.
Every accepted move lowers the objective, so the last iterate is the best
one; when neither move lowers it the iterate is a fixed point, and the
solver stops there.
Convergence is certified by the first-order residual over the simplex: with
tau = min_i df/dw_i, the residual is the largest excess df/dw_i - tau over
judges carrying weight.  A residual of r guarantees the objective is within
r of the true minimum, so a converged solution beats every single judge and
hence every selection distribution.  It is the only minimizer unless a
sum-zero direction on the optimal face has no curvature.
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

    ``kkt_residual`` bounds the objective suboptimality.  When a sum-zero
    direction on the optimal face, such as two identical judges that both
    carry weight, has no curvature, ``possibly_nonunique`` flags that the
    minimizer may not be a point (one valid argmin is still returned).
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


def _clipped_skill_simplex(model: CrowdModel) -> np.ndarray:
    v = np.maximum(skill_scores(model).skills, 0.0)
    if v.sum() <= 0.0:
        warnings.warn(
            "all clipped skills are zero; falling back to uniform",
            SkillDegenerateWarning,
            stacklevel=3,
        )
        return np.full(len(v), 1.0 / len(v))
    return v


def skill_weights(model: CrowdModel) -> WeightVector:
    """Weights proportional to skill, negative skills clipped to zero.

    If every clipped skill is zero a uniform vector is returned and a
    SkillDegenerateWarning issued.
    """
    return WeightVector(_clipped_skill_simplex(model))


def skill_selection(model: CrowdModel) -> SelectionDistribution:
    """Selection probabilities proportional to clipped skill; uniform fallback."""
    return SelectionDistribution(_clipped_skill_simplex(model))


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


def _ldexp(x: float, exponent: int) -> float:
    """x times 2**exponent, or an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exponent(a: np.ndarray) -> float:
    """The e with max|a| in [2^(e-1), 2^e), frexp's exponent; -inf for zeros."""
    top = float(np.abs(a).max())
    return math.frexp(top)[1] if top else -math.inf


def _scaled_qp(model: CrowdModel) -> tuple[np.ndarray, np.ndarray, int]:
    """q2, b and shift with f(w) = (w'q2 w / 2 + b'w) / 2^shift + sigma_y^2.

    q2 = 2(S + m m') and b = -2 sigma_xy, with S the symmetric part of Sigma
    and m = mu - mu_y ((mu'w - mu_y)^2 = (m'w)^2 on the simplex), scaled by
    the even shift, read from exponents before any square forms, that brings
    the largest of |S|, |sigma_xy| and m_i^2 into [1, 4).  A crowd scaled by
    2^j, with its tolerance, solves to the same bits.
    """
    # Halves first: mu - mu_y can overflow, their halves cannot.
    half = 0.5 * model.judge_means - 0.5 * model.criterion_mean
    cov = model.judge_cov
    if not (cov == cov.T).all():
        cov = 0.5 * cov + 0.5 * cov.T
    top = max(2 * _exponent(half) + 2, _exponent(cov), _exponent(model.cross_cov))
    shift = 0 if top == -math.inf else -2 * ((top - 1) // 2)
    m = np.ldexp(half, shift // 2 + 1)
    q2 = np.outer(m, m)
    q2 += np.ldexp(cov, shift) if shift else cov
    q2 *= 2.0
    return q2, -2.0 * np.ldexp(model.cross_cov, shift), shift


def objective_gradient(model: CrowdModel, w: np.ndarray) -> np.ndarray:
    """The solver's gradient q2 w + b (``_scaled_qp``) in the caller's units.

    Off the simplex it differs from the raw formula's gradient by a multiple
    of ones, which moves no first-order certificate.
    """
    q2, b, shift = _scaled_qp(model)
    return np.ldexp(q2 @ np.asarray(w, dtype=float) + b, -shift)


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
        # f(x) - f(w), from the step itself: it keeps its digits when f is large.
        change = slope + 0.5 * float(step @ (q2 @ step))
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


def _face_step(
    q2: np.ndarray, b: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Projected search toward the minimizer of f on the affine hull of w's face.

    The face is the judges carrying weight plus the judge with the smallest
    partial.  Weights that would turn negative on the way stay at zero, and
    judges off the face go to zero.  On a face whose Hessian has a Cholesky
    factor the step is the constrained Newton step from w
    (``_newton_face_step``); a singular face takes the minimum-norm
    least-squares minimizer, which spreads weight evenly over duplicated
    judges.  A poor factor of a nearly singular face only costs iterations:
    the search accepts no step that fails Armijo.  None when there is no
    finite step or it is not downhill.
    """
    on_face = w > ACTIVE_WEIGHT
    on_face[np.argmin(grad)] = True
    active = np.nonzero(on_face)[0]
    q_face = q2[np.ix_(active, active)]
    d = np.where(on_face, 0.0, -w)
    lower = _definite_factor(q_face)
    if lower is not None:
        g_face = (grad + q2 @ d)[active] if d.any() else grad[active]
        d[active] = _newton_face_step(lower, g_face, -float(d.sum()))
    else:
        # The KKT system; its sum-to-one row stays above lstsq's rank cutoff
        # beside curvature rows at the scale of _scaled_qp.
        kkt = np.ones((len(active) + 1,) * 2)
        kkt[:-1, :-1], kkt[-1, -1] = q_face, 0.0
        rhs = np.append(-b[active], 1.0)
        d[active] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1] - w[active]
    if not (np.isfinite(d).all() and float(grad @ d) < 0.0):
        return None
    return _projected_search(q2, grad, w, d)


def _gradient_step(
    q2: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Projected search along -grad.

    The first trial length minimizes f along -grad, g'g / g'Qg.  Where f has
    no curvature along grad it falls linearly, and the first trial is the
    length that empties the judge with the largest partial.
    """
    curvature = float(grad @ (q2 @ grad))
    if curvature > 0.0:
        t = float(grad @ grad) / curvature
    else:
        t = 2.0 / (float(np.ptp(grad)) or 2.0)
    return _projected_search(q2, grad, w, -t * grad)


def _nonunique_on_face(
    q2: np.ndarray, w: np.ndarray, grad: np.ndarray, tolerance: float
) -> bool:
    """Whether a second minimizer may lie beside ``w``.

    It would differ by a nonzero, sum-zero d with Qd = 0 on the optimal face
    (Mangasarian, Oper. Res. Lett. 7, 1988): the judges carrying weight or
    with excess grad_i - min(grad) within ``tolerance``.  H = Q[face, face]
    is PSD, so H + c 11', c = trace(H) / k, is singular exactly when such a
    d exists.  One judge is unique.
    """
    face = np.nonzero((w > ACTIVE_WEIGHT) | (grad - grad.min() <= tolerance))[0]
    h = q2[np.ix_(face, face)]
    return len(face) > 1 and _definite_factor(h + np.trace(h) / len(face)) is None


def optimal_weights(
    model: CrowdModel,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    start: WeightVector | None = None,
) -> QPSolution:
    """Minimize the crowd squared error over the simplex.

    Each iteration from ``start`` (uniform weights when None) makes one move:
    a face step when the solve was given a start and has not yet moved, when
    the last move was a face step, when two steps in a row have kept the
    support, or when the latest gradient step lowered f by at most STALL
    times the largest fall since the last face move; otherwise, or if that
    would not lower the objective, a projected gradient step.  No move
    raises the objective, from any feasible start, so a start near the
    optimum, such as a smaller crowd's optimum padded with zero weights, can
    certify in a face step or two, or none, and then comes back bit for bit.
    The iterate is accepted only once its own first-order certificate is
    within ``tolerance``, so the result is guaranteed wise against every
    selection distribution up to that slack; ``kkt_residual`` is that
    certificate, taken at the stored weights, where ``possibly_nonunique``
    tests the optimal face that ``tolerance`` picks.  ``tolerance``,
    ``objective`` and ``kkt_residual`` are in the caller's units; the solve
    reads one scaled, symmetric QP (``_scaled_qp``).

    Raises:
        ValidationFailed: some moment of the model is nan or inf.
        ShapeMismatch: ``start`` does not have one weight per judge.
        NoConvergence: iteration cap reached, or neither move lowers the
            objective any more, so every later iteration would repeat the
            last one.  Carries the last iterate, which is the best one,
            certified and tested for uniqueness at its stored weights, with
            ``iterations`` the cap or the iteration at which it stopped.
    """
    nonfinite = _nonfinite_violation(model)
    if nonfinite:
        raise ValidationFailed(nonfinite)
    n = model.n_judges
    if start is not None and len(start) != n:
        raise ShapeMismatch(f"start has {len(start)} weights for {n} judges")
    q2, b, shift = _scaled_qp(model)
    tol = _ldexp(tolerance, shift)

    def build(w: np.ndarray, iterations: int) -> QPSolution:
        wv = WeightVector(w)
        grad = q2 @ wv.weights + b
        return QPSolution(
            weights=wv,
            objective=crowd_mse(model, wv).total,
            iterations=iterations,
            kkt_residual=_ldexp(_certificate_residual(wv.weights, grad), -shift),
            possibly_nonunique=_nonunique_on_face(q2, wv.weights, grad, tol),
        )

    w = np.full(n, 1.0 / n) if start is None else start.weights
    # ``kept``: steps in a row that kept the support.  ``best_fall`` and
    # ``last_fall``: the largest and the latest fall in f over the gradient
    # steps since the last face move.  A failed gradient step, an accepted
    # face step and a given start all set a fall of zero, so the next
    # iteration tries the face.
    support, kept = None, 0
    best_fall, last_fall = 0.0, math.inf if start is None else 0.0
    for iteration in range(max_iterations + 1):
        grad = q2 @ w + b
        if _certificate_residual(w, grad) <= tol:
            return build(w, iteration)
        if iteration == max_iterations:
            break
        active = w > ACTIVE_WEIGHT
        kept = kept + 1 if np.array_equal(active, support) else 0
        support = active
        face_tried = kept >= 2 or last_fall <= STALL * best_fall
        if face_tried:
            kept, best_fall, last_fall = 0, 0.0, math.inf
            # The excesses have grad's slopes along the simplex, without the
            # rounding of its common part; gradient steps keep that rounding,
            # so they stop at it rather than crawl where f has no curvature.
            moved = _face_step(q2, b, w, grad - grad.min())
            if moved is not None:
                w, last_fall = moved[0], 0.0
                continue
        moved = _gradient_step(q2, w, grad)
        if moved is not None:
            w, last_fall = moved
            best_fall = max(best_fall, last_fall)
        elif face_tried:
            # Neither move lowers f from w, so every later iteration would
            # repeat this one.
            raise NoConvergence(build(w, iteration), stalled=True)
        else:
            last_fall = 0.0
    raise NoConvergence(build(w, max_iterations))
