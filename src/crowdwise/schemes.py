"""Weight and selection constructors, including optimal simplex weights.

The optimal aggregate solves

    minimize  f(w) = (mu_x' w - mu_y)^2 + w' Sigma w - 2 w' sigma_xy + sigma_y^2
    over      w >= 0,  sum w = 1

a convex quadratic program.  Each solve builds it once (``_scaled_qp``):
centred, symmetric and scaled by one power of two, so that the certificate,
the Armijo test and the face systems all read one q2 and b, with gradient
q2 w + b, near unit scale, while the tolerance, objective and residual keep
the caller's units.  The QP is solved by projected search with exact Euclidean projection
onto the simplex, after Bertsekas (1982) and the GPCG method of Moré and
Toraldo (1991).  A solve with no given start opens, at uniform weights, with
conjugate gradients (Hestenes and Stiefel, 1952) on the whole face (every
judge, with steps that sum to zero) and takes the best of their projected
iterates.  On a crowd with a small optimal support that usually leaves few
judges beside it, so no face of the whole crowd is factored.  Every later
iteration, and the first when no iterate of the opening lowers the
objective, makes one move, the face step.  It solves for the exact minimizer
of f on the current face: the judges carrying weight (the support) plus the
judge with the smallest partial, the one that most wants to enter, so an
active-set step can grow the support as well as shrink it.  A start near
the optimum thus finishes in a face step or two.  The face minimizer comes
from a Cholesky factor of the face's Hessian and the Schur complement of its
sum-to-one row; a singular face, such as one holding duplicated judges,
takes the minimum-norm least-squares solution.  It is solved for itself,
not as a step from the iterate, so a judge at 1e300 times the crowd's scale
can take a weight of 1e-300, which no step from weights near 1 could add.
A nonnegative minimizer is the next iterate as it is; otherwise a projected
search runs toward it and halves its length until the Armijo rule holds.
No move raises the objective, so the last iterate is the best one.  The
iterate is the solver's only state: a face step that lands on the iterate
itself, or a search whose trials all fail, is a fixed point, and the solver
stops there.
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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
from .model import CrowdModel, _cholesky, _nonfinite_violation, _readonly
from .wisdom import WeightVector, crowd_mse, per_judge_mse

# A step must lower the objective by this fraction of its first-order
# decrease (the Armijo rule); a search tries at most MAX_HALVINGS lengths,
# halving each time, to find one.
ARMIJO = 1e-4
MAX_HALVINGS = 60
# Rows per block of the face solve's triangular substitutions.
_SOLVE_BLOCK = 64


@dataclass(frozen=True)
class QPSolution:
    """Optimal weights with a convergence certificate.

    ``kkt_residual`` bounds the objective suboptimality.  When a sum-zero
    direction on the optimal face, such as two identical judges that both
    carry weight, has no curvature, ``possibly_nonunique`` flags that the
    minimizer may not be a point (one valid argmin is still returned).

    ``objective`` and ``possibly_nonunique`` are computed on first read, from
    the model and the solve's scaled QP, whose N x N matrix the solution
    keeps for as long as it lives.
    """

    weights: WeightVector
    iterations: int
    kkt_residual: float
    _model: CrowdModel = field(repr=False, compare=False)
    # (q2, grad at the weights, tolerance), all scaled as in _scaled_qp.
    _scaled: tuple[np.ndarray, np.ndarray, float] = field(repr=False, compare=False)

    @cached_property
    def objective(self) -> float:
        return crowd_mse(self._model, self.weights).total

    @cached_property
    def possibly_nonunique(self) -> bool:
        q2, grad, tol = self._scaled
        return _nonunique_on_face(q2, self.weights.weights, grad, tol)


# A crowd size's uniform vector is read-only, so one is shared by every caller.
@lru_cache(maxsize=16)
def uniform_weights(n: int) -> WeightVector:
    if n < 1:
        raise ZeroJudges("cannot build weights for zero judges")
    return WeightVector(np.full(n, 1.0 / n))


def skill_scores(model: CrowdModel) -> np.ndarray:
    """Each judge's predictive validity: corr(judge prediction, criterion).

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
    return _readonly(model.cross_cov / (np.sqrt(variances) * sd_y))


def skill_weights(model: CrowdModel) -> WeightVector:
    """Weights proportional to skill, negative skills clipped to zero.

    If every clipped skill is zero a uniform vector is returned and a
    SkillDegenerateWarning issued.
    """
    v = np.maximum(skill_scores(model), 0.0)
    if v.sum() <= 0.0:
        warnings.warn(
            "all clipped skills are zero; falling back to uniform",
            SkillDegenerateWarning,
            stacklevel=2,
        )
        v = np.full(len(v), 1.0 / len(v))
    return WeightVector(v)


# A selection distribution is a point of the same simplex as the weights, so
# the uniform and skill rules build both.
uniform_selection = uniform_weights
skill_selection = skill_weights


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


def best_member_selection(model: CrowdModel) -> WeightVector:
    """Point mass on the judge with least expected squared error; ties go to
    the lowest index."""
    return WeightVector.point_mass(int(np.argmin(per_judge_mse(model))), model.n_judges)


# Named selection rules: each derives a selection distribution from a model.
# The lambdas look each function up when called, so a wrapper installed on the
# module name (perfbench's tracer installs one) sees every call.
SELECTION_RULES = {
    "uniform": lambda model: uniform_selection(model.n_judges),
    "skill": lambda model: skill_selection(model),
    "best": lambda model: best_member_selection(model),
}


def _project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex (sort-and-threshold, exact)."""
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, v.shape[0] + 1)
    support = np.nonzero(u - shifted / counts > 0.0)[0][-1]
    theta = shifted[support] / (support + 1.0)
    return np.maximum(v - theta, 0.0)


def _ldexp(x: float, exponent: int) -> float:
    """x times 2**exponent, or an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exponent(a: np.ndarray) -> float:
    """The e with max|a| in [2^(e-1), 2^e), frexp's exponent; -inf for zeros."""
    top = max(float(a.max()), -float(a.min()))
    return math.frexp(top)[1] if top else -math.inf


def _scaled_qp(model: CrowdModel) -> tuple[np.ndarray, np.ndarray, int]:
    """q2, b and shift with f(w) = (w'q2 w / 2 + b'w) / 2^shift + sigma_y^2.

    q2 = 2(S + m m') and b = -2 sigma_xy, with S the symmetric part of Sigma
    and m = mu - mu_y ((mu'w - mu_y)^2 = (m'w)^2 on the simplex), scaled by
    the even shift, read from exponents before any square forms, that brings
    the largest of |S|, |sigma_xy| and m_i^2 into [1, 4).  A crowd scaled by
    2^j, with its tolerance, solves to the same bits.  q2 equals its
    transpose bit for bit.
    """
    # Halves first: mu - mu_y can overflow, their halves cannot.
    half = 0.5 * model.judge_means - 0.5 * model.criterion_mean
    cov = model.symmetric_cov
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
    active = w > 0.0
    weighted_excess = float(w @ grad) - tau
    return max(float((grad[active] - tau).max()), weighted_excess)


def _projected_search(
    q2: np.ndarray, grad: np.ndarray, w: np.ndarray, d: np.ndarray
) -> np.ndarray | None:
    """The first of P(w + d), P(w + d/2), P(w + d/4), ... that passes Armijo.

    Armijo: f falls by at least ARMIJO times the first-order decrease
    -grad'(x - w).  None if none of the first MAX_HALVINGS passes, or a
    trial projects back onto w itself: steps that short only reach the
    rounding floor.
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
            return x
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
    """The Cholesky factor of an exactly symmetric face Hessian, or None for
    a singular face.

    A face holding duplicated judges is singular.  Cholesky then either
    fails or finishes with a pivot at rounding level, which would put the
    weight of a duplicated pair on one judge of it.  A pivot counts as that
    when its square is at or below (k + 1) k eps times its diagonal entry:
    the pivot test of the unit-diagonal scaling D^-1/2 A D^-1/2, which
    judges each judge at its own scale (van der Sluis, Numer. Math. 14,
    1969), so one huge judge does not hide another's pivot.
    """
    # The factor stays C-ordered: a column-major one changes
    # _face_minimizer's last bits on faces of order above 64.
    lower = _cholesky(q_face)
    if lower is None:
        return None
    k = q_face.shape[0]
    pivots = np.diagonal(lower) ** 2 / np.diagonal(q_face)
    return lower if float(pivots.min()) > (k + 1) * k * np.finfo(float).eps else None


def _face_minimizer(lower: np.ndarray, b_face: np.ndarray) -> np.ndarray:
    """The x minimizing x'Hx/2 + b'x subject to sum x = 1, with H = LL'.

    One forward solve gives z = L^-1 1 and y = L^-1 b, the Schur complement
    z'z = 1'H^-1 1 gives the multiplier tau = (1 + z'y) / z'z of the sum
    row, and one backward solve gives x = L^-T (tau z - y).
    """
    k = b_face.shape[0]
    z, y = _lower_solve(lower, np.column_stack([np.ones(k), b_face])).T
    tau = (1.0 + float(z @ y)) / float(z @ z)
    # L' is lower triangular with its rows and columns reversed.
    upper_reversed = lower.T[::-1, ::-1]
    return _lower_solve(upper_reversed, (tau * z - y)[::-1])[::-1]


def _face_step(
    q2: np.ndarray, b: np.ndarray, w: np.ndarray, excess: np.ndarray
) -> np.ndarray | None:
    """The minimizer x of f on the affine hull of w's face, or a projected
    search toward it.

    The face is the judges carrying weight plus the judge with the smallest
    partial.  x is solved for itself, not as a step from w, so a judge whose
    scale dwarfs the face's can take or give up a weight far below the
    rounding of the others'.  On a face whose Hessian has a Cholesky factor
    x is ``_face_minimizer``'s; a singular face takes the minimum-norm
    least-squares minimizer, which spreads weight evenly over duplicated
    judges.  A finite, nonnegative x is the move as it is.  Otherwise the
    search reads the excesses grad - min(grad), which have grad's slopes
    along the simplex without the rounding of its common part.  None when
    x is not finite, equals w entry for entry, or is not downhill from w,
    or when the search fails.
    """
    on_face = w > 0.0
    on_face[np.argmin(excess)] = True
    active = np.nonzero(on_face)[0]
    q_face = q2.take(active, axis=0).take(active, axis=1)
    x = np.zeros_like(w)
    lower = _definite_factor(q_face)
    if lower is not None:
        x[active] = _face_minimizer(lower, b[active])
    else:
        # The KKT system; its sum-to-one row stays above lstsq's rank cutoff
        # beside curvature rows at the scale of _scaled_qp.
        kkt = np.ones((len(active) + 1,) * 2)
        kkt[:-1, :-1], kkt[-1, -1] = q_face, 0.0
        rhs = np.append(-b[active], 1.0)
        x[active] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
    if not np.isfinite(x).all():
        return None
    if (x >= 0.0).all():
        return None if np.array_equal(x, w) else x
    d = x - w
    return _projected_search(q2, excess, w, d) if float(excess @ d) < 0.0 else None


def _conjugate_opening(
    q2: np.ndarray, w: np.ndarray, excess: np.ndarray
) -> np.ndarray | None:
    """The best of P(w + d_1), P(w + d_2), ..., with d_j the conjugate
    gradient iterates (Hestenes and Stiefel, 1952) toward the minimizer of f
    on the whole face: every judge, with steps that sum to zero.

    Each iterate costs two products with q2, one for CG and one for the
    change in f at its projection, taken from the step as in
    ``_projected_search``.  The run stops at the first projected iterate
    that does not lower f below the best so far, at a direction whose
    curvature is not positive and finite, at a zero residual, or after
    n - 1 iterates.  None if no iterate lowers f.  As in ``_face_step``,
    the run reads the excesses grad - min(grad).
    """
    n = w.shape[0]
    d = np.zeros_like(w)
    # The residual -excess, projected onto the steps that sum to zero; sum / n
    # is ndarray.mean's value at a quarter of its cost.
    r = float(excess.sum()) / n - excess
    p = r.copy()
    rr = float(r @ r)
    best, deepest = None, 0.0
    for _ in range(n - 1):
        if rr == 0.0:
            break
        qp = q2 @ p
        curvature = float(p @ qp)
        if not 0.0 < curvature < math.inf:
            break
        alpha = rr / curvature
        d += alpha * p
        if not np.isfinite(d).all():
            break
        x = _project(w + d)
        step = x - w
        fall = -float(excess @ step) - 0.5 * float(step @ (q2 @ step))
        if not fall > deepest:
            break
        best, deepest = x, fall
        r -= alpha * (qp - float(qp.sum()) / n)
        rr, previous = float(r @ r), rr
        p = r + (rr / previous) * p
    return best


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
    face = np.nonzero((w > 0.0) | (grad - grad.min() <= tolerance))[0]
    h = q2.take(face, axis=0).take(face, axis=1)
    return len(face) > 1 and _definite_factor(h + np.trace(h) / len(face)) is None


def optimal_weights(
    model: CrowdModel,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    start: WeightVector | None = None,
) -> QPSolution:
    """Minimize the crowd squared error over the simplex.

    Each iteration from ``start`` (uniform weights when None) makes one
    move: the face step (``_face_step``), after the opening move
    (``_conjugate_opening``) at iteration 0 of a solve with no start when
    that fails to lower f.  The face step fails when its minimizer is w
    itself or its search finds no lower point.  No move raises the
    objective, from any feasible start, so a start near the optimum, such
    as a smaller crowd's optimum padded with zero weights, can certify in a
    face step or two, or none, and then comes back bit for bit.
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
        NoConvergence: iteration cap reached, or the face step fails (its
            minimizer is w itself or not finite, or no search trial lowers
            f), so every later iteration would repeat the last one.  Carries
            the last iterate, which is the best one, certified and tested
            for uniqueness at its stored weights, with ``iterations`` the cap
            or the iteration at which it stopped.
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
            iterations=iterations,
            kkt_residual=_ldexp(_certificate_residual(wv.weights, grad), -shift),
            _model=model,
            _scaled=(q2, grad, tol),
        )

    w = np.full(n, 1.0 / n) if start is None else start.weights
    for iteration in range(max_iterations + 1):
        grad = q2 @ w + b
        if _certificate_residual(w, grad) <= tol:
            return build(w, iteration)
        if iteration == max_iterations:
            break
        excess = grad - grad.min()
        moved = _conjugate_opening(q2, w, excess) if start is None and iteration == 0 else None
        if moved is None:
            moved = _face_step(q2, b, w, excess)
        if moved is None:
            # The face step fails from w, so every later iteration would
            # repeat this one.
            raise NoConvergence(build(w, iteration), stalled=True)
        w = moved
    raise NoConvergence(build(w, max_iterations))
