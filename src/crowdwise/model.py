"""Second-moment description of a crowd of judges and the criterion they predict.

A ``CrowdModel`` stores everything the squared-error analysis needs: judge
means, the judge covariance matrix, the criterion mean and variance, and the
covariance of each judge with the criterion.  Only first and second moments
are stored; no distributional shape is assumed or recorded.

``estimate_model`` builds a model from raw trials-by-judges data with unbiased
(denominator T-1) sample moments.  ``validate_model`` certifies a model for
downstream use by listing every violated invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg  # loaded by ``import numpy`` already

from .errors import SampleTooSmall, ShapeMismatch, ValidationFailed

# Relative tolerance for symmetry and positive semidefiniteness checks.
# Eigenvalues below -PSD_RTOL times the largest eigenvalue are hard failures;
# anything between that and zero is rounding noise.  A model that the shifted
# Cholesky certificate passes has an exact smallest eigenvalue above zero, so
# its computed one clears -EIGEN_ROUNDING * (N+1) * largest, which is above
# -PSD_RTOL * largest for any N below 5 * 10^5: both paths of
# ``validate_model`` give the same verdict.
PSD_RTOL = 1e-9
# A computed eigenvalue of a symmetric matrix of order m and 2-norm a lies
# within EIGEN_ROUNDING * m * a of the exact one: the symmetric eigensolver is
# backward stable (Golub & Van Loan, Matrix Computations, section 8.3).  The
# factor is generous; it also covers the rounding of forming the matrix.  In
# ``validate_model`` only models the certificate cannot pass reach an
# eigensolve.
EIGEN_ROUNDING = 8.0 * np.finfo(float).eps
# Unit roundoff and the spacing of the subnormals, for the certificate's shift.
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
SUBNORMAL_SPACING = 2.0**-1074


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"j{i + 1}" for i in range(n))


@dataclass(frozen=True)
class CrowdModel:
    """Means and (co)variances of N judges and the criterion.

    Attributes:
        judge_means: length-N vector of mean judge predictions.
        judge_cov: N x N covariance matrix of the judge predictions.
        criterion_mean: mean of the criterion.
        criterion_var: variance of the criterion (0 for a fixed quantity).
        cross_cov: length-N vector, covariance of each judge with the criterion.
        judge_labels: display names, one per judge.

    Construction enforces shapes only.  Numeric invariants (symmetry, positive
    semidefiniteness, joint consistency of ``cross_cov``) are checked by
    ``validate_model`` so that invalid models can still be inspected.
    """

    judge_means: np.ndarray
    judge_cov: np.ndarray
    criterion_mean: float
    criterion_var: float
    cross_cov: np.ndarray
    judge_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        means = _readonly(np.atleast_1d(self.judge_means))
        cov = _readonly(np.atleast_2d(self.judge_cov))
        cross = _readonly(np.atleast_1d(self.cross_cov))
        n = means.shape[0]
        if means.ndim != 1:
            raise ShapeMismatch("judge_means must be a vector")
        if cov.shape != (n, n):
            raise ShapeMismatch(
                f"judge_cov has shape {cov.shape}, expected ({n}, {n})"
            )
        if cross.shape != (n,):
            raise ShapeMismatch(
                f"cross_cov has length {cross.shape[0]}, expected {n}"
            )
        labels = tuple(self.judge_labels) or default_labels(n)
        if len(labels) != n:
            raise ShapeMismatch(
                f"{len(labels)} judge labels for {n} judges"
            )
        object.__setattr__(self, "judge_means", means)
        object.__setattr__(self, "judge_cov", cov)
        object.__setattr__(self, "cross_cov", cross)
        object.__setattr__(self, "criterion_mean", float(self.criterion_mean))
        object.__setattr__(self, "criterion_var", float(self.criterion_var))
        object.__setattr__(self, "judge_labels", labels)

    @property
    def n_judges(self) -> int:
        return self.judge_means.shape[0]

    def joint_covariance(self) -> np.ndarray:
        """The (N+1) x (N+1) covariance of (judges, criterion), with
        ``symmetric_cov`` as its judge block: it equals its transpose."""
        n = self.n_judges
        joint = np.empty((n + 1, n + 1))
        joint[:n, :n] = self.symmetric_cov
        joint[:n, n] = self.cross_cov
        joint[n, :n] = self.cross_cov
        joint[n, n] = self.criterion_var
        return joint

    @cached_property
    def joint_spectrum(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue of the joint covariance.

        Computed at most once per model, and never for a model that
        ``validate_model`` certifies by its Cholesky factor: only for one the
        certificate cannot pass, and for the ``JointNotPSD`` of
        ``extend_model``.  The arrays are read-only, so it cannot go stale.
        """
        return _extreme_eigenvalues(self.joint_covariance())

    @cached_property
    def exactly_symmetric(self) -> bool:
        """Whether ``judge_cov`` equals its transpose bit for bit.

        Compared once per model; ``extend_model`` carries the crowd's flag
        over to the extended crowd.  When it holds, ``symmetric_cov`` is
        ``judge_cov`` itself.
        """
        cov = self.judge_cov
        return bool((cov == cov.T).all())

    @cached_property
    def symmetric_cov(self) -> np.ndarray:
        """The symmetric part of ``judge_cov``, read-only, the one place it
        is formed: validation, the solver and the simulation read only it.

        An exactly symmetric ``judge_cov`` is returned as it is.  Otherwise a
        pair that agrees keeps its bits, and a pair that differs becomes the
        sum of its halves, which cannot overflow.
        """
        cov = self.judge_cov
        if self.exactly_symmetric:
            return cov
        symmetric = np.where(cov == cov.T, cov, 0.5 * cov + 0.5 * cov.T)
        symmetric.flags.writeable = False
        return symmetric

    @cached_property
    def nonfinite_moments(self) -> tuple[str, ...]:
        """The names of the moments that hold nan or inf, in field order.

        Scanned once per model, for ``validate_model`` and the solver alike;
        the arrays are read-only, so it cannot go stale.
        """
        moments = (
            "judge_means", "judge_cov", "criterion_mean", "criterion_var", "cross_cov"
        )
        return tuple(m for m in moments if not np.all(np.isfinite(getattr(self, m))))


@dataclass(frozen=True, init=False)
class JudgmentSample:
    """Raw judgment data: T trials by N judges, plus realized criterion values.

    The sample holds one read-only, C-ordered T x (N+1) array, ``joint``,
    with each trial's criterion value in the last column; ``judgments`` and
    ``criterion`` are views of it.  Construction from separate judgments and
    criterion copies them into ``joint`` once; ``from_joint`` takes a table
    already in that layout and does not copy it.
    """

    joint: np.ndarray
    judge_labels: tuple[str, ...]

    def __init__(self, judgments, criterion, judge_labels: tuple[str, ...] = ()):
        judgments = np.atleast_2d(np.asarray(judgments, dtype=float))
        criterion = np.atleast_1d(np.asarray(criterion, dtype=float))
        t, _ = judgments.shape
        if criterion.shape != (t,):
            raise ShapeMismatch(
                f"criterion has length {criterion.shape[0]} for {t} trials"
            )
        self._hold(np.column_stack([judgments, criterion]), judge_labels)

    @classmethod
    def from_joint(
        cls, joint: np.ndarray, judge_labels: tuple[str, ...] = ()
    ) -> JudgmentSample:
        """Wrap a T x (N+1) table whose last column is the criterion.

        A C-ordered float array is not copied: the sample holds a read-only
        view of it, so the caller hands it over and must not write to it.
        """
        joint = np.ascontiguousarray(joint, dtype=float)
        if joint.ndim != 2 or joint.shape[1] < 1:
            raise ShapeMismatch(f"joint table has shape {joint.shape}")
        sample = cls.__new__(cls)
        sample._hold(joint.view(), judge_labels)
        return sample

    def _hold(self, joint: np.ndarray, judge_labels) -> None:
        joint.flags.writeable = False
        n = joint.shape[1] - 1
        labels = tuple(judge_labels) or default_labels(n)
        if len(labels) != n:
            raise ShapeMismatch(f"{len(labels)} judge labels for {n} judges")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "judge_labels", labels)

    @property
    def judgments(self) -> np.ndarray:
        return self.joint[:, :-1]

    @property
    def criterion(self) -> np.ndarray:
        return self.joint[:, -1]

    @property
    def n_trials(self) -> int:
        return self.joint.shape[0]

    @property
    def n_judges(self) -> int:
        return self.joint.shape[1] - 1


def _symmetry_violation(cov: np.ndarray) -> float:
    """Asymmetry relative to the largest absolute entry (0 for symmetric).

    Callers read ``CrowdModel.exactly_symmetric`` first, so only a matrix
    that is not exactly symmetric pays for the N x N temporaries here.
    """
    scale = np.abs(cov).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(cov - cov.T).max() / scale)


def _extreme_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the exactly symmetric ``m``."""
    eigs = np.linalg.eigvalsh(m)
    return float(eigs[0]), float(eigs[-1])


def _psd_within_tolerance(spectrum: tuple[float, float]) -> bool:
    smallest, largest = spectrum
    return smallest >= -PSD_RTOL * max(largest, 0.0)


def _cholesky_shift(order: int, largest: float, ratio_sum: float) -> float:
    """The shift of the certificate's factor (derived in ``_certified_definite``).

    For a symmetric matrix of this order whose largest diagonal entry is
    ``largest`` and whose entries A_ii / largest sum to ``ratio_sum``.  The
    computed shift never falls when an argument grows.
    """
    headroom = 2.0 * (order + 1) * UNIT_ROUNDOFF
    coefficient = headroom / (1.0 - headroom) * ratio_sum + 2.0 * UNIT_ROUNDOFF
    return coefficient * largest + 2.0 * order * (order + 1) * SUBNORMAL_SPACING


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """The C-ordered Cholesky factor of the exactly symmetric ``m``, or None
    where the factorization fails."""
    try:
        # m' is m, and numpy copies its columns into LAPACK's column-major
        # buffer without a strided read.
        return np.linalg.cholesky(m.T)
    except np.linalg.LinAlgError:
        return None


def _shifted_factor(m: np.ndarray, shift: float) -> np.ndarray | None:
    """The Cholesky factor of the exactly symmetric ``m - shift I``, or None;
    overwrites ``m``.  C-ordered, for ``_certified_extensions``' row reads."""
    m.flat[:: m.shape[0] + 1] -= shift
    return _cholesky(m)


def _shifted_factor_completes(m: np.ndarray, shift: float) -> bool:
    """Whether LAPACK's Cholesky factorization of the exactly symmetric
    ``m - shift I`` completes; overwrites ``m``.

    ``np.linalg.cholesky`` runs this same gufunc, then copies LAPACK's
    column-major factor into a fresh C-ordered array one strided column at a
    time, about 40% of its time at order 1000.  Only the verdict is needed,
    so the factor goes to a column-major ``out``, a contiguous copy.  The
    gufunc is in a private numpy module, the only use of one here; numpy's
    wrapper sets these error flags, with ``call`` where this has ``raise``.
    On failure the gufunc signals invalid and fills ``out`` with nan.
    ``TestCholeskyCertificate`` pins the verdicts to ``np.linalg.cholesky``'s
    on every numpy in the CI matrix.
    """
    m.flat[:: m.shape[0] + 1] -= shift
    out = np.empty(m.shape, order="F")
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            # m' is m, and LAPACK reads its columns without a strided copy.
            _umath_linalg.cholesky_lo(m.T, out=out)
    except FloatingPointError:
        return False
    return True


def _certified_definite(m: np.ndarray) -> bool:
    """Whether the exactly symmetric ``m`` is provably positive definite.

    Overwrites ``m``.  A success is a proof about the exact matrix: its
    Cholesky factor, shifted down by a bound on the factorization's rounding,
    runs to completion (Rump, "Verification of positive definiteness", BIT
    46, 2006).  A failure proves nothing.
    """
    diag = m.diagonal()
    if not diag.min() > 0.0:
        return False
    largest = diag.max()
    # The shift c.  Let A be that symmetric matrix, d its largest diagonal
    # entry, u the unit roundoff, eta the subnormal spacing, and
    # g = (order+1) u / (1 - (order+1) u).  If Cholesky of B = fl(A - cI)
    # completes, R'R = B + E with |E| <= g |R'||R| (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 10.3, for any order of the
    # inner products), plus at most (order + 1 + d) eta per entry from
    # underflowing products and quotients.  Column i of R has squared norm
    # at most B_ii / (1 - g), so ||E||_2 <= g / (1 - g) trace(B)
    # + order (order + 1 + d) eta.  R'R is positive definite, and A - B is
    # diagonal with entries at least c - u d, so lambda_min(A) > 0 once
    # c >= g / (1 - g) trace(B) + u d + order (order + 1 + d) eta.
    # Here g / (1 - g) = (order+1) u / (1 - 2 (order+1) u), and
    # trace(B) <= (1 + u) d sum(A_ii / d), a sum of terms in (0, 1] that
    # cannot overflow.  The c below is twice g / (1 - g) d sum(A_ii / d)
    # + u d + order (order + 1) eta; the factor 2 covers the (1 + u), the
    # order d eta term and the rounding of computing c itself.
    shift = _cholesky_shift(m.shape[0], largest, float((diag / largest).sum()))
    return _shifted_factor_completes(m, shift)


def _certified_extensions(
    model: CrowdModel, borders: np.ndarray, corners: np.ndarray
) -> np.ndarray:
    """Which of K judges, each appended alone, provably keep ``model`` valid.

    Judge k has variance ``corners[k]`` and covariances ``borders[:, k]``
    with the model's judges and then its criterion.  True means
    ``validate_model`` of that extended model returns [].  One shifted
    Cholesky factor of the model's joint matrix and one forward substitution
    decide all K; a False proves nothing.  When the shift that covers every
    judge sinks the model's own factor, one retry takes the model's own
    shift and certifies only judges of variance at most the joint matrix's
    largest diagonal entry.  Needs criterion_var > 0 and a
    judge_cov within PSD_RTOL of symmetric, otherwise returns all False: an
    asymmetric judge_cov can pass that check once a large border is added.
    """
    certified = np.zeros(corners.shape[0], dtype=bool)
    symmetric = model.exactly_symmetric or _symmetry_violation(model.judge_cov) <= PSD_RTOL
    if not (model.criterion_var > 0.0 and symmetric):
        return certified
    m = model.joint_covariance()
    diag = m.diagonal()
    # Move the new judge last, a symmetric permutation that keeps the
    # spectrum: its extended joint matrix is A = [[J, b], [b', v]], of order
    # N + 2, with J the model's; b is written on both sides, so the extended
    # crowd's symmetric_cov keeps it beside J's own block.  The derivation in
    # _certified_definite holds for any shift c at least twice
    # g / (1 - g) d sum(A_ii / d) + u d + order (order + 1) eta, with d any
    # bound on A's diagonal: every step of it uses only A_ii <= d.  The
    # shift below takes d as the largest of J's diagonal and every covered v,
    # and order in place of sum(A_ii / d), which that bounds; _cholesky_shift
    # grows with each argument, so it is at least every covered extended
    # matrix's own shift.  A Cholesky factor of fl(A - cI) may be computed as
    # the factor L of fl(J - cI), then the last row r = L^-1 b, then the last
    # pivot s = fl(v - c) - r'r.  The forward substitution below forms each
    # r_i = (b_i - L[i, :i] r[:i]) / L_ii, the Cholesky recurrence for that
    # entry with its inner product taken in some order, so Thm 10.3 covers
    # the whole factor; a blocked solve that pivots, like np.linalg.solve,
    # is not covered.  The factor completes when s > 0.
    # validate_model then finds nothing: the border is exactly symmetric,
    # so the extended judge_cov is no more asymmetric relative to its
    # largest entry than the model's, and a positive definite joint matrix
    # passes both PSD checks (see PSD_RTOL).
    order = m.shape[0] + 1
    own = diag.max()
    bound = max(own, corners.max())
    # One huge v can push the shift past J's smallest eigenvalue; J's own d
    # then covers every v up to it, on a copy of J made before the shift.
    spare = m.copy() if bound > own else None
    shift = _cholesky_shift(order, bound, float(order))
    lower = _shifted_factor(m, shift)
    if lower is None and spare is not None:
        bound = own
        shift = _cholesky_shift(order, bound, float(order))
        lower = _shifted_factor(spare, shift)
    if lower is None:
        return certified
    solved = np.empty_like(borders)
    # An overflow leaves s at -inf or nan, which certifies nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(order - 1):
            solved[i] = (borders[i] - lower[i, :i] @ solved[:i]) / lower[i, i]
        pivots = (corners - shift) - (solved * solved).sum(axis=0)
        return (corners <= bound) & (pivots > 0.0)


def _nonfinite_violation(model: CrowdModel) -> list[str]:
    """The violation naming every moment that holds nan or inf, or []."""
    nonfinite = model.nonfinite_moments
    return [f"non-finite values in {', '.join(nonfinite)}"] if nonfinite else []


def validate_model(model: CrowdModel) -> list[str]:
    """Return every invariant violation; an empty list certifies the model.

    Checks, in order: every moment finite (if not, that is the only violation
    reported), at least one judge, judge_cov symmetry (relative tolerance
    1e-9), judge_cov positive semidefinite, criterion_var >= 0, and the joint
    (judges, criterion) covariance positive semidefinite.  The last check
    subsumes the zero-variance-criterion case: with criterion_var = 0, any
    nonzero cross_cov breaks joint PSD, so it is reported once, there.

    A positive definite joint matrix settles both PSD checks, and one
    Cholesky factor of it, shifted by a proven bound on its rounding,
    certifies that with no eigensolve (see ``_certified_definite``).  Its
    judge_cov block is then positive definite too, so the eigen path below
    would find nothing either (see ``PSD_RTOL``).  A model the certificate
    cannot pass, such as a singular one, takes that path: judge_cov's own
    spectrum, then the model's cached ``joint_spectrum``.
    """
    nonfinite = _nonfinite_violation(model)
    if nonfinite:
        return nonfinite
    violations: list[str] = []
    if model.n_judges < 1:
        violations.append("model has no judges")
        return violations
    asym = 0.0 if model.exactly_symmetric else _symmetry_violation(model.judge_cov)
    if asym > PSD_RTOL:
        violations.append(
            f"judge_cov is asymmetric (relative violation {asym:.3e})"
        )
    var_ok = model.criterion_var >= 0.0
    # A fixed criterion leaves the joint matrix a last pivot of -|l|^2 <= 0,
    # which Cholesky never factors, so it is not tried.
    if model.criterion_var > 0.0 and _certified_definite(model.joint_covariance()):
        return violations
    cov_spectrum = _extreme_eigenvalues(model.symmetric_cov)
    cov_ok = _psd_within_tolerance(cov_spectrum)
    if not cov_ok:
        violations.append(
            f"judge_cov is not positive semidefinite "
            f"(smallest eigenvalue {cov_spectrum[0]:.6g})"
        )
    if not var_ok:
        violations.append(f"criterion_var is negative ({model.criterion_var:.6g})")
    # The joint check subsumes the judge and criterion checks, so only run it
    # once those pass; otherwise a single defect would be reported twice.
    if cov_ok and var_ok and not _psd_within_tolerance(model.joint_spectrum):
        violations.append(
            "joint covariance of judges and criterion is not positive "
            f"semidefinite (smallest eigenvalue {model.joint_spectrum[0]:.6g}); "
            "cross_cov is inconsistent with any joint distribution"
        )
    return violations


def estimate_model(sample: JudgmentSample) -> CrowdModel:
    """Estimate a CrowdModel from raw data with unbiased sample moments.

    Means are arithmetic means over trials, but a constant column takes its
    own value as its mean, so its (co)variances are exactly zero.  All
    (co)variances use the unbiased denominator T-1 and are not clamped:
    ``validate_model`` forgives their rounding.

    The moments are read from the sample's joint array as it stands; the
    centred copy is the only T x (N+1) float array made here.

    Raises:
        SampleTooSmall: fewer than two trials.
    """
    t = sample.n_trials
    n = sample.n_judges
    if t < 2:
        raise SampleTooSmall(
            f"need at least 2 trials for sample covariances, got {t}"
        )
    table = sample.joint
    constant = (table == table[0]).all(axis=0)
    means = np.where(constant, table[0], table.mean(axis=0))
    centered = table - means
    joint = centered.T @ centered / (t - 1)
    model = CrowdModel(
        judge_means=means[:n],
        judge_cov=joint[:n, :n],
        criterion_mean=float(means[n]),
        criterion_var=float(joint[n, n]),
        cross_cov=joint[:n, n],
        judge_labels=sample.judge_labels,
    )
    violations = validate_model(model)
    if violations:
        raise ValidationFailed(violations)
    return model


def fixed_criterion_model(
    judge_means,
    judge_cov,
    true_value: float,
    judge_labels: tuple[str, ...] = (),
) -> CrowdModel:
    """Model a fixed (non-random) criterion: zero variance, zero cross-covariance.

    Raises:
        ValidationFailed: the supplied judge moments are inconsistent.
    """
    means = np.atleast_1d(np.asarray(judge_means, dtype=float))
    model = CrowdModel(
        judge_means=means,
        judge_cov=judge_cov,
        criterion_mean=float(true_value),
        criterion_var=0.0,
        cross_cov=np.zeros(means.shape[0]),
        judge_labels=judge_labels,
    )
    violations = validate_model(model)
    if violations:
        raise ValidationFailed(violations)
    return model
