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

from .errors import SampleTooSmall, ShapeMismatch, ValidationFailed

# Relative tolerance for symmetry and positive semidefiniteness checks.
# Eigenvalues below -PSD_RTOL times the largest eigenvalue are hard failures;
# anything between that and zero is rounding noise.
PSD_RTOL = 1e-9
# A computed eigenvalue of a symmetric matrix of order m and 2-norm a lies
# within EIGEN_ROUNDING * m * a of the exact one: the symmetric eigensolver is
# backward stable (Golub & Van Loan, Matrix Computations, section 8.3).  The
# factor is generous; it also covers the rounding of forming the matrix.
EIGEN_ROUNDING = 8.0 * np.finfo(float).eps


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
        """The (N+1) x (N+1) covariance of (judges, criterion)."""
        n = self.n_judges
        joint = np.empty((n + 1, n + 1))
        joint[:n, :n] = self.judge_cov
        joint[:n, n] = self.cross_cov
        joint[n, :n] = self.cross_cov
        joint[n, n] = self.criterion_var
        return joint

    @cached_property
    def joint_spectrum(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue of the symmetrised joint covariance.

        Computed once per model; the arrays are read-only, so it cannot go
        stale.  By Cauchy interlacing the smallest is a lower bound on the
        smallest eigenvalue of ``judge_cov``, a principal submatrix.
        """
        return _extreme_eigenvalues(self.joint_covariance())

    def computed_joint_spectrum(self) -> tuple[float, float] | None:
        """``joint_spectrum`` if something already computed it, else None."""
        return vars(self).get("joint_spectrum")


@dataclass(frozen=True)
class JudgmentSample:
    """Raw judgment data: T trials by N judges, plus realized criterion values."""

    judgments: np.ndarray
    criterion: np.ndarray
    judge_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        judgments = _readonly(np.atleast_2d(self.judgments))
        criterion = _readonly(np.atleast_1d(self.criterion))
        t, n = judgments.shape
        if criterion.shape != (t,):
            raise ShapeMismatch(
                f"criterion has length {criterion.shape[0]} for {t} trials"
            )
        labels = tuple(self.judge_labels) or default_labels(n)
        if len(labels) != n:
            raise ShapeMismatch(f"{len(labels)} judge labels for {n} judges")
        object.__setattr__(self, "judgments", judgments)
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "judge_labels", labels)

    @property
    def n_trials(self) -> int:
        return self.judgments.shape[0]

    @property
    def n_judges(self) -> int:
        return self.judgments.shape[1]


def _symmetry_violation(cov: np.ndarray) -> float:
    """Asymmetry relative to the largest absolute entry (0 for symmetric)."""
    scale = np.abs(cov).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(cov - cov.T).max() / scale)


def _extreme_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric part of ``m``."""
    # Halving before adding cannot overflow, and is exact above the subnormals.
    eigs = np.linalg.eigvalsh(m / 2.0 + m.T / 2.0)
    return float(eigs[0]), float(eigs[-1])


def _psd_within_tolerance(spectrum: tuple[float, float]) -> bool:
    smallest, largest = spectrum
    return smallest >= -PSD_RTOL * max(largest, 0.0)


def _cholesky_factors(m: np.ndarray) -> bool:
    """Whether Cholesky factors the symmetric part of ``m``."""
    try:
        np.linalg.cholesky(m / 2.0 + m.T / 2.0)
    except np.linalg.LinAlgError:
        return False
    return True


def _nonfinite_violation(model: CrowdModel) -> list[str]:
    """The violation naming every moment that holds nan or inf, or []."""
    moments = ("judge_means", "judge_cov", "criterion_mean", "criterion_var", "cross_cov")
    nonfinite = [m for m in moments if not np.all(np.isfinite(getattr(model, m)))]
    return [f"non-finite values in {', '.join(nonfinite)}"] if nonfinite else []


def validate_model(model: CrowdModel) -> list[str]:
    """Return every invariant violation; an empty list certifies the model.

    Checks, in order: every moment finite (if not, that is the only violation
    reported), at least one judge, judge_cov symmetry (relative tolerance
    1e-9), judge_cov positive semidefinite, criterion_var >= 0, and the joint
    (judges, criterion) covariance positive semidefinite.  The last check
    subsumes the zero-variance-criterion case: with criterion_var = 0, any
    nonzero cross_cov breaks joint PSD, so it is reported once, there.

    One spectrum, the model's cached ``joint_spectrum``, settles both PSD
    checks in the common case: when the joint matrix's smallest eigenvalue
    clears zero by more than the rounding of both eigensolves, interlacing
    certifies judge_cov too.  Only otherwise is judge_cov's own spectrum
    computed, to word a failure; the joint check then reads the cached one.
    """
    nonfinite = _nonfinite_violation(model)
    if nonfinite:
        return nonfinite
    violations: list[str] = []
    if model.n_judges < 1:
        violations.append("model has no judges")
        return violations
    asym = _symmetry_violation(model.judge_cov)
    if asym > PSD_RTOL:
        violations.append(
            f"judge_cov is asymmetric (relative violation {asym:.3e})"
        )
    var_ok = model.criterion_var >= 0.0
    # Cholesky, a third of the cost of a spectrum, only orders the checks: a
    # joint matrix it cannot factor may hold a judge_cov that fails, which
    # its own spectrum then finds without first paying for the joint one.
    # A fixed criterion leaves the joint matrix a last pivot of -|l|^2 <= 0,
    # which Cholesky never factors, so it is not tried.
    if model.criterion_var > 0.0 and _cholesky_factors(model.joint_covariance()):
        # Interlacing puts judge_cov's exact spectrum no lower than the joint
        # one.  Past the rounding of both eigensolves (judge_cov's norm is at
        # most the joint's), its computed spectrum is nonnegative too.
        smallest, largest = model.joint_spectrum
        if smallest >= 2.0 * EIGEN_ROUNDING * (model.n_judges + 1) * largest:
            return violations
    cov_spectrum = _extreme_eigenvalues(model.judge_cov)
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

    Raises:
        SampleTooSmall: fewer than two trials.
    """
    t = sample.n_trials
    n = sample.n_judges
    if t < 2:
        raise SampleTooSmall(
            f"need at least 2 trials for sample covariances, got {t}"
        )
    stacked = np.column_stack([sample.judgments, sample.criterion])
    constant = (stacked == stacked[0]).all(axis=0)
    means = np.where(constant, stacked[0], stacked.mean(axis=0))
    centered = stacked - means
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
