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

import numpy as np

from .errors import SampleTooSmall, ShapeMismatch, ValidationFailed

# Relative tolerance for symmetry and positive semidefiniteness checks.
# Eigenvalues below -PSD_RTOL times the largest eigenvalue are hard failures;
# anything between that and zero is rounding noise.
PSD_RTOL = 1e-9


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


def _min_eigenvalue_ok(m: np.ndarray) -> tuple[bool, float]:
    """Whether ``m`` is PSD within tolerance, and its smallest eigenvalue."""
    eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
    smallest = float(eigs[0])
    largest = float(eigs[-1])
    return smallest >= -PSD_RTOL * max(largest, 0.0), smallest


def validate_model(model: CrowdModel) -> list[str]:
    """Return every invariant violation; an empty list certifies the model.

    Checks, in order: every moment finite (if not, that is the only violation
    reported), at least one judge, judge_cov symmetry (relative tolerance
    1e-9), judge_cov positive semidefinite, criterion_var >= 0, and the joint
    (judges, criterion) covariance positive semidefinite.  The last check
    subsumes the zero-variance-criterion case: with criterion_var = 0, any
    nonzero cross_cov breaks joint PSD, so it is reported once, there.
    """
    moments = ("judge_means", "judge_cov", "criterion_mean", "criterion_var", "cross_cov")
    nonfinite = [m for m in moments if not np.all(np.isfinite(getattr(model, m)))]
    if nonfinite:
        return [f"non-finite values in {', '.join(nonfinite)}"]
    violations: list[str] = []
    if model.n_judges < 1:
        violations.append("model has no judges")
        return violations
    asym = _symmetry_violation(model.judge_cov)
    if asym > PSD_RTOL:
        violations.append(
            f"judge_cov is asymmetric (relative violation {asym:.3e})"
        )
    cov_ok, smallest = _min_eigenvalue_ok(model.judge_cov)
    if not cov_ok:
        violations.append(
            f"judge_cov is not positive semidefinite "
            f"(smallest eigenvalue {smallest:.6g})"
        )
    var_ok = model.criterion_var >= 0.0
    if not var_ok:
        violations.append(f"criterion_var is negative ({model.criterion_var:.6g})")
    # The joint check subsumes the judge and criterion checks, so only run it
    # once those pass; otherwise a single defect would be reported twice.
    if cov_ok and var_ok:
        joint_ok, smallest = _min_eigenvalue_ok(model.joint_covariance())
        if not joint_ok:
            violations.append(
                "joint covariance of judges and criterion is not positive "
                f"semidefinite (smallest eigenvalue {smallest:.6g}); cross_cov "
                "is inconsistent with any joint distribution"
            )
    return violations


def _clamp_psd_rounding(m: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues in [-PSD_RTOL * max, 0); leave real negatives alone.

    Sample moment matrices are PSD by construction, so any tiny negative
    eigenvalue is floating-point rounding.  Genuinely negative eigenvalues are
    preserved so that validation still fails loudly, as are non-finite entries.
    """
    sym = (m + m.T) / 2.0
    if not np.all(np.isfinite(sym)):
        return sym
    eigs, vecs = np.linalg.eigh(sym)
    largest = max(float(eigs[-1]), 0.0)
    rounding = (eigs < 0.0) & (eigs >= -PSD_RTOL * largest)
    if not rounding.any():
        return sym
    eigs = eigs.copy()
    eigs[rounding] = 0.0
    return (vecs * eigs) @ vecs.T


def estimate_model(sample: JudgmentSample) -> CrowdModel:
    """Estimate a CrowdModel from raw data with unbiased sample moments.

    Means are arithmetic means over trials; all (co)variances use the
    unbiased denominator T-1.  The joint sample covariance is eigenvalue
    clamped against rounding, so the result always passes ``validate_model``.

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
    means = stacked.mean(axis=0)
    centered = stacked - means
    joint = _clamp_psd_rounding(centered.T @ centered / (t - 1))
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
