"""Expected squared error of a weighted crowd versus a selected individual.

For weights w on the simplex, the crowd aggregate C = sum_i w_i X_i has

    E[(C - Y)^2] = (mu_x' w - mu_y)^2 + w' Sigma w - 2 w' sigma_xy + sigma_y^2

and a judge drawn with probabilities p has

    E[(P - Y)^2] = sum_i p_i [ (mu_xi - mu_y)^2 + sigma_xi^2
                               - 2 sigma_yxi + sigma_y^2 ].

The crowd is wise when the first quantity does not exceed the second.  Both
sides are evaluated from a CrowdModel with plain numpy reductions.  Placing
all weight on judge i still reproduces that judge's own expected squared
error bit for bit, because the other N-1 products are exact zeros.

Ties count as wise.  A true tie can come out of floating point as a tiny
negative gap, so the verdict forgives gaps down to -TIE_ROUNDING * N * eps
times the sum of the magnitudes of the terms involved; ``wisdom_gap`` itself
is reported as computed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ValidationFailed
from .model import CrowdModel, _readonly

# Rounding allowance of the tie rule, in units of N * eps * scale.
TIE_ROUNDING = 4.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative aggregation weights summing to one (normalized on construction)."""

    weights: np.ndarray

    def __post_init__(self):
        kind = type(self).__name__
        v = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValidationFailed([f"{kind} must be a nonempty vector"])
        if np.any(v < -1e-12) or np.any(~np.isfinite(v)):
            raise ValidationFailed(
                [f"{kind} entries must be nonnegative and finite, got {v.tolist()}"]
            )
        v = np.maximum(v, 0.0)
        total = math.fsum(v)
        if total <= 0.0:
            raise ValidationFailed([f"{kind} entries sum to zero"])
        if total != 1.0:
            v = v / total
        object.__setattr__(self, "weights", _readonly(v))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def point_mass(cls, index: int, n: int) -> "WeightVector":
        v = np.zeros(n)
        v[index] = 1.0
        return cls(v)


class SelectionDistribution(WeightVector):
    """Probabilities of selecting each judge (normalized on construction)."""

    @property
    def probs(self) -> np.ndarray:
        return self.weights


@dataclass(frozen=True)
class CrowdMse:
    """Crowd expected squared error and its four addends."""

    total: float
    bias_sq: float
    variance: float
    cross_term: float
    criterion_var: float


@dataclass(frozen=True)
class IndividualMse:
    """Selection-weighted expected squared error and the per-judge terms."""

    total: float
    per_judge: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_judge", _readonly(self.per_judge))


@dataclass(frozen=True)
class WisdomReport:
    """Both sides of the comparison, their gap, and the verdict.

    ``crowd_mse`` always equals ``crowd_bias_sq + crowd_variance +
    crowd_cross_term + criterion_var`` by construction, and
    ``individual_mse`` is the ``p``-weighted sum of ``per_judge_mse``.
    """

    crowd_mse: float
    individual_mse: float
    wisdom_gap: float
    is_wise: bool
    crowd_bias_sq: float
    crowd_variance: float
    crowd_cross_term: float
    criterion_var: float
    per_judge_mse: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_judge_mse", _readonly(self.per_judge_mse))


def _check_length(n: int, got: int, what: str) -> None:
    if got != n:
        raise ShapeMismatch(f"{what} has length {got} for {n} judges")


def crowd_mse(model: CrowdModel, w: WeightVector) -> CrowdMse:
    """Expected squared error of the aggregate defined by ``w``, decomposed.

    Returns the total alongside its addends: squared bias of the aggregate
    mean, aggregate variance w' Sigma w, the criterion cross term
    -2 w' sigma_xy, and the criterion variance.
    """
    _check_length(model.n_judges, len(w), "weight vector")
    wv = w.weights
    bias = float(model.judge_means @ wv) - model.criterion_mean
    bias_sq = bias * bias
    variance = float(wv @ model.judge_cov @ wv)
    cross_term = -2.0 * float(model.cross_cov @ wv)
    total = bias_sq + variance + cross_term + model.criterion_var
    return CrowdMse(
        total=total,
        bias_sq=bias_sq,
        variance=variance,
        cross_term=cross_term,
        criterion_var=model.criterion_var,
    )


def per_judge_mse(model: CrowdModel) -> np.ndarray:
    """Expected squared error of each judge alone.

    Entry i is computed with the identical arithmetic as ``crowd_mse`` at the
    point-mass weight on judge i, so the two paths agree exactly.
    """
    bias = model.judge_means - model.criterion_mean
    cross_term = -2.0 * model.cross_cov
    return bias * bias + np.diag(model.judge_cov) + cross_term + model.criterion_var


def individual_mse(model: CrowdModel, p: SelectionDistribution) -> IndividualMse:
    """Expected squared error of a judge selected with probabilities ``p``."""
    _check_length(model.n_judges, len(p), "selection distribution")
    per_judge = per_judge_mse(model)
    total = float(p.probs @ per_judge)
    return IndividualMse(total=total, per_judge=per_judge)


def evaluate(
    model: CrowdModel, w: WeightVector, p: SelectionDistribution
) -> WisdomReport:
    """Assemble the full report; ties, up to rounding, count as wise."""
    crowd = crowd_mse(model, w)
    individual = individual_mse(model, p)
    gap = individual.total - crowd.total
    scale = abs(crowd.bias_sq) + abs(crowd.variance) + abs(crowd.cross_term)
    scale += crowd.criterion_var + abs(individual.total)
    slack = TIE_ROUNDING * model.n_judges * sys.float_info.epsilon * scale
    return WisdomReport(
        crowd_mse=crowd.total,
        individual_mse=individual.total,
        wisdom_gap=gap,
        is_wise=gap >= -slack,
        crowd_bias_sq=crowd.bias_sq,
        crowd_variance=crowd.variance,
        crowd_cross_term=crowd.cross_term,
        criterion_var=crowd.criterion_var,
        per_judge_mse=individual.per_judge,
    )
