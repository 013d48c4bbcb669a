"""Seeded simulation oracle for the analytic squared-error quantities.

``simulate`` draws joint (judges, criterion) samples with exactly the moments
of a CrowdModel and reports empirical crowd and individual mean squared
errors with their Monte Carlo standard errors.  The analysis itself is
distribution-free, so the concrete sampling distribution is a verification
device, not a modeling claim: Gaussian by default, with a moment-matched
uniform-source alternative to demonstrate that the analytic values do not
depend on shape.  ``GENERATORS`` names both.

Sampling is factorized through a symmetric eigendecomposition with negative
eigenvalues clamped at zero, so singular covariances (perfect hedges,
duplicated judges) sample fine.  Trials are partitioned into fixed-size
chunks with seeds derived from (seed, chunk index); each chunk's sums of both
errors and their squares are merged by compensated summation in chunk order,
so a given seed yields a bit-identical result regardless of interleaving.

``random_model`` generates validated models for property suites: random
factor-built covariances rescaled so pairwise judge correlations land in a
requested range, random biases, and a criterion wired in through a random
regression onto the judges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCorrelationRange, ShapeMismatch
from .model import CrowdModel
from .wisdom import SelectionDistribution, WeightVector, _check_length

CHUNK_TRIALS = 1 << 16

# Each generator's draw of zero-mean, unit-variance values in a given shape.
GENERATORS = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "uniform": lambda rng, shape: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), shape),
}


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate: a validated model, a trial count, and a seed."""

    model: CrowdModel
    trials: int
    seed: int
    distribution: str = "gaussian"

    def __post_init__(self):
        if self.trials < 1:
            raise ShapeMismatch(f"trials must be >= 1, got {self.trials}")
        if self.distribution not in GENERATORS:
            raise ShapeMismatch(
                f"unknown generator {self.distribution!r}; "
                f"choose one of {tuple(GENERATORS)}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Empirical means of both squared errors, with standard errors.

    ``degenerate_se`` flags a single-trial run, where the spread of one
    observation is reported as zero rather than undefined.
    """

    empirical_crowd_mse: float
    empirical_individual_mse: float
    standard_errors: tuple[float, float]
    trials: int
    seed: int
    degenerate_se: bool = False


def _moment_factor(joint_cov: np.ndarray) -> np.ndarray:
    """A matrix A with A A' equal to the joint covariance (clamped PSD)."""
    eigs, vecs = np.linalg.eigh((joint_cov + joint_cov.T) / 2.0)
    return vecs * np.sqrt(np.maximum(eigs, 0.0))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), chunk_index]))


def simulate(
    spec: SimulationSpec, w: WeightVector, p: SelectionDistribution
) -> SimulationResult:
    """Estimate both expected squared errors by simulation.

    Each trial draws one joint (judges, criterion) realization; the crowd
    error uses the weighted aggregate and the individual error uses a judge
    index drawn from ``p`` against the same judgments (common random numbers,
    which tightens the estimated gap).  Within a chunk the judgment draws
    come first, then the judge indices.
    """
    model = spec.model
    n = model.n_judges
    _check_length(n, len(w), "weight vector")
    _check_length(n, len(p), "selection distribution")
    factor = _moment_factor(model.joint_covariance())
    mean = np.concatenate([model.judge_means, [model.criterion_mean]])
    weights = w.weights
    probs = p.probs
    draw = GENERATORS[spec.distribution]

    t = spec.trials
    chunk_sums: list[list[float]] = []
    for start in range(0, t, CHUNK_TRIALS):
        m = min(t - start, CHUNK_TRIALS)
        rng = _chunk_rng(spec.seed, start // CHUNK_TRIALS)
        # Holding z to the next chunk keeps malloc from trimming and refaulting.
        z = draw(rng, (m, n + 1))
        draws = z @ factor.T + mean
        judgments = draws[:, :n]
        criterion = draws[:, n]
        crowd_err = (judgments @ weights - criterion) ** 2
        chosen = rng.choice(n, size=m, p=probs)
        indiv_err = (judgments[np.arange(m), chosen] - criterion) ** 2
        errors = (crowd_err, crowd_err * crowd_err, indiv_err, indiv_err * indiv_err)
        chunk_sums.append([math.fsum(e) for e in errors])
    crowd_total, crowd_sq, indiv_total, indiv_sq = map(math.fsum, zip(*chunk_sums))
    crowd_mean = crowd_total / t
    indiv_mean = indiv_total / t

    def se(total_sq: float, mean_val: float) -> float:
        if t < 2:
            return 0.0
        var = (total_sq - t * mean_val * mean_val) / (t - 1)
        return math.sqrt(max(var, 0.0) / t)

    return SimulationResult(
        empirical_crowd_mse=crowd_mean,
        empirical_individual_mse=indiv_mean,
        standard_errors=(se(crowd_sq, crowd_mean), se(indiv_sq, indiv_mean)),
        trials=t,
        seed=spec.seed,
        degenerate_se=t < 2,
    )


def _equicorrelation_floor(n_judges: int) -> float:
    """Smallest common pairwise correlation a PSD matrix of this size allows."""
    if n_judges < 2:
        return -1.0
    return -1.0 / (n_judges - 1)


def random_model(
    n_judges: int,
    seed: int,
    bias_scale: float = 0.5,
    correlation_range: tuple[float, float] = (-0.3, 0.8),
    criterion_var: float = 1.0,
) -> CrowdModel:
    """Generate a validated model with controlled structure.

    Judge means sit at the criterion mean plus Gaussian offsets of scale
    ``bias_scale``.  The judge correlation matrix blends a random
    factor-built correlation toward the midpoint equicorrelation until every
    pairwise correlation lands inside ``correlation_range``.  The criterion
    is tied to the judges through a random regression scaled so the joint
    covariance stays PSD with exactly the requested ``criterion_var``.

    Raises:
        InfeasibleCorrelationRange: no PSD matrix of this size has all
            pairwise correlations inside the range (upper end below
            -1/(N-1)).
    """
    if n_judges < 1:
        raise ShapeMismatch(f"n_judges must be >= 1, got {n_judges}")
    lo, hi = float(correlation_range[0]), float(correlation_range[1])
    if not -1.0 <= lo <= hi <= 1.0:
        raise ShapeMismatch(
            f"correlation_range must satisfy -1 <= lo <= hi <= 1, got {lo}, {hi}"
        )
    floor = _equicorrelation_floor(n_judges)
    if n_judges >= 2 and hi < floor:
        raise InfeasibleCorrelationRange(
            f"no {n_judges}x{n_judges} PSD matrix has all pairwise "
            f"correlations <= {hi}; the floor at this size is {floor}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
    criterion_mean = float(rng.normal(0.0, 1.0))
    means = criterion_mean + rng.normal(0.0, 1.0, size=n_judges) * float(bias_scale)

    # Random full-rank correlation, then blend toward the midpoint
    # equicorrelation just enough to pull every pair into range.
    factor = rng.standard_normal((n_judges, n_judges + 2))
    raw = factor @ factor.T
    d = 1.0 / np.sqrt(np.diag(raw))
    corr = raw * np.outer(d, d)
    target = min(max((max(lo, floor) + hi) / 2.0, floor), 1.0)
    base = np.full((n_judges, n_judges), target)
    np.fill_diagonal(base, 1.0)
    off = corr[~np.eye(n_judges, dtype=bool)]
    above, below = off[off > hi], off[off < lo]
    ratios = (hi - target) / (above - target), (target - lo) / (target - below)
    alpha = float(np.concatenate([[1.0], *ratios]).min())
    blended = alpha * corr + (1.0 - alpha) * base
    np.fill_diagonal(blended, 1.0)
    sd = rng.uniform(0.5, 2.0, size=n_judges)
    judge_cov = blended * np.outer(sd, sd)

    if criterion_var > 0.0:
        beta = rng.standard_normal(n_judges)
        explained = float(beta @ judge_cov @ beta)
        if explained > 0.0:
            share = rng.uniform(0.1, 0.9)
            beta *= math.sqrt(criterion_var * share / explained)
        cross = judge_cov @ beta
    else:
        cross = np.zeros(n_judges)

    return CrowdModel(
        judge_means=means,
        judge_cov=judge_cov,
        criterion_mean=criterion_mean,
        criterion_var=float(criterion_var),
        cross_cov=cross,
    )
