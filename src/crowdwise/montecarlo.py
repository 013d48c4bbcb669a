"""Seeded simulation oracle for the analytic squared-error quantities.

``simulate`` draws joint (judges, criterion) samples with exactly the moments
of a CrowdModel and reports empirical crowd and individual mean squared
errors with their Monte Carlo standard errors.  The analysis itself is
distribution-free, so the concrete sampling distribution is a verification
device, not a modeling claim: Gaussian by default, with a moment-matched
uniform-source alternative to demonstrate that the analytic values do not
depend on shape.  ``GENERATORS`` names both.

Sampling is factorized through a symmetric eigendecomposition whose
eigenvalues within the eigensolver's rounding of zero are clamped to zero,
so singular covariances (perfect hedges, duplicated judges) sample fine and
sample exactly singular.  The individual error of a trial is its
conditional expectation over the selection distribution given the draw, not
the error of one sampled judge.  Trials are partitioned into fixed-size
chunks with seeds derived from (seed, chunk index), and the chunks run on a
pool of one thread per core (one thread for 64 judges or more); numpy's
draws, ufuncs and BLAS calls release the GIL.  A chunk draws its trials in
row blocks from its own generator, which continues one stream, and writes
each trial's crowd and individual error into chunk-length vectors;
``np.sum`` then takes the chunk's sums of both errors and their gap, and of
their squared deviations from the chunk's mean.  The per-chunk partials
are merged by ``math.fsum`` in chunk order, so a given seed yields a
bit-identical result on any number of cores.

``random_model`` generates validated models for property suites: random
factor-built covariances rescaled so pairwise judge correlations land in a
requested range, random biases, and a criterion wired in through a random
regression onto the judges.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCorrelationRange, ShapeMismatch
from .model import EIGEN_ROUNDING, CrowdModel
from .wisdom import WeightVector, _check_length

CHUNK_TRIALS = 1 << 16
# Multiply-adds in one block's product of draws by the error map.  OpenBLAS
# runs a product this small on the calling thread, and its operands stay in
# cache, so BLAS's own workers do not compete with the chunk pool's.
BLOCK_MADDS = 1 << 18

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

    ``empirical_wisdom_gap`` is the mean of the per-trial difference between
    the individual and the crowd error, taken on its own rather than as the
    difference of the two rounded means; ``wisdom_gap_se`` is its standard
    error.  ``degenerate_se`` flags a single-trial run, where the spread of
    one observation is reported as zero rather than undefined.
    """

    empirical_crowd_mse: float
    empirical_individual_mse: float
    empirical_wisdom_gap: float
    standard_errors: tuple[float, float]
    wisdom_gap_se: float
    trials: int
    seed: int
    degenerate_se: bool = False


def _moment_factor(joint_cov: np.ndarray) -> np.ndarray:
    """A matrix A with A A' equal to the symmetric ``joint_cov`` (clamped PSD).

    An eigenvalue at or below ``EIGEN_ROUNDING`` times the order times the
    largest is indistinguishable from zero after the eigensolve's rounding,
    and is taken as zero: a singular covariance then gives draws whose
    degenerate combinations are exact, not rounding noise.
    """
    eigs, vecs = np.linalg.eigh(joint_cov)
    noise = EIGEN_ROUNDING * len(eigs) * eigs[-1]
    return vecs * np.sqrt(np.where(eigs > noise, eigs, 0.0))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), chunk_index]))


def simulate(
    spec: SimulationSpec, w: WeightVector, p: WeightVector
) -> SimulationResult:
    """Estimate both expected squared errors by simulation.

    Each trial draws one joint (judges, criterion) realization, mapped in
    one product onto the judges' errors against the criterion.  The crowd
    error is the weighted aggregate's, since the weights sum to one.  The
    individual error is its conditional expectation given the draw: the
    judges' squared errors averaged under ``p``, with no judge index drawn
    (Rao-Blackwellisation, which can only shrink its variance).  Both come
    from the same draw, so the per-trial gap between them has its own,
    tighter standard error.

    Chunks run on a thread pool with ``os.cpu_count()`` workers.  Each takes
    its trials in blocks of at most ``BLOCK_MADDS`` multiply-adds, with rows
    in multiples of 64 so that every trial gets the bits of one whole-chunk
    product.  A crowd with N >= 64 fits no 64-row block and runs whole
    chunks on one worker.  What a chunk returns depends only on the seed and
    its index, and ``math.fsum`` merges the chunks in chunk order, so the
    result does not depend on the core count.  The first failed chunk's
    exception, or an interrupt, cancels every chunk not yet started.
    """
    # Imported here: loading it costs every other command about 10 ms.
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    model = spec.model
    n = model.n_judges
    _check_length(n, len(w), "weight vector")
    _check_length(n, len(p), "selection distribution")
    factor = _moment_factor(model.joint_covariance())
    error_map = (factor[:n] - factor[n]).T
    bias = model.judge_means - model.criterion_mean
    weights = w.weights
    probs = p.weights
    draw = GENERATORS[spec.distribution]

    t = spec.trials
    rows = BLOCK_MADDS // ((n + 1) * n) // 64 * 64
    workers = (os.cpu_count() or 1) if rows else 1
    rows = rows or CHUNK_TRIALS

    def chunk_sums(index: int) -> tuple[int, list[float], list[float]]:
        """A chunk's size, and for the crowd error, the individual error and
        their gap, each sum and sum of squares about the chunk's own mean."""
        m = min(t - index * CHUNK_TRIALS, CHUNK_TRIALS)
        rng = _chunk_rng(spec.seed, index)
        crowd_err, indiv_err = np.empty(m), np.empty(m)
        # Overflow is left in the sums, unwarned: a pool thread starts with
        # numpy's default error state, not its caller's.
        with np.errstate(all="ignore"):
            for lo in range(0, m, rows):
                hi = min(lo + rows, m)
                errors = draw(rng, (hi - lo, n + 1)) @ error_map
                errors += bias
                crowd_err[lo:hi] = errors @ weights
                errors *= errors
                indiv_err[lo:hi] = errors @ probs
            crowd_err *= crowd_err
            per_trial = (crowd_err, indiv_err, indiv_err - crowd_err)
            sums = [float(np.sum(e)) for e in per_trial]
            squares = [float(np.sum((e - s / m) ** 2)) for e, s in zip(per_trial, sums)]
        return m, sums, squares

    n_chunks = -(-t // CHUNK_TRIALS)
    pool = ThreadPoolExecutor(min(workers, n_chunks))
    try:
        futures = [pool.submit(chunk_sums, i) for i in range(n_chunks)]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # A failed chunk or an interrupt cancels every chunk not yet started.
        pool.shutdown(cancel_futures=True)
    chunks = [future.result() for future in futures]

    def mean_and_se(k: int) -> tuple[float, float]:
        """Mean of per-trial quantity k, and its standard error.

        Chunks are pooled by Chan, Golub and LeVeque's update, so no raw sum
        of squares cancels against the squared mean.  A sum or square that
        overflows a float, or inf + -inf in ``math.fsum``, leaves a nan.
        """
        mean = spread = math.nan
        try:
            mean = math.fsum(totals[k] for _, totals, _ in chunks) / t
            spread = math.fsum(centred[k] for _, _, centred in chunks) + math.fsum(
                size * (totals[k] / size - mean) ** 2 for size, totals, _ in chunks
            )
        except (OverflowError, ValueError):
            pass  # the nan makes the report non-finite, which the CLI refuses
        if t < 2:
            return mean, 0.0
        return mean, math.sqrt(spread / (t - 1) / t)

    (crowd_mean, crowd_se), (indiv_mean, indiv_se), (gap_mean, gap_se) = map(
        mean_and_se, range(3)
    )
    return SimulationResult(
        empirical_crowd_mse=crowd_mean,
        empirical_individual_mse=indiv_mean,
        empirical_wisdom_gap=gap_mean,
        standard_errors=(crowd_se, indiv_se),
        wisdom_gap_se=gap_se,
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
