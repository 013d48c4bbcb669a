"""Seeded benchmark inputs, built with numpy alone.

Nothing here calls crowdwise, so a change to the package (for example to
``montecarlo.random_model``) cannot change what the benchmark feeds it.  The
same seed always gives byte-identical files.

Most crowds are factor models.  The criterion is ``c = c_mean + s_c * f0``;
judge ``i`` reports ``m_i + a_i * (c - c_mean) + L_i . g + d_i * e_i``, where
``g`` holds a few shared error factors (herding, and hedging where loadings
have opposite signs) and ``e_i`` is the judge's own noise.  The joint
covariance of (judges, criterion) is ``F F' + diag(d^2)`` with
``d_criterion = 0``: positive semidefinite by construction, and any subset of
judges together with the criterion is a principal submatrix of it, so a
candidate taken from a larger crowd is always consistent with the rest.

The criterion mean is the same constant for every seed.  The solver's step
size shrinks with the squared norm of the judge means, so a random criterion
mean would make solver work swing several-fold from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ERROR_FACTORS = 3
CRITERION_SD = 2.0
CRITERION_MEAN = 0.0


@dataclass(frozen=True)
class Moments:
    """First and second moments of N judges and the criterion."""

    judge_means: np.ndarray
    judge_cov: np.ndarray
    criterion_mean: float
    criterion_var: float
    cross_cov: np.ndarray

    @property
    def n_judges(self) -> int:
        return self.judge_means.shape[0]

    def crowd_mse(self, w: np.ndarray) -> float:
        bias = float(self.judge_means @ w) - self.criterion_mean
        return (
            bias * bias
            + float(w @ self.judge_cov @ w)
            - 2.0 * float(self.cross_cov @ w)
            + self.criterion_var
        )

    def per_judge_mse(self) -> np.ndarray:
        bias = self.judge_means - self.criterion_mean
        return (
            bias * bias
            + np.diag(self.judge_cov)
            - 2.0 * self.cross_cov
            + self.criterion_var
        )

    def permuted(self, order: np.ndarray) -> "Moments":
        """The same crowd with its judges in ``order``."""
        return Moments(
            self.judge_means[order],
            self.judge_cov[np.ix_(order, order)],
            self.criterion_mean,
            self.criterion_var,
            self.cross_cov[order],
        )

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """Gradient of ``crowd_mse`` at ``w``."""
        bias = float(self.judge_means @ w) - self.criterion_mean
        return 2.0 * (bias * self.judge_means + self.judge_cov @ w - self.cross_cov)


@dataclass(frozen=True)
class Crowd:
    """A factor-model crowd; judges first, criterion last."""

    judge_means: np.ndarray  # (N,)
    factors: np.ndarray  # (N + 1, 1 + N_ERROR_FACTORS)
    noise_sd: np.ndarray  # (N + 1,), 0 for the criterion

    @property
    def n_judges(self) -> int:
        return self.judge_means.shape[0]

    def joint_cov(self) -> np.ndarray:
        """Exactly symmetric (N+1) x (N+1) covariance, criterion last."""
        cov = self.factors @ self.factors.T + np.diag(self.noise_sd**2)
        return (cov + cov.T) / 2.0

    def moments(self, judges: slice = slice(None)) -> Moments:
        """Moments of the judges selected by ``judges`` and the criterion."""
        cov = self.joint_cov()
        n = self.n_judges
        idx = np.arange(n)[judges]
        return Moments(
            judge_means=self.judge_means[idx],
            judge_cov=cov[np.ix_(idx, idx)],
            criterion_mean=CRITERION_MEAN,
            criterion_var=float(cov[n, n]),
            cross_cov=cov[idx, n],
        )

    def sample(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """``trials`` joint draws, one row each, criterion in the last column."""
        z = rng.standard_normal((trials, self.factors.shape[1]))
        eps = rng.standard_normal((trials, self.n_judges + 1))
        means = np.append(self.judge_means, CRITERION_MEAN)
        return means + z @ self.factors.T + eps * self.noise_sd


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *stream]))


def factor_crowd(rng: np.random.Generator, n: int) -> Crowd:
    validity = rng.uniform(0.3, 1.1, size=n)
    factors = np.zeros((n + 1, 1 + N_ERROR_FACTORS))
    factors[:n, 0] = validity * CRITERION_SD
    factors[:n, 1:] = rng.normal(0.0, 0.6, size=(n, N_ERROR_FACTORS))
    factors[n, 0] = CRITERION_SD
    noise_sd = np.append(rng.uniform(0.5, 2.0, size=n), 0.0)
    judge_means = CRITERION_MEAN + rng.normal(0.0, 0.5, size=n)
    return Crowd(judge_means, factors, noise_sd)


def planted_crowd(
    rng: np.random.Generator, n: int, n_active: int, margin: float
) -> tuple[Moments, np.ndarray]:
    """A crowd whose optimal simplex weights are known in advance.

    Judge moments come from a factor model.  Optimal weights ``w*`` are
    drawn on a random support of ``n_active`` judges, and the criterion
    covariances are then solved for so that ``w*`` meets the optimality
    conditions with every excluded judge's gradient exceeding the
    multiplier by between ``margin`` and twice that.  The criterion variance
    is set one unit above the part the judges can explain, which keeps the
    joint covariance positive definite.  Returns the moments and ``w*``.
    """
    loadings = rng.normal(0.0, 0.6, size=(n, 1 + N_ERROR_FACTORS))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.5, 2.0, size=n) ** 2)
    cov = (cov + cov.T) / 2.0
    means = CRITERION_MEAN + rng.normal(0.0, 0.5, size=n)
    active = rng.choice(n, size=n_active, replace=False)
    w = np.zeros(n)
    w[active] = rng.uniform(0.5, 1.5, size=n_active)
    w /= w.sum()
    # Gradient of the crowd error at w* is q - 2 * cross_cov.
    q = 2.0 * (cov @ w + means * float(means @ w)) - 2.0 * CRITERION_MEAN * means
    excess = margin * rng.uniform(1.0, 2.0, size=n)
    excess[active] = 0.0
    cross = (q - q[active].mean() - excess) / 2.0
    explained = float(cross @ np.linalg.solve(cov, cross))
    return Moments(means, cov, CRITERION_MEAN, explained + 1.0, cross), w


def join(a: Crowd, b: Crowd) -> Crowd:
    """One crowd of the judges of ``a`` followed by those of ``b``."""
    return Crowd(
        np.concatenate([a.judge_means, b.judge_means]),
        np.vstack([a.factors[:-1], b.factors]),
        np.concatenate([a.noise_sd[:-1], b.noise_sd]),
    )


def _csv_floats(values) -> str:
    return ", ".join(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def model_text(m: Moments, labels: list[str]) -> str:
    """A model file in the ``key = value`` format ``crowdwise`` reads."""
    lines = [
        "schema_version = 1",
        "judge_labels = " + ", ".join(labels),
        "judge_means = " + _csv_floats(m.judge_means),
        "judge_cov = " + _csv_floats(m.judge_cov),
        f"criterion_mean = {m.criterion_mean!r}",
        f"criterion_var = {m.criterion_var!r}",
        "cross_cov = " + _csv_floats(m.cross_cov),
    ]
    return "\n".join(lines) + "\n"


def judge_labels(n: int) -> list[str]:
    width = len(str(n))
    return [f"j{i + 1:0{width}d}" for i in range(n)]


def quantize(x: np.ndarray) -> np.ndarray:
    """Round to 6 decimals, so that '%.6f' text parses back to these doubles."""
    return np.round(x * 1e6) / 1e6


def judgments_csv(data: np.ndarray, labels: list[str]) -> bytes:
    """CSV with one column per judge and the criterion last."""
    header = ",".join(labels + ["criterion"]) + "\n"
    fmt = ",".join(["%.6f"] * data.shape[1]) + "\n"
    body = "".join(fmt % tuple(row) for row in data.tolist())
    return (header + body).encode()


def candidates_csv(crowd: Crowd, n_base: int, labels: list[str]) -> str:
    """Judges ``n_base..N-1`` of ``crowd`` as candidates for the first
    ``n_base``, with the header ``crowdwise candidate`` expects."""
    n = crowd.n_judges
    cov = crowd.joint_cov()
    header = ["label", "mean", "variance", "cov_with_criterion"] + labels[:n_base]
    rows = [",".join(header)]
    for i in range(n_base, n):
        cells = [crowd.judge_means[i], cov[i, i], cov[i, n], *cov[i, :n_base]]
        rows.append(",".join([labels[i]] + [repr(float(v)) for v in cells]))
    return "\n".join(rows) + "\n"
