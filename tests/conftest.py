"""Shared helpers: deterministic random-model corpora and affine transforms."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from crowdwise import schemes
from crowdwise.model import CrowdModel
from crowdwise.montecarlo import random_model

# Parameter cycle used to build varied but reproducible model corpora.
_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
_BIAS_SCALES = (0.0, 0.5, 2.0)
_CORR_RANGES = ((-0.3, 0.8), (-0.9, 0.2), (0.0, 0.0), (-0.5, -0.1))
_CRITERION_VARS = (0.0, 0.5, 1.0, 4.0)


def model_corpus(
    count: int,
    base_seed: int = 0,
    sizes: tuple[int, ...] = _SIZES,
    criterion_vars: tuple[float, ...] = _CRITERION_VARS,
    correlation_ranges: tuple[tuple[float, float], ...] = _CORR_RANGES,
) -> list[CrowdModel]:
    """``count`` validated models cycling sizes, biases, correlations, criteria."""
    combos = list(
        itertools.product(sizes, _BIAS_SCALES, correlation_ranges, criterion_vars)
    )
    models = []
    for k in range(count):
        n, bias, corr, cv = combos[k % len(combos)]
        models.append(
            random_model(
                n,
                seed=base_seed * 1_000_003 + k,
                bias_scale=bias,
                correlation_range=corr,
                criterion_var=cv,
            )
        )
    return models


def matrix_with_spectrum(eigenvalues, seed: int) -> np.ndarray:
    """A symmetric matrix with these eigenvalues (up to rounding) in a random
    orthonormal basis."""
    rng = np.random.default_rng(seed)
    size = len(eigenvalues)
    basis, _ = np.linalg.qr(rng.standard_normal((size, size)))
    m = (basis * np.asarray(eigenvalues, dtype=float)) @ basis.T
    return (m + m.T) / 2.0


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of ``np.linalg.eigvalsh`` and ``np.linalg.lstsq`` calls."""
    counts = {"eigvalsh": 0, "lstsq": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def certificate_calls(monkeypatch):
    """Calls of ``schemes._certificate_residual``: one per solver iteration,
    and one to certify the returned iterate."""
    calls = []
    original = schemes._certificate_residual
    monkeypatch.setattr(
        schemes,
        "_certificate_residual",
        lambda w, grad: calls.append(1) or original(w, grad),
    )
    return calls


def affine_model(model: CrowdModel, a: float, b: float) -> CrowdModel:
    """Apply v -> a*v + b to every judgment and criterion value."""
    return CrowdModel(
        judge_means=a * model.judge_means + b,
        judge_cov=a * a * model.judge_cov,
        criterion_mean=a * model.criterion_mean + b,
        criterion_var=a * a * model.criterion_var,
        cross_cov=a * a * model.cross_cov,
        judge_labels=model.judge_labels,
    )


def random_simplex_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` points drawn uniformly from the (n-1)-simplex."""
    return rng.dirichlet(np.ones(n), size=count)


def grid_minimum(model: CrowdModel, step: float = 1e-4) -> float:
    """Minimum of the crowd objective over the simplex grid of spacing
    ``step``, for 2 or 3 judges: an oracle independent of the solver.

    The grid is a set of lines: for 2 judges the one line t -> (t, 1 - t); for
    3 judges one line per first weight a = i * step, from (a, 0, 1 - a) along
    (0, 1, -1).  Each line's points are ``np.linspace(0, length, m + 1)``.
    Along a line the objective is a convex quadratic f0 + t * (g + t * h), so
    its minimum over the line's points lies at one of the two points that
    bracket the vertex, clipped to the line.  Those two points and the line's
    ends are evaluated for all lines at once.
    """
    q = model.judge_cov + np.outer(model.judge_means, model.judge_means)
    b = -2.0 * (model.criterion_mean * model.judge_means + model.cross_cov)
    c = model.criterion_mean**2 + model.criterion_var
    counts = int(round(1.0 / step))
    if model.n_judges == 2:
        bases, direction = np.array([[0.0, 1.0]]), np.array([1.0, -1.0])
        lengths, points = np.array([1.0]), np.array([counts])
    else:
        assert model.n_judges == 3
        first = np.arange(counts + 1) * step
        lengths = 1.0 - first
        bases = np.column_stack([first, np.zeros_like(first), lengths])
        direction = np.array([0.0, 1.0, -1.0])
        points = np.rint(lengths / step).astype(int)
    f0 = ((bases @ q) * bases).sum(axis=1) + bases @ b + c
    g = (2.0 * (bases @ q) + b) @ direction
    h = direction @ q @ direction
    spacing = np.divide(lengths, points, out=np.zeros_like(lengths), where=points > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where((h > 0) & (points > 0), -g / (2.0 * h * spacing), 0.0)
    low = np.clip(np.floor(vertex), 0, points)
    j = np.column_stack([np.zeros_like(low), points, low, np.minimum(low + 1, points)])
    # linspace puts its last point at the line's length exactly.
    t = np.where(j == points[:, None], lengths[:, None], j * spacing[:, None])
    return float((f0[:, None] + t * (g[:, None] + t * h)).min())
