"""Independent checks of one ``--format machine`` report per command.

Each checker recomputes what it can from the benchmark's own copy of the
inputs, with plain numpy, and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Moments

RTOL = 1e-9
SIMPLEX_ATOL = 1e-9
SIM_SIGMAS = 6.0


def parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _close(name: str, got: float, want: float, problems: list[str], atol=0.0):
    if not math.isclose(got, want, rel_tol=RTOL, abs_tol=atol):
        problems.append(f"{name} = {got!r}, expected {want!r}")


def _simplex(name: str, v: np.ndarray, n: int, problems: list[str]) -> None:
    if v.shape != (n,):
        problems.append(f"{name} has {v.shape[0]} entries, expected {n}")
    elif v.min() < 0.0 or abs(v.sum() - 1.0) > SIMPLEX_ATOL:
        problems.append(f"{name} is off the simplex (min {v.min()!r}, sum {v.sum()!r})")


def _wisdom_fields(f: dict[str, str], m: Moments, w, p, problems: list[str]) -> None:
    """crowd_mse, per_judge_mse, individual_mse, gap and verdict at w, p."""
    per_judge = m.per_judge_mse()
    got = floats(f["per_judge_mse"])
    if got.shape != per_judge.shape or not np.allclose(got, per_judge, rtol=RTOL, atol=0.0):
        problems.append("per_judge_mse disagrees with the recomputation")
    crowd = m.crowd_mse(w)
    individual = float(p @ per_judge)
    _close("crowd_mse", float(f["crowd_mse"]), crowd, problems)
    _close("individual_mse", float(f["individual_mse"]), individual, problems)
    gap = float(f["wisdom_gap"])
    _close("wisdom_gap", gap, individual - crowd, problems, atol=RTOL * abs(crowd))
    if f["is_wise"] != ("true" if gap >= 0.0 else "false"):
        problems.append(f"is_wise = {f['is_wise']} for wisdom_gap {gap!r}")


def sample_moments(data: np.ndarray) -> Moments:
    """Unbiased sample moments of a trials x (judges, criterion) array."""
    n = data.shape[1] - 1
    means = data.mean(axis=0)
    cov = np.cov(data, rowvar=False)
    return Moments(means[:n], cov[:n, :n], float(means[n]), float(cov[n, n]), cov[:n, n])


def check_analyze_skill_best(text: str, m: Moments) -> list[str]:
    """``analyze --weights skill --selection best`` against moments ``m``."""
    problems: list[str] = []
    f = parse_report(text)
    n = m.n_judges
    w = floats(f["weights"])
    p = floats(f["selection"])
    _simplex("weights", w, n, problems)
    _simplex("selection", p, n, problems)
    if problems:
        return problems
    skill = m.cross_cov / np.sqrt(np.diag(m.judge_cov) * m.criterion_var)
    want_w = np.maximum(skill, 0.0) / np.maximum(skill, 0.0).sum()
    if not np.allclose(w, want_w, rtol=RTOL, atol=1e-15):
        problems.append("weights are not proportional to the clipped skills")
    if p.argmax() != int(np.argmin(m.per_judge_mse())) or p.max() != 1.0:
        problems.append("selection is not a point mass on the best judge")
    _wisdom_fields(f, m, w, p, problems)
    return problems


def check_optimize(text: str, m: Moments, w_star: np.ndarray) -> list[str]:
    """``optimize`` on a crowd whose optimal weights ``w_star`` are known."""
    problems: list[str] = []
    f = parse_report(text)
    w = floats(f["weights"])
    _simplex("weights", w, m.n_judges, problems)
    if problems:
        return problems
    residual = float(f["kkt_residual"])
    if not residual <= 1e-10:
        problems.append(f"kkt_residual {residual!r} exceeds the 1e-10 tolerance")
    grad = m.gradient(w)
    gap = float(w @ grad) - float(grad.min())
    if not gap <= 1e-8:
        problems.append(f"recomputed optimality gap {gap!r} exceeds 1e-8")
    if np.abs(w - w_star).max() > 1e-6:
        problems.append("weights differ from the planted optimum")
    crowd = float(f["crowd_mse"])
    per_judge = floats(f["per_judge_mse"])
    if not crowd <= per_judge.min() + residual:
        problems.append(f"crowd_mse {crowd!r} exceeds the best judge's {per_judge.min()!r}")
    uniform = np.full(m.n_judges, 1.0 / m.n_judges)
    _wisdom_fields(f, m, w, uniform, problems)
    return problems


def check_candidate(text: str, labels: list[str]) -> list[str]:
    """``candidate``: no failures, nonnegative gains, sorted ranking."""
    problems: list[str] = []
    f = parse_report(text)
    if int(f["n_failures"]) != 0:
        problems.append(f"{f['n_failures']} candidate(s) failed")
    if int(f["n_candidates"]) != len(labels):
        problems.append(f"n_candidates = {f['n_candidates']}, expected {len(labels)}")
    ranked = [f.get(f"candidate_{k}_label") for k in range(1, len(labels) + 1)]
    if sorted(map(str, ranked)) != sorted(labels):
        return problems + ["ranked labels are not the candidates given"]
    gains = []
    for k in range(1, len(labels) + 1):
        gain = float(f[f"candidate_{k}_marginal_gain"])
        before = float(f[f"candidate_{k}_crowd_mse_before"])
        after = float(f[f"candidate_{k}_crowd_mse_after"])
        if gain < -1e-12:
            problems.append(f"candidate {k} has negative gain {gain!r}")
        _close(f"candidate_{k}_marginal_gain", gain, before - after, problems, atol=1e-12)
        gains.append(gain)
    if any(a < b for a, b in zip(gains, gains[1:])):
        problems.append("ranking is not sorted by marginal gain")
    return problems


def check_simulate(text: str, m: Moments, trials: int, seed: int) -> list[str]:
    """``simulate`` with uniform weights and selection."""
    problems: list[str] = []
    f = parse_report(text)
    if int(f["trials"]) != trials or int(f["seed"]) != seed:
        problems.append(f"ran trials={f['trials']} seed={f['seed']}")
    uniform = np.full(m.n_judges, 1.0 / m.n_judges)
    analytic = {
        "crowd": m.crowd_mse(uniform),
        "individual": float(uniform @ m.per_judge_mse()),
    }
    for side, want in analytic.items():
        _close(f"analytic_{side}_mse", float(f[f"analytic_{side}_mse"]), want, problems)
        got = float(f[f"empirical_{side}_mse"])
        se = float(f[f"{side}_mse_se"])
        if not (se > 0.0 and abs(got - want) <= SIM_SIGMAS * se):
            problems.append(
                f"empirical_{side}_mse {got!r} is more than {SIM_SIGMAS} "
                f"standard errors ({se!r}) from {want!r}"
            )
    return problems
