"""Command-line front door: CSV ingestion, model files, and five analyses.

Commands:
    analyze    both sides of the squared-error comparison and the verdict
    optimize   optimal simplex weights plus the resulting verdict
    candidate  rank prospective members by marginal optimal-crowd gain
    simulate   seeded empirical check of the analytic values
    sweep      analytic wisdom gaps over a bias x correlation x size grid

Input is either a judgments CSV (``--data``, one ``criterion`` column, one
column per judge, one row per trial) or a model file (``--model``, the
key-value format written by ``save_model``).  ``--format machine`` emits a
flat key = value document with a schema_version field; every number a human
report shows is derived from a value present in the machine report.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.  Error detail goes to stderr, never stdout.

Weights are treated as fixed choices supplied before judgments realize.
Estimating weights from the same trials they are scored on is not detected
or corrected here.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .diversity import CandidateMember, CandidateRanking, rank_candidates
from .errors import (
    CrowdwiseError,
    DuplicateJudgeLabel,
    InfeasibleCorrelationRange,
    MissingCriterionColumn,
    NonNumericCell,
    ParseError,
    SampleTooSmall,
    UndefinedSkill,
    UsageError,
    ValidationFailed,
    ZeroCriterionVariance,
    ZeroJudges,
)
from .model import (
    CrowdModel,
    JudgmentSample,
    estimate_model,
    validate_model,
)
from .montecarlo import SimulationSpec, random_model, simulate
from .schemes import (
    SELECTION_RULES,
    inverse_mse_weights,
    optimal_weights,
    skill_scores,
    skill_weights,
    uniform_selection,
    uniform_weights,
)
from .wisdom import (
    SelectionDistribution,
    WeightVector,
    WisdomReport,
    evaluate,
)

SCHEMA_VERSION = 1
COMMANDS = ("analyze", "optimize", "candidate", "simulate", "sweep")

DEFAULT_SWEEP_BIAS = (0.0, 0.5, 1.0, 2.0)
DEFAULT_SWEEP_CORRELATION = (-0.4, -0.2, 0.0, 0.2, 0.4, 0.8)
DEFAULT_SWEEP_SIZES = (2, 5, 10, 25)

_MODEL_FIELDS = (
    "judge_labels",
    "judge_means",
    "judge_cov",
    "criterion_mean",
    "criterion_var",
    "cross_cov",
)


@dataclass(frozen=True)
class AnalysisRequest:
    """One parsed invocation; ``run`` executes it."""

    command: str
    data_path: str | None = None
    model_path: str | None = None
    weight_scheme: str = "uniform"
    selection_scheme: str = "uniform"
    output_format: str = "human"
    trials: int = 100_000
    seed: int = 0
    generator: str = "gaussian"
    candidates_path: str | None = None
    show_uniform_gain: bool = False
    sweep_grid_path: str | None = None
    tolerance: float = 1e-10
    max_iterations: int = 100_000


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_cell(raw: str, line: int, column: str) -> float:
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(line, column, raw) from None
    if not math.isfinite(value):
        raise NonNumericCell(line, column, raw)
    return value


def ingest_csv(path: str) -> JudgmentSample:
    """Read a trials-by-judges CSV with a required ``criterion`` column.

    The header names the judges; the (case-sensitive) ``criterion`` column
    holds the realized criterion value of each trial.  Cells must be plain
    decimal numbers.  Row numbers in errors count from the header as line 1.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        criterion_cols = [i for i, h in enumerate(header) if h == "criterion"]
        if not criterion_cols:
            raise MissingCriterionColumn(
                f"{path} has no 'criterion' column (case-sensitive); "
                f"found columns {header}"
            )
        if len(criterion_cols) > 1:
            raise DuplicateJudgeLabel(f"{path} has multiple 'criterion' columns")
        criterion_idx = criterion_cols[0]
        judge_labels = [h for i, h in enumerate(header) if i != criterion_idx]
        if not judge_labels:
            raise ZeroJudges(f"{path} has no judge columns besides 'criterion'")
        dupes = {h for h in judge_labels if judge_labels.count(h) > 1}
        if dupes:
            raise DuplicateJudgeLabel(
                f"{path} has duplicated judge columns: {sorted(dupes)}"
            )
        rows: list[list[float]] = []
        criterion: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path} line {line_no}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            parsed = [
                _parse_cell(cell, line_no, header[i])
                for i, cell in enumerate(row)
            ]
            criterion.append(parsed[criterion_idx])
            rows.append(
                [v for i, v in enumerate(parsed) if i != criterion_idx]
            )
    if len(rows) < 2:
        raise SampleTooSmall(
            f"{path} has {len(rows)} data rows; at least 2 trials are needed"
        )
    return JudgmentSample(
        judgments=np.array(rows),
        criterion=np.array(criterion),
        judge_labels=tuple(judge_labels),
    )


# ---------------------------------------------------------------------------
# Model files and the machine report format
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(_format_value(v) for v in value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_document(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in pairs)


def _parse_document(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    fields: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(
                f"{path} line {line_no}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in fields:
            raise ParseError(f"{path} line {line_no}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def _parse_floats(text: str, path: str, key: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")] if text else []
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(f"{path}: field {key!r} is not a list of numbers") from None


def save_model(model: CrowdModel, path: str) -> None:
    """Write a model file that ``load_model`` reproduces exactly."""
    for label in model.judge_labels:
        if "," in label or "=" in label or label != label.strip() or not label:
            raise ParseError(
                f"judge label {label!r} cannot be stored in a model file "
                "(empty, padded, or contains ',' or '=')"
            )
    pairs: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("judge_labels", model.judge_labels),
        ("judge_means", model.judge_means),
        ("judge_cov", model.judge_cov.ravel()),
        ("criterion_mean", model.criterion_mean),
        ("criterion_var", model.criterion_var),
        ("cross_cov", model.cross_cov),
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_render_document(pairs))


def load_model(path: str) -> CrowdModel:
    """Read a model file and certify it.

    Raises:
        ParseError: malformed document or inconsistent shapes.
        ValidationFailed: the stored moments violate a model invariant.
    """
    fields = _parse_document(path)
    missing = [f for f in _MODEL_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"{path}: missing fields {missing}")
    labels = tuple(p.strip() for p in fields["judge_labels"].split(","))
    if any(not label for label in labels):
        raise ParseError(f"{path}: empty judge label")
    n = len(labels)
    means = _parse_floats(fields["judge_means"], path, "judge_means")
    cov_flat = _parse_floats(fields["judge_cov"], path, "judge_cov")
    cross = _parse_floats(fields["cross_cov"], path, "cross_cov")
    if means.shape[0] != n:
        raise ParseError(f"{path}: {means.shape[0]} judge_means for {n} labels")
    if cov_flat.shape[0] != n * n:
        raise ParseError(
            f"{path}: judge_cov has {cov_flat.shape[0]} entries, "
            f"expected {n * n} (row-major)"
        )
    if cross.shape[0] != n:
        raise ParseError(f"{path}: {cross.shape[0]} cross_cov entries for {n} labels")
    try:
        criterion_mean = float(fields["criterion_mean"])
        criterion_var = float(fields["criterion_var"])
    except ValueError:
        raise ParseError(
            f"{path}: criterion_mean and criterion_var must be numbers"
        ) from None
    model = CrowdModel(
        judge_means=means,
        judge_cov=cov_flat.reshape(n, n),
        criterion_mean=criterion_mean,
        criterion_var=criterion_var,
        cross_cov=cross,
        judge_labels=labels,
    )
    violations = validate_model(model)
    if violations:
        raise ValidationFailed(violations)
    return model


def _load_simplex_file(path: str, n: int, kind: str) -> np.ndarray:
    """Read N nonnegative numbers (comma or whitespace separated)."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    parts = text.replace(",", " ").split()
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(f"{path}: expected numbers, got {text!r}") from None
    if values.shape[0] != n:
        raise ParseError(
            f"{path}: {kind} file has {values.shape[0]} entries for {n} judges"
        )
    return values


# ---------------------------------------------------------------------------
# Candidate CSV
# ---------------------------------------------------------------------------


def read_candidates(
    path: str, model: CrowdModel
) -> tuple[list[CandidateMember], list[str]]:
    """Read the candidate CSV for ``model``.

    Header must be exactly ``label,mean,variance,cov_with_criterion`` followed
    by the model's judge labels in order.
    """
    expected = ["label", "mean", "variance", "cov_with_criterion"]
    expected += list(model.judge_labels)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        if header != expected:
            raise ParseError(
                f"{path}: header {header} does not match expected {expected} "
                "(the model's judge labels, in order)"
            )
        candidates: list[CandidateMember] = []
        labels: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected):
                raise ParseError(
                    f"{path} line {line_no}: expected {len(expected)} cells, "
                    f"got {len(row)}"
                )
            values = [
                _parse_cell(cell, line_no, expected[i])
                for i, cell in enumerate(row[1:], start=1)
            ]
            labels.append(row[0].strip())
            candidates.append(
                CandidateMember(
                    mean=values[0],
                    variance=values[1],
                    cov_with_criterion=values[2],
                    cov_with_members=np.array(values[3:]),
                )
            )
    if not candidates:
        raise ParseError(f"{path} lists no candidates")
    return candidates, labels


# ---------------------------------------------------------------------------
# Scheme resolution
# ---------------------------------------------------------------------------


def _resolve_weights(model: CrowdModel, scheme: str) -> WeightVector:
    if scheme == "uniform":
        return uniform_weights(model.n_judges)
    if scheme == "skill":
        return skill_weights(model)
    if scheme == "inverse-mse":
        return inverse_mse_weights(model)
    if scheme == "optimal":
        return optimal_weights(model).weights
    return WeightVector(_load_simplex_file(scheme, model.n_judges, "weights"))


def _resolve_selection(model: CrowdModel, scheme: str) -> SelectionDistribution:
    if scheme in SELECTION_RULES:
        return SELECTION_RULES[scheme](model)
    return SelectionDistribution(
        _load_simplex_file(scheme, model.n_judges, "selection")
    )


def _skill_pairs(model: CrowdModel) -> list[tuple[str, object]]:
    try:
        return [("skill", skill_scores(model).skills)]
    except ZeroCriterionVariance:
        return [("skill_note", "undefined: criterion variance is zero")]
    except UndefinedSkill as err:
        return [
            (
                "skill_note",
                "undefined: zero-variance judges at indices "
                f"{err.judge_indices}",
            )
        ]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _hfmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def _report_pairs(
    request: AnalysisRequest,
    model: CrowdModel,
    w: WeightVector,
    p: SelectionDistribution,
    report: WisdomReport,
) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("command", request.command),
        ("n_judges", model.n_judges),
        ("judge_labels", model.judge_labels),
        ("weight_scheme", request.weight_scheme),
        ("selection_scheme", request.selection_scheme),
        ("weights", w.weights),
        ("selection", p.probs),
        ("crowd_mse", report.crowd_mse),
        ("crowd_bias_sq", report.crowd_bias_sq),
        ("crowd_variance", report.crowd_variance),
        ("crowd_cross_term", report.crowd_cross_term),
        ("criterion_var", report.criterion_var),
        ("individual_mse", report.individual_mse),
        ("wisdom_gap", report.wisdom_gap),
        ("is_wise", report.is_wise),
        ("per_judge_mse", report.per_judge_mse),
    ]
    pairs.extend(_skill_pairs(model))
    return pairs


def _print_human_report(
    model: CrowdModel,
    w: WeightVector,
    p: SelectionDistribution,
    report: WisdomReport,
    out,
) -> None:
    print(f"crowd of {model.n_judges} judge(s)", file=out)
    print(f"  crowd MSE        {_hfmt(report.crowd_mse)}", file=out)
    print(f"    bias^2         {_hfmt(report.crowd_bias_sq)}", file=out)
    print(f"    variance       {_hfmt(report.crowd_variance)}", file=out)
    print(f"    cross term     {_hfmt(report.crowd_cross_term)}", file=out)
    print(f"    criterion var  {_hfmt(report.criterion_var)}", file=out)
    print(f"  individual MSE   {_hfmt(report.individual_mse)}", file=out)
    print(f"  wisdom gap       {_hfmt(report.wisdom_gap)}", file=out)
    print(f"  wise             {_hfmt(report.is_wise)}", file=out)
    skill_pairs = _skill_pairs(model)
    skills = dict(skill_pairs).get("skill")
    print("  judge            weight       selection    per-judge MSE  skill", file=out)
    for i, label in enumerate(model.judge_labels):
        skill_text = _hfmt(skills[i]) if skills is not None else "-"
        print(
            f"  {label:<16} {_hfmt(w.weights[i]):<12} {_hfmt(p.probs[i]):<12} "
            f"{_hfmt(report.per_judge_mse[i]):<14} {skill_text}",
            file=out,
        )
    if skills is None:
        print(f"  note: {dict(skill_pairs)['skill_note']}", file=out)


def _emit(pairs: list[tuple[str, object]], request: AnalysisRequest, human) -> None:
    if request.output_format == "machine":
        sys.stdout.write(_render_document(pairs))
    else:
        human(sys.stdout)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_input(request: AnalysisRequest) -> CrowdModel:
    if request.data_path is not None:
        return estimate_model(ingest_csv(request.data_path))
    assert request.model_path is not None
    return load_model(request.model_path)


def _cmd_analyze(request: AnalysisRequest) -> int:
    model = _load_input(request)
    w = _resolve_weights(model, request.weight_scheme)
    p = _resolve_selection(model, request.selection_scheme)
    report = evaluate(model, w, p)
    pairs = _report_pairs(request, model, w, p, report)
    _emit(
        pairs,
        request,
        lambda out: _print_human_report(model, w, p, report, out),
    )
    return 0


def _cmd_optimize(request: AnalysisRequest) -> int:
    model = _load_input(request)
    solution = optimal_weights(
        model, tolerance=request.tolerance, max_iterations=request.max_iterations
    )
    p = _resolve_selection(model, request.selection_scheme)
    report = evaluate(model, solution.weights, p)
    request = replace(request, weight_scheme="optimal")
    pairs = _report_pairs(request, model, solution.weights, p, report)
    pairs += [
        ("objective", solution.objective),
        ("iterations", solution.iterations),
        ("kkt_residual", solution.kkt_residual),
        ("possibly_nonunique", solution.possibly_nonunique),
    ]

    def human(out):
        print("optimal weights", file=out)
        for label, weight in zip(model.judge_labels, solution.weights.weights):
            print(f"  {label:<16} {_hfmt(weight)}", file=out)
        print(f"  objective        {_hfmt(solution.objective)}", file=out)
        print(f"  iterations       {solution.iterations}", file=out)
        print(f"  KKT residual     {_hfmt(solution.kkt_residual)}", file=out)
        if solution.possibly_nonunique:
            print("  note: minimizer may not be unique (singular curvature)", file=out)
        _print_human_report(model, solution.weights, p, report, out)

    _emit(pairs, request, human)
    return 0


def _cmd_candidate(request: AnalysisRequest) -> int:
    if request.candidates_path is None:
        raise UsageError("candidate requires --candidates CSV")
    model = _load_input(request)
    candidates, labels = read_candidates(request.candidates_path, model)
    ranking = rank_candidates(
        model, candidates, p_rule=request.selection_scheme, labels=labels
    )
    pairs: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("command", request.command),
        ("n_judges", model.n_judges),
        ("selection_scheme", request.selection_scheme),
        ("n_candidates", len(candidates)),
        ("n_failures", len(ranking.failures)),
    ]
    for rank, ev in enumerate(ranking.evaluations, start=1):
        prefix = f"candidate_{rank}_"
        pairs += [
            (prefix + "label", ev.label),
            (prefix + "marginal_gain", ev.marginal_gain),
            (prefix + "uniform_marginal_gain", ev.uniform_marginal_gain),
            (prefix + "weight", ev.candidate_weight),
            (prefix + "crowd_mse_before", ev.before.crowd_mse),
            (prefix + "crowd_mse_after", ev.after.crowd_mse),
            (prefix + "wise_after", ev.after.is_wise),
        ]
        if ev.candidate_skill is not None:
            pairs.append((prefix + "skill", ev.candidate_skill))
    for i, failure in enumerate(ranking.failures, start=1):
        pairs += [
            (f"failure_{i}_label", failure.label),
            (f"failure_{i}_error", str(failure.error)),
        ]

    def human(out):
        print(
            f"{len(ranking.evaluations)} candidate(s) ranked by marginal gain "
            "in optimal crowd MSE",
            file=out,
        )
        header = f"  {'rank':<5} {'label':<16} {'gain':<13} {'weight':<13} {'MSE after':<13}"
        if request.show_uniform_gain:
            header += " uniform-weight gain"
        print(header, file=out)
        for rank, ev in enumerate(ranking.evaluations, start=1):
            line = (
                f"  {rank:<5} {ev.label:<16} {_hfmt(ev.marginal_gain):<13} "
                f"{_hfmt(ev.candidate_weight):<13} {_hfmt(ev.after.crowd_mse):<13}"
            )
            if request.show_uniform_gain:
                line += f" {_hfmt(ev.uniform_marginal_gain)}"
            print(line, file=out)
        for failure in ranking.failures:
            print(f"  failed: {failure.label}: {failure.error}", file=out)

    _emit(pairs, request, human)
    return 0


def _cmd_simulate(request: AnalysisRequest) -> int:
    model = _load_input(request)
    w = _resolve_weights(model, request.weight_scheme)
    p = _resolve_selection(model, request.selection_scheme)
    spec = SimulationSpec(
        model=model,
        trials=request.trials,
        seed=request.seed,
        distribution=request.generator,
    )
    result = simulate(spec, w, p)
    analytic = evaluate(model, w, p)
    pairs: list[tuple[str, object]] = [
        ("schema_version", SCHEMA_VERSION),
        ("command", request.command),
        ("n_judges", model.n_judges),
        ("weight_scheme", request.weight_scheme),
        ("selection_scheme", request.selection_scheme),
        ("trials", result.trials),
        ("seed", result.seed),
        ("generator", request.generator),
        ("empirical_crowd_mse", result.empirical_crowd_mse),
        ("empirical_individual_mse", result.empirical_individual_mse),
        ("crowd_mse_se", result.standard_errors[0]),
        ("individual_mse_se", result.standard_errors[1]),
        ("degenerate_se", result.degenerate_se),
        ("analytic_crowd_mse", analytic.crowd_mse),
        ("analytic_individual_mse", analytic.individual_mse),
        ("empirical_wisdom_gap",
         result.empirical_individual_mse - result.empirical_crowd_mse),
        ("analytic_wisdom_gap", analytic.wisdom_gap),
    ]

    def human(out):
        values = dict(pairs)
        print(
            f"simulation: {result.trials} trials, seed {result.seed}, "
            f"{request.generator} generator",
            file=out,
        )
        print(f"  {'':<18} {'empirical':<16} {'analytic':<16} std. error", file=out)
        print(
            f"  {'crowd MSE':<18} {_hfmt(result.empirical_crowd_mse):<16} "
            f"{_hfmt(analytic.crowd_mse):<16} {_hfmt(result.standard_errors[0])}",
            file=out,
        )
        print(
            f"  {'individual MSE':<18} {_hfmt(result.empirical_individual_mse):<16} "
            f"{_hfmt(analytic.individual_mse):<16} {_hfmt(result.standard_errors[1])}",
            file=out,
        )
        print(
            f"  {'wisdom gap':<18} {_hfmt(values['empirical_wisdom_gap']):<16} "
            f"{_hfmt(analytic.wisdom_gap):<16}",
            file=out,
        )
        if result.degenerate_se:
            print("  note: single trial, standard errors reported as zero", file=out)

    _emit(pairs, request, human)
    return 0


def _parse_sweep_grid(
    path: str | None,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    fields = _parse_document(path) if path is not None else {}
    bias = DEFAULT_SWEEP_BIAS
    correlation = DEFAULT_SWEEP_CORRELATION
    sizes = DEFAULT_SWEEP_SIZES
    if "bias_scale" in fields:
        bias = tuple(_parse_floats(fields["bias_scale"], path, "bias_scale"))
    if "correlation" in fields:
        correlation = tuple(
            _parse_floats(fields["correlation"], path, "correlation")
        )
    if "n_judges" in fields:
        raw = _parse_floats(fields["n_judges"], path, "n_judges")
        if np.any(raw != np.round(raw)) or np.any(raw < 1):
            raise ParseError(f"{path}: n_judges must be positive integers")
        sizes = tuple(int(v) for v in raw)
    return bias, correlation, sizes


def _cmd_sweep(request: AnalysisRequest) -> int:
    bias_grid, corr_grid, size_grid = _parse_sweep_grid(request.sweep_grid_path)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "bias_scale",
            "correlation",
            "n_judges",
            "status",
            "crowd_mse_uniform",
            "crowd_mse_optimal",
            "individual_mse",
            "gap_uniform",
            "gap_optimal",
        ]
    )
    cell = 0
    for bias in bias_grid:
        for rho in corr_grid:
            for n in size_grid:
                cell += 1
                try:
                    model = random_model(
                        n,
                        seed=request.seed * 100_003 + cell,
                        bias_scale=bias,
                        correlation_range=(rho, rho),
                        criterion_var=0.0,
                    )
                except InfeasibleCorrelationRange:
                    writer.writerow(
                        [bias, rho, n, "infeasible_correlation", "", "", "", "", ""]
                    )
                    continue
                p = uniform_selection(n)
                uniform_report = evaluate(model, uniform_weights(n), p)
                optimal_report = evaluate(
                    model,
                    optimal_weights(
                        model,
                        tolerance=request.tolerance,
                        max_iterations=request.max_iterations,
                    ).weights,
                    p,
                )
                writer.writerow(
                    [
                        bias,
                        rho,
                        n,
                        "ok",
                        repr(uniform_report.crowd_mse),
                        repr(optimal_report.crowd_mse),
                        repr(uniform_report.individual_mse),
                        repr(uniform_report.wisdom_gap),
                        repr(optimal_report.wisdom_gap),
                    ]
                )
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "optimize": _cmd_optimize,
    "candidate": _cmd_candidate,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def validate_request(request: AnalysisRequest) -> None:
    if request.command not in COMMANDS:
        raise UsageError(f"unknown command {request.command!r}")
    has_data = request.data_path is not None
    has_model = request.model_path is not None
    if request.command == "sweep":
        if has_data or has_model:
            raise UsageError("sweep generates its own models; drop --data/--model")
    elif has_data == has_model:
        raise UsageError("provide exactly one of --data or --model")
    if request.output_format not in ("human", "machine"):
        raise UsageError(f"unknown format {request.output_format!r}")
    if request.trials < 1:
        raise UsageError("--trials must be at least 1")


def run(request: AnalysisRequest) -> int:
    """Execute a request; returns the process exit code.

    Error detail is written to stderr; stdout carries only the report.
    """
    try:
        validate_request(request)
        return _HANDLERS[request.command](request)
    except CrowdwiseError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    """Every ``dest`` is the name of an AnalysisRequest field."""
    parser = _Parser(prog="crowdwise", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_weights=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--data", dest="data_path", help="judgments CSV with a 'criterion' column"
        )
        group.add_argument(
            "--model", dest="model_path", help="model file (see save_model format)"
        )
        if with_weights:
            p.add_argument(
                "--weights",
                dest="weight_scheme",
                default="uniform",
                help="uniform | skill | inverse-mse | optimal | FILE",
            )
        p.add_argument(
            "--selection",
            dest="selection_scheme",
            default="uniform",
            help="uniform | skill | best | FILE",
        )
        p.add_argument(
            "--format",
            default="human",
            choices=("human", "machine"),
            dest="output_format",
        )

    add_common(sub.add_parser("analyze", help="report both sides and the verdict"))

    p_opt = sub.add_parser("optimize", help="solve for optimal weights")
    add_common(p_opt, with_weights=False)
    p_opt.add_argument("--tolerance", type=float, default=1e-10)
    p_opt.add_argument("--max-iterations", type=int, default=100_000)

    p_cand = sub.add_parser("candidate", help="rank prospective members")
    add_common(p_cand, with_weights=False)
    p_cand.add_argument(
        "--candidates", dest="candidates_path", required=True, help="candidate CSV"
    )
    p_cand.add_argument(
        "--uniform-gain",
        dest="show_uniform_gain",
        action="store_true",
        help="also show the simple-average marginal gain",
    )

    p_sim = sub.add_parser("simulate", help="empirical check of analytic values")
    add_common(p_sim)
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--generator", default="gaussian", choices=("gaussian", "uniform")
    )

    p_sweep = sub.add_parser("sweep", help="wisdom gap over a parameter grid")
    p_sweep.add_argument(
        "--sweep-grid",
        dest="sweep_grid_path",
        help="grid file (bias_scale/correlation/n_judges)",
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--tolerance", type=float, default=1e-10)
    p_sweep.add_argument("--max-iterations", type=int, default=100_000)
    return parser


def request_from_args(argv: list[str] | None = None) -> AnalysisRequest:
    return AnalysisRequest(**vars(_build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    try:
        request = request_from_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        code = run(request)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the pipe; not our error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
