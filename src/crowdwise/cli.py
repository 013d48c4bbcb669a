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
flat key = value document with a schema_version field; the human report is
rendered from the same key/value pairs, so every number it shows is in the
machine report.  A failed command writes nothing to stdout.

The argument parser is the one place where each command's options and their
defaults are declared; the parsed namespace is the request every command
reads.

Exit codes: 0 success, 1 usage error, 2 data or validation error (including
nan or inf in any input file), 3 numerical failure (including a report that
overflows to inf or nan) or internal error.  Error detail goes to stderr as
one line, never to stdout; so does each distinct warning, as ``warning: ...``.

Weights are treated as fixed choices supplied before judgments realize.
Estimating weights from the same trials they are scored on is not detected
or corrected here.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from .diversity import CandidateMember, rank_candidates
from .errors import (
    CrowdwiseError, DuplicateJudgeLabel, InfeasibleCorrelationRange,
    MissingCriterionColumn, NoConvergence, NonFiniteReport, NonNumericCell,
    ParseError, SampleTooSmall, UndefinedSkill, UsageError, ValidationFailed,
    ZeroCriterionVariance, ZeroJudges,
)
from .model import CrowdModel, JudgmentSample, estimate_model, validate_model
from .montecarlo import GENERATORS, SimulationSpec, random_model, simulate
from .schemes import (
    SELECTION_RULES, inverse_mse_weights, optimal_weights, skill_scores,
    skill_weights, uniform_weights,
)
from .wisdom import WeightVector, WisdomReport, evaluate

SCHEMA_VERSION = 1

DEFAULT_SWEEP_BIAS = (0.0, 0.5, 1.0, 2.0)
DEFAULT_SWEEP_CORRELATION = (-0.4, -0.2, 0.0, 0.2, 0.4, 0.8)
DEFAULT_SWEEP_SIZES = (2, 5, 10, 25)

_MODEL_FIELDS = (
    "judge_labels", "judge_means", "judge_cov",
    "criterion_mean", "criterion_var", "cross_cov",
)


# ---------------------------------------------------------------------------
# CSV input: judgments and candidates
# ---------------------------------------------------------------------------


def _utf8_error(path: str, err: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not valid UTF-8 (byte {err.object[err.start]:#04x})")


def _lines(handle):
    """The lines of the text ``handle`` with a BOM dropped from the first."""
    first = next(handle, "").removeprefix("\ufeff")
    if first:
        yield first
    yield from handle


@contextmanager
def _opened(path: str):
    """The lines of ``path``, opened once as UTF-8 text, BOM dropped and line
    ends kept; a failure to open or decode it, in the caller's block too, is
    a ParseError.  A file that is only part of a BOM is not UTF-8: the
    ``utf-8-sig`` decoder would read it as empty."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    with handle:
        try:
            yield _lines(handle)
        except UnicodeDecodeError as err:
            raise _utf8_error(path, err) from None


def _csv_header(path: str, handle) -> tuple[list[str], int]:
    """The stripped header record of the CSV ``handle`` and the number of
    physical lines it spans; ``handle`` is left after it."""
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path} is empty")
    return [h.strip() for h in header], reader.line_num


def _csv_records(path: str, lines, width: int, offset: int):
    """``(line, cells)`` of each non-blank CSV record in ``lines``, which
    follow a header of ``offset`` lines; ``line`` is the file's physical line
    the record ends on.  Every record must have ``width`` cells."""
    reader = csv.reader(lines)
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        line_no = offset + reader.line_num
        if len(row) != width:
            raise ParseError(
                f"{path} line {line_no}: expected {width} cells, got {len(row)}"
            )
        yield line_no, row


def _parse_cell(raw: str, line: int, column: str) -> float:
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(line, column, raw) from None
    if not math.isfinite(value):
        raise NonNumericCell(line, column, raw)
    return value


# numpy opens a path ending in one of these through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _fast_table(source, n_columns: int, skiprows: int) -> np.ndarray | None:
    """The data rows of ``source`` as one array, or None to fall back.

    One C-level parse by ``np.loadtxt``.  ``source`` is either a file's path,
    which numpy reads in C chunks after skipping the ``skiprows`` physical
    lines of the header, or the list of lines after the header, which numpy
    reads one by one.

    The parse is accepted only when it reads at least two rows of
    ``n_columns`` finite numbers; every cell it parses equals ``float`` of
    that cell.  Anything else it rejects or might read differently (quoted
    cells, whitespace-only rows, ragged rows, ``1_0``, non-ASCII digits, nan,
    inf, bytes that are not UTF-8) is left to the per-cell parser, which
    alone raises ingest errors.
    """
    with warnings.catch_warnings():
        # A header-only file is reported by the per-cell parser.
        warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
        try:
            table = np.loadtxt(
                source, delimiter=",", comments=None, ndmin=2,
                skiprows=skiprows, encoding="utf-8-sig",
            )
        except ValueError:
            return None
    if table.shape[1] != n_columns or table.shape[0] < 2:
        return None
    return table if np.isfinite(table).all() else None


def ingest_csv(path: str) -> JudgmentSample:
    """Read a trials-by-judges CSV with a required ``criterion`` column.

    The header names the judges; the (case-sensitive) ``criterion`` column
    holds the realized criterion value of each trial.  Judge labels must be
    non-empty.  Cells must be plain decimal numbers.  Errors name the file's
    physical line, counting from 1.

    The file is opened once.  All data rows are parsed by one vectorised
    ``np.loadtxt`` call (``_fast_table``): a regular file whose name numpy
    would not take for a compressed one is given to it by its absolute path
    (so no name is read as a URL); anything else, such as a pipe, is first
    read into a list of lines.  That fast path is all-or-nothing: if it
    fails, or its table is not at least two rows of finite numbers, one per
    header column, the per-cell parser reads the same text (the open handle,
    or the list), and gives the same sample or raises the error that locates
    the first bad row or cell.

    The parsed table becomes the sample's joint array as it is when the
    criterion is the last column; otherwise one gather moves it last.
    """
    with _opened(path) as handle:
        header, offset = _csv_header(path, handle)
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
        if not all(judge_labels):
            raise ParseError(f"{path} line 1: empty judge label")
        dupes = {h for h in judge_labels if judge_labels.count(h) > 1}
        if dupes:
            raise DuplicateJudgeLabel(
                f"{path} has duplicated judge columns: {sorted(dupes)}"
            )
        suffix = os.path.splitext(path)[1]
        if os.path.isfile(path) and suffix not in _COMPRESSED_SUFFIXES:
            lines = handle
            table = _fast_table(os.path.abspath(path), len(header), offset)
        else:
            lines = list(handle)
            table = _fast_table(lines, len(header), 0)
        if table is None:
            table = np.array(
                [
                    [_parse_cell(c, line_no, header[i]) for i, c in enumerate(row)]
                    for line_no, row in _csv_records(path, lines, len(header), offset)
                ]
            )
    if len(table) < 2:
        raise SampleTooSmall(
            f"{path} has {len(table)} data rows; at least 2 trials are needed"
        )
    if criterion_idx != len(judge_labels):
        order = [i for i in range(len(header)) if i != criterion_idx]
        table = np.take(table, order + [criterion_idx], axis=1)
    return JudgmentSample.from_joint(table, tuple(judge_labels))


def read_candidates(
    path: str, model: CrowdModel
) -> tuple[list[CandidateMember], list[str]]:
    """Read the candidate CSV for ``model``.

    Header must be exactly ``label,mean,variance,cov_with_criterion`` followed
    by the model's judge labels in order.  Every row needs a non-empty label.
    The file is opened once, so a pipe works as a file does; errors name the
    file's physical line, counting from 1, and the first error is the one a
    read row by row meets first.
    """
    expected = ["label", "mean", "variance", "cov_with_criterion"]
    expected += list(model.judge_labels)
    records: list[tuple[int, list[str]]] = []
    with _opened(path) as handle:
        header, offset = _csv_header(path, handle)
        if header != expected:
            raise ParseError(
                f"{path}: header {header} does not match expected {expected} "
                "(the model's judge labels, in order)"
            )
        try:
            for line_no, row in _csv_records(path, handle, len(header), offset):
                if not row[0].strip():
                    raise ParseError(f"{path} line {line_no}: empty candidate label")
                records.append((line_no, row))
        except (ParseError, UnicodeDecodeError):
            _candidate_values(records, expected)  # a bad cell above comes first
            raise
    if not records:
        raise ParseError(f"{path} lists no candidates")
    candidates = [
        CandidateMember(
            mean=values[0],
            variance=values[1],
            cov_with_criterion=values[2],
            cov_with_members=values[3:],
        )
        for values in _candidate_values(records, expected)
    ]
    return candidates, [row[0].strip() for _, row in records]


def _candidate_values(records: list[tuple[int, list[str]]], columns: list[str]) -> np.ndarray:
    """The numeric cells of candidate ``records``, one row each.

    orjson reads every cell in one call; ``float()`` reads them cell by cell,
    and words the error, when orjson refuses the text or finds more numbers
    than cells (a quoted cell holding a comma).
    """
    shape = (len(records), len(columns) - 1)
    cells = [cell for _, row in records for cell in row[1:]]
    values = _json_parse(*_span(",".join(cells))) if cells else None
    if values is None or values.size != len(cells):
        values = np.array([
            _parse_cell(cell, line_no, column)
            for line_no, row in records
            for column, cell in zip(columns[1:], row[1:])
        ])
    return values.reshape(shape)


# ---------------------------------------------------------------------------
# Model files and the machine report format
# ---------------------------------------------------------------------------


# Bytes of a field per orjson call, cut at a comma: a block's numbers are
# Python objects until they are copied into an array, so blocks bound them.
_BLOCK_CHARS = 1 << 16

# A -0 token, which JSON reads as the int 0, losing the sign; a match right
# after an exponent's e or E is skipped.  No lookbehind: ``re`` scans for the
# literal prefix fast.
_INTEGER_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")

# The ASCII characters ``str.strip()`` strips, but for \n and \r.
_ASCII_SPACE = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_file(path: str) -> bytearray:
    """The bytes of ``path`` after any UTF-8 BOM, read by one ``readinto``
    when the file's size is known; a failure to open it is a ParseError."""
    try:
        handle = open(path, "rb")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    with handle:
        data = bytearray(os.fstat(handle.fileno()).st_size)
        del data[handle.readinto(data):]
        data += handle.read()  # a pipe has no size
    if data.startswith(b"\xef\xbb\xbf"):
        del data[:3]
    return data


def _decode(data, path: str) -> str:
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as err:
        raise _utf8_error(path, err) from None


def _span(text: str) -> tuple[bytearray, int, int]:
    """``text`` as a span ``(data, start, end)`` of its own buffer, with a
    byte on each side."""
    data = bytearray(b" " + text.encode() + b" ")
    return data, 1, len(data) - 1


def _text(span: tuple[bytearray, int, int]) -> str:
    data, start, end = span
    return data[start:end].decode()


def _json_parse(data: bytearray, start: int, end: int) -> np.ndarray | None:
    """orjson's parse of the comma-separated numbers in ``data[start:end]``,
    or None where it may differ from ``float()``.

    JSON's number grammar is a subset of ``float()``'s, and orjson rounds
    correctly, so each JSON number is the double ``float()`` reads.  JSON
    also reads ``true``, ``false``, ``null``, strings, arrays and objects,
    a blank text as no number at all, and an integer ``-0`` as the int 0;
    the result stands only where it holds none of these.

    The block is read in place: ``[`` and ``]`` are written over the bytes
    on either side of it, which are put back after the parse.
    """
    import orjson  # not at module level: ``import crowdwise.cli`` stays cheap

    if any(data.find(c, start, end) >= 0 for c in b'"[{tfn'):
        return None
    outside = data[start - 1], data[end]
    data[start - 1], data[end] = b"[]"
    try:
        numbers = orjson.loads(memoryview(data)[start - 1:end + 1])
    except orjson.JSONDecodeError:
        return None
    finally:
        data[start - 1], data[end] = outside
    if not numbers:
        return None
    values = np.fromiter(numbers, dtype=float, count=len(numbers))
    if not values.all() and any(
        data[m.start() - 1] not in b"eE"
        for m in _INTEGER_NEGATIVE_ZERO.finditer(data, start, end)
    ):
        return None
    return values


def _numbers(span: tuple[bytearray, int, int], path: str, key: str) -> np.ndarray:
    """The comma-separated finite numbers of a span; an empty span is an
    empty list.

    orjson reads the common case a block at a time; ``float()`` reads any
    block it leaves, and decides what is a number and words the error.
    """
    data, start, end = span
    if start == end:
        return np.empty(0)
    blocks = []
    while start <= end:
        cut = data.find(b",", start + _BLOCK_CHARS, end)
        stop = end if cut < 0 else cut
        values = _json_parse(data, start, stop)
        if values is None:
            tokens = data[start:stop].decode().split(",")
            try:
                values = np.fromiter(map(float, tokens), dtype=float)
            except ValueError:
                raise ParseError(
                    f"{path}: field {key!r} is not a list of numbers"
                ) from None
        blocks.append(values)
        start = stop + 1
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite values in {key}")
    return values


def _parse_numbers(text: str, path: str, key: str) -> np.ndarray:
    """Comma-separated finite numbers; an empty text is an empty list."""
    return _numbers(_span(text), path, key)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return ", ".join(map(repr, value.tolist()))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ", ".join(_format_value(v) for v in value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_document(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in pairs)


def _parse_document(path: str) -> dict[str, tuple[bytearray, int, int]]:
    """The ``key = value`` fields of a document, each value a span of the
    file's bytes, stripped as ``str.strip()`` strips its text.

    Lines end in \\n, \\r\\n or \\r; blank lines and ``#`` comments are
    skipped.  Only keys and non-ASCII lines are decoded; a non-ASCII line's
    value gets a buffer of its own, so a long ASCII number field is never
    copied as text.  A byte that is not UTF-8 is the error, wherever it is.
    """
    data = _read_file(path)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # Every line ends in \n, so every value has a byte after it.
    data += b"\n"
    ascii = data.isascii()
    view = memoryview(data)
    fields: dict[str, tuple[bytearray, int, int]] = {}
    start = 0
    for line_no in itertools.count(1):
        end = data.find(b"\n", start)
        if end < 0:
            return fields
        line = None if ascii else _decode(view[start:end], path)
        eq = data.find(b"=", start, end)
        key = str(view[start:end if eq < 0 else eq], "utf-8").strip()
        if key.startswith("#") or (eq < 0 and not key):
            pass
        elif eq < 0 or key in fields:
            if not ascii:
                _decode(view[end:], path)
            what = "expected 'key = value', got" if eq < 0 else "duplicate key"
            raise ParseError(f"{path} line {line_no}: {what} {key!r}")
        elif line is None or line.isascii():
            value, stop = eq + 1, end
            while value < stop and data[value] in _ASCII_SPACE:
                value += 1
            while stop > value and data[stop - 1] in _ASCII_SPACE:
                stop -= 1
            fields[key] = (data, value, stop)
        else:
            fields[key] = _span(line.partition("=")[2].strip())
        start = end + 1


def _refuse_unknown(fields: dict, known: tuple[str, ...], path: str) -> None:
    unknown = [key for key in fields if key not in known]
    if unknown:
        raise ParseError(f"{path}: unknown keys {unknown}")


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
        ParseError: malformed document, a key other than the six fields and
            ``schema_version``, non-finite numbers or inconsistent shapes.
        ValidationFailed: the stored moments violate a model invariant.
    """
    fields = _parse_document(path)
    _refuse_unknown(fields, (*_MODEL_FIELDS, "schema_version"), path)
    missing = [f for f in _MODEL_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"{path}: missing fields {missing}")
    labels = tuple(p.strip() for p in _text(fields["judge_labels"]).split(","))
    if any(not label for label in labels):
        raise ParseError(f"{path}: empty judge label")
    n = len(labels)
    if len(set(labels)) < n:
        dupes = sorted({label for label in labels if labels.count(label) > 1})
        raise DuplicateJudgeLabel(f"{path} has duplicated judge labels: {dupes}")
    means = _numbers(fields["judge_means"], path, "judge_means")
    cov_flat = _numbers(fields["judge_cov"], path, "judge_cov")
    cross = _numbers(fields["cross_cov"], path, "cross_cov")
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
        criterion_mean = float(_text(fields["criterion_mean"]))
        criterion_var = float(_text(fields["criterion_var"]))
    except ValueError:
        raise ParseError(
            f"{path}: criterion_mean and criterion_var must be numbers"
        ) from None
    criterion = {"criterion_mean": criterion_mean, "criterion_var": criterion_var}
    for key, value in criterion.items():
        if not math.isfinite(value):
            raise ParseError(f"{path}: non-finite values in {key}")
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


# ---------------------------------------------------------------------------
# Scheme resolution
# ---------------------------------------------------------------------------

_WEIGHT_RULES = {
    "uniform": lambda model: uniform_weights(model.n_judges),
    "skill": lambda model: skill_weights(model),
    "inverse-mse": lambda model: inverse_mse_weights(model),
    "optimal": lambda model: optimal_weights(model).weights,
}

_SCHEMES = {"weights": _WEIGHT_RULES, "selection": SELECTION_RULES}


def _resolve(kind: str, scheme: str, model: CrowdModel) -> WeightVector:
    """Apply the ``kind`` rule named ``scheme``, or read it from that file.

    A file holds one number per judge, separated by commas or whitespace;
    errors name the file and ``kind``.
    """
    rules = _SCHEMES[kind]
    if scheme in rules:
        return rules[scheme](model)
    text = ",".join(_decode(_read_file(scheme), scheme).replace(",", " ").split())
    values = _parse_numbers(text, scheme, kind)
    if values.shape[0] != model.n_judges:
        raise ParseError(
            f"{scheme}: {kind} file has {values.shape[0]} entries "
            f"for {model.n_judges} judges"
        )
    try:
        return WeightVector(values)
    except ValidationFailed as err:
        reason = err.violations[0].removeprefix("WeightVector ")
        raise ParseError(f"{scheme}: {kind} {reason}") from None


def _skill_pairs(model: CrowdModel) -> list[tuple[str, object]]:
    try:
        return [("skill", skill_scores(model))]
    except ZeroCriterionVariance:
        note = "criterion variance is zero"
    except UndefinedSkill as err:
        note = f"zero-variance judges at indices {err.judge_indices}"
    return [("skill_note", f"undefined: {note}")]


# ---------------------------------------------------------------------------
# Human reports, rendered from the machine pairs alone
# ---------------------------------------------------------------------------

_VERDICT_ROWS = (
    ("  crowd MSE", "crowd_mse"),
    ("    bias^2", "crowd_bias_sq"),
    ("    variance", "crowd_variance"),
    ("    cross term", "crowd_cross_term"),
    ("    criterion var", "criterion_var"),
    ("  individual MSE", "individual_mse"),
    ("  wisdom gap", "wisdom_gap"),
    ("  wise", "is_wise"),
)

_OPTIMIZER_ROWS = (
    ("  objective", "objective"),
    ("  iterations", "iterations"),
    ("  KKT residual", "kkt_residual"),
)


def _hfmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def _label_rows(values: dict, rows) -> list[str]:
    return [f"{label:<19}{_hfmt(values[key])}" for label, key in rows]


def _human_analyze(values: dict, args: argparse.Namespace) -> list[str]:
    lines = [f"crowd of {values['n_judges']} judge(s)"]
    lines += _label_rows(values, _VERDICT_ROWS)
    lines.append("  judge            weight       selection    per-judge MSE  skill")
    columns = zip(
        values["judge_labels"],
        values["weights"],
        values["selection"],
        values["per_judge_mse"],
        values.get("skill", ["-"] * values["n_judges"]),
    )
    for label, weight, prob, mse, skill in columns:
        lines.append(
            f"  {label:<16} {_hfmt(weight):<12} {_hfmt(prob):<12} "
            f"{_hfmt(mse):<14} {_hfmt(skill)}"
        )
    if "skill_note" in values:
        lines.append(f"  note: {values['skill_note']}")
    return lines


def _human_optimize(values: dict, args: argparse.Namespace) -> list[str]:
    lines = ["optimal weights"]
    for label, weight in zip(values["judge_labels"], values["weights"]):
        lines.append(f"  {label:<16} {_hfmt(weight)}")
    lines += _label_rows(values, _OPTIMIZER_ROWS)
    if values["possibly_nonunique"]:
        lines.append("  note: minimizer may not be unique (singular curvature)")
    return lines + _human_analyze(values, args)


def _human_candidate(values: dict, args: argparse.Namespace) -> list[str]:
    ranked = values["n_candidates"] - values["n_failures"]
    uniform = args.show_uniform_gain
    lines = [
        f"{ranked} candidate(s) ranked by marginal gain in optimal crowd MSE",
        f"  {'rank':<5} {'label':<16} {'gain':<13} {'weight':<13} {'MSE after':<13}"
        + (" uniform-weight gain" if uniform else ""),
    ]
    for rank in range(1, ranked + 1):
        c = f"candidate_{rank}_"
        keys = ("marginal_gain", "weight", "crowd_mse_after")
        line = f"  {rank:<5} {values[c + 'label']:<16} "
        line += " ".join(f"{_hfmt(values[c + key]):<13}" for key in keys)
        if uniform:
            line += f" {_hfmt(values[c + 'uniform_marginal_gain'])}"
        lines.append(line)
    for i in range(1, values["n_failures"] + 1):
        lines.append(
            f"  failed: {values[f'failure_{i}_label']}: {values[f'failure_{i}_error']}"
        )
    return lines


def _human_simulate(values: dict, args: argparse.Namespace) -> list[str]:
    v = {key: _hfmt(value) for key, value in values.items()}
    lines = [
        f"simulation: {v['trials']} trials, seed {v['seed']}, "
        f"{v['generator']} generator",
        f"  {'':<18} {'empirical':<16} {'analytic':<16} std. error",
        f"  {'crowd MSE':<18} {v['empirical_crowd_mse']:<16} "
        f"{v['analytic_crowd_mse']:<16} {v['crowd_mse_se']}",
        f"  {'individual MSE':<18} {v['empirical_individual_mse']:<16} "
        f"{v['analytic_individual_mse']:<16} {v['individual_mse_se']}",
        f"  {'wisdom gap':<18} {v['empirical_wisdom_gap']:<16} "
        f"{v['analytic_wisdom_gap']:<16} {v['wisdom_gap_se']}",
    ]
    if values["degenerate_se"]:
        lines.append("  note: single trial, standard errors reported as zero")
    return lines


# ---------------------------------------------------------------------------
# Commands: each returns its machine pairs after the header that main writes
# (sweep: its CSV rows)
# ---------------------------------------------------------------------------


def _load_input(args: argparse.Namespace) -> CrowdModel:
    if args.data_path is not None:
        return estimate_model(ingest_csv(args.data_path))
    return load_model(args.model_path)


def _report_pairs(
    args: argparse.Namespace,
    model: CrowdModel,
    w: WeightVector,
    p: WeightVector,
    report: WisdomReport,
) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [
        ("n_judges", model.n_judges),
        ("judge_labels", model.judge_labels),
        ("weight_scheme", args.weight_scheme),
        ("selection_scheme", args.selection_scheme),
        ("weights", w.weights),
        ("selection", p.weights),
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


def _cmd_analyze(args: argparse.Namespace) -> list[tuple[str, object]]:
    model = _load_input(args)
    w = _resolve("weights", args.weight_scheme, model)
    p = _resolve("selection", args.selection_scheme, model)
    return _report_pairs(args, model, w, p, evaluate(model, w, p))


def _cmd_optimize(args: argparse.Namespace) -> list[tuple[str, object]]:
    model = _load_input(args)
    solution = optimal_weights(
        model, tolerance=args.tolerance, max_iterations=args.max_iterations
    )
    p = _resolve("selection", args.selection_scheme, model)
    report = evaluate(model, solution.weights, p)
    return _report_pairs(args, model, solution.weights, p, report) + [
        ("objective", solution.objective),
        ("iterations", solution.iterations),
        ("kkt_residual", solution.kkt_residual),
        ("possibly_nonunique", solution.possibly_nonunique),
    ]


def _cmd_candidate(args: argparse.Namespace) -> list[tuple[str, object]]:
    model = _load_input(args)
    candidates, labels = read_candidates(args.candidates_path, model)
    ranking = rank_candidates(
        model, candidates, p_rule=args.selection_scheme, labels=labels
    )
    pairs: list[tuple[str, object]] = [
        ("n_judges", model.n_judges),
        ("selection_scheme", args.selection_scheme),
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
    return pairs


def _cmd_simulate(args: argparse.Namespace) -> list[tuple[str, object]]:
    model = _load_input(args)
    w = _resolve("weights", args.weight_scheme, model)
    p = _resolve("selection", args.selection_scheme, model)
    spec = SimulationSpec(
        model=model,
        trials=args.trials,
        seed=args.seed,
        distribution=args.generator,
    )
    analytic = evaluate(model, w, p)
    crowd, individual, gap = analytic_pairs = [
        ("analytic_crowd_mse", analytic.crowd_mse),
        ("analytic_individual_mse", analytic.individual_mse),
        ("analytic_wisdom_gap", analytic.wisdom_gap),
    ]
    # A non-finite analytic half is refused before any trial is drawn.
    _require_finite(analytic_pairs)
    result = simulate(spec, w, p)
    return [
        ("n_judges", model.n_judges),
        ("weight_scheme", args.weight_scheme),
        ("selection_scheme", args.selection_scheme),
        ("trials", result.trials),
        ("seed", result.seed),
        ("generator", args.generator),
        ("empirical_crowd_mse", result.empirical_crowd_mse),
        ("empirical_individual_mse", result.empirical_individual_mse),
        ("crowd_mse_se", result.standard_errors[0]),
        ("individual_mse_se", result.standard_errors[1]),
        ("wisdom_gap_se", result.wisdom_gap_se),
        ("degenerate_se", result.degenerate_se),
        crowd,
        individual,
        ("empirical_wisdom_gap", result.empirical_wisdom_gap),
        gap,
    ]


def _parse_sweep_grid(
    path: str | None,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    fields = _parse_document(path) if path is not None else {}
    _refuse_unknown(fields, ("bias_scale", "correlation", "n_judges"), path)

    def axis(key: str, default: tuple) -> tuple:
        if key not in fields:
            return default
        return tuple(_numbers(fields[key], path, key))

    bias = axis("bias_scale", DEFAULT_SWEEP_BIAS)
    correlation = axis("correlation", DEFAULT_SWEEP_CORRELATION)
    sizes = axis("n_judges", DEFAULT_SWEEP_SIZES)
    if any(v != np.round(v) or v < 1 for v in sizes):
        raise ParseError(f"{path}: n_judges must be positive integers")
    if any(not -1.0 <= v <= 1.0 for v in correlation):
        raise ParseError(f"{path}: correlation values must lie in [-1, 1]")
    return bias, correlation, tuple(int(v) for v in sizes)


_SWEEP_HEADER = (
    "bias_scale,correlation,n_judges,status,crowd_mse_uniform,"
    "crowd_mse_optimal,individual_mse,gap_uniform,gap_optimal"
)


def _cmd_sweep(args: argparse.Namespace) -> list[list[object]]:
    bias_grid, corr_grid, size_grid = _parse_sweep_grid(args.sweep_grid_path)
    rows: list[list[object]] = [_SWEEP_HEADER.split(",")]
    grid = itertools.product(bias_grid, corr_grid, size_grid)
    for cell, (bias, rho, n) in enumerate(grid, start=1):
        try:
            model = random_model(
                n,
                seed=args.seed * 100_003 + cell,
                bias_scale=bias,
                correlation_range=(rho, rho),
                criterion_var=0.0,
            )
            solution = optimal_weights(
                model, tolerance=args.tolerance, max_iterations=args.max_iterations
            )
        except InfeasibleCorrelationRange:
            rows.append([bias, rho, n, "infeasible_correlation", "", "", "", "", ""])
            continue
        except NoConvergence:
            rows.append([bias, rho, n, "no_convergence", "", "", "", "", ""])
            continue
        u = uniform_weights(n)
        uniform = evaluate(model, u, u)
        optimal = evaluate(model, solution.weights, u)
        values = (
            uniform.crowd_mse, optimal.crowd_mse, uniform.individual_mse,
            uniform.wisdom_gap, optimal.wisdom_gap,
        )
        rows.append([bias, rho, n, "ok"] + [repr(v) for v in values])
    return rows


def _require_finite(pairs: list[tuple[str, object]]) -> None:
    bad = [
        key
        for key, value in pairs
        if isinstance(value, (float, np.floating, np.ndarray))
        and not np.isfinite(value).all()
    ]
    if bad:
        raise NonFiniteReport(f"non-finite values in the report: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low: int, convert=int):
    kind = "an integer" if convert is int else "a finite number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {kind} >= {low}, got {text!r}")
        return value

    return parse


def _build_parser() -> _Parser:
    """Every option and default of every command.

    Each subcommand sets ``handler`` to (command, human renderer); sweep
    writes CSV in every format.  Options that several commands share live in
    parent parsers, so each is declared once; ``source`` builds the input's.
    """
    def source(rules: str, **choices) -> _Parser:
        parser = _Parser(add_help=False)
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--data", dest="data_path", help="judgments CSV with a 'criterion' column"
        )
        group.add_argument(
            "--model", dest="model_path", help="model file (see save_model format)"
        )
        parser.add_argument(
            "--selection", dest="selection_scheme", default="uniform", help=rules,
            **choices,
        )
        parser.add_argument(
            "--format", dest="output_format", default="human",
            choices=("human", "machine"),
        )
        return parser

    files = source("uniform | skill | best | FILE")
    # A file has one entry per judge, so it cannot select in the grown crowds.
    named = source("uniform | skill | best", choices=tuple(SELECTION_RULES))
    weights = _Parser(add_help=False)
    weights.add_argument(
        "--weights",
        dest="weight_scheme",
        default="uniform",
        help="uniform | skill | inverse-mse | optimal | FILE",
    )
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_at_least(0), default=0)
    solver = _Parser(add_help=False)
    solver.add_argument("--tolerance", type=_at_least(0, float), default=1e-10)
    solver.add_argument("--max-iterations", type=_at_least(0), default=100_000)

    parser = _Parser(prog="crowdwise", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="report both sides and the verdict", parents=[files, weights]
    )
    p.set_defaults(handler=(_cmd_analyze, _human_analyze))

    p = sub.add_parser(
        "optimize", help="solve for optimal weights", parents=[files, solver]
    )
    p.set_defaults(handler=(_cmd_optimize, _human_optimize), weight_scheme="optimal")

    p = sub.add_parser("candidate", help="rank prospective members", parents=[named])
    p.set_defaults(handler=(_cmd_candidate, _human_candidate))
    p.add_argument(
        "--candidates", dest="candidates_path", required=True, help="candidate CSV"
    )
    p.add_argument(
        "--uniform-gain",
        dest="show_uniform_gain",
        action="store_true",
        help="also show the simple-average marginal gain",
    )

    p = sub.add_parser(
        "simulate",
        help="empirical check of analytic values",
        parents=[files, weights, seeded],
    )
    p.set_defaults(handler=(_cmd_simulate, _human_simulate))
    p.add_argument("--trials", type=_at_least(1), default=100_000)
    p.add_argument("--generator", default="gaussian", choices=tuple(GENERATORS))

    p = sub.add_parser(
        "sweep", help="wisdom gap over a parameter grid", parents=[seeded, solver]
    )
    p.set_defaults(handler=(_cmd_sweep, None))
    p.add_argument(
        "--sweep-grid",
        dest="sweep_grid_path",
        help="grid file (bias_scale/correlation/n_judges)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code.

    Error detail is written to stderr.  Stdout carries only the report, written
    once the command has finished and every number in it is finite, so a
    failed command writes nothing there.
    """
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    command, render_human = args.handler
    with warnings.catch_warnings(record=True) as caught:
        try:
            # _require_finite refuses inf and nan; numpy's warnings add stderr lines.
            with np.errstate(all="ignore"):
                output = command(args)
            if render_human is None:
                csv.writer(sys.stdout, lineterminator="\n").writerows(output)
            else:
                output = [("schema_version", SCHEMA_VERSION), ("command", args.command), *output]
                _require_finite(output)
                if args.output_format == "machine":
                    sys.stdout.write(_render_document(output))
                else:
                    lines = render_human(dict(output), args)
                    sys.stdout.write("".join(line + "\n" for line in lines))
            sys.stdout.flush()
            return 0
        except CrowdwiseError as err:
            print(f"error: {err}", file=sys.stderr)
            return err.exit_code
        except BrokenPipeError:
            # Downstream consumer (head, etc.) closed the pipe; not our error.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 0
        except Exception as err:
            # A defect rather than bad input: one line, never a traceback.
            print(f"error: internal: {type(err).__name__}: {err}", file=sys.stderr)
            return 3
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
