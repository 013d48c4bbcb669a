"""CSV ingestion, model files, command dispatch, and exit codes."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import threading
import urllib.request
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import text_reader
from conftest import matrix_with_spectrum
from crowdwise import cli, montecarlo, schemes
from crowdwise.cli import ingest_csv, load_model, main, read_candidates, save_model
from crowdwise.errors import (
    DuplicateJudgeLabel,
    MissingCriterionColumn,
    NonNumericCell,
    ParseError,
    SampleTooSmall,
    ValidationFailed,
)
from crowdwise.model import (
    CrowdModel, JudgmentSample, estimate_model, fixed_criterion_model,
)
from crowdwise.montecarlo import random_model
from crowdwise.schemes import optimal_weights, uniform_selection, uniform_weights
from crowdwise.wisdom import evaluate

BASIC_CSV = "a,b,criterion\n1,2,2\n3,4,3\n"
VALID_MODEL = (
    "judge_labels = a, b\n"
    "judge_means = 0.0, 0.0\n"
    "judge_cov = 1.0, 0.0, 0.0, 1.0\n"
    "criterion_mean = 0.0\n"
    "criterion_var = 1.0\n"
    "cross_cov = 0.0, 0.0\n"
)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(BASIC_CSV, encoding="utf-8")
    return str(path)


def machine_fields(captured: str) -> dict[str, str]:
    fields = {}
    for line in captured.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def float_reference(data: bytes):
    """Labels, judgments and criterion of a judgments CSV, read cell by cell
    with plain ``float`` and no fast path."""
    text = data.decode("utf-8-sig")
    rows = [
        row
        for row in csv.reader(io.StringIO(text, newline=""))
        if any(cell.strip() for cell in row)
    ]
    header = [h.strip() for h in rows[0]]
    k = header.index("criterion")
    table = np.array([[float(cell) for cell in row] for row in rows[1:]])
    labels = tuple(h for h in header if h != "criterion")
    return labels, np.delete(table, k, axis=1), table[:, k]


# Text the JSON number grammar reads differently from ``float()``, or not at
# all: many digits, halfway cases, big integers, an integer -0 beside other
# zeros, JSON's other values, and numbers that overflow (1e400 is in the
# edge-text cases already).
JSON_EDGE_TEXT = [
    "0.1000000000000000055511151231257827021181583404541015625",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "1.7976931348623158e308", "1.7976931348623159e308",
    "2.4703282292062328e-324", "2.4703282292062327e-324", "-2.4703282292062328e-324",
    "1e-400", "-1e-400", "9007199254740993", "-9007199254740993",
    "18446744073709551615", "18446744073709551616", "-9223372036854775809",
    "1234567890123456789012345678901234567890", "123456789012345678.90123456789e-30",
    "-0", "-0, -0.5, 0", "0, -0", "-0.5, -0", "-0e0, 0", "1e-0, 0", "-0.0, -0", " -0 ",
    "true", "false", "null", "1, true", '"1.5"', "[1]", "{}", "[]", "1, [2]", '{"a": 1}',
    "-1e400", "1" * 400, "-" + "9" * 400, "1, " + "1" * 400, "NaN", "-Infinity",
    "01", "1.", "+1", "1e", "-", "\u00a01", "1\u00a0", "1\x0b", "\r1\n",
]


@st.composite
def decimal_tokens(draw):
    """Decimal numbers of 1 to 40 significant digits, over the whole range
    of doubles and past both ends, in JSON's grammar and beyond it."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    mantissa = digits[:point] + "." + digits[point:] if point < len(digits) else digits
    exponent = draw(st.one_of(st.just(""), st.integers(-400, 330).map("e{}".format)))
    return sign + mantissa + exponent


def numbers_reference(text: str):
    """``float()`` on every field: the numbers ``_parse_numbers`` must give,
    or the message of the error it must raise."""
    try:
        reference = np.array([float(p) for p in text.split(",")] if text else [])
    except ValueError:
        return "m.txt: field 'judge_cov' is not a list of numbers"
    if not np.isfinite(reference).all():
        return "m.txt: non-finite values in judge_cov"
    return reference


def assert_parses_as_float_does(text: str) -> None:
    expected = numbers_reference(text)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            cli._parse_numbers(text, "m.txt", "judge_cov")
        assert str(exc.value) == expected
        return
    parsed = cli._parse_numbers(text, "m.txt", "judge_cov")
    # Byte equality also checks the sign bit of -0.
    assert parsed.dtype == np.float64
    assert parsed.tobytes() == expected.tobytes()


# What str.strip() strips, ASCII and not, and the empty string.
DOCUMENT_SPACE = [
    "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",
]


@st.composite
def documents(draw):
    """Key-value documents: fields, comments, blank lines and lines with no
    '=' between any padding, keys that repeat, \\n, \\r\\n and \\r line
    ends, and maybe a BOM or a comment line that is not UTF-8."""
    pad = st.lists(st.sampled_from(DOCUMENT_SPACE), max_size=2).map("".join)
    token = st.one_of(decimal_tokens(), st.sampled_from(JSON_EDGE_TEXT + ["\u0661", "1e-0"]))
    value = st.lists(st.tuples(pad, token, pad).map("".join), max_size=6).map(",".join)
    key = st.sampled_from(["judge_cov", "judge_means", "k", "\u0661", "a b", ""])
    field = st.tuples(pad, key, pad, st.just("="), pad, value, pad).map("".join)
    comment = st.tuples(pad, st.sampled_from(["#", "# k = 1", "# caf\u00e9"])).map("".join)
    no_equals = st.tuples(pad, st.sampled_from(["k", "1, 2", "#"]), pad).map("".join)
    lines = [
        line.encode()
        for line in draw(st.lists(st.one_of(*[field] * 5, comment, pad, no_equals), max_size=8))
    ]
    if draw(st.integers(0, 3)) == 3:
        bad = draw(st.sampled_from([b"# \xff", b"# caf\xc3", b"#\xe3\x80"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
    data = b"".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return b"\xef\xbb\xbf" + data if draw(st.booleans()) else data


def read_fields(document, numbers, text, path: str):
    """Each field's key, text and numbers' bits (or ParseError message), or
    the document's ParseError message."""
    try:
        fields = document(path)
    except ParseError as err:
        return str(err)
    read = []
    for key, value in fields.items():
        try:
            bits = numbers(value, path, key).tobytes()
        except ParseError as err:
            bits = str(err)
        read.append((key, text(value), bits))
    return read


def assert_reads_as_text_reader(data: bytes, path) -> None:
    path.write_bytes(data)
    expected = read_fields(
        text_reader.parse_document, text_reader.parse_numbers, str, str(path)
    )
    got = read_fields(cli._parse_document, cli._numbers, cli._text, str(path))
    assert got == expected


def generated_csv(rows: int) -> bytes:
    rng = np.random.default_rng(11)
    values = rng.normal(scale=10.0, size=(rows, 4))
    lines = ["a,b,criterion,c"]
    for i, row in enumerate(values.tolist()):
        # Shortest round-trip text and six-decimal text, row by row.
        lines.append(",".join(repr(v) if i % 2 else f"{v:.6f}" for v in row))
    return ("\n".join(lines) + "\n").encode()


INGEST_CORPUS = {
    "criterion_first": b"criterion,a,b\n1,2,3\n4,5,7\n6,1,2\n",
    "criterion_middle": b"a,criterion,b\n1,2,3\n4,5,7\n6,1,2\n",
    "criterion_last": b"a,b,criterion\n1,2,3\n4,5,7\n6,1,2\n",
    "padded_cells": b"a , b,\tcriterion\n 1 ,\t2\t, 3\n4 , 5,6 \n\t7,8 ,  9\n",
    "number_forms": b"a,b,criterion\n+1,.5,1.\n-0,1e5,0001\n",
    "quoted_cells": b'a,b,criterion\n"1.5",2,3\n4,"5","6"\n',
    "utf8_bom": b"\xef\xbb\xbfa,criterion\n1,2\n3,4\n",
    "crlf": b"a,criterion\r\n1,2\r\n3,4\r\n",
    "cr_only": b"a,criterion\r1,2\r3,4\r",
    "blank_rows": b"a,criterion\n1,2\n\n3,4\n   \n \t, \n5,6\n",
    "underscore_and_arabic_indic": "a,criterion\n1_0,2\n\u0663,4\n".encode(),
    "generated_5000_rows": generated_csv(5000),
}


def assert_equals_reference(sample, data: bytes) -> None:
    labels, judgments, criterion = float_reference(data)
    assert sample.judge_labels == labels
    np.testing.assert_array_equal(sample.judgments, judgments)
    np.testing.assert_array_equal(sample.criterion, criterion)
    np.testing.assert_array_equal(np.signbit(sample.judgments), np.signbit(judgments))


needs_mkfifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


def through_fifo(tmp_path, data: bytes, read):
    """``read`` of a named pipe that a writer thread fills with ``data``.

    An error of ``read`` is raised here.  A reader still blocked after 60 s
    (one that opened the pipe again after the writer left) is released and
    the test fails, so it cannot hang the suite.
    """
    path = str(tmp_path / "pipe.csv")
    os.mkfifo(path)

    def write():
        with open(path, "wb") as pipe:
            pipe.write(data)

    result = {}

    def run():
        try:
            result["value"] = read(path)
        except Exception as err:  # raised below, on the test's thread
            result["error"] = err

    threads = [threading.Thread(target=f, daemon=True) for f in (write, run)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=60)
    if threads[1].is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        pytest.fail(f"{read.__name__} blocked on the named pipe")
    threads[0].join(timeout=60)
    assert not threads[0].is_alive()
    if "error" in result:
        raise result["error"]
    return result["value"]


def write_rows(tmp_path, header: str, rows: list[str]) -> str:
    path = tmp_path / "big.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestIngestCsv:
    def test_two_judge_fixture(self, data_csv):
        sample = ingest_csv(data_csv)
        assert sample.judge_labels == ("a", "b")
        np.testing.assert_array_equal(sample.judgments, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(sample.criterion, [2.0, 3.0])

    def test_crlf_and_trailing_newline(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,criterion\r\n1,2\r\n3,4\r\n\r\n")
        sample = ingest_csv(str(path))
        assert sample.n_trials == 2

    def test_missing_criterion_column(self, tmp_path):
        path = tmp_path / "nocrit.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(MissingCriterionColumn):
            ingest_csv(str(path))

    def test_criterion_is_case_sensitive(self, tmp_path):
        path = tmp_path / "case.csv"
        path.write_text("a,Criterion\n1,2\n3,4\n")
        with pytest.raises(MissingCriterionColumn):
            ingest_csv(str(path))

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,criterion\n1,2\nN/A,4\n")
        with pytest.raises(NonNumericCell) as exc:
            ingest_csv(str(path))
        assert exc.value.row == 3
        assert exc.value.column == "a"
        assert exc.value.value == "N/A"

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,criterion\nnan,2\n3,4\n")
        with pytest.raises(NonNumericCell):
            ingest_csv(str(path))

    def test_duplicate_judge_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,criterion\n1,2,3\n4,5,6\n")
        with pytest.raises(DuplicateJudgeLabel):
            ingest_csv(str(path))

    def test_one_row_too_small(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,criterion\n1,2\n")
        with pytest.raises(SampleTooSmall):
            ingest_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,criterion\n1,2,3\n4,5\n")
        with pytest.raises(ParseError):
            ingest_csv(str(path))

    @pytest.mark.parametrize("name", sorted(INGEST_CORPUS))
    def test_equals_per_cell_float_reference(self, name, tmp_path):
        data = INGEST_CORPUS[name]
        path = tmp_path / "corpus.csv"
        path.write_bytes(data)
        assert_equals_reference(ingest_csv(str(path)), data)

    def test_regular_file_is_parsed_by_path(self, tmp_path, monkeypatch):
        sources = []
        loadtxt = np.loadtxt

        def recording(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        path = tmp_path / "plain.csv"
        path.write_bytes(INGEST_CORPUS["generated_5000_rows"])
        ingest_csv(str(path))
        assert sources == [str(path)]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_compressed_suffix(self, suffix, tmp_path):
        data = INGEST_CORPUS["generated_5000_rows"]
        path = tmp_path / f"x{suffix}"
        path.write_bytes(data)
        assert_equals_reference(ingest_csv(str(path)), data)

    @needs_mkfifo
    def test_named_pipe_keeps_every_row(self, tmp_path):
        data = INGEST_CORPUS["generated_5000_rows"]
        sample = through_fifo(tmp_path, data, ingest_csv)
        assert sample.n_trials == 5000
        assert_equals_reference(sample, data)

    @needs_mkfifo
    @pytest.mark.parametrize(
        "data, error",
        [
            (b"a,b,criterion\n1,x,2\n3,4,3\n", NonNumericCell),
            (b'"judge\na",b,criterion\n1,2,3\n4,x,7\n', NonNumericCell),
            (INGEST_CORPUS["quoted_cells"], None),
            (b"a,b,criterion\n1,2,3\n", SampleTooSmall),
            # The bad byte lies past the block decoded to read the header.
            (b"a,b,criterion\n" + b"1,2,3\n" * 2000 + b"4,\xff,6\n", ParseError),
        ],
        ids=["bad_cell", "bad_cell_after_multiline_header", "quoted_cells", "one_row",
             "not_utf8"],
    )
    def test_named_pipe_rejected_by_fast_path(self, data, error, tmp_path):
        """The per-cell parser reads the pipe's text as it reads the file's."""
        if error is None:
            assert_equals_reference(through_fifo(tmp_path, data, ingest_csv), data)
            return
        regular = tmp_path / "regular.csv"
        regular.write_bytes(data)
        with pytest.raises(error) as expected:
            ingest_csv(str(regular))
        with pytest.raises(error) as got:
            through_fifo(tmp_path, data, ingest_csv)
        fifo = str(tmp_path / "pipe.csv")
        assert str(got.value) == str(expected.value).replace(str(regular), fifo)
        if error is NonNumericCell:
            assert (got.value.row, got.value.column) == (
                expected.value.row, expected.value.column
            )

    def test_rejected_file_is_opened_once(self, tmp_path, monkeypatch):
        opened = []

        def recording(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", recording, raising=False)
        path = tmp_path / "quoted.csv"
        path.write_bytes(INGEST_CORPUS["quoted_cells"])
        assert_equals_reference(ingest_csv(str(path)), INGEST_CORPUS["quoted_cells"])
        assert opened == [str(path)]

    def test_relative_url_like_name_is_a_file(self, tmp_path, monkeypatch):
        def urlopen(*args, **kwargs):
            pytest.fail("a local file name was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.chdir(tmp_path)
        data = INGEST_CORPUS["generated_5000_rows"]
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "x.csv").write_bytes(data)
        assert_equals_reference(ingest_csv("http://host/x.csv"), data)

    def test_header_label_with_quoted_newline(self, tmp_path):
        data = b'"judge\na",b,criterion\n1,2,3\n4,5,7\n6,1,2\n'
        path = tmp_path / "multiline.csv"
        path.write_bytes(data)
        sample = ingest_csv(str(path))
        assert sample.judge_labels == ("judge\na", "b")
        assert_equals_reference(sample, data)

    def test_multiline_header_skips_per_cell_parser(self, tmp_path, monkeypatch):
        def per_cell(*args):
            raise AssertionError("rows after a two-line header reached the parser")

        monkeypatch.setattr(cli, "_parse_cell", per_cell)
        data = b'"judge\na"' + INGEST_CORPUS["generated_5000_rows"][1:]
        path = tmp_path / "multiline.csv"
        path.write_bytes(data)
        sample = ingest_csv(str(path))
        assert sample.judge_labels == ("judge\na", "b", "c")
        assert_equals_reference(sample, data)

    def test_error_names_physical_line_after_multiline_header(self, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_bytes(b'"judge\na",b,criterion\n1,2,3\n4,x,7\n6,1,2\n')
        with pytest.raises(NonNumericCell) as exc:
            ingest_csv(str(path))
        assert (exc.value.row, exc.value.column, exc.value.value) == (4, "b", "x")

    def test_bad_byte_deep_in_large_file_is_two(self, tmp_path, capsys):
        rows = [f"{i},{i + 1},{i + 2},{i + 3},{i % 7}".encode() for i in range(60000)]
        rows[49999] = b"1,2,3\xff,4,5"  # line 50001, counting the header as 1
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join([b"a,b,c,d,criterion", *rows]) + b"\n")
        assert main(["analyze", "--data", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: not valid UTF-8 (byte 0xff)\n"
        )

    @pytest.mark.parametrize("header", ["a, ,criterion", ",criterion", "criterion,a,"])
    def test_empty_judge_label(self, header, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(header + "\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(path))
        assert str(exc.value) == f"{path} line 1: empty judge label"

    def test_plain_file_skips_per_cell_parser(self, tmp_path, monkeypatch):
        def per_cell(*args):
            raise AssertionError("plain numeric rows reached the per-cell parser")

        monkeypatch.setattr(cli, "_parse_cell", per_cell)
        path = tmp_path / "plain.csv"
        path.write_bytes(INGEST_CORPUS["generated_5000_rows"])
        assert ingest_csv(str(path)).n_trials == 5000

    @pytest.mark.parametrize("bad", ["N/A", "nan", "inf"])
    def test_bad_cell_deep_in_large_file_located(self, bad, tmp_path):
        rows = [f"{i},{i + 1},{i + 2},{i + 3},{i % 7}" for i in range(60000)]
        rows[49999] = f"1,2,{bad},4,5"  # line 50001, counting the header as 1
        path = write_rows(tmp_path, "a,b,c,d,criterion", rows)
        with pytest.raises(NonNumericCell) as exc:
            ingest_csv(path)
        assert (exc.value.row, exc.value.column, exc.value.value) == (50001, "c", bad)
        assert str(exc.value) == f"non-numeric cell {bad!r} at row 50001, column 'c'"

    def test_ragged_row_deep_in_large_file_located(self, tmp_path):
        rows = [f"{i},{i + 1},{i + 2},{i + 3},{i % 7}" for i in range(60000)]
        rows[49999] = "1,2,4,5"
        path = write_rows(tmp_path, "a,b,c,d,criterion", rows)
        with pytest.raises(ParseError) as exc:
            ingest_csv(path)
        assert str(exc.value) == f"{path} line 50001: expected 5 cells, got 4"

    def test_uniformly_short_rows_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,criterion\n1,2\n3,4\n5,6\n")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(path))
        assert str(exc.value) == f"{path} line 2: expected 3 cells, got 2"

    @pytest.mark.parametrize("rows", [0, 1], ids=["header_only", "one_row"])
    def test_too_few_rows_without_warnings(self, rows, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,criterion\n" + "1,2,3\n" * rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleTooSmall) as exc:
                ingest_csv(str(path))
        assert str(exc.value) == (
            f"{path} has {rows} data rows; at least 2 trials are needed"
        )


class TestJudgmentSample:
    def test_views_are_read_only(self, data_csv):
        for sample in (
            ingest_csv(data_csv),
            JudgmentSample(judgments=np.ones((3, 2)), criterion=np.zeros(3)),
        ):
            for array in (sample.joint, sample.judgments, sample.criterion):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_construction_from_lists(self):
        sample = JudgmentSample(
            judgments=[[1, 2], [3, 4], [5, 7]], criterion=[2, 3, 5],
            judge_labels=("a", "b"),
        )
        assert (sample.n_trials, sample.n_judges) == (3, 2)
        assert sample.judge_labels == ("a", "b")
        np.testing.assert_array_equal(sample.judgments, [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        np.testing.assert_array_equal(sample.criterion, [2.0, 3.0, 5.0])
        np.testing.assert_array_equal(sample.joint, [[1, 2, 2], [3, 4, 3], [5, 7, 5]])
        assert sample.joint.dtype == float and sample.joint.flags.c_contiguous

    def test_from_joint_does_not_copy(self):
        table = np.arange(6.0).reshape(3, 2)
        sample = JudgmentSample.from_joint(table, ("a",))
        assert np.shares_memory(sample.joint, table)
        assert table.flags.writeable

    @pytest.mark.parametrize("name", sorted(INGEST_CORPUS))
    def test_estimate_keeps_the_column_stack_bits(self, name, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(INGEST_CORPUS[name])
        model = estimate_model(ingest_csv(str(path)))
        _, judgments, criterion = float_reference(INGEST_CORPUS[name])
        stacked = np.column_stack([judgments, criterion])
        constant = (stacked == stacked[0]).all(axis=0)
        means = np.where(constant, stacked[0], stacked.mean(axis=0))
        centered = stacked - means
        joint = centered.T @ centered / (len(stacked) - 1)
        n = judgments.shape[1]
        assert model.judge_means.tobytes() == means[:n].tobytes()
        assert model.judge_cov.tobytes() == np.ascontiguousarray(joint[:n, :n]).tobytes()
        assert model.cross_cov.tobytes() == np.ascontiguousarray(joint[:n, n]).tobytes()
        assert (model.criterion_mean, model.criterion_var) == (means[n], joint[n, n])


class TestModelFiles:
    def test_round_trip_is_exact(self, data_csv, tmp_path):
        model = estimate_model(ingest_csv(data_csv))
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        np.testing.assert_array_equal(loaded.judge_means, model.judge_means)
        np.testing.assert_array_equal(loaded.judge_cov, model.judge_cov)
        np.testing.assert_array_equal(loaded.cross_cov, model.cross_cov)
        assert loaded.criterion_mean == model.criterion_mean
        assert loaded.criterion_var == model.criterion_var
        assert loaded.judge_labels == model.judge_labels

    def test_single_judge_file(self, tmp_path):
        model = fixed_criterion_model([0.5], [[2.0]], 1.0, judge_labels=("solo",))
        path = tmp_path / "one.txt"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.n_judges == 1
        assert loaded.judge_labels == ("solo",)

    @pytest.mark.parametrize(
        "labels, reason",
        [
            (("", "b"), "cannot be stored"),
            ((" a", "b"), "cannot be stored"),
            (("a,c", "b"), "cannot be stored"),
            (("a=c", "b"), "cannot be stored"),
            (("a\nb", "c"), "cannot be stored"),
            (("a\rb", "c"), "cannot be stored"),
            (("a", "a"), r"duplicated judge labels .*\['a'\]"),
        ],
        ids=["empty", "padded", "comma", "equals", "newline", "return", "duplicated"],
    )
    def test_unstorable_labels_refused_before_writing(self, tmp_path, labels, reason):
        model = fixed_criterion_model([0.0, 1.0], np.eye(2), 0.5, judge_labels=labels)
        path = tmp_path / "model.txt"
        with pytest.raises(ParseError, match=reason):
            save_model(model, str(path))
        assert not path.exists()

    def test_non_psd_model_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1.0, 2.0, 2.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 0.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        with pytest.raises(ValidationFailed):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.txt"
        path.write_text("judge_labels = a\njudge_means = 0.0\n")
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "noeq.txt"
        path.write_text("judge_labels a\n")
        with pytest.raises(ParseError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "1_0, 2", "\u0661, 2", " 1.5 ,+1", "-0, 0", "5e-324, 1e308", "1e-5,-2.5E3",
         "1e-0", "1E-0, -0",
         # Many zeros and exponents of -0, in blocks with and without a -0.
         pytest.param(", ".join(["0", "0.0", "1e-0", "-0.0", "2E-0"] * 30000) + ", -0",
                      id="zero-heavy")],
    )
    def test_numbers_equal_the_float_list(self, text):
        assert_parses_as_float_does(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x", "m.txt: field 'judge_cov' is not a list of numbers"),
            ("1,,2", "m.txt: field 'judge_cov' is not a list of numbers"),
            ("1, nan", "m.txt: non-finite values in judge_cov"),
            ("inf", "m.txt: non-finite values in judge_cov"),
        ],
    )
    def test_bad_numbers_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            cli._parse_numbers(text, "m.txt", "judge_cov")
        assert str(exc.value) == message

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_rendered_floats_keep_their_bits(self, values):
        text = cli._format_value(values)
        parsed = cli._parse_numbers(text, "m.txt", "judge_cov")
        assert parsed.tobytes() == np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "text",
        ["1_0", "\u0661", "1,,2", "1,2,", "0x1p3", "1 2", "1d0", "x", "1x", "-nan",
         " ", "\t", "1, ", "1, ,2", "-1, ", "-1, -1", "nan(x)", "1e400", "Infinity",
         ".5, 1.", "1,\u0661"] + JSON_EDGE_TEXT,
    )
    def test_edge_text_parses_as_float_does(self, text):
        assert_parses_as_float_does(text)

    @given(text=st.lists(decimal_tokens(), min_size=1, max_size=20).map(", ".join))
    @settings(max_examples=500, deadline=None)
    def test_decimal_text_keeps_float_bits(self, text):
        assert_parses_as_float_does(text)

    @given(
        tokens=st.lists(
            st.one_of(decimal_tokens(), st.sampled_from(JSON_EDGE_TEXT)), min_size=1, max_size=30
        ),
        block_chars=st.integers(1, 40),
    )
    @settings(max_examples=500, deadline=None)
    def test_short_blocks_parse_as_float_does(self, tokens, block_chars):
        # Every token, good or bad, lands at some block cut.
        with mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
            assert_parses_as_float_does(",".join(tokens))

    @pytest.mark.parametrize("token", ["-0", "true", "x", "-0 ", " -0"])
    @pytest.mark.parametrize("side", ["before", "after"])
    def test_token_at_a_block_cut_of_a_long_field(self, token, side):
        values = np.random.default_rng(3).normal(size=2 * cli._BLOCK_CHARS // 10)
        fields = [repr(float(v)) for v in values]
        cut = ",".join(fields).find(",", cli._BLOCK_CHARS)
        at = ",".join(fields)[:cut].count(",") + (side == "after")
        fields[at] = token
        assert len(",".join(fields)) > cli._BLOCK_CHARS
        assert_parses_as_float_does(",".join(fields))

    def test_import_leaves_orjson_unloaded(self):
        # orjson is imported by the first parse, so start-up does not pay for it.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        code = "import sys, crowdwise.cli; print('orjson' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_wrong_cov_size_rejected(self, tmp_path):
        path = tmp_path / "shape.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1.0, 0.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 0.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_duplicate_judge_labels_rejected(self, tmp_path, capsys):
        path = tmp_path / "dupes.txt"
        path.write_text(VALID_MODEL.replace("judge_labels = a, b", "judge_labels = b ,b"))
        message = f"{path} has duplicated judge labels: ['b']"
        with pytest.raises(DuplicateJudgeLabel) as exc:
            load_model(str(path))
        assert str(exc.value) == message
        assert main(["optimize", "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @given(values=st.lists(st.floats(), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_float_array_renders_as_its_elements(self, values):
        rendered = ", ".join(cli._format_value(float(v)) for v in values)
        assert cli._format_value(np.array(values, dtype=float)) == rendered
        assert cli._format_value((True, False, 1, 2.5)) == "true, false, 1, 2.5"


class TestByteReader:
    """The byte reader gives every field the text and the numbers the text
    reader (``text_reader``) gave it, or raises the same ParseError."""

    @pytest.mark.parametrize(
        "data",
        [
            b"\xef\xbb\xbfjudge_cov = 1, 2\r\nk = 3\r\n",
            b"a = 1\rb = -0, 2\r\r\nc = \r",
            b"\x1c judge_cov \x1f= \x0b1,\xc2\xa02 \xe3\x80\x80\n",
            b"k = \xd9\xa1, 2\nj = \xc2\x85\ni =  \x1c\x0c\n",
            b"\xc2\x85# k = 1\n\xe3\x80\x80\n#\n k \n",
            b"k = 1\n# caf\xc3\xa9 = 1\nk = 2\n",
            b"no equals\n# \xff\n",
            b"k = 1\nk = 2\n# caf\xc3\n",
            b"= 1\n \t = \n",
            b"k = 1e-0, 1E-0, -0",
        ],
    )
    def test_edge_documents(self, data, tmp_path):
        assert_reads_as_text_reader(data, tmp_path / "doc.txt")

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_a_lone_bom_prefix_is_not_utf8(self, data, tmp_path):
        # The text reader's incremental utf-8-sig decoder dropped these bytes
        # and read an empty document.
        path = tmp_path / "doc.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            cli._parse_document(str(path))
        assert str(exc.value) == f"{path}: not valid UTF-8 (byte 0xef)"

    @needs_mkfifo
    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    @pytest.mark.parametrize("command", ["analyze", "candidate"])
    def test_a_lone_bom_prefix_in_a_csv_is_not_utf8(self, data, command, tmp_path, capsys):
        # The CSV readers' incremental utf-8-sig decoder read these bytes as
        # an empty file.
        model = tmp_path / "model.txt"
        model.write_text(VALID_MODEL)
        if command == "analyze":
            read, argv = ingest_csv, ["analyze", "--data"]
        else:
            read = lambda path: read_candidates(path, load_model(str(model)))  # noqa: E731
            argv = ["candidate", "--model", str(model), "--candidates"]
        path = str(tmp_path / "partial.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        pipe = str(tmp_path / "pipe.csv")
        for name, source in [
            (path, lambda: read(path)),
            (pipe, lambda: through_fifo(tmp_path, data, read)),
        ]:
            with pytest.raises(ParseError) as exc:
                source()
            assert str(exc.value) == f"{name}: not valid UTF-8 (byte 0xef)"
        assert main([*argv, path]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: not valid UTF-8 (byte 0xef)\n")

    @given(data=documents(), block_chars=st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 16]))
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_generated_documents(self, data, block_chars, tmp_path):
        # With short blocks, every token, good or bad, lands at some cut.
        with mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
            assert_reads_as_text_reader(data, tmp_path / "doc.txt")


def counted_model(kind: str) -> CrowdModel:
    """N=50 models for counting eigensolves; all but two are invalid."""
    model = random_model(50, seed=29, criterion_var=0.0 if kind == "fixed" else 1.0)
    cov, var, cross = model.judge_cov, model.criterion_var, model.cross_cov
    if kind == "indefinite":
        cov = matrix_with_spectrum([-1.0] + [1.0] * 49, seed=29)
    elif kind == "negative variance":
        var = -1.0
    elif kind == "inconsistent":
        cross = 10.0 * np.sqrt(np.diag(cov))
    return CrowdModel(model.judge_means, cov, model.criterion_mean, var, cross)


class TestEigensolveCount:
    def test_well_conditioned_load_and_optimize_factor_once(self, tmp_path, linalg_calls):
        path = str(tmp_path / "m.txt")
        save_model(counted_model("well-conditioned"), path)
        solution = optimal_weights(load_model(path))
        assert solution.kkt_residual <= 1e-10
        assert linalg_calls == {"eigvalsh": 0, "lstsq": 0}

    @pytest.mark.parametrize(
        "kind, separate_spectra",
        [("fixed", 3), ("indefinite", 1), ("negative variance", 1), ("inconsistent", 2)],
    )
    def test_no_more_eigensolves_than_separate_spectra(
        self, kind, separate_spectra, tmp_path, linalg_calls
    ):
        # ``separate_spectra``: the count when judge_cov, the joint matrix and
        # Q each had their own eigensolve (Q's only once the model loads).
        path = str(tmp_path / "m.txt")
        save_model(counted_model(kind), path)
        if kind == "fixed":
            optimal_weights(load_model(path))
            # The solver decides uniqueness without Q's spectrum, so only
            # judge_cov's and the joint matrix's remain.
            assert linalg_calls["eigvalsh"] == separate_spectra - 1
        else:
            with pytest.raises(ValidationFailed):
                load_model(path)
        assert linalg_calls["eigvalsh"] <= separate_spectra


class TestAnalyzeCommand:
    def test_hand_computed_report(self, data_csv, capsys):
        code = main(["analyze", "--data", data_csv, "--format", "machine"])
        assert code == 0
        fields = machine_fields(capsys.readouterr().out)
        assert fields["schema_version"] == "1"
        assert float(fields["crowd_mse"]) == pytest.approx(0.5, abs=1e-9)
        assert float(fields["individual_mse"]) == pytest.approx(0.75, abs=1e-9)
        assert float(fields["wisdom_gap"]) == pytest.approx(0.25, abs=1e-9)
        assert fields["is_wise"] == "true"
        assert float(fields["crowd_bias_sq"]) == pytest.approx(0.0, abs=1e-12)
        assert float(fields["crowd_variance"]) == pytest.approx(2.0, abs=1e-9)
        assert float(fields["crowd_cross_term"]) == pytest.approx(-2.0, abs=1e-9)
        assert float(fields["criterion_var"]) == pytest.approx(0.5, abs=1e-9)
        assert floats(fields["per_judge_mse"]) == pytest.approx([0.75, 0.75], abs=1e-9)
        assert floats(fields["skill"]) == pytest.approx([1.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["optimize"],
            ["candidate", "--uniform-gain"],
            ["simulate", "--trials", "500", "--seed", "5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_every_human_number_is_in_machine_report(
        self, argv, data_csv, tmp_path, capsys
    ):
        if argv[0] == "candidate":
            cands = tmp_path / "cands.csv"
            cands.write_text(
                "label,mean,variance,cov_with_criterion,a,b\n"
                "steady,2.5,0.25,0.1,0.2,0.2\n"
                "hedge,2.0,1.5,0.2,-0.5,-0.5\n"
            )
            argv = argv + ["--candidates", str(cands)]
        argv = argv + ["--data", data_csv]
        assert main(argv + ["--format", "machine"]) == 0
        machine = machine_fields(capsys.readouterr().out)
        assert main(argv) == 0
        human = capsys.readouterr().out
        assert human.strip()
        machine_numbers = set()
        for value in machine.values():
            for part in value.split(","):
                try:
                    machine_numbers.add(float(part))
                except ValueError:
                    pass
        for token in human.replace(",", " ").split():
            try:
                number = float(token)
            except ValueError:
                continue
            assert any(
                number == pytest.approx(m, rel=1e-9, abs=1e-9)
                for m in machine_numbers
            ), f"human value {number} missing from machine report"

    def test_human_layout(self, data_csv, capsys):
        # Hand-computed values of BASIC_CSV: 0.5 = 0.75 - 0.25.
        assert main(["analyze", "--data", data_csv]) == 0
        assert capsys.readouterr().out == (
            "crowd of 2 judge(s)\n"
            "  crowd MSE        0.5\n"
            "    bias^2         0\n"
            "    variance       2\n"
            "    cross term     -2\n"
            "    criterion var  0.5\n"
            "  individual MSE   0.75\n"
            "  wisdom gap       0.25\n"
            "  wise             true\n"
            "  judge            weight       selection    per-judge MSE  skill\n"
            "  a                0.5          0.5          0.75           1\n"
            "  b                0.5          0.5          0.75           1\n"
        )

    @pytest.mark.parametrize(
        "argv, note",
        [
            (["analyze"], "  note: undefined: criterion variance is zero"),
            (["optimize"], "  note: minimizer may not be unique (singular curvature)"),
            (["simulate", "--trials", "1"], "  note: single trial, standard errors reported as zero"),
        ],
        ids=["skill_note", "possibly_nonunique", "degenerate_se"],
    )
    def test_human_notes(self, argv, note, tmp_path, capsys):
        # A fixed criterion and two identical judges: no skill, singular Q.
        path = tmp_path / "twins.txt"
        save_model(fixed_criterion_model([0.0, 0.0], np.ones((2, 2)), 0.0), str(path))
        assert main(argv + ["--model", str(path)]) == 0
        assert note in capsys.readouterr().out.splitlines()

    def test_file_path_equals_in_memory_path(self, data_csv, tmp_path, capsys):
        # ingest -> estimate -> save -> load -> analyze vs direct evaluation
        sample = ingest_csv(data_csv)
        model = estimate_model(sample)
        model_path = tmp_path / "round.txt"
        save_model(model, str(model_path))
        assert main(["analyze", "--model", str(model_path), "--format", "machine"]) == 0
        fields = machine_fields(capsys.readouterr().out)
        direct = evaluate(model, uniform_weights(2), uniform_selection(2))
        assert float(fields["crowd_mse"]) == pytest.approx(direct.crowd_mse, abs=1e-12)
        assert float(fields["individual_mse"]) == pytest.approx(
            direct.individual_mse, abs=1e-12
        )
        assert float(fields["wisdom_gap"]) == pytest.approx(direct.wisdom_gap, abs=1e-12)

    def test_skill_note_for_fixed_criterion(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0)
        path = tmp_path / "fixed.txt"
        save_model(model, str(path))
        assert main(["analyze", "--model", str(path), "--format", "machine"]) == 0
        fields = machine_fields(capsys.readouterr().out)
        assert "skill" not in fields
        assert "undefined" in fields["skill_note"]

    def test_explicit_weights_file(self, data_csv, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text("0.25, 0.75\n")
        code = main(
            ["analyze", "--data", data_csv, "--weights", str(wpath), "--format", "machine"]
        )
        assert code == 0
        fields = machine_fields(capsys.readouterr().out)
        assert floats(fields["weights"]) == pytest.approx([0.25, 0.75])


class TestOptimizeCommand:
    def test_reports_solution_and_verdict(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert main(["optimize", "--model", str(path), "--format", "machine"]) == 0
        fields = machine_fields(capsys.readouterr().out)
        assert floats(fields["weights"]) == pytest.approx([0.8, 0.2], abs=1e-8)
        assert float(fields["objective"]) == pytest.approx(0.8, abs=1e-9)
        assert float(fields["kkt_residual"]) <= 1e-8
        assert fields["is_wise"] == "true"


class TestCandidateCommand:
    def test_ranked_output(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0, judge_labels=("j1",))
        model_path = tmp_path / "crowd.txt"
        save_model(model, str(model_path))
        cand_path = tmp_path / "cands.csv"
        cand_path.write_text(
            "label,mean,variance,cov_with_criterion,j1\n"
            "steady,0,0.25,0,0\n"
            "hedge,0,1,0,-1\n"
        )
        code = main(
            [
                "candidate",
                "--model",
                str(model_path),
                "--candidates",
                str(cand_path),
                "--format",
                "machine",
            ]
        )
        assert code == 0
        fields = machine_fields(capsys.readouterr().out)
        assert fields["candidate_1_label"] == "hedge"
        assert float(fields["candidate_1_marginal_gain"]) == pytest.approx(1.0, abs=1e-9)
        assert fields["candidate_2_label"] == "steady"
        assert float(fields["candidate_2_marginal_gain"]) == pytest.approx(0.8, abs=1e-9)

    def test_header_must_match_model_labels(self, tmp_path):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0, judge_labels=("j1",))
        model_path = tmp_path / "crowd.txt"
        save_model(model, str(model_path))
        cand_path = tmp_path / "cands.csv"
        cand_path.write_text("label,mean,variance,cov_with_criterion,wrong\nc,0,1,0,0\n")
        loaded = load_model(str(model_path))
        with pytest.raises(ParseError):
            read_candidates(str(cand_path), loaded)

    @needs_mkfifo
    def test_candidates_through_named_pipe(self, tmp_path):
        model = fixed_criterion_model([0.0], [[1.0]], 0.0, judge_labels=("j1",))
        data = (
            b"label,mean,variance,cov_with_criterion,j1\n"
            b"steady,0,0.25,0,0\n\nhedge,0,1,0,-1\n"
        )
        cand_path = tmp_path / "cands.csv"
        cand_path.write_bytes(data)
        expected, expected_labels = read_candidates(str(cand_path), model)
        candidates, labels = through_fifo(
            tmp_path, data, lambda path: read_candidates(path, model)
        )
        assert labels == expected_labels == ["steady", "hedge"]
        for got, want in zip(candidates, expected):
            assert (got.mean, got.variance, got.cov_with_criterion) == (
                want.mean, want.variance, want.cov_with_criterion
            )
            np.testing.assert_array_equal(got.cov_with_members, want.cov_with_members)


    @pytest.mark.parametrize(
        "crowd, row, weight, mse_after",
        [
            # A candidate 1e300 times the crowd's scale takes a weight of
            # about 1e-300 and gains nothing.
            (
                ("0, 0.5", "1, 0.3, 0.3, 2", "0.5, 0.4"),
                "big,0,1e300,0,0,0",
                3.415e-301,
                0.8641509433962264,
            ),
            # A crowd of variances 1e160 gives all but about 1e-160 of its
            # weight to a unit-scale candidate.
            (
                ("0, 0", "1e160, 0, 0, 1e160", "0, 0"),
                "hedge,0.1,1,0.2,-0.3,0.1",
                1.0,
                1.61,
            ),
        ],
        ids=["big", "hedge"],
    )
    def test_candidate_at_another_scale_is_ranked(
        self, tmp_path, capsys, crowd, row, weight, mse_after
    ):
        means, cov, cross_cov = crowd
        model = tmp_path / "crowd.txt"
        model.write_text(
            "judge_labels = a, b\n"
            f"judge_means = {means}\n"
            f"judge_cov = {cov}\n"
            "criterion_mean = 0\n"
            "criterion_var = 1\n"
            f"cross_cov = {cross_cov}\n"
        )
        cands = tmp_path / "cands.csv"
        cands.write_text(f"label,mean,variance,cov_with_criterion,a,b\n{row}\n")
        argv = ["candidate", "--model", str(model), "--candidates", str(cands)]
        assert main(argv + ["--format", "machine"]) == 0
        fields = machine_fields(capsys.readouterr().out)
        assert fields["n_failures"] == "0"
        assert float(fields["candidate_1_weight"]) == pytest.approx(weight, rel=1e-3)
        assert float(fields["candidate_1_crowd_mse_after"]) == pytest.approx(mse_after, rel=1e-12)

    @staticmethod
    def crowd_with_a_constant_judge(tmp_path) -> tuple[str, str]:
        """A model whose judge b never varies, and one candidate for it."""
        model = tmp_path / "crowd.txt"
        model.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1.0, 0.0, 0.0, 0.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.5, 0.0\n"
        )
        cands = tmp_path / "cands.csv"
        cands.write_text("label,mean,variance,cov_with_criterion,a,b\nc1,0.1,1.5,0.3,0.2,0\n")
        return str(model), str(cands)

    def test_skill_beside_a_constant_judge(self, tmp_path, capsys):
        model, cands = self.crowd_with_a_constant_judge(tmp_path)
        argv = ["candidate", "--model", model, "--candidates", cands, "--format", "machine"]
        assert main(argv) == 0
        fields = machine_fields(capsys.readouterr().out)
        assert fields["candidate_1_skill"] == "0.24494897427831783"

    def test_selection_file_is_a_usage_error(self, tmp_path, capsys):
        # A file holds one entry per judge of the crowd, none for the candidate.
        model, cands = self.crowd_with_a_constant_judge(tmp_path)
        selection = tmp_path / "p.txt"
        selection.write_text("0.5, 0.5\n")
        argv = ["candidate", "--model", model, "--candidates", cands]
        assert main(argv + ["--selection", str(selection)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error: argument --selection: invalid choice: ")

    def test_help_lists_only_the_named_rules(self, capsys):
        with pytest.raises(SystemExit):
            main(["candidate", "--help"])
        out = capsys.readouterr().out
        assert "--selection {uniform,skill,best}" in out
        assert "FILE" not in out


class TestReadCandidates:
    HEADER = "label,mean,variance,cov_with_criterion,a,b\n"
    MODEL = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0, judge_labels=("a", "b"))

    def read(self, tmp_path, rows: str):
        path = tmp_path / "cands.csv"
        path.write_text(self.HEADER + rows)
        return read_candidates(str(path), self.MODEL)

    def test_rows_equal_the_per_cell_parse(self, tmp_path):
        rows = 'c,1_0, 2 ,"3",0,-0.5\nd,.5,1e-3,\t-0,"4", 5\ne,0,1,0,0,0\n'
        candidates, labels = self.read(tmp_path, rows)
        assert labels == ["c", "d", "e"]
        for got, row in zip(candidates, csv.reader(io.StringIO(rows))):
            want = [float(cell.strip()) for cell in row[1:]]
            values = [got.mean, got.variance, got.cov_with_criterion, *got.cov_with_members]
            assert np.array(values).tobytes() == np.array(want).tobytes()

    def test_rows_orjson_reads_equal_the_per_cell_parse(self, tmp_path):
        # Unlike the cells above, these are all JSON numbers; each reads as float() reads it.
        rows = 'c,10, 2 ,"3",0,-0.5\nd,0.5,1e-3,\t-0.0,"4", 5\ne,0,1,0,0,1e-320\n'
        candidates, labels = self.read(tmp_path, rows)
        assert labels == ["c", "d", "e"]
        for got, row in zip(candidates, csv.reader(io.StringIO(rows))):
            want = [float(cell.strip()) for cell in row[1:]]
            values = [got.mean, got.variance, got.cov_with_criterion, *got.cov_with_members]
            assert np.array(values).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("cell", ["x", '"1,5"', "nan", " ", "1e400"])
    def test_bad_cell_named_by_line_and_column(self, cell, tmp_path):
        with pytest.raises(NonNumericCell) as caught:
            self.read(tmp_path, f"c,0,1,0,0,0\n\nd,0,1,0,{cell},0\n")
        assert (caught.value.row, caught.value.column) == (4, "a")

    @pytest.mark.parametrize(
        "later",
        [",0,1,0,0,0", "d,0,1", "d,0,1,0,0,0\n" * 2000 + "d,0,1,0,0,\xff"],
        ids=["empty label", "short row", "not UTF-8"],
    )
    def test_first_bad_row_is_the_one_named(self, later, tmp_path):
        # A bad cell is named before an empty label, a short row or a byte
        # that is not UTF-8 on a later line (past the first block decoded).
        path = tmp_path / "cands.csv"
        path.write_bytes((self.HEADER + f"c,0,1,0,x,0\n{later}\n").encode("latin-1"))
        with pytest.raises(NonNumericCell) as caught:
            read_candidates(str(path), self.MODEL)
        assert (caught.value.row, caught.value.column) == (2, "a")


class TestSimulateCommand:
    def test_fixed_seed_byte_identical(self, data_csv, capsys):
        argv = [
            "simulate",
            "--data",
            data_csv,
            "--trials",
            "5000",
            "--seed",
            "7",
            "--format",
            "machine",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_analytic_beside_empirical(self, data_csv, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--data",
                    data_csv,
                    "--trials",
                    "20000",
                    "--seed",
                    "3",
                    "--format",
                    "machine",
                ]
            )
            == 0
        )
        fields = machine_fields(capsys.readouterr().out)
        assert float(fields["analytic_crowd_mse"]) == pytest.approx(0.5, abs=1e-9)
        emp = float(fields["empirical_crowd_mse"])
        se = float(fields["crowd_mse_se"])
        assert abs(emp - 0.5) <= 4.0 * se


class TestSweepCommand:
    def test_one_row_per_cell_with_infeasible_marked(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "bias_scale = 0, 1\ncorrelation = -0.6, 0.2\nn_judges = 2, 3\n"
        )
        assert main(["sweep", "--sweep-grid", str(grid)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("bias_scale,correlation,n_judges,status")
        assert len(rows) == 8
        # rho = -0.6 is infeasible for 3 judges (floor -0.5) but fine for 2.
        statuses = {}
        for row in rows:
            cells = row.split(",")
            statuses[(cells[0], cells[1], cells[2])] = cells[3]
        assert statuses[("0.0", "-0.6", "3")] == "infeasible_correlation"
        assert statuses[("0.0", "-0.6", "2")] == "ok"
        ok_row = next(r for r in rows if r.split(",")[3] == "ok")
        cells = ok_row.split(",")
        assert float(cells[8]) >= float(cells[7]) - 1e-12  # optimal gap >= uniform gap

    def test_grid_checked_before_any_cell_is_solved(
        self, tmp_path, monkeypatch, capsys
    ):
        def solve(*args, **kwargs):
            raise AssertionError("a cell was solved before the grid was checked")

        monkeypatch.setattr(cli, "optimal_weights", solve)
        path = tmp_path / "grid.txt"
        path.write_text("correlation = 0.0, 1.5\n")
        assert main(["sweep", "--sweep-grid", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: correlation values must lie in [-1, 1]\n"

    def test_default_grid_runs(self, capsys):
        assert main(["sweep"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4 * 6 * 4

    def test_non_converging_cell_keeps_the_grid(self, tmp_path, capsys):
        # One judge certifies at iteration 0; three cannot without a step.
        grid = tmp_path / "grid.txt"
        grid.write_text("bias_scale = 0, 1\ncorrelation = 0.2\nn_judges = 1, 3\n")
        argv = ["sweep", "--sweep-grid", str(grid), "--max-iterations", "0"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert {row[3] for row in rows} <= {"ok", "no_convergence"}
        failed = [row for row in rows if row[3] == "no_convergence"]
        assert failed
        assert all(row[4:] == [""] * 5 for row in failed)

    @staticmethod
    def sweep_rows(tmp_path, capsys, bias: str) -> list[list[str]]:
        grid = tmp_path / "grid.txt"
        grid.write_text(f"bias_scale = {bias}\ncorrelation = 0.0, 0.5\nn_judges = 1, 3\n")
        assert main(["sweep", "--sweep-grid", str(grid)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            if row[3] == "ok":
                assert all(math.isfinite(float(v)) for v in row[4:]), row
            else:
                assert row[4:] == [""] * 5
        return rows

    def test_cell_whose_crowd_is_refused_keeps_the_grid(self, tmp_path, capsys):
        # Offsets of 1e308 overflow the judge means, which the model refuses.
        rows = self.sweep_rows(tmp_path, capsys, "0, 1e308, 1.7e308")
        assert len(rows) == 12
        assert [row[3] for row in rows[:4]] == ["ok"] * 4
        assert "invalid_model" in {row[3] for row in rows[4:]}

    def test_cell_whose_values_overflow_is_non_finite(self, tmp_path, capsys):
        # Offsets of 1e160 are finite, but their squares overflow.
        rows = self.sweep_rows(tmp_path, capsys, "0, 1e160")
        assert len(rows) == 8
        assert [row[3] for row in rows[:4]] == ["ok"] * 4
        assert {row[3] for row in rows[4:]} <= {"non_finite", "no_convergence"}
        assert "non_finite" in {row[3] for row in rows[4:]}

    @pytest.mark.parametrize(
        "grid",
        [
            "n_judges = inf\n",
            "bias_scale = nan\n",
            "correlation = nan\n",
            "correlation = 0.0, 1.5\n",
            "bias_scales = 7\nn_judge = 3\n",
            "n_judges = 3, 1073741824\n",
        ],
        ids=["n_judges_inf", "bias_scale_nan", "correlation_nan", "correlation_1.5",
             "misspelt_keys", "n_judges_2^30"],
    )
    def test_bad_grid_is_two_with_empty_stdout(self, grid, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text(grid)
        assert main(["sweep", "--sweep-grid", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_success_is_zero(self, data_csv, capsys):
        assert main(["analyze", "--data", data_csv]) == 0
        capsys.readouterr()

    def test_usage_errors_are_one(self, data_csv, capsys):
        assert main(["analyze"]) == 1  # no input source
        assert main(["analyze", "--data", data_csv, "--model", "x"]) == 1
        assert main(["nonsense"]) == 1
        assert main(["simulate", "--data", data_csv, "--trials", "0"]) == 1
        assert main(["sweep", "--data", data_csv]) == 1
        err = capsys.readouterr().err
        assert err  # detail lands on stderr

    def test_data_errors_are_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["analyze", "--data", str(missing)]) == 2

        nocrit = tmp_path / "nocrit.csv"
        nocrit.write_text("a,b\n1,2\n3,4\n")
        assert main(["analyze", "--data", str(nocrit)]) == 2

        bad_cell = tmp_path / "cell.csv"
        bad_cell.write_text("a,criterion\nx,2\n3,4\n")
        assert main(["analyze", "--data", str(bad_cell)]) == 2

        non_psd = tmp_path / "npsd.txt"
        non_psd.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1.0, 2.0, 2.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 0.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        assert main(["optimize", "--model", str(non_psd)]) == 2

        out, err = capsys.readouterr()
        assert "error" in err
        assert out.strip() == ""  # reports never land on stdout for failures

    def test_skill_of_constant_judge_is_two(self, tmp_path, capsys):
        # The constant judge's sample variance is exactly zero.
        path = tmp_path / "constant.csv"
        path.write_text("a,b,criterion\n0.1,1,2\n0.1,3,3\n0.1,2,7\n")
        argv = ["analyze", "--data", str(path), "--weights", "skill", "--format", "machine"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: skill undefined for zero-variance judges at indices [0]\n"

    def test_skill_scheme_on_fixed_criterion_is_two(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0)
        path = tmp_path / "fixed.txt"
        save_model(model, str(path))
        assert main(["analyze", "--model", str(path), "--weights", "skill"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_non_finite_model_file_is_two(self, command, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = nan, 3.0\n"
            "judge_cov = 1.0, 0.0, 0.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        assert main([command, "--model", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "non-finite values in judge_means" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["criterion_mean", "criterion_var"])
    def test_non_finite_criterion_names_the_file(self, key, value, tmp_path, capsys):
        path = tmp_path / "m.txt"
        lines = [
            f"{key} = {value}" if line.startswith(key) else line
            for line in VALID_MODEL.splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: non-finite values in {key}\n")

    @pytest.mark.parametrize("flag", ["--weights", "--selection"])
    def test_non_finite_vector_file_is_two(self, flag, data_csv, tmp_path, capsys):
        path = tmp_path / "vector.txt"
        path.write_text("inf, 0.0\n")
        assert main(["analyze", "--data", data_csv, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: non-finite values in {flag[2:]}\n"

    @pytest.mark.parametrize("flag", ["--weights", "--selection"])
    def test_weights_summing_past_the_largest_float_are_two(
        self, flag, data_csv, tmp_path, capsys
    ):
        path = tmp_path / "vector.txt"
        path.write_text("1e308, 1e308\n")
        assert main(["analyze", "--data", data_csv, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: {flag[2:]} entries sum past the largest float\n"

    @pytest.mark.parametrize("flag", ["--weights", "--selection"])
    def test_negative_vector_file_is_two(self, flag, data_csv, tmp_path, capsys):
        path = tmp_path / "vector.txt"
        path.write_text("0.5, -1\n")
        assert main(["analyze", "--data", data_csv, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {path}: {flag[2:]} entries must be nonnegative and finite, "
            "got [0.5, -1.0]\n"
        )

    @pytest.mark.parametrize(
        "files, argv, code, err",
        [
            pytest.param(
                {"x.csv": ""}, "analyze --data {d}/x.csv", 2, "error: {d}/x.csv is empty",
                id="empty csv",
            ),
            pytest.param(
                {"x.csv": "criterion,a,criterion\n1,2,3\n4,5,6\n"},
                "analyze --data {d}/x.csv",
                2,
                "error: {d}/x.csv has multiple 'criterion' columns",
                id="two criterion columns",
            ),
            pytest.param(
                {"x.csv": "criterion\n1\n2\n"},
                "analyze --data {d}/x.csv",
                2,
                "error: {d}/x.csv has no judge columns besides 'criterion'",
                id="no judge columns",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL + "criterion_var = 2.0\n"},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt line 7: duplicate key 'criterion_var'",
                id="duplicate model key",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL + "tolerance = 7\n"},
                "optimize --model {d}/m.txt",
                2,
                "error: {d}/m.txt: unknown keys ['tolerance']",
                id="unknown model key",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL.replace("a, b", "a, , b")},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt: empty judge label",
                id="empty judge label",
            ),
            pytest.param(
                {"x.csv": "a, ,criterion\n1,2,3\n4,5,6\n"},
                "analyze --data {d}/x.csv",
                2,
                "error: {d}/x.csv line 1: empty judge label",
                id="empty csv judge label",
            ),
            pytest.param(
                {"x.csv": BASIC_CSV,
                 "c.csv": "label,mean,variance,cov_with_criterion,a,b\nc,0,1,0,0,0\n ,0,1,0,0,0\n"},
                "candidate --data {d}/x.csv --candidates {d}/c.csv",
                2,
                "error: {d}/c.csv line 3: empty candidate label",
                id="empty candidate label",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL.replace("judge_means = 0.0,", "judge_means =")},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt: 1 judge_means for 2 labels",
                id="judge_means count",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL.replace("cross_cov = 0.0,", "cross_cov = 0.0, 0.0,")},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt: 3 cross_cov entries for 2 labels",
                id="cross_cov count",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL.replace("criterion_mean = 0.0", "criterion_mean = x")},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt: criterion_mean and criterion_var must be numbers",
                id="non-numeric criterion_mean",
            ),
            pytest.param(
                {"m.txt": None},
                "analyze --model {d}/m.txt",
                2,
                "error: cannot read {d}/m.txt: [Errno 21] Is a directory: '{d}/m.txt'",
                id="directory as model",
            ),
            pytest.param(
                {"x.csv": BASIC_CSV, "w.txt": "0.2 0.3 0.5\n"},
                "analyze --data {d}/x.csv --weights {d}/w.txt",
                2,
                "error: {d}/w.txt: weights file has 3 entries for 2 judges",
                id="weights count",
            ),
            pytest.param(
                {"g.txt": "n_judges = 2.5\n"},
                "sweep --sweep-grid {d}/g.txt",
                2,
                "error: {d}/g.txt: n_judges must be positive integers",
                id="fractional grid size",
            ),
            pytest.param(
                {"x.csv": BASIC_CSV, "c.csv": "label,mean,variance,cov_with_criterion,a,b\n"},
                "candidate --data {d}/x.csv --candidates {d}/c.csv",
                2,
                "error: {d}/c.csv lists no candidates",
                id="no candidates",
            ),
            pytest.param(
                {"x.csv": BASIC_CSV},
                "simulate --data {d}/x.csv --trials x",
                1,
                "usage error: argument --trials: must be an integer >= 1, got 'x'",
                id="non-numeric trials",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL},
                "optimize --model {d}/m.txt --max-iterations -5",
                1,
                "usage error: argument --max-iterations: must be an integer >= 0, got '-5'",
                id="negative max iterations",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL},
                "optimize --model {d}/m.txt --tolerance nan",
                1,
                "usage error: argument --tolerance: must be a finite number >= 0, got 'nan'",
                id="nan tolerance",
            ),
            pytest.param(
                {"m.txt": VALID_MODEL},
                "optimize --model {d}/m.txt --tolerance -1",
                1,
                "usage error: argument --tolerance: must be a finite number >= 0, got '-1'",
                id="negative tolerance",
            ),
            pytest.param(
                {},
                "sweep --max-iterations -1",
                1,
                "usage error: argument --max-iterations: must be an integer >= 0, got '-1'",
                id="negative sweep max iterations",
            ),
            pytest.param(
                {"x.csv": BASIC_CSV},
                "simulate --data {d}/x.csv --seed -1",
                1,
                "usage error: argument --seed: must be an integer >= 0, got '-1'",
                id="negative simulate seed",
            ),
            pytest.param(
                {},
                "sweep --seed -1",
                1,
                "usage error: argument --seed: must be an integer >= 0, got '-1'",
                id="negative sweep seed",
            ),
        ],
    )
    def test_input_errors_are_one_line(self, files, argv, code, err, tmp_path, capsys):
        for name, text in files.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        assert main(argv.replace("{d}", str(tmp_path)).split()) == code
        assert capsys.readouterr() == ("", err.replace("{d}", str(tmp_path)) + "\n")

    def test_internal_error_is_three_without_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        # A defect in the solver, not bad input.
        def defect(v):
            raise IndexError("index -1 is out of bounds for axis 0 with size 0")

        monkeypatch.setattr(schemes, "_project", defect)
        path = tmp_path / "model.txt"
        save_model(fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0), str(path))
        assert main(["optimize", "--model", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: internal: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("output_format", ["human", "machine"])
    def test_overflowing_report_is_three(self, output_format, tmp_path, capsys):
        # Finite moments whose squares overflow: crowd_mse = inf, gap = nan.
        last = self.overflowing_report("analyze", output_format, tmp_path, capsys)
        assert {"crowd_mse", "wisdom_gap"} <= set(last.split(": ")[-1].split(", "))
        assert "weights" not in last.split(": ")[-1].split(", ")

    @pytest.mark.parametrize("output_format", ["human", "machine"])
    def test_overflowing_optimize_report_is_three(
        self, output_format, tmp_path, capsys
    ):
        # The solve certifies the finite optimum [0, 1]; judge a's own error
        # overflows.
        last = self.overflowing_report("optimize", output_format, tmp_path, capsys)
        bad = set(last.split(": ")[-1].split(", "))
        assert bad == {"individual_mse", "wisdom_gap", "per_judge_mse"}

    def test_overflowing_simulate_is_refused_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        def simulate(*args):
            raise AssertionError("trials drawn for a non-finite analytic half")

        monkeypatch.setattr(cli, "simulate", simulate)
        monkeypatch.setattr(montecarlo, "simulate", simulate)
        last = self.overflowing_report("simulate", "machine", tmp_path, capsys)
        assert last == (
            "error: non-finite values in the report: "
            "analytic_crowd_mse, analytic_individual_mse, analytic_wisdom_gap"
        )

    @pytest.mark.parametrize("command", ["analyze", "optimize", "simulate"])
    def test_overflowing_report_is_one_line_from_a_process(self, command, tmp_path):
        # numpy warns on stderr in a real process, where no test filter applies.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "crowdwise", command, "--model", self.huge_model(tmp_path)]
        if command == "simulate":
            argv += ["--trials", "1000"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: non-finite values in the report: ")

    def test_closed_stdout_exits_zero_silently(self, data_csv):
        # The reader goes away, as `head` does, long before the report is
        # written: importing numpy alone takes the child about 100 ms.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "crowdwise", "analyze", "--data", data_csv,
                "--format", "machine"]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (0, b"")

    def test_simulate_whose_pooled_squares_overflow_is_three(self, tmp_path, capsys):
        # Variances of 1e160: every trial's error is finite, its spread is not.
        path = tmp_path / "wide.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1e160, 0.0, 0.0, 1e160\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        assert main(["simulate", "--model", str(path), "--trials", "200001"]) == 3
        assert capsys.readouterr() == (
            "",
            "error: non-finite values in the report: "
            "crowd_mse_se, individual_mse_se, wisdom_gap_se\n",
        )

    def test_simulate_of_variances_near_the_float_limit_is_three(self, tmp_path, capsys):
        # Variances of 1.5e308: judge_cov + judge_cov' overflows, and a factor
        # of that sum halved was all zero, reporting every error as exactly 0.
        path = tmp_path / "vast.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.0\n"
            "judge_cov = 1.5e308, 0.0, 0.0, 1.5e308\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        model = load_model(str(path))
        factor = montecarlo._moment_factor(model.joint_covariance())
        assert np.isfinite(factor).all() and factor.any()
        assert main(["analyze", "--model", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--model", str(path), "--trials", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: non-finite values in the report: ")

    @staticmethod
    def huge_model(tmp_path) -> str:
        """A valid model file with judge means of 1e200 and 3."""
        path = tmp_path / "huge.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 1e200, 3.0\n"
            "judge_cov = 1.0, 0.0, 0.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        return str(path)

    @classmethod
    def overflowing_report(cls, command, output_format, tmp_path, capsys) -> str:
        """The one stderr line of ``command`` on means of 1e200 and 3."""
        argv = [command, "--model", cls.huge_model(tmp_path), "--format", output_format]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "internal:" not in err
        assert err.count("\n") == 1
        last = err.splitlines()[-1]
        assert err.endswith(last + "\n")
        assert last.startswith("error: non-finite values in the report: ")
        return last

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert main(["optimize", "--model", str(path), "--max-iterations", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: optimizer did not converge within 0 iterations "
            "(residual 3.000e+00)\n"
        )

    def test_fixed_point_says_where_it_stopped(
        self, tmp_path, capsys, certificate_calls
    ):
        # At scale 1e100 the absolute tolerance lies below the rounding of the
        # certificate, and no step lowers the objective after a few moves; the
        # solver stops there and reports that iteration, not the cap.
        path = tmp_path / "huge.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 1e100, 2e100\n"
            "judge_cov = 1e100, 0.0, 0.0, 1e100\n"
            "criterion_mean = 1.5e100\n"
            "criterion_var = 1e100\n"
            "cross_cov = 0.0, 5e99\n"
        )
        assert main(["optimize", "--model", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: optimizer stopped at iteration 2: no step lowers the "
            "objective (residual 2.385e+184)\n"
        )
        assert len(certificate_calls) == 2 + 2

    @pytest.mark.parametrize(
        "flag", ["--data", "--model", "--candidates", "--weights", "--sweep-grid"]
    )
    def test_non_utf8_file_is_two(self, flag, data_csv, tmp_path, capsys):
        model_path = tmp_path / "crowd.txt"
        save_model(fixed_criterion_model([0.0], [[1.0]], 0.0, judge_labels=("j1",)),
                   str(model_path))
        valid = {
            "--data": "a,b,criterion\n1,2,3\n4,5,6\n",
            "--model": model_path.read_text(),
            "--candidates": "label,mean,variance,cov_with_criterion,j1\nc,0,1,0,0\n",
            "--weights": "0.5, 0.5\n",
            "--sweep-grid": "bias_scale = 0, 1\n",
        }[flag]
        # One byte that no UTF-8 text contains, in the last line.
        path = tmp_path / "input"
        path.write_bytes(valid.encode()[:-3] + b"\xff" + valid.encode()[-3:])
        argv = {
            "--data": ["analyze", "--data", str(path)],
            "--model": ["analyze", "--model", str(path)],
            "--candidates": ["candidate", "--model", str(model_path), "--candidates", str(path)],
            "--weights": ["analyze", "--data", data_csv, "--weights", str(path)],
            "--sweep-grid": ["sweep", "--sweep-grid", str(path)],
        }[flag]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: not valid UTF-8 (byte 0xff)\n"


# Any float a model file can spell: nan, +-inf, subnormals and the extremes.
ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 1e-320, -0.0])
)


def two_judge_model(means, cov, criterion_mean, criterion_var, cross) -> str:
    def numbers(values):
        return ", ".join(repr(float(v)) for v in values)

    return (
        "judge_labels = a, b\n"
        f"judge_means = {numbers(means)}\n"
        f"judge_cov = {numbers(cov)}\n"
        f"criterion_mean = {float(criterion_mean)!r}\n"
        f"criterion_var = {float(criterion_var)!r}\n"
        f"cross_cov = {numbers(cross)}\n"
    )


@st.composite
def any_float_models(draw):
    values = draw(st.lists(ANY_FLOAT, min_size=10, max_size=10))
    return two_judge_model(values[:2], values[2:6], values[6], values[7], values[8:])


@st.composite
def diagonal_crowds(draw):
    """Structurally valid crowds, second moments at one scale, so the solver runs."""
    scale = float(f"1e{draw(st.integers(-320, 308))}")
    var = [scale * draw(st.floats(0.5, 2.0)) for _ in range(2)]
    criterion_var = scale * draw(st.floats(0.0, 2.0))
    # |cross_i| <= sqrt(var_i * criterion_var) / 2 keeps the joint matrix PSD.
    cross = [
        draw(st.floats(-0.5, 0.5)) * math.sqrt(v) * math.sqrt(criterion_var)
        for v in var
    ]
    means = [math.sqrt(scale) * draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    return two_judge_model(
        means[:2], [var[0], 0.0, 0.0, var[1]], means[2], criterion_var, cross
    )


# The values the failure contract draws: zero, units, small integers, and
# magnitudes out to the overflow threshold and the subnormals.
EDGE_VALUES = st.sampled_from([
    0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e200, -1e200, 1e100, 1e-100, 1e-200,
    1e308, -1e308, 1.7e308, 1e-320, 5e-324,
])


@st.composite
def edge_models(draw):
    """Two-judge model files of edge values; about half have a diagonal
    judge_cov and no cross covariance, so validation passes them on."""
    v = draw(st.lists(EDGE_VALUES, min_size=10, max_size=10))
    if draw(st.booleans()):
        cov = [abs(v[2]), 0.0, 0.0, abs(v[3])]
        return two_judge_model(v[:2], cov, v[6], abs(v[7]), [0.0, 0.0])
    return two_judge_model(v[:2], v[2:6], v[6], v[7], v[8:])


class TestWarnings:
    FALLBACK = "warning: all clipped skills are zero; falling back to uniform\n"

    @staticmethod
    def hedging_crowd(tmp_path) -> list[str]:
        """``analyze`` weighting and selecting by skill on a crowd whose
        skills are all negative, so both fall back to uniform."""
        path = tmp_path / "negative.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 0.0, 0.5\n"
            "judge_cov = 1.0, 0.3, 0.3, 2.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = -0.5, -0.4\n"
        )
        return ["analyze", "--model", str(path), "--weights", "skill", "--selection", "skill"]

    def test_each_distinct_warning_is_one_line(self, tmp_path, capsys):
        argv = self.hedging_crowd(tmp_path)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main(argv + ["--format", "machine"]) == 0
        assert escaped == []
        out, err = capsys.readouterr()
        assert err == self.FALLBACK
        fields = machine_fields(out)
        assert fields["weights"] == fields["selection"] == "0.5, 0.5"

    def test_each_distinct_warning_is_one_line_from_a_process(self, tmp_path):
        # A real process has Python's default filters and its source paths.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "crowdwise", *self.hedging_crowd(tmp_path)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, self.FALLBACK)
        assert done.stdout.startswith("crowd of 2 judge(s)\n")

    def test_an_error_filter_still_raises_inside_main(self, data_csv, capsys, monkeypatch):
        def command(args):
            warnings.warn("probe", RuntimeWarning)

        monkeypatch.setattr(cli, "_cmd_analyze", command)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", "--data", data_csv]) == 3
        assert capsys.readouterr() == ("", "error: internal: RuntimeWarning: probe\n")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "model.txt"


@pytest.mark.filterwarnings("ignore")
class TestFailureContract:
    """Any model file either gives a report or exits 2 or 3 with one line."""

    def check(self, path, text):
        path.write_text(text)
        # Above a scale of about 1e20 the solver cannot reach its absolute
        # tolerance; a lower cap reaches the same NoConvergence exit sooner.
        for command in (["analyze"], ["optimize", "--max-iterations", "1000"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + ["--model", str(path), "--format", "machine"])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 2, 3)
            assert "Traceback" not in out + err
            if code:
                assert out == ""
                assert err.startswith("error: ")
                assert err.endswith("\n") and err.count("\n") == 1

    @given(text=any_float_models())
    @settings(max_examples=200, deadline=None)
    def test_any_float_in_model_file(self, model_path, text):
        self.check(model_path, text)

    @given(text=diagonal_crowds())
    @settings(max_examples=200, deadline=None)
    def test_valid_crowds_at_every_scale(self, model_path, text):
        self.check(model_path, text)

    # A crowd every command accepts, for the tests that vary another input.
    CROWD = two_judge_model([0.0, 0.5], [1.0, 0.3, 0.3, 2.0], 0.0, 1.0, [0.5, 0.4])

    @staticmethod
    def run(argv) -> str:
        """``main(argv)``'s stdout, once its exit and stderr keep the contract."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            assert err.startswith("error: ") and "internal:" not in err
            assert err.endswith("\n") and err.count("\n") == 1
        return out

    @given(rows=st.lists(st.lists(EDGE_VALUES, min_size=5, max_size=5), max_size=3))
    # The face minimizer of this crowd has an entry past 2^53 (see _project).
    @example(rows=[[1.0, 1e200, 1e100, 2.0, 0.5]])
    @settings(max_examples=60, deadline=None)
    def test_edge_values_in_candidate_rows(self, model_path, rows):
        model_path.write_text(self.CROWD)
        cands = model_path.with_name("cands.csv")
        cands.write_text("label,mean,variance,cov_with_criterion,a,b\n" + "".join(
            f"c{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows)
        ))
        self.run(["candidate", "--model", str(model_path), "--candidates", str(cands),
                  "--format", "machine"])

    @given(text=edge_models())
    @settings(max_examples=60, deadline=None)
    def test_edge_values_in_simulated_model_file(self, model_path, text):
        model_path.write_text(text)
        self.run(["simulate", "--model", str(model_path), "--trials", "20",
                  "--format", "machine"])

    @given(
        bias=st.lists(EDGE_VALUES, min_size=1, max_size=2),
        correlation=st.lists(EDGE_VALUES, min_size=1, max_size=2),
        sizes=st.lists(EDGE_VALUES, min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_values_in_sweep_grid(self, model_path, bias, correlation, sizes):
        grid = model_path.with_name("grid.txt")
        grid.write_text("".join(
            f"{key} = {', '.join(map(repr, values))}\n"
            for key, values in
            (("bias_scale", bias), ("correlation", correlation), ("n_judges", sizes))
        ))
        out = self.run(["sweep", "--sweep-grid", str(grid), "--max-iterations", "1000"])
        for row in csv.reader(io.StringIO(out)):
            if row[3] == "ok":
                assert all(math.isfinite(float(v)) for v in row[4:]), row

    @given(
        weights=st.lists(EDGE_VALUES, min_size=1, max_size=3),
        selection=st.lists(EDGE_VALUES, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_values_in_weights_and_selection_files(
        self, model_path, weights, selection
    ):
        model_path.write_text(self.CROWD)
        argv = ["analyze", "--model", str(model_path), "--format", "machine"]
        for flag, values in (("--weights", weights), ("--selection", selection)):
            path = model_path.with_name(flag.strip("-") + ".txt")
            path.write_text(", ".join(map(repr, values)) + "\n")
            argv += [flag, str(path)]
        self.run(argv)


REQUEST_CASES = [
    (["analyze", "--data", "d.csv"], dict(command="analyze", data_path="d.csv")),
    (
        ["analyze", "--model", "m.txt", "--weights", "skill", "--selection", "best",
         "--format", "machine"],
        dict(command="analyze", model_path="m.txt", weight_scheme="skill",
             selection_scheme="best", output_format="machine"),
    ),
    (
        ["optimize", "--data", "d.csv", "--selection", "skill", "--format", "human",
         "--tolerance", "1e-8", "--max-iterations", "7"],
        dict(command="optimize", data_path="d.csv", weight_scheme="optimal",
             selection_scheme="skill", tolerance=1e-8, max_iterations=7),
    ),
    (
        ["candidate", "--model", "m.txt", "--candidates", "c.csv", "--selection",
         "best", "--uniform-gain", "--format", "machine"],
        dict(command="candidate", model_path="m.txt", candidates_path="c.csv",
             selection_scheme="best", show_uniform_gain=True,
             output_format="machine"),
    ),
    (
        ["simulate", "--data", "d.csv", "--weights", "w.txt", "--selection", "p.txt",
         "--trials", "50", "--seed", "9", "--generator", "uniform", "--format",
         "machine"],
        dict(command="simulate", data_path="d.csv", weight_scheme="w.txt",
             selection_scheme="p.txt", trials=50, seed=9, generator="uniform",
             output_format="machine"),
    ),
    (["sweep"], dict(command="sweep")),
    (
        ["sweep", "--sweep-grid", "g.txt", "--seed", "4", "--tolerance", "1e-9",
         "--max-iterations", "12"],
        dict(command="sweep", sweep_grid_path="g.txt", seed=4, tolerance=1e-9,
             max_iterations=12),
    ),
]


# The default of every option, for the options a command has but argv omits.
DEFAULTS = dict(
    data_path=None, model_path=None, weight_scheme="uniform",
    selection_scheme="uniform", output_format="human", trials=100_000, seed=0,
    generator="gaussian", candidates_path=None, show_uniform_gain=False,
    sweep_grid_path=None, tolerance=1e-10, max_iterations=100_000,
)


class TestRequestFromArgs:
    @pytest.mark.parametrize(
        "argv, fields", REQUEST_CASES, ids=[" ".join(a) for a, _ in REQUEST_CASES]
    )
    def test_argv_maps_to_request(self, argv, fields):
        namespace = vars(cli._build_parser().parse_args(argv))
        command, _ = namespace.pop("handler")
        assert command is getattr(cli, f"_cmd_{argv[0]}")
        omitted = namespace.keys() - fields.keys()
        assert namespace == {key: DEFAULTS[key] for key in omitted} | fields
