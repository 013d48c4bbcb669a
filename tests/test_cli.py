"""CSV ingestion, model files, command dispatch, and exit codes."""

import contextlib
import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_with_spectrum
from crowdwise import cli, schemes
from crowdwise.cli import ingest_csv, load_model, main, read_candidates, save_model
from crowdwise.errors import (
    DuplicateJudgeLabel,
    MissingCriterionColumn,
    NonNumericCell,
    ParseError,
    SampleTooSmall,
    ValidationFailed,
)
from crowdwise.model import CrowdModel, estimate_model, fixed_criterion_model
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
        sample = ingest_csv(str(path))
        labels, judgments, criterion = float_reference(data)
        assert sample.judge_labels == labels
        np.testing.assert_array_equal(sample.judgments, judgments)
        np.testing.assert_array_equal(sample.criterion, criterion)
        np.testing.assert_array_equal(
            np.signbit(sample.judgments), np.signbit(judgments)
        )

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
        ["", "1.5", "1_0, 2", "\u0661, 2", " 1.5 ,+1", "-0, 0", "5e-324, 1e308", "1e-5,-2.5E3"],
    )
    def test_numbers_equal_the_float_list(self, text):
        # Byte equality also checks the sign bit of -0.
        parsed = cli._parse_numbers(text, "m.txt", "judge_means")
        reference = np.array([float(p) for p in text.split(",")] if text else [])
        assert parsed.dtype == reference.dtype == np.float64
        assert parsed.tobytes() == reference.tobytes()

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
         ".5, 1.", "1,\u0661"],
    )
    def test_edge_text_parses_as_float_does(self, text):
        # float() on every field is the reference grammar and error.
        try:
            reference = np.array([float(p) for p in text.split(",")])
        except ValueError:
            expected = "m.txt: field 'judge_cov' is not a list of numbers"
        else:
            if np.isfinite(reference).all():
                parsed = cli._parse_numbers(text, "m.txt", "judge_cov")
                assert parsed.tobytes() == reference.tobytes()
                return
            expected = "m.txt: non-finite values in judge_cov"
        with pytest.raises(ParseError) as exc:
            cli._parse_numbers(text, "m.txt", "judge_cov")
        assert str(exc.value) == expected

    def test_partial_read_with_a_warning_is_read_again(self, monkeypatch):
        # Before numpy 2.0, fromstring warned and returned the numbers it read
        # before unreadable text, instead of raising.
        def partial(text, sep):
            warnings.warn("string could not be read to its end", DeprecationWarning)
            return np.array([1.0])

        monkeypatch.setattr(np, "fromstring", partial)
        with pytest.raises(ParseError, match="is not a list of numbers"):
            cli._parse_numbers("1x", "m.txt", "judge_cov")
        assert cli._parse_numbers("2.5", "m.txt", "judge_cov").tolist() == [2.5]

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
        # One judge certifies at iteration 0; three cannot within one step.
        grid = tmp_path / "grid.txt"
        grid.write_text("bias_scale = 0, 1\ncorrelation = 0.2\nn_judges = 1, 3\n")
        argv = ["sweep", "--sweep-grid", str(grid), "--max-iterations", "1"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        assert {row[3] for row in rows} <= {"ok", "no_convergence"}
        failed = [row for row in rows if row[3] == "no_convergence"]
        assert failed
        assert all(row[4:] == [""] * 5 for row in failed)

    @pytest.mark.parametrize(
        "grid",
        [
            "n_judges = inf\n",
            "bias_scale = nan\n",
            "correlation = nan\n",
            "correlation = 0.0, 1.5\n",
        ],
        ids=["n_judges_inf", "bias_scale_nan", "correlation_nan", "correlation_1.5"],
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

    @pytest.mark.parametrize("flag", ["--weights", "--selection"])
    def test_non_finite_vector_file_is_two(self, flag, data_csv, tmp_path, capsys):
        path = tmp_path / "vector.txt"
        path.write_text("inf, 0.0\n")
        assert main(["analyze", "--data", data_csv, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: non-finite values in {flag[2:]}\n"

    def test_weights_summing_past_the_largest_float_are_two(self, data_csv, tmp_path, capsys):
        path = tmp_path / "weights.txt"
        path.write_text("1e308, 1e308\n")
        assert main(["analyze", "--data", data_csv, "--weights", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: model validation failed: "
            "WeightVector entries sum past the largest float\n"
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
                {"m.txt": VALID_MODEL.replace("a, b", "a, , b")},
                "analyze --model {d}/m.txt",
                2,
                "error: {d}/m.txt: empty judge label",
                id="empty judge label",
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("output_format", ["human", "machine"])
    def test_overflowing_report_is_three(self, output_format, tmp_path, capsys):
        # Finite moments whose squares overflow: crowd_mse = inf, gap = nan.
        last = self.overflowing_report("analyze", output_format, tmp_path, capsys)
        assert {"crowd_mse", "wisdom_gap"} <= set(last.split(": ")[-1].split(", "))
        assert "weights" not in last.split(": ")[-1].split(", ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("output_format", ["human", "machine"])
    def test_overflowing_optimize_report_is_three(
        self, output_format, tmp_path, capsys
    ):
        # The solve certifies the finite optimum [0, 1]; judge a's own error
        # overflows.
        last = self.overflowing_report("optimize", output_format, tmp_path, capsys)
        bad = set(last.split(": ")[-1].split(", "))
        assert bad == {"individual_mse", "wisdom_gap", "per_judge_mse"}

    @staticmethod
    def overflowing_report(command, output_format, tmp_path, capsys) -> str:
        """The last stderr line of ``command`` on means of 1e200 and 3."""
        path = tmp_path / "huge.txt"
        path.write_text(
            "judge_labels = a, b\n"
            "judge_means = 1e200, 3.0\n"
            "judge_cov = 1.0, 0.0, 0.0, 1.0\n"
            "criterion_mean = 0.0\n"
            "criterion_var = 1.0\n"
            "cross_cov = 0.0, 0.0\n"
        )
        argv = [command, "--model", str(path), "--format", output_format]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "internal:" not in err
        last = err.splitlines()[-1]
        assert err.endswith(last + "\n")
        assert last.startswith("error: non-finite values in the report: ")
        return last

    def test_numerical_failure_is_three(self, tmp_path, capsys):
        model = fixed_criterion_model([0.0, 0.0], np.diag([1.0, 4.0]), 0.0)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert main(["optimize", "--model", str(path), "--max-iterations", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: optimizer did not converge within 1 iterations "
            "(residual 1.038e+00)\n"
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
            "objective (residual 6.853e+183)\n"
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
