"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from loop import run_op  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    build = WORKLOADS[name].build
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    argvs = [[op.argv for op in build(seed, d)] for seed, d in zip((3, 3, 4), dirs)]
    first, again, other = (_files(d) for d in dirs)
    assert first == again
    assert first.keys() == other.keys() and first != other
    assert [len(a) for a in argvs[0]] == [len(a) for a in argvs[2]]


@pytest.fixture
def small_crowd():
    rng = gen.rng_for(0, 9)
    crowd = gen.factor_crowd(rng, 6)
    return crowd, gen.quantize(crowd.sample(rng, 400))


def _report(argv: list[str]) -> str:
    rec = run_op(argv)
    assert rec["error"] is None and rec["code"] == 0, rec
    return rec["stdout"]


def _replace(text: str, key: str, value: str) -> str:
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


def test_checker_rejects_corrupted_analyze_report(small_crowd, tmp_path):
    _crowd, data = small_crowd
    path = tmp_path / "d.csv"
    path.write_bytes(gen.judgments_csv(data, gen.judge_labels(6)))
    text = _report(["analyze", "--data", str(path), "--weights", "skill",
                    "--selection", "best", "--format", "machine"])
    moments = check.sample_moments(data)
    assert check.check_analyze_skill_best(text, moments) == []

    fields = check.parse_report(text)
    mse = float(fields["crowd_mse"])
    perturbed = _replace(text, "crowd_mse", repr(mse * (1 + 1e-7)))
    assert check.check_analyze_skill_best(perturbed, moments)

    w = check.floats(fields["weights"])
    w[0] += 0.01
    off_simplex = _replace(text, "weights", ", ".join(map(repr, w.tolist())))
    assert any("simplex" in p for p in check.check_analyze_skill_best(off_simplex, moments))


def test_checker_rejects_corrupted_optimize_report(tmp_path):
    moments, w_star = gen.planted_crowd(gen.rng_for(0, 8), 30, 5, 0.1)
    path = tmp_path / "m.model"
    path.write_text(gen.model_text(moments, gen.judge_labels(30)))
    text = _report(["optimize", "--model", str(path), "--format", "machine"])
    assert check.check_optimize(text, moments, w_star) == []

    w = check.floats(check.parse_report(text)["weights"])
    moved = np.roll(w, 1)
    assert check.check_optimize(_replace(text, "weights", ", ".join(map(repr, moved.tolist()))),
                                moments, w_star)
    w[0] = -1e-3
    assert check.check_optimize(_replace(text, "weights", ", ".join(map(repr, w.tolist()))),
                                moments, w_star)


def test_checker_rejects_failed_or_unsorted_candidates(tmp_path):
    crowd = gen.factor_crowd(gen.rng_for(0, 7), 9)
    labels = gen.judge_labels(9)
    model = tmp_path / "m.model"
    model.write_text(gen.model_text(crowd.moments(slice(6)), labels[:6]))
    cands = tmp_path / "c.csv"
    cands.write_text(gen.candidates_csv(crowd, 6, labels))
    text = _report(["candidate", "--model", str(model), "--candidates", str(cands),
                    "--format", "machine"])
    assert check.check_candidate(text, labels[6:]) == []
    assert check.check_candidate(_replace(text, "n_failures", "1"), labels[6:])
    swapped = (text.replace("candidate_1_", "tmp_").replace("candidate_2_", "candidate_1_")
               .replace("tmp_", "candidate_2_"))
    assert "ranking is not sorted by marginal gain" in check.check_candidate(swapped, labels[6:])


def test_tracing_leaves_stdout_unchanged_and_partitions_op_time(small_crowd, tmp_path):
    crowd, data = small_crowd
    labels = gen.judge_labels(6)
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(gen.judgments_csv(data, labels))
    model = tmp_path / "m.model"
    model.write_text(gen.model_text(crowd.moments(slice(4)), labels[:4]))
    cands = tmp_path / "c.csv"
    cands.write_text(gen.candidates_csv(crowd, 4, labels))
    argvs = [
        ["analyze", "--data", str(csv_path), "--weights", "optimal", "--format", "machine"],
        ["optimize", "--data", str(csv_path), "--selection", "skill"],
        ["candidate", "--model", str(model), "--candidates", str(cands), "--format", "machine"],
        ["simulate", "--model", str(model), "--trials", "5000", "--format", "machine"],
        ["analyze", "--model", str(tmp_path / "missing.model")],
    ]
    tracer = Tracer()
    for op, argv in enumerate(argvs):
        plain = run_op(argv)
        tracer.op = op
        tracer.install()
        try:
            traced = run_op(argv)
        finally:
            tracer.uninstall()
        assert (traced["code"], traced["stdout"], traced["stderr"]) == (
            plain["code"], plain["stdout"], plain["stderr"])
        spans = [s for s in tracer.spans if s[0] == op]
        roots = [s for s in spans if s[2] is None]
        assert [s[3] for s in roots] == ["cli.main"]
        totals = layer_totals(spans)
        root_s = (roots[0][5] - roots[0][4]) / 1e9
        assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_s, rel=1e-9)

    import crowdwise.cli
    import crowdwise.diversity

    names = {s[3] for s in tracer.spans}
    assert {"cli.ingest_csv", "model.estimate_model", "model.validate_model",
            "schemes.optimal_weights", "wisdom.evaluate", "diversity.extend_model",
            "montecarlo.simulate"} <= names
    assert crowdwise.cli.optimal_weights.__module__ == "crowdwise.schemes"
    assert crowdwise.diversity.optimal_weights is crowdwise.cli.optimal_weights


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = {
        "records": [{"warmup": False, "traced": t, "wall_s": 1.0, "cpu_s": 1.0, "calib_s": [0.008, 0.008]} for t in (False, True)],
        "spans": [[0, 0, None, "cli.main", 0, 10, {}]],
        "maxrss_kb": 1024, "loop_s": 1.0,
    }
    e2e = run.end_to_end(result, 0.3, attempted=2, failed=0, cycle=1, threaded=True)
    layers = run.per_layer(result)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
