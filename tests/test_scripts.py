"""Smoke tests: both scripts under scripts/ run end to end and exit 0."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_wisdom_gap_on_two_cell_grid(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("bias_scale = 0.5\ncorrelation = 0.2\nn_judges = 2, 5\n")
    assert load_script("sweep_wisdom_gap").run(["--grid", str(grid)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("bias_scale,correlation,n_judges,status")
    assert [row.split(",")[3] for row in rows[1:]] == ["ok", "ok"]


def test_verify_by_simulation_small_batch(capsys):
    script = load_script("verify_by_simulation")
    assert script.run(["--models", "2", "--trials", "2000"]) == 0
    assert "all quantities within 4 standard errors" in capsys.readouterr().out
