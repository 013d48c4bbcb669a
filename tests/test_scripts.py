"""Smoke test: the script under scripts/ runs end to end and exits 0."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_by_simulation_small_batch(capsys):
    script = load_script("verify_by_simulation")
    assert script.run(["--models", "2", "--trials", "2000"]) == 0
    assert "all quantities within 4 standard errors" in capsys.readouterr().out
