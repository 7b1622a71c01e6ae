"""Smoke tests for the command-line scripts under ``scripts/``."""

import importlib.util
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decay_rates_table(tmp_path, capsys):
    for name in ("doubling_exact", "identity"):
        shutil.copy(REPO / "scenarios" / f"{name}.yaml", tmp_path)
    assert load_script("decay_rates").main(["--scenario-dir", str(tmp_path)]) == 0
    rows = {line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert set(rows) == {"doubling_exact", "identity"}
    name, decayed, rate, r2, curves = rows["doubling_exact"]
    assert decayed == "True" and 0.0 <= float(rate) < 1.0
    name, decayed, rate, r2, curves = rows["identity"]
    assert decayed == "False" and rate == "-" and r2 == "-"
