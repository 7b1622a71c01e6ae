"""Smoke tests for the command-line scripts under ``scripts/``."""

import importlib.util
import math
import shutil
from pathlib import Path

import pytest

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
    # the exact doubling kernel halves the mass that a cell difference sends
    # to any one cell at each step
    name, decayed, rate, r2, curves = rows["doubling_exact"]
    assert decayed == "True" and rate == "0.5000" and r2 == "1.000"
    name, decayed, rate, r2, curves = rows["identity"]
    assert decayed == "False" and rate == "-" and r2 == "-"


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--horizon", "-3"]])
def test_decay_rates_bad_flag_exit_two(capsys, flags):
    assert load_script("decay_rates").main(
        ["--scenario-dir", str(REPO / "scenarios")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} ") and "Traceback" not in err


def test_ulam_refinement_table(capsys):
    # 512 cells: the kernel is stored as CSR
    assert load_script("ulam_refinement").main(
        ["--sizes", "16,32,512", "--samples", "200"]) == 0
    tables = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split()
        if line.endswith("seed 42"):
            kind = words[0]
            tables[kind] = []
        elif words and words[0].isdigit():
            tables[kind].append((int(words[0]), float(words[1]), float(words[2])))
    assert set(tables) == {"doubling", "tent"}
    for rows in tables.values():
        assert [n for n, _, _ in rows] == [16, 32, 512]
        for _, residual, lam in rows:
            assert math.isfinite(residual)
            assert 0.0 <= lam <= 1.0


def test_counterexample_demo_travelling_column(capsys):
    assert load_script("counterexample_demo").main(["--k-values", "1,2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:3]]
    assert [row[0] for row in rows] == ["1", "2"]
    for row in rows:
        assert row[3].startswith("0.5±") and float(row[3][4:]) <= 1e-12
