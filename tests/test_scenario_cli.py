"""Tests for scenario ingestion and the command-line runners."""

import csv
from pathlib import Path

import numpy as np
import pytest

from cocyclelab.cli import cycle_notation, main
from cocyclelab.driving import BERNOULLI
from cocyclelab.scenario import (
    AnalysisConfig,
    ScenarioError,
    UnresolvedReferenceError,
    load_product_sets,
    load_scenario,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

MINIMAL = """
space: {N: 64}
driving: {kind: finite_rotation, q: 1}
operators:
  P0:
    map: {kind: doubling}
cocycle: {constant: P0}
"""


def write(tmp_path, text, name="s.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_doubling_scenario(tmp_path):
    sc = load_scenario(write(tmp_path, MINIMAL))
    assert sc.space.n == 64
    assert sc.cocycle.is_constant
    assert sc.analysis == AnalysisConfig()  # defaults fill in


def test_unresolved_operator_reference_is_named(tmp_path):
    text = MINIMAL.replace("cocycle: {constant: P0}",
                           "cocycle: {constant: P9}")
    with pytest.raises(UnresolvedReferenceError, match="P9"):
        load_scenario(write(tmp_path, text))


def test_weights_sum_violation_is_named(tmp_path):
    text = """
space:
  N: 2
  weights: [0.5, 0.4]
driving: {kind: finite_rotation, q: 1}
operators:
  P0: {synthetic: uniform}
cocycle: {constant: P0}
"""
    with pytest.raises(ScenarioError, match="weights sum"):
        load_scenario(write(tmp_path, text))


def test_parse_error_carries_location(tmp_path):
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(write(tmp_path, "space: {N: 64\ndriving: oops"))


def test_missing_file_and_missing_blocks(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(str(tmp_path / "nope.yaml"))
    with pytest.raises(ScenarioError, match="driving"):
        load_scenario(write(tmp_path, "space: {N: 4}"))


def test_table_validation(tmp_path):
    base = """
space: {N: 4}
driving: {kind: finite_rotation, q: 2}
operators:
  P0: {synthetic: uniform}
cocycle:
  table: {0: P0}
"""
    with pytest.raises(ScenarioError, match="missing features"):
        load_scenario(write(tmp_path, base))
    with pytest.raises(ScenarioError, match="out of range"):
        load_scenario(write(tmp_path, base.replace(
            "table: {0: P0}", "table: {0: P0, 1: P0, 2: P0}")))


def test_operator_definition_validation(tmp_path):
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write(tmp_path, MINIMAL.replace(
            "map: {kind: doubling}",
            "map: {kind: doubling}\n    synthetic: identity")))
    with pytest.raises(ScenarioError, match="row"):
        load_scenario(write(tmp_path, """
space: {N: 2}
driving: {kind: finite_rotation, q: 1}
operators:
  K: {kernel: [[0.5, 0.4], [0.0, 1.0]]}
cocycle: {constant: K}
"""))


def test_bernoulli_and_permutation_driving(tmp_path):
    sc = load_scenario(write(tmp_path, """
space: {N: 4}
driving: {kind: bernoulli, p: [0.25, 0.75], seed: 9, samples: 17}
operators:
  U: {synthetic: uniform}
cocycle: {constant: U}
"""))
    assert sc.driving.kind == BERNOULLI
    assert sc.analysis.env_seed == 9 and sc.analysis.env_samples == 17
    sc2 = load_scenario(write(tmp_path, """
space: {N: 4}
driving: {kind: finite_permutation, sigma: [1, 2, 0]}
operators:
  U: {synthetic: uniform}
cocycle: {table: {0: U, 1: U, 2: U}}
""", name="s2.yaml"))
    assert sc2.driving.n_points == 3


def test_all_shipped_scenarios_load():
    files = sorted(SCENARIOS.glob("*.yaml"))
    assert len(files) >= 10
    for f in files:
        if f.name.startswith("sets_"):
            continue
        sc = load_scenario(str(f))
        assert sc.space.n >= 4
        assert sc.analysis.horizon == 40


def test_product_sets_loader(tmp_path):
    triples = load_product_sets(str(SCENARIOS / "sets_halves.yaml"), 256)
    ids = [t[0] for t in triples]
    assert ids == ["cyl_halves", "fiber_quarters", "wide_cylinder"]
    a = triples[0][1]
    assert a.cells.tolist() == list(range(128))
    assert a.env_constraints == {0: 0}
    with pytest.raises(ScenarioError, match="does not fit"):
        load_product_sets(write(tmp_path, """
sets:
  - id: bad
    a: {cells: {range: [0, 300]}}
    b: {cells: [0]}
"""), 256)
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_product_sets(write(tmp_path, """
sets:
  - a: {cells: [0], env_window: 2}
    b: {cells: [0]}
""", name="s2.yaml"), 4)


def test_cycle_notation():
    assert cycle_notation([1, 2, 0, 3]) == "(0 1 2)(3)"
    assert cycle_notation([0]) == "(0)"


# -- CLI end to end ---------------------------------------------------------


def rows_of(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_cli_counterexample_csv(tmp_path):
    out = tmp_path / "ce.csv"
    assert main(["run-counterexample", "--k", "8", "--out", str(out)]) == 0
    rows = rows_of(out)
    assert len(rows) == 16
    assert all(r["value"] == "0.5" for r in rows)
    assert [r["n"] for r in rows] == [str(n) for n in range(1, 17)]


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_cli_counterexample_needs_a_step(tmp_path, capsys, horizon):
    rc = main(["run-counterexample", "--k", "2", "--horizon", horizon,
               "--out", str(tmp_path / "ce.csv")])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_report_doubling_exit_zero(capsys):
    rc = main(["report", "--scenario", str(SCENARIOS / "doubling_exact.yaml")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "all consistency checks passed" in text


def test_cli_report_baker_consistent_negatives(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["report", "--scenario", str(SCENARIOS / "baker_cyclic.yaml"),
               "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    statuses = {r["check"]: r["status"] for r in rows}
    assert statuses["mixing-notions-equivalent"] == "PASS"
    assert statuses["tail-partition-matches"] == "PASS"
    # negative verdicts throughout, consistently
    text = capsys.readouterr().out
    assert "prior-hom=False" in text and "r=16" in text


def test_cli_report_identity_skips_decomposition(capsys):
    rc = main(["report", "--scenario", str(SCENARIOS / "identity.yaml")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[SKIP] periodicity-vs-exactness" in text
    assert "none found" in text


def test_cli_mixing_csv_columns_and_override(tmp_path):
    out = tmp_path / "mx.csv"
    rc = main(["run-mixing", "--scenario", str(SCENARIOS / "blockswap.yaml"),
               "--notion", "prior-hom", "--horizon", "6", "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert list(rows[0]) == ["notion", "omega_id", "f_id", "g_id", "n", "value"]
    assert {r["n"] for r in rows} == {str(n) for n in range(7)}
    assert all(r["notion"] == "prior-hom" for r in rows)


def test_cli_exactness_csv(tmp_path):
    out = tmp_path / "ex.csv"
    rc = main(["run-exactness", "--scenario",
               str(SCENARIOS / "doubling_exact.yaml"), "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    tests = {r["test"] for r in rows}
    assert tests == {"norm", "lin"}  # doubling kernel is not a cell map
    norm0 = [r for r in rows if r["test"] == "norm" and r["n"] == "0"]
    assert float(norm0[0]["value_or_flag"]) == 1.0


def test_cli_exactness_tail_rows(tmp_path):
    out = tmp_path / "ex.csv"
    rc = main(["run-exactness", "--scenario",
               str(SCENARIOS / "baker_cyclic.yaml"), "--out", str(out)])
    assert rc == 0
    tail = [r for r in rows_of(out) if r["test"] == "tail"]
    assert tail and all(r["value_or_flag"] == "16" for r in tail)


def test_cli_asymp_csv(tmp_path):
    out = tmp_path / "as.csv"
    rc = main(["run-asymp", "--scenario", str(SCENARIOS / "block3cycle.yaml"),
               "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert rows[0]["r"] == "3"
    assert rows[0]["rho"] == "(0 1 2)"
    assert float(rows[0]["residual"]) <= 1e-12


def test_cli_asymp_none_found(tmp_path):
    out = tmp_path / "as.csv"
    rc = main(["run-asymp", "--scenario", str(SCENARIOS / "identity.yaml"),
               "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert rows[0]["r"] == "none"
    assert "r_max" in rows[0]["rho"]


def test_cli_qc_csv(tmp_path):
    out = tmp_path / "qc.csv"
    rc = main(["run-qc", "--scenario", str(SCENARIOS / "doubling_exact.yaml"),
               "--eps", "0.25,0.125", "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert [r["eps"] for r in rows] == ["0.125", "0.25"]
    assert [float(r["delta"]) for r in rows] == [0.875, 0.75]


def test_cli_skew_csv_deterministic(tmp_path):
    args = ["run-skew", "--scenario", str(SCENARIOS / "bernoulli_doubling.yaml"),
            "--sets", str(SCENARIOS / "sets_halves.yaml"), "--horizon", "8"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = rows_of(out1)
    assert list(rows[0]) == ["set_pair_id", "n", "nu_joint", "nu_product",
                             "discrepancy"]
    assert {r["set_pair_id"] for r in rows} \
        == {"cyl_halves", "fiber_quarters", "wide_cylinder"}


def test_cli_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: {N: 4}\n")
    rc = main(["run-exactness", "--scenario", str(bad),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["run-mixing", "--notion", "sideways"])
    assert exc.value.code == 2


def test_cli_zero_horizon_is_an_override(tmp_path):
    out = tmp_path / "mx.csv"
    rc = main(["run-mixing", "--scenario", str(SCENARIOS / "blockswap.yaml"),
               "--notion", "prior-hom", "--horizon", "0", "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert rows and {r["n"] for r in rows} == {"0"}


@pytest.mark.parametrize("command, flags", [
    (["run-mixing", "--notion", "prior-hom"], ["--horizon", "-1"]),
    (["run-mixing", "--notion", "prior-hom"], ["--tol", "0"]),
    (["run-exactness"], ["--tol=-1e-6"]),
    (["run-qc"], ["--horizon", "-1"]),
    (["report"], ["--horizon", "-1"]),
])
def test_cli_bad_horizon_or_tol_exit_two(tmp_path, capsys, command, flags):
    rc = main(command + ["--scenario", str(SCENARIOS / "blockswap.yaml"),
                         "--out", str(tmp_path / "x.csv")] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
