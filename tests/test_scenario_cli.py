"""Tests for scenario ingestion and the command-line runners."""

import argparse
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import cocyclelab.cli
from cocyclelab.asymptotic import detect_periodicity
from cocyclelab.cli import (
    _bases,
    _env_points,
    _g_basis_for,
    _write_csv,
    build_parser,
    cycle_notation,
    main,
)
from cocyclelab.cocycle import NormalizedCocycle, build_invariant_density_map
from cocyclelab.driving import BERNOULLI, sample_env
from cocyclelab.exactness import exactness_report
from cocyclelab.mixing import COUNTEREXAMPLE_MAX_K, estimate_mixing
from cocyclelab.scenario import (
    ANALYSIS_KEYS,
    MAX_HORIZON,
    AnalysisConfig,
    ScenarioError,
    UnresolvedReferenceError,
    load_product_sets,
    load_scenario,
)
from cocyclelab.skew import skew_mixing_curve

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


@pytest.mark.parametrize("text, message", [
    (MINIMAL + "analysis: {horizn: 5}\n",
     "scenario file has unknown keys ['analysis.horizn']"),
    (MINIMAL.replace("    map: {kind: doubling}\n",
                     "    map: {kind: doubling}\n"
                     "    ulm: {samples: 100, seed: 1}\n"),
     "operator 'P0' has unknown keys ['ulm']"),
    (MINIMAL.replace("q: 1}", "q: 1, p: [0.5, 0.5]}"),
     "scenario file has unknown keys ['driving.p']"),
    (MINIMAL.replace("map: {kind: doubling}",
                     "synthetic: identity\n    ulam: {samples: 100, seed: 1}"),
     "operator 'P0' has unknown keys ['ulam']"),
    (MINIMAL.replace("    map: {kind: doubling}\n",
                     "    map: {kind: doubling}\n"
                     "    ulam: {samples: 100, seed: 1, sample: 9}\n"),
     "operator 'P0' ulam has unknown keys ['sample']"),
    (MINIMAL + "analysys: {horizon: 5}\n",
     "scenario file has unknown keys ['analysys']"),
    (MINIMAL.replace("{N: 64}", "{N: 64, weigths: [1]}"),
     "space block has unknown keys ['weigths']"),
    (MINIMAL.replace("{constant: P0}", "{tabel: {0: P0}, constant: P0}"),
     "cocycle block has unknown keys ['tabel']"),
    # the verdict window is the last tenth of every curve; no key moves it
    (MINIMAL + "analysis: {tail_fraction: 0.1}\n",
     "scenario file has unknown keys ['analysis.tail_fraction']"),
], ids=["analysis", "operator", "driving", "ulam-without-map", "ulam-block",
        "top-level", "space", "cocycle", "window-fraction"])
def test_a_key_the_loader_does_not_read_is_an_error(tmp_path, capsys, text,
                                                    message):
    # a typo would otherwise run with the default it meant to replace
    path = write(tmp_path, text)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(path)
    assert main(["run-asymp", "--scenario", path,
                 "--out", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("k", ["0", "11", "40"])
def test_cli_counterexample_k_outside_the_bound_exit_two(tmp_path, capsys, k):
    # k = 40 asks for 4^40 cells, which used to end in a numpy traceback
    out = tmp_path / "ce.csv"
    rc = main(["run-counterexample", "--k", k, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"1..{COUNTEREXAMPLE_MAX_K}" in err
    assert not out.exists()


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


@pytest.mark.parametrize("name, horizon", [
    ("doubling_ulam", 20), ("tent_ulam", 20), ("baker_planar_ulam", 20),
    ("bernoulli_doubling", 30)])
def test_ulam_structure_tol_holds_below_the_default_horizon(tmp_path, name,
                                                            horizon):
    # a shorter horizon starts the verdict window, and so ends the burn-in,
    # earlier, which leaves a larger structure residual on a Monte-Carlo
    # kernel; the Monte-Carlo structure tolerance still finds the one
    # component there
    out = tmp_path / "as.csv"
    assert main(["run-asymp", "--scenario", str(SCENARIOS / f"{name}.yaml"),
                 "--horizon", str(horizon), "--out", str(out)]) == 0
    rows = rows_of(out)
    assert rows and all(r["r"] == "1" for r in rows)
    assert all(1e-9 < float(r["residual"]) < 1e-6 for r in rows)


def test_cli_asymp_none_found(tmp_path):
    out = tmp_path / "as.csv"
    rc = main(["run-asymp", "--scenario", str(SCENARIOS / "identity.yaml"),
               "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert rows[0]["r"] == "none"
    assert "r_max" in rows[0]["rho"]


def test_cli_asymp_zero_rmax_is_an_override(tmp_path, capsys):
    out = tmp_path / "as.csv"
    rc = main(["run-asymp", "--scenario", str(SCENARIOS / "block3cycle.yaml"),
               "--rmax", "0", "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert rows[0]["r"] == "none"
    assert "exceed the cap r_max=0" in capsys.readouterr().out


def test_cli_asymp_negative_rmax_exit_two(tmp_path, capsys):
    rc = main(["run-asymp", "--scenario", str(SCENARIOS / "block3cycle.yaml"),
               "--rmax", "-1", "--out", str(tmp_path / "as.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--rmax" in err
    assert not (tmp_path / "as.csv").exists()


BERNOULLI_TABLE = """
space: {N: 8}
driving: {kind: bernoulli, p: [0.5, 0.5], seed: 3, samples: 4}
operators:
  P0:
    map: {kind: doubling}
  U: {synthetic: uniform}
cocycle:
  table: {0: P0, 1: U}
"""

HALVES8 = """
sets:
  - id: halves
    a: {cells: {range: [0, 4]}}
    b: {cells: {range: [4, 8]}}
"""


def test_cli_skew_zero_mc_samples_exit_two(tmp_path, capsys):
    rc = main(["run-skew", "--scenario", write(tmp_path, BERNOULLI_TABLE),
               "--sets", write(tmp_path, HALVES8, "sets.yaml"),
               "--horizon", "4", "--mc-samples", "0",
               "--out", str(tmp_path / "sk.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--mc-samples" in err


def test_cli_skew_prints_its_certificates(tmp_path, capsys):
    # the cylinder part of b leaves some samples out, so the estimate varies
    sets = write(tmp_path, HALVES8.replace("b: {cells: {range: [4, 8]}}",
                                           "b: {cells: {range: [4, 8]}, "
                                           "env_constraints: {0: 1}}"),
                 "sets.yaml")
    rc = main(["run-skew", "--scenario", write(tmp_path, BERNOULLI_TABLE),
               "--sets", sets, "--horizon", "4", "--mc-samples", "16",
               "--out", str(tmp_path / "mc.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method=monte-carlo" in out and "h_converged=True" in out
    stderr = float(re.search(r"max_stderr=(\S+)", out).group(1))
    assert stderr > 0
    rc = main(["run-skew", "--scenario",
               str(SCENARIOS / "bernoulli_doubling.yaml"),
               "--sets", str(SCENARIOS / "sets_halves.yaml"), "--horizon", "4",
               "--out", str(tmp_path / "cyl.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("h_converged=True") == 3 and "max_stderr" not in out


def test_cli_qc_csv(tmp_path):
    out = tmp_path / "qc.csv"
    rc = main(["run-qc", "--scenario", str(SCENARIOS / "doubling_exact.yaml"),
               "--eps", "0.25,0.125", "--out", str(out)])
    assert rc == 0
    rows = rows_of(out)
    assert [r["eps"] for r in rows] == ["0.125", "0.25"]
    assert [float(r["delta"]) for r in rows] == [0.875, 0.75]


@pytest.mark.parametrize("eps", ["nan", "0.25,inf", "-0.5", "abc", "0.25,", ""])
def test_cli_qc_bad_eps_exit_two(tmp_path, capsys, eps):
    out = tmp_path / "qc.csv"
    rc = main(["run-qc", "--scenario", str(SCENARIOS / "doubling_exact.yaml"),
               "--eps", eps, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "--eps" in err
    assert not out.exists()


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
    (["report"], ["--tol", "inf"]),
    (["run-exactness"], ["--tol", "nan"]),
    (["run-mixing", "--notion", "prior-hom"],
     ["--horizon", "100000000000000000000"]),
    (["run-qc"], ["--horizon", str(MAX_HORIZON + 1)]),
])
def test_cli_bad_horizon_or_tol_exit_two(tmp_path, capsys, command, flags):
    rc = main(command + ["--scenario", str(SCENARIOS / "blockswap.yaml"),
                         "--out", str(tmp_path / "x.csv")] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert flags[0].split("=")[0] in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_qc_at_horizon_zero_exit_two(tmp_path, capsys):
    # the probe reads late times, and only n = 0 lies in the window there
    rc = main(["run-qc", "--scenario", str(SCENARIOS / "blockswap.yaml"),
               "--horizon", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "horizon must be an integer >= 1, got 0" in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_horizon_at_the_cap_is_valid(tmp_path):
    out = tmp_path / "mx.csv"
    rc = main(["run-mixing", "--scenario", str(SCENARIOS / "blockswap.yaml"),
               "--notion", "prior-hom", "--horizon", str(MAX_HORIZON),
               "--out", str(out)])
    assert rc == 0
    assert rows_of(out)[-1]["n"] == str(MAX_HORIZON)


SKEW_HALVES = ["run-skew", "--sets", str(SCENARIOS / "sets_halves.yaml")]


@pytest.mark.parametrize("command, flags", [
    (["run-mixing", "--notion", "prior-hom"], ["--seed-override", "-1"]),
    (["report"], ["--seed-override", "-1"]),
    (SKEW_HALVES, ["--seed-override", "-1"]),
    (["run-exactness"], ["--seed-override", "-1"]),
    (["run-asymp"], ["--seed-override", "-1"]),
    (["run-qc"], ["--seed-override", "-1"]),
    # bernoulli_doubling has a constant table, which reads no Monte-Carlo
    # sample, so only the load-time check can reject these
    (SKEW_HALVES, ["--mc-samples", "-1"]),
    (SKEW_HALVES, ["--mc-samples", "0"]),
])
def test_cli_bad_sampling_override_exit_two(tmp_path, capsys, command, flags):
    rc = main(command + ["--scenario", str(SCENARIOS / "bernoulli_doubling.yaml"),
                         "--horizon", "4", "--out", str(tmp_path / "x.csv")]
              + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert flags[0] in err
    assert not (tmp_path / "x.csv").exists()


def test_every_scenario_flag_goes_through_the_analysis_rules(tmp_path,
                                                              capsys):
    # a flag of a scenario command either names one of its inputs or
    # replaces an analysis field; a bad value of each of the latter is
    # rejected at load, named, and writes no CSV
    overrides = {flag for _, flag in ANALYSIS_KEYS.values() if flag}
    bad = {"--horizon": "-1", "--tol": "nan", "--seed-override": "-1",
           "--rmax": "-1", "--eps": "nan", "--mc-samples": "0"}
    assert set(bad) == overrides
    inputs = {"--sets": str(SCENARIOS / "sets_halves.yaml"),
              "--notion": "prior-hom"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    checked = 0
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--") and s != "--help"}
        if "--scenario" not in flags:
            continue
        assert flags - {"--scenario", "--out", *inputs} <= overrides, name
        for flag in sorted(flags & overrides):
            out = tmp_path / f"{name}{flag}.csv"
            argv = [name, "--scenario",
                    str(SCENARIOS / "bernoulli_doubling.yaml"),
                    "--out", str(out), flag, bad[flag]]
            for f in sorted(flags & set(inputs)):
                argv += [f, inputs[f]]
            assert main(argv) == 2, (name, flag)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flag} ") and "Traceback" not in err
            assert not out.exists()
            checked += 1
    # six scenario commands with three common flags each, plus --rmax,
    # --eps and --mc-samples
    assert checked == 6 * 3 + 3


def test_prior_and_posterior_reports_of_one_kind_are_identical(tmp_path):
    # `report` runs the estimator once per kind and reads both quantifier
    # orders off that run; this holds only while the estimator reads the
    # notion for its kind alone
    for path in (str(SCENARIOS / "rotation_two_ops.yaml"),
                 write(tmp_path, BERNOULLI_TABLE)):
        sc = load_scenario(path)
        omegas = _env_points(sc)
        f_basis, g_obs = _bases(sc)
        for kind in ("hom", "inhom"):
            g_basis = _g_basis_for(sc, kind, g_obs)
            prior, post = (estimate_mixing(sc.cocycle, f"{order}-{kind}",
                                           f_basis, g_basis, omegas, 12, 1e-6)
                           for order in ("prior", "post"))
            assert prior.values.tobytes() == post.values.tobytes()
            assert prior.decayed == post.decayed
            assert np.array_equal(prior.prior_thresholds,
                                  post.prior_thresholds)
            assert np.array_equal(prior.posterior_thresholds,
                                  post.posterior_thresholds)


# -- analysis values checked at load -------------------------------------------

NAN = float("nan")
INF = float("inf")
BAD_VALUES = {  # id -> (scenario, block, key, value)
    "basis-zero": ("block3cycle.yaml", "analysis", "basis_count", 0),
    "basis-negative": ("block3cycle.yaml", "analysis", "basis_count", -1),
    "tol-inf": ("block3cycle.yaml", "analysis", "tol", INF),
    "tol-nan": ("block3cycle.yaml", "analysis", "tol", NAN),
    "tol-zero": ("block3cycle.yaml", "analysis", "tol", 0.0),
    "rmax-negative": ("block3cycle.yaml", "analysis", "rmax", -1),
    "samples-negative": ("bernoulli_doubling.yaml", "driving", "samples", -1),
    "samples-zero": ("bernoulli_doubling.yaml", "driving", "samples", 0),
    "eps-nan": ("block3cycle.yaml", "analysis", "eps", [NAN]),
    "eps-inf": ("block3cycle.yaml", "analysis", "eps", [0.25, INF]),
    "eps-negative": ("block3cycle.yaml", "analysis", "eps", [-0.5]),
    "eps-empty": ("block3cycle.yaml", "analysis", "eps", []),
    "seed-negative": ("bernoulli_doubling.yaml", "driving", "seed", -1),
    "horizon-huge": ("blockswap.yaml", "analysis", "horizon", 10**20),
    "horizon-above-cap": ("blockswap.yaml", "analysis", "horizon",
                          MAX_HORIZON + 1),
    "horizon-negative": ("blockswap.yaml", "analysis", "horizon", -1),
}
# each value with a command that used to crash on it or run with it
BAD_RUNS = [("basis-zero", "report"), ("basis-zero", "run-exactness"),
            ("basis-negative", "report"), ("rmax-negative", "report"),
            ("samples-negative", "report"), ("samples-zero", "run-exactness"),
            ("eps-nan", "run-qc"), ("eps-inf", "run-qc"),
            ("eps-negative", "report"),
            ("tol-inf", "report"), ("tol-nan", "run-exactness"),
            ("tol-zero", "run-qc"), ("seed-negative", "report"),
            ("seed-negative", "run-exactness"), ("horizon-huge", "run-exactness"),
            ("horizon-above-cap", "report")]


def with_value(tmp_path, scenario, block, key, value):
    doc = yaml.safe_load((SCENARIOS / scenario).read_text())
    doc[block][key] = value
    return write(tmp_path, yaml.safe_dump(doc))


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_analysis_value_is_a_scenario_error(tmp_path, case):
    scenario, block, key, value = BAD_VALUES[case]
    with pytest.raises(ScenarioError, match=f"{block}.{key}"):
        load_scenario(with_value(tmp_path, scenario, block, key, value))


@pytest.mark.parametrize("case, command", BAD_RUNS)
def test_cli_bad_analysis_value_exit_two(tmp_path, capsys, case, command):
    scenario, block, key, value = BAD_VALUES[case]
    out = tmp_path / "x.csv"
    rc = main([command, "--scenario",
               with_value(tmp_path, scenario, block, key, value),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{block}.{key}" in err
    assert not out.exists()


def ulam_piecewise(**params):
    """An operators block whose P0 is the Ulam kernel of the identity as a
    piecewise-linear map, with `params` replacing its pieces."""
    pieces = {"breakpoints": [0.0, 1.0], "slopes": [1.0], "intercepts": [0.0]}
    return {"P0": {"map": {"kind": "piecewise_linear", **pieces, **params},
                   "ulam": {"samples": 16, "seed": 0}}}


# a malformed number or map block in a scenario: case -> (block, the block that replaces
# it in doubling_exact, words of the error, the key among them)
MALFORMED_SCENARIOS = {
    "N-word": ("space", {"N": "x"}, "space.N must be an integer, got 'x'"),
    "N-fraction": ("space", {"N": 4.5}, "space.N must be an integer, got 4.5"),
    "weights-words": ("space", {"N": 4, "weights": ["a", "b", "c", "d"]},
                      "space.weights[0] must be a number, got 'a'"),
    "table-feature-word": ("cocycle", {"table": {"x": "P0"}},
                           "cocycle.table feature must be an integer, got 'x'"),
    "rotation-q-zero": ("driving", {"kind": "finite_rotation", "q": 0},
                        "driving: a finite rotation needs q >= 1 points"),
    "rotation-q-bool": ("driving", {"kind": "finite_rotation", "q": True},
                        "driving.q must be an integer, got True"),
    "sigma-scalar": ("driving", {"kind": "finite_permutation", "sigma": 3},
                     "driving.sigma must be a list, got 3"),
    "p-scalar": ("driving", {"kind": "bernoulli", "p": 0.5},
                 "driving.p must be a list, got 0.5"),
    "horizon-fraction": ("analysis", {"horizon": 12.7},
                         "analysis.horizon must be an integer, got 12.7"),
    "map-bits-fraction": ("operators", {"P0": {"map": {"kind": "baker_cyclic",
                                                       "bits": 4.5}}},
                          "operators.P0.map.bits must be an integer, got 4.5"),
    "kernel-bool": ("operators", {"P0": {"kernel": [[True, False]] * 64}},
                    "operators.P0.kernel[0][0] must be a number, got True"),
    "map-slopes-scalar": ("operators", ulam_piecewise(slopes=1.0),
                          "operators.P0.map.slopes must be a list, got 1.0"),
    "constant-name-list": ("cocycle", {"constant": ["P0"]},
                           "cocycle.constant must be an operator name, got list"),
    "table-name-list": ("cocycle", {"table": {0: ["P0"]}},
                        "cocycle.table[0] must be an operator name, got list"),
    # a NaN slope once sent every Ulam sample to the last cell, and `report`
    # passed every check on that kernel
    "map-slope-nan": ("operators", ulam_piecewise(slopes=[NAN]),
                      "bad map spec ('piecewise_linear'): slopes and "
                      "intercepts must be finite"),
    "map-intercept-inf": ("operators", ulam_piecewise(intercepts=[INF]),
                          "bad map spec ('piecewise_linear'): slopes and "
                          "intercepts must be finite"),
    "map-breakpoint-nan": ("operators", ulam_piecewise(
        breakpoints=[0.0, NAN, 1.0], slopes=[1.0, 1.0], intercepts=[0.0, 0.5]),
        "bad map spec ('piecewise_linear'): breakpoints must increase"),
}


@pytest.mark.parametrize("case", MALFORMED_SCENARIOS)
def test_cli_malformed_scenario_number_exit_two(tmp_path, capsys, case):
    block, node, words = MALFORMED_SCENARIOS[case]
    doc = yaml.safe_load((SCENARIOS / "doubling_exact.yaml").read_text())
    doc[block] = node
    out = tmp_path / "x.csv"
    assert main(["run-exactness", "--scenario",
                 write(tmp_path, yaml.safe_dump(doc)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert words in err
    assert not out.exists()


# a malformed side a in a sets file: case -> (its YAML, words of the error)
MALFORMED_SETS = {
    "cells-word": ("{cells: [a]}", "side a cells[0] must be an integer, got 'a'"),
    "cells-fraction": ("{cells: [0.5]}",
                       "side a cells[0] must be an integer, got 0.5"),
    "cells-scalar": ("{cells: 5}", "side a cells must be a list, got 5"),
    "range-one-bound": ("{cells: {range: [0]}}",
                        "side a cells.range [0] does not fit in 256 cells"),
    "constraint-coordinate-word": (
        "{cells: [0], env_constraints: {x: 1}}",
        "side a env_constraints coordinate must be an integer, got 'x'"),
    "indices-scalar": ("{cells: [0], env_indices: 3}",
                       "side a env_indices must be a list, got 3"),
}


@pytest.mark.parametrize("case", MALFORMED_SETS)
def test_cli_malformed_sets_number_exit_two(tmp_path, capsys, case):
    side, words = MALFORMED_SETS[case]
    sets = write(tmp_path, f"sets:\n  - {{id: bad, a: {side}, b: {{cells: [1]}}}}\n",
                 name="sets.yaml")
    out = tmp_path / "x.csv"
    assert main(["run-skew", "--scenario",
                 str(SCENARIOS / "bernoulli_doubling.yaml"), "--sets", sets,
                 "--horizon", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"set pair 'bad' {words}" in err
    assert not out.exists()


@pytest.mark.parametrize("broken", ["missing", "unparsable"])
def test_cli_sets_file_errors_name_the_sets_file(tmp_path, capsys, broken):
    if broken == "missing":
        sets = str(tmp_path / "missing.yaml")
        words = f"sets file not found: {sets}"
    else:
        sets = write(tmp_path, "sets: [oops\n", name="sets.yaml")
        words = f"parse error in sets file {sets}"
    out = tmp_path / "x.csv"
    assert main(["run-skew", "--scenario",
                 str(SCENARIOS / "bernoulli_doubling.yaml"), "--sets", sets,
                 "--horizon", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert words in err
    assert not out.exists()


# -- the libyaml loader against the pure-Python one --------------------------------

needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML is built without libyaml")


@needs_libyaml
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_files_load_alike_under_both_loaders(path):
    text = path.read_text()
    assert yaml.load(text, yaml.CSafeLoader) == yaml.load(text, yaml.SafeLoader)


@pytest.mark.parametrize("loader", [
    pytest.param("CSafeLoader", marks=needs_libyaml), "SafeLoader"])
@pytest.mark.parametrize("kind", ["scenario", "sets"])
def test_unparsable_file_exits_two_under_either_loader(tmp_path, capsys,
                                                       monkeypatch, loader,
                                                       kind):
    if loader == "SafeLoader":  # as on a PyYAML built without libyaml
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used = []
    real_load = yaml.load

    def spying(stream, Loader):
        used.append(Loader.__name__)
        return real_load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spying)
    bad = write(tmp_path, "sets: [oops\n", name="bad.yaml")
    if kind == "scenario":
        argv = ["run-asymp", "--scenario", bad]
        words = f"parse error in scenario file {bad}"
    else:
        argv = ["run-skew", "--scenario",
                str(SCENARIOS / "bernoulli_doubling.yaml"), "--sets", bad,
                "--horizon", "4"]
        words = f"parse error in sets file {bad}"
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert words in err
    assert used[-1] == loader
    assert not out.exists()


# a setting that no scenario key sets, and a map parameter that its kind
# does not read: case -> (scenario, the path of the key in it, its value,
# the error, a command); any value of a key that is not read is an error
UNREAD_KEYS = {
    "asymp-tol-shipped": ("doubling_ulam.yaml", ("analysis", "asymp_tol"), 1e-6,
                          "scenario file has unknown keys ['analysis.asymp_tol']",
                          "run-asymp"),
    "asymp-tol-nan": ("block3cycle.yaml", ("analysis", "asymp_tol"), NAN,
                      "scenario file has unknown keys ['analysis.asymp_tol']",
                      "run-asymp"),
    "asymp-tol-negative": ("block3cycle.yaml", ("analysis", "asymp_tol"), -0.5,
                           "scenario file has unknown keys "
                           "['analysis.asymp_tol']", "report"),
    "asymp-tol-inf": ("block3cycle.yaml", ("analysis", "asymp_tol"), INF,
                      "scenario file has unknown keys ['analysis.asymp_tol']",
                      "report"),
    "map-params": ("baker_cyclic.yaml", ("operators", "P0", "map"),
                   {"kind": "baker_cyclic", "params": {"bits": 4}},
                   "operators.P0.map has unknown keys ['params']",
                   "run-exactness"),
    "map-bits-on-doubling": ("doubling_exact.yaml", ("operators", "P0", "map"),
                             {"kind": "doubling", "bits": 4},
                             "operators.P0.map has unknown keys ['bits']",
                             "report"),
    "map-slopes-on-doubling": ("doubling_exact.yaml", ("operators", "P0", "map"),
                               {"kind": "doubling", "slopes": [2.0]},
                               "operators.P0.map has unknown keys ['slopes']",
                               "report"),
    "output-word": ("doubling_exact.yaml", ("output",), "results",
                    "scenario file has unknown keys ['output']", "run-asymp"),
    "output-block": ("doubling_exact.yaml", ("output",), {"dir": "x"},
                     "scenario file has unknown keys ['output']", "run-asymp"),
}


@pytest.mark.parametrize("case", UNREAD_KEYS)
def test_a_removed_setting_or_unread_map_parameter_exits_two(tmp_path, capsys,
                                                              case):
    scenario, (*parents, key), value, message, command = UNREAD_KEYS[case]
    doc = yaml.safe_load((SCENARIOS / scenario).read_text())
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    path, out = write(tmp_path, yaml.safe_dump(doc)), tmp_path / "x.csv"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(path)
    assert main([command, "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# a sets-file key the loader does not read: case -> (sets file, the error)
UNREAD_SETS_KEYS = {
    "id-typo": ("sets:\n  - {Id: halves, a: {cells: [0]}, b: {cells: [1]}}\n",
                "sets[0] has unknown keys ['Id']"),
    "entry-key": ("sets:\n  - {id: halves, note: x, a: {cells: [0]}, "
                  "b: {cells: [1]}}\n", "sets[0] has unknown keys ['note']"),
    "top-level": ("extra_top: 1\nsets:\n  - {id: halves, a: {cells: [0]}, "
                  "b: {cells: [1]}}\n",
                  "sets file has unknown keys ['extra_top']"),
}


@pytest.mark.parametrize("case", UNREAD_SETS_KEYS)
def test_a_sets_file_key_the_loader_does_not_read_exits_two(tmp_path, capsys,
                                                            case):
    # a typo once ran with the pair named by its index
    text, message = UNREAD_SETS_KEYS[case]
    sets, out = write(tmp_path, text, name="sets.yaml"), tmp_path / "x.csv"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_product_sets(sets, 256)
    assert main(["run-skew", "--scenario",
                 str(SCENARIOS / "bernoulli_doubling.yaml"), "--sets", sets,
                 "--horizon", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_the_readme_scenario_example_runs(tmp_path, capsys):
    # the documented format stays in step with the loader as keys go
    section = (REPO / "README.md").read_text().split("## Scenario files")[1]
    example = section.split("```yaml\n")[1].split("```")[0]
    path = write(tmp_path, example)
    assert load_scenario(path).name == "rotation_two_ops"
    assert main(["report", "--scenario", path]) == 0
    assert "all consistency checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("command, horizon, verdict", [
    ("run-mixing", 5, "decayed=False"), ("run-mixing", 6, "decayed=True"),
    ("run-exactness", 5, "exact=False"), ("run-exactness", 6, "exact=True")])
def test_cli_mixing_and_exactness_read_their_window_from_the_horizon(
        tmp_path, capsys, command, horizon, verdict):
    # the window at horizons 5 and 6 is the last step alone; the 64-cell
    # exact doubling kernel flattens every curve in six steps
    argv = [command, "--scenario", str(SCENARIOS / "doubling_exact.yaml"),
            "--horizon", str(horizon), "--out", str(tmp_path / "x.csv")]
    if command == "run-mixing":
        argv += ["--notion", "prior-hom"]
    assert main(argv) == 0
    assert verdict in capsys.readouterr().out


@pytest.mark.parametrize("horizon, decayed", [(4, False), (10, False),
                                              (20, True), (40, True)])
def test_cli_skew_reads_its_window_from_the_horizon(tmp_path, capsys, horizon,
                                                    decayed):
    assert main(["run-skew", "--scenario",
                 str(SCENARIOS / "bernoulli_doubling.yaml"),
                 "--sets", str(SCENARIOS / "sets_halves.yaml"),
                 "--horizon", str(horizon),
                 "--out", str(tmp_path / "s.csv")]) == 0
    out = capsys.readouterr().out
    assert out.count(f"decayed={decayed}") == 3


@pytest.mark.parametrize("command", ["run-mixing", "run-exactness", "run-skew",
                                     "run-qc", "report"])
def test_cli_scenario_setting_a_window_fraction_exit_two(tmp_path, capsys,
                                                         command):
    # the verdict window is fixed; a scenario that still sets its fraction
    # names the key instead of running with a value it does not read
    path = with_value(tmp_path, "bernoulli_doubling.yaml", "analysis",
                      "tail_fraction", 0.1)
    out = tmp_path / "x.csv"
    argv = [command, "--scenario", path, "--out", str(out)]
    if command == "run-mixing":
        argv += ["--notion", "prior-hom"]
    if command == "run-skew":
        argv += ["--sets", str(SCENARIOS / "sets_halves.yaml")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: scenario file has unknown keys ['analysis.tail_fraction']\n")
    assert not out.exists()


def test_unreadable_analysis_value_is_a_scenario_error(tmp_path):
    path = with_value(tmp_path, "block3cycle.yaml", "analysis", "rmax", NAN)
    with pytest.raises(ScenarioError,
                       match="analysis.rmax must be an integer, got nan"):
        load_scenario(path)




PERIODICITY_CHECKS = ["periodicity-vs-exactness",
                      "periodicity-vs-travelling-mixing",
                      "periodicity-vs-hom-mixing", "restricted-power-exact"]


def test_cli_report_failures_exit_one(tmp_path, capsys):
    # no Ulam curve falls below 1e-30, so the r = 1 reading at the window
    # start (n = 36), where the detector's burn-in ends, disagrees with every
    # decay verdict
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", str(SCENARIOS / "doubling_ulam.yaml"),
                 "--tol", "1e-30", "--out", str(out)]) == 1
    fails = [r["check"] for r in rows_of(out) if r["status"] == "FAIL"]
    assert fails == PERIODICITY_CHECKS
    assert "4 consistency check(s) failed" in capsys.readouterr().out


def assert_no_periodicity_found(path):
    """The report's only periodicity row is the SKIP of a detector that found
    no decomposition, and no row is a FAIL."""
    rows = rows_of(path)
    assert [(r["check"], r["status"], r["detail"]) for r in rows
            if r["check"] in PERIODICITY_CHECKS] == [
        ("periodicity-vs-exactness", "SKIP", "none found: pushed profile "
         "does not land in a single component")]
    assert not any(r["status"] == "FAIL" for r in rows)


def test_report_reads_periodicity_from_an_early_window_start(tmp_path, capsys):
    # at horizon 4 the window is n = 4, which reads the 64-cell exact
    # doubling curves before they flatten (six steps); the detector reads
    # from n = 4 too, where each cell's mass covers one of four 16-cell
    # blocks, and one more step spreads a block's profile over two blocks
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", str(SCENARIOS / "doubling_exact.yaml"),
                 "--horizon", "4", "--out", str(out)]) == 0
    assert "all consistency checks passed" in capsys.readouterr().out
    assert_no_periodicity_found(out)
    details = {r["check"]: r["detail"] for r in rows_of(out)}
    assert "prior-hom=False" in details["mixing-notions-equivalent"]
    assert details["exactness-routes-agree"] == "norm=False dual=False"


def test_cli_report_on_bernoulli_driving(tmp_path, capsys):
    # sampled driving probes its first four samples; the homogeneous-mixing
    # and restricted-power checks need a finite point set, so they are SKIPs
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario",
                 str(SCENARIOS / "bernoulli_doubling.yaml"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    rows = rows_of(out)
    assert printed[:-1] == [
        f"[{r['status']}] {r['check']} @ omega_{r['omega_id']} {r['detail']}"
        for r in rows]
    assert printed[-1] == "bernoulli_doubling: all consistency checks passed"
    probed = [r["omega_id"] for r in rows
              if r["check"] == "exactness-routes-agree"]
    assert probed == ["0", "1", "2", "3"]
    skips = [(r["check"], r["omega_id"], r["status"]) for r in rows
             if r["detail"] == "finite driving only"]
    assert skips == [(name, str(w), "SKIP") for w in range(4)
                     for name in PERIODICITY_CHECKS[2:]]


# the block swap A and the four-cell shift B over a fair coin: A alone keeps
# two components and B alone four, but every orbit that meets both merges all
# four cells, and each probed point is exact
BERNOULLI_BLOCK_CYCLES = """
space: {N: 4}
driving: {kind: bernoulli, p: [0.5, 0.5], samples: 8}
operators:
  A: {synthetic: {block_cycle: 2}}
  B: {synthetic: {block_cycle: 4}}
cocycle:
  table: {0: A, 1: B}
analysis: {rmax: 8}
"""


def test_report_reads_periodicity_where_the_verdicts_read(tmp_path, capsys):
    # from the verdict window's start (n = 36) every probed orbit has met
    # both kernels, so the detector finds one component at each point, as
    # the exact verdicts there require
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", write(tmp_path, BERNOULLI_BLOCK_CYCLES),
                 "--out", str(out)]) == 0
    assert "all consistency checks passed" in capsys.readouterr().out
    rows = rows_of(out)
    assert [(r["omega_id"], r["status"], r["detail"]) for r in rows
            if r["check"] == "periodicity-vs-exactness"] == [
        (str(w), "PASS", "r=1 exact=True") for w in range(4)]
    assert not any(r["status"] == "FAIL" for r in rows)


# one operator over a fair coin: every probed orbit meets the same kernels
BERNOULLI_CONSTANT = """
space: {N: 16}
driving: {kind: bernoulli, p: [0.5, 0.5], samples: 8}
operators:
  P0:
    map: {kind: doubling}
cocycle: {constant: P0}
"""


@pytest.mark.parametrize("name, runs, probed", [
    ("bernoulli_constant", 1, 4), ("rotation_two_ops", 2, 2)])
def test_report_runs_per_point_routes_once_per_kernel_sequence(
        tmp_path, monkeypatch, name, runs, probed):
    # the four Bernoulli points share one kernel sequence; the two rotation
    # points meet P0 and U in opposite orders, so each runs its own routes
    calls = {"exactness": [], "periodicity": []}

    def counting(kind, route):
        def counted(c, *args, **kwargs):
            calls[kind].append(c)
            return route(c, *args, **kwargs)
        return counted

    monkeypatch.setattr(cocyclelab.cli, "exactness_report",
                        counting("exactness", exactness_report))
    monkeypatch.setattr(cocyclelab.cli, "detect_periodicity",
                        counting("periodicity", detect_periodicity))
    path = (write(tmp_path, BERNOULLI_CONSTANT) if name == "bernoulli_constant"
            else str(SCENARIOS / f"{name}.yaml"))
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", path, "--out", str(out)]) == 0
    c = calls["periodicity"][0]
    assert len(calls["periodicity"]) == runs
    # a restricted power runs its exactness report on its own cocycle
    assert sum(x is c for x in calls["exactness"]) == runs
    rows = rows_of(out)
    for check in ("exactness-routes-agree", "periodicity-vs-exactness"):
        assert [r["omega_id"] for r in rows if r["check"] == check] == [
            str(w) for w in range(probed)]


def test_a_constant_table_gives_bit_equal_routes_at_distinct_points(tmp_path):
    # the premise of running a route once per kernel sequence: the exactness
    # report and the detector read a point only through its operators
    sc = load_scenario(write(tmp_path, BERNOULLI_CONSTANT))
    a = sc.analysis
    pts = sample_env(sc.driving, 2, a.env_seed)
    assert pts[0] != pts[1]
    f_basis, g_obs = _bases(sc)
    reps = [exactness_report(sc.cocycle, w, f_basis, g_obs, a.horizon, a.tol)
            for w in pts]
    decs = [detect_periodicity(sc.cocycle, w, a.horizon, a.rmax) for w in pts]
    assert decs[0].found

    def arrays(rep, dec):
        return [rep.norm_curves, rep.flatness_curves, rep.mean_distance_curves,
                dec.rho, dec.lambdas, np.array([dec.residual, dec.burn_in]),
                *dec.supports, *(d.mass for d in dec.densities)]

    first, second = (arrays(r, d) for r, d in zip(reps, decs))
    assert len(first) == len(second)
    for x, y in zip(first, second):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# two fixed points: from omega_0 the cell map A swaps the blocks {0, 1} and
# {2, 3} cell by cell, so A^2 is the identity; from omega_1 the block swap B
# spreads each block uniformly onto the other, so B^2 restricted to a block
# is uniform, hence exact
TWO_FIXED_POINTS = """
space: {N: 4}
driving: {kind: finite_permutation, sigma: [0, 1]}
operators:
  A:
    kernel: [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
  B:
    synthetic: {block_cycle: 2}
cocycle:
  table: {0: A, 1: B}
"""


def test_restricted_power_runs_from_the_probed_point(tmp_path):
    # omega_0 has four one-cell components and no restricted power; omega_1
    # has two blocks, whose restricted squares must start at omega_1
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", write(tmp_path, TWO_FIXED_POINTS),
                 "--out", str(out)]) == 0
    restricted = [(r["omega_id"], r["status"], r["detail"])
                  for r in rows_of(out) if r["check"] == "restricted-power-exact"]
    assert restricted == [("1", "PASS", "component=0 cells=0..1 (2)"),
                          ("1", "PASS", "component=1 cells=2..3 (2)")]


# a rotation of period two alternating the block swap and the identity: each
# point's decomposition has the two blocks, but the cycle-length power
# composed from omega_0 (A, or A then B) swaps them, so no restricted power
# is defined from either point
SWAP_THEN_IDENTITY = """
space: {N: 4}
driving: {kind: finite_rotation, q: 2}
operators:
  A: {synthetic: {block_cycle: 2}}
  B: {synthetic: identity}
cocycle:
  table: {0: A, 1: B}
"""


def test_restricted_power_on_a_support_that_is_not_invariant_is_a_skip(
        tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", write(tmp_path, SWAP_THEN_IDENTITY),
                 "--out", str(out)]) == 0
    assert "all consistency checks passed" in capsys.readouterr().out
    restricted = [(r["omega_id"], r["status"], r["detail"])
                  for r in rows_of(out) if r["check"] == "restricted-power-exact"]
    leak = ("component support is not invariant from every environment "
            "point (mass leak 1.000e+00)")
    assert restricted == [(w, "SKIP", f"component={i}: {leak}")
                          for w in ("0", "1") for i in (0, 1)]


@pytest.mark.parametrize("name", sorted(
    f.name for f in SCENARIOS.glob("*.yaml") if not f.name.startswith("sets_")))
def test_report_passes_on_every_shipped_scenario(tmp_path, capsys, name):
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", str(SCENARIOS / name),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert not any(line.startswith("[FAIL]") for line in printed)
    rows = rows_of(out)
    assert printed[:-1] == [
        f"[{r['status']}] {r['check']} @ omega_{r['omega_id']} {r['detail']}"
        for r in rows]
    assert printed[-1].endswith(": all consistency checks passed")


# two fixed points: omega_0 sees the doubling kernel forever, so it mixes and
# its decomposition has one component; omega_1 sees the identity, which
# neither mixes nor merges any of its eight cells
DOUBLING_AND_IDENTITY = """
space: {N: 8}
driving: {kind: finite_permutation, sigma: [0, 1]}
operators:
  D: {map: {kind: doubling}}
  I: {synthetic: identity}
cocycle:
  table: {0: D, 1: I}
"""


def test_periodicity_checks_read_the_probed_points_own_mixing_verdict(
        tmp_path):
    out = tmp_path / "report.csv"
    scenario = write(tmp_path, DOUBLING_AND_IDENTITY)
    assert main(["report", "--scenario", scenario, "--out", str(out)]) == 0
    rows = {(r["check"], r["omega_id"]): (r["status"], r["detail"])
            for r in rows_of(out)}
    # the verdict over both points is False, but omega_0's own curves decay
    assert rows["mixing-notions-equivalent", "all"][1] == (
        "prior-hom=False post-hom=False prior-inhom=False post-inhom=False")
    assert rows["periodicity-vs-travelling-mixing", "0"] == (
        "PASS", "r=1 prior-inhom=True post-inhom=True")
    assert rows["periodicity-vs-hom-mixing", "0"] == (
        "PASS", "r=1 prior-hom=True")
    assert rows["periodicity-vs-travelling-mixing", "1"] == (
        "PASS", "r=8 prior-inhom=False post-inhom=False")
    assert rows["periodicity-vs-hom-mixing", "1"] == (
        "PASS", "r=8 prior-hom=False")


# x -> x / 2 on 1024 cells: one Ulam sample per cell lands in cell i // 2,
# so the kernel is the exact cell map, and the preimage partition collapses
# to one atom at n = 10; the three basis differences include cells 511 and
# 512, the last pair to merge, so the norm route also settles at n = 10
HALVING1024 = """
space: {N: 1024}
driving: {kind: finite_rotation, q: 1}
operators:
  H:
    map: {kind: piecewise_linear, breakpoints: [0.0, 1.0], slopes: [0.5],
          intercepts: [0.0]}
    ulam: {samples: 1, seed: 0}
cocycle: {constant: H}
analysis: {basis_count: 3}
"""


@pytest.mark.parametrize("horizon, exact", [(10, False), (11, True)])
def test_report_tail_route_reads_the_verdict_window(tmp_path, capsys, horizon,
                                                    exact):
    # at horizon 10 the window is n = 9..10 and starts before the collapse:
    # the tail route must not call the partition trivial from the last step
    assert main(["report", "--scenario", write(tmp_path, HALVING1024),
                 "--horizon", str(horizon)]) == 0
    out = capsys.readouterr().out
    assert (f"[PASS] tail-partition-matches @ omega_0 tail_trivial={exact} "
            f"exact={exact}") in out


UNIFORM8 = """
space: {N: 8}
driving: {kind: finite_rotation, q: 1}
operators:
  U: {synthetic: uniform}
cocycle: {constant: U}
"""


@pytest.mark.parametrize("command", ["run-mixing", "report"])
def test_horizon_one_reads_its_window_from_n_one(tmp_path, capsys, command):
    # the window at horizon 1 is n = 1 alone; the uniform kernel is exact
    # after one step, so every curve has decayed there
    out = tmp_path / "x.csv"
    argv = [command, "--scenario", write(tmp_path, UNIFORM8),
            "--horizon", "1", "--out", str(out)]
    if command == "run-mixing":
        argv += ["--notion", "prior-hom"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert ("decayed=True" if command == "run-mixing"
            else "all consistency checks passed") in captured.out


def test_report_at_horizon_zero_reads_periodicity_at_n_zero(tmp_path, capsys):
    # at horizon 0 the verdict window and the detector both read n = 0: the
    # identity, whose eight one-cell components the uniform kernel merges in
    # one step
    out = tmp_path / "report.csv"
    assert main(["report", "--scenario", write(tmp_path, UNIFORM8),
                 "--horizon", "0", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert_no_periodicity_found(out)


def test_custom_map_kind_is_unknown(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("kind: doubling", "kind: custom"))
    with pytest.raises(ScenarioError, match="unknown map kind 'custom'"):
        load_scenario(path)
    assert main(["run-asymp", "--scenario", path,
                 "--out", str(tmp_path / "a.csv")]) == 2
    assert "unknown map kind" in capsys.readouterr().err


# -- the CSV writer against the row-by-row writer it replaced ---------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def reference_csv(path, header, rows):
    """One csv.writer row per table row, each cell formatted on its own."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def block_rows(blocks):
    """The rows a list of `_write_csv` blocks stands for, label by label."""
    rows = []
    for labels, columns in blocks:
        if not columns:
            rows += [tuple(lab) for lab in labels]
            continue
        width = np.shape(columns[0])[-1]
        for k, lab in enumerate(labels):
            for m in range(width):
                rows.append((*lab, *(np.asarray(c)[m] if np.ndim(c) == 1
                                     else np.asarray(c)[k, m]
                                     for c in columns)))
    return rows


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e-5, 9.9999999999999991e-06,
               1.0000000000000001e-05, 1e16, 9999999999999998.0,
               1.0000000000000002e16, 1e17, 0.1, 1 / 3, -1.5,
               float("inf"), -float("inf"), float("nan")]
LABEL_TEXT = st.text(alphabet=[",", '"', "\n", "\r", " ", "a", "%", "é", "0"],
                     max_size=6)


@st.composite
def csv_tables(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(0, 3))
        count = draw(st.integers(1, 3))
        field = st.one_of(LABEL_TEXT, st.integers(-10**6, 10**6),
                          st.integers(-2**63, 2**63 - 1).map(np.int64))
        labels = [tuple(draw(field) for _ in range(arity))
                  for _ in range(count)]
        width = draw(st.integers(0, 4))
        columns = []
        for _ in range(draw(st.integers(0 if arity else 1, 3))):
            shape = (width,) if draw(st.booleans()) else (count, width)
            if draw(st.booleans()):
                values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
                dtype = float
            else:
                values, dtype = st.integers(-2**63, 2**63 - 1), np.int64
            cells = draw(st.lists(values, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
            columns.append(np.array(cells, dtype=dtype).reshape(shape))
        blocks.append((labels, tuple(columns)))
    return blocks


@given(blocks=csv_tables(), header=st.lists(LABEL_TEXT, min_size=1,
                                            max_size=4))
def test_block_writer_matches_the_row_writer(tmp_path_factory, blocks,
                                             header):
    d = tmp_path_factory.mktemp("csv")
    _write_csv(str(d / "new.csv"), header, blocks)
    reference_csv(str(d / "old.csv"), header, block_rows(blocks))
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_block_writer_keeps_awkward_labels_whole(tmp_path):
    # one writer quotes every head, so a newline inside a label must not
    # split it, and a '%' must not reach the block template as a slot
    labels = [("a\nb", 1), ('say "hi"', 2), ("x,y", 3), ("50%", 4), ("", 5),
              ("%s\r\n%", 6)]
    blocks = [(labels, (np.arange(3), np.arange(18.0).reshape(6, 3) / 7)),
              ([(), ("%d\n",)], ())]
    header = ("label", "id", "n", "value")
    _write_csv(str(tmp_path / "new.csv"), header, blocks)
    reference_csv(str(tmp_path / "old.csv"), header, block_rows(blocks))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("notion", ["prior-hom", "post-hom", "prior-inhom",
                                    "post-inhom"])
@pytest.mark.parametrize("scenario", ["blockswap", "rotation_two_ops"])
def test_cli_mixing_csv_bytes(tmp_path, scenario, notion):
    # rotation_two_ops has two environment points, so omega_id 1 follows 0
    path = str(SCENARIOS / f"{scenario}.yaml")
    out = tmp_path / "mx.csv"
    assert main(["run-mixing", "--scenario", path, "--notion", notion,
                 "--horizon", "6", "--out", str(out)]) == 0
    sc = load_scenario(path)
    omegas = _env_points(sc)
    f_basis, g_obs = _bases(sc)
    g_basis = _g_basis_for(sc, notion, g_obs)
    rep = estimate_mixing(sc.cocycle, notion, f_basis, g_basis, omegas, 6,
                          sc.analysis.tol)
    n_w, n_f, n_g, n_n = rep.values.shape
    rows = [(notion, w, i, j, n, rep.values[w, i, j, n])
            for w in range(n_w) for i in range(n_f)
            for j in range(n_g) for n in range(n_n)]
    reference_csv(tmp_path / "ref.csv",
                  ("notion", "omega_id", "f_id", "g_id", "n", "value"), rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("scenario", ["baker_cyclic", "doubling_exact"])
def test_cli_exactness_csv_bytes(tmp_path, scenario):
    path = str(SCENARIOS / f"{scenario}.yaml")
    out = tmp_path / "ex.csv"
    assert main(["run-exactness", "--scenario", path, "--horizon", "12",
                 "--out", str(out)]) == 0
    sc = load_scenario(path)
    f_basis, g_obs = _bases(sc)
    rows = []
    for w, omega in enumerate(_env_points(sc)):
        rep = exactness_report(sc.cocycle, omega, f_basis, g_obs, 12,
                               sc.analysis.tol)
        rows += [(w, "norm", n, rep.norm_curves[:, n].max())
                 for n in range(13)]
        rows += [(w, "lin", n, rep.flatness_curves[:, n].max())
                 for n in range(13)]
        if rep.tail is not None:
            rows += [(w, "tail", n, int(c))
                     for n, c in enumerate(rep.tail.atom_counts)]
    reference_csv(tmp_path / "ref.csv",
                  ("omega_id", "test", "n", "value_or_flag"), rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cli_skew_csv_bytes_with_a_quoted_pair_id(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "sets_halves.yaml").read_text())
    doc["sets"][1]["id"] = 'a,"b"'
    sets = write(tmp_path, yaml.safe_dump(doc), name="sets.yaml")
    path = str(SCENARIOS / "bernoulli_doubling.yaml")
    out = tmp_path / "sk.csv"
    assert main(["run-skew", "--scenario", path, "--sets", sets,
                 "--horizon", "8", "--out", str(out)]) == 0
    sc = load_scenario(path)
    nc = NormalizedCocycle(cocycle=sc.cocycle,
                           h=build_invariant_density_map(sc.cocycle))
    rows = []
    for pair_id, a, b in load_product_sets(sets, sc.space.n):
        rep = skew_mixing_curve(nc, a, b, 8, sc.analysis.tol,
                                mc_samples=sc.analysis.env_samples,
                                seed=sc.analysis.env_seed)
        rows += [(pair_id, n, rep.joint[n], rep.product, rep.discrepancy[n])
                 for n in range(9)]
    reference_csv(tmp_path / "ref.csv", ("set_pair_id", "n", "nu_joint",
                                         "nu_product", "discrepancy"), rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b'"a,""b""",0,' in out.read_bytes()


# -- python -m cocyclelab in a real process ----------------------------------------


def run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, "-m", "cocyclelab", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_module_entry_point_exit_codes(tmp_path):
    out = tmp_path / "ce.csv"
    ok = run_module("run-counterexample", "--k", "2", "--out", str(out))
    assert ok.returncode == 0, ok.stderr
    assert out.read_text().startswith("n,value\n1,0.5\n")
    bad = run_module("run-exactness", "--scenario",
                     with_value(tmp_path, "block3cycle.yaml", "analysis",
                                "tol", NAN),
                     "--out", str(tmp_path / "x.csv"))
    assert bad.returncode == 2
    assert "analysis.tol" in bad.stderr
    assert "Traceback" not in bad.stderr
    unwritable = run_module("run-counterexample", "--k", "2", "--out",
                            str(tmp_path / "no-such-dir" / "ce.csv"))
    assert unwritable.returncode == 2
    assert unwritable.stderr.startswith("error:")
    assert "Traceback" not in unwritable.stderr
