"""Tests of the benchmark itself: tiny passes of every workload pass their
oracle checks, tracing leaves the program's numbers and functions as they
were, and the self-time arithmetic holds on a hand-built span tree.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cocyclelab.cli  # noqa: E402
import cocyclelab.measure  # noqa: E402
import cocyclelab.mixing  # noqa: E402
from inputs import derive_seed, write_inputs  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS, run_pass  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_times_subtract_the_union_of_child_spans():
    spans = [
        ("a", 0.0, 10.0, -1),   # 0: children 1 and 2 overlap on [3, 4]
        ("b", 1.0, 4.0, 0),     # 1: child 3
        ("c", 3.0, 6.0, 0),     # 2
        ("d", 2.0, 3.0, 1),     # 3
        ("e", 20.0, 21.0, -1),  # 4: child 5 runs past its parent's end
        ("d", 20.5, 22.0, 4),   # 5
    ]
    got = self_times(spans)
    assert got["a"] == (1, pytest.approx(5.0))
    assert got["b"] == (1, pytest.approx(2.0))
    assert got["c"] == (1, pytest.approx(3.0))
    assert got["d"] == (2, pytest.approx(1.0 + 1.5))
    assert got["e"] == (1, pytest.approx(0.5))


def test_derived_seeds_are_fixed_by_seed_and_name():
    assert derive_seed(7, "x") == derive_seed(7, "x")
    assert derive_seed(7, "x") != derive_seed(8, "x")
    assert derive_seed(7, "x") != derive_seed(7, "y")
    assert 0 <= derive_seed(DEFAULT_SEED, "x") < 2**31


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_passes_every_oracle_check(workload, tmp_path):
    params = write_inputs(workload, DEFAULT_SEED, tmp_path)
    result = run_pass(workload, params, tmp_path, size="tiny")
    assert result["attempted"] > 0
    assert result["failures"] == []
    assert result["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_keeps_outputs_and_restores_functions(workload, tmp_path):
    params = write_inputs(workload, DEFAULT_SEED, tmp_path)
    originals = (cocyclelab.cli.main, cocyclelab.measure.mass_apply,
                 cocyclelab.mixing.mass_apply)
    plain = run_pass(workload, params, tmp_path, size="tiny")
    traced = run_pass(workload, params, tmp_path, size="tiny", tracer=Tracer())
    assert traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    layers = traced["layers"]
    assert 0 < layers["trace.self_s_total"] <= sum(traced["wall_s"].values())
    assert layers["measure.mass_apply.calls"] > 0
    assert (cocyclelab.cli.main, cocyclelab.measure.mass_apply,
            cocyclelab.mixing.mass_apply) == originals
