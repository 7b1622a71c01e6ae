"""Cold start: scipy.sparse is imported only where a CSR kernel is built, so
importing the package and running a small-scenario command, the periodicity
detector of ``report`` and ``run-asymp`` included, leave it unloaded, as does
``run-counterexample`` at any k, which relabels cells and builds no kernel,
and a point-dependent Bernoulli Monte-Carlo curve at 256 cells, whose
pullbacks push by column gathers;
and the OpenBLAS thread-count functions are looked up on first use, not at
import.
Each check runs in a fresh interpreter, since any earlier test may have
loaded it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

# runs the CLI in-process and reports whether scipy.sparse got loaded
RUN_CLI = """
import sys
from cocyclelab.cli import main
code = main(sys.argv[1:])
print("scipy.sparse" in sys.modules, code)
"""


def fresh_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    out = fresh_python("-c", "import sys, cocyclelab.cli; "
                             "print('scipy.sparse' in sys.modules)")
    assert out == ["False"]


@pytest.mark.parametrize("command, loaded", [
    (["run-exactness", "--scenario", "scenarios/doubling_exact.yaml"], False),
    (["run-mixing", "--scenario", "scenarios/blockswap.yaml",
      "--notion", "prior-hom"], False),
    (["report", "--scenario", "scenarios/doubling_exact.yaml"], False),
    (["run-asymp", "--scenario", "scenarios/block3cycle.yaml"], False),
    (["run-counterexample", "--k", "8"], False),
])
def test_scipy_sparse_is_loaded_only_where_it_runs(tmp_path, command, loaded):
    # the detector (report, run-asymp) labels its row-cell graph in numpy
    out = fresh_python("-c", RUN_CLI, *command,
                       "--out", str(tmp_path / "out.csv"))
    assert out[-2:] == [str(loaded), "0"]


# a point-dependent table over a Bernoulli shift at N = 256: the Monte-Carlo
# skew route pulls back every sampled point through the kernels' column
# gathers, which numpy builds and pushes alone
RUN_BERNOULLI_MC = """
import sys
from cocyclelab import cocycle, driving, measure, skew, transfer
space = measure.FiniteMeasureSpace.uniform(256)
table = {s: transfer.pf_ulam(transfer.MapSpec(kind), space, 16, s)
         for s, kind in enumerate(("doubling", "tent"))}
c = cocycle.CocycleFamily(driving=driving.bernoulli_shift([0.5, 0.5]),
                          table=table)
nc = cocycle.NormalizedCocycle(cocycle=c,
                               h=cocycle.build_invariant_density_map(c))
half = skew.ProductSet(range(128))
rep = skew.skew_mixing_curve(nc, half, half, 4, 1e-6, mc_samples=8, seed=1)
gathers = all(P.column_gathers is not None for P in table.values())
print("scipy.sparse" in sys.modules, rep.method, rep.h_converged, gathers)
"""


def test_a_bernoulli_monte_carlo_curve_leaves_scipy_sparse_unloaded():
    assert fresh_python("-c", RUN_BERNOULLI_MC) == ["False", "monte-carlo",
                                                     "True", "True"]


# reports the lookups made by the import, then runs the CLI in-process from a
# caller at two OpenBLAS threads and reports the count it left
RUN_CLI_AT_TWO_THREADS = """
import sys
import cocyclelab.cli
from cocyclelab import measure
print(measure._blas_threads.cache_info().misses)
threads = measure._blas_threads()
if threads is None:
    print("none", "none")
    sys.exit()
get, set_ = threads
set_(2)
code = cocyclelab.cli.main(sys.argv[1:])
print(get(), code)
"""


def test_blas_threads_are_looked_up_on_first_use_and_restored(tmp_path):
    out = fresh_python("-c", RUN_CLI_AT_TWO_THREADS, "report", "--scenario",
                       "scenarios/doubling_exact.yaml",
                       "--out", str(tmp_path / "out.csv"))
    assert out[0] == "0"
    if out[-2:] == ["none", "none"]:
        pytest.skip("no OpenBLAS thread-count symbols found")
    assert out[-2:] == ["2", "0"]
