"""The four benchmark workloads and their oracle checks.

A workload pass is a list of operations.  The benchmark times the ``run``
calls of a whole pass, then, outside the timed region, applies each
operation's oracle ``check`` and digests its ``outputs``.  An operation
that raises or fails a check counts as failed.

Expected verdicts are constants taken from the scenario file headers and
the acceptance gates in ``tests/test_acceptance.py`` (exact identities,
planted constructions, probabilities of cylinder sets), never values copied
back from the program's output.

Why these workloads:

* ``cli-suite`` is what users run: ``cocyclelab report`` on every shipped
  cocycle scenario plus the ``run-*`` commands.  It is the only workload that
  measures CSV formatting and scenario loading.
* ``mixing-sweep`` is the mixing-equivalence gate with 8 environment samples
  drawn as ``point(i % q)``: every point repeats, so deduplication and
  rate-fit changes show here.
* ``large-grid`` runs large-N primitives (a dense Ulam kernel larger than
  the last-level cache, a dense compose, a 2^16-cell sparse permutation,
  the periodicity detector) with little mixing or rate-fit work.
* ``bernoulli-mc`` is the only workload with a point-dependent table over
  Bernoulli driving: non-constant pullbacks, backward ``advance`` and the
  Monte-Carlo skew route, with no repeated environment points.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re
from pathlib import Path
from typing import Callable

import numpy as np

import cocyclelab.cli
from cocyclelab import asymptotic, cocycle, driving, exactness, measure, \
    mixing, scenario, skew, transfer

# Verdicts stated in the scenario headers.  bernoulli_doubling's header
# states none; its kernel is the N = 256 doubling Ulam kernel that the
# refinement gate requires to mix.  r = None means "none found".
EXPECTED = {
    "baker_cyclic": {"mixing": False, "exact": False, "r": 16},
    "baker_planar_ulam": {"mixing": True},
    "bernoulli_doubling": {"mixing": True},
    "block3cycle": {"mixing": False, "exact": False, "r": 3},
    "blockswap": {"mixing": False, "exact": False, "r": 2},
    "doubling_exact": {"mixing": True, "exact": True, "r": 1},
    "doubling_ulam": {"mixing": True, "exact": True, "r": 1},
    "identity": {"mixing": False, "exact": False, "r": None},
    "rotation_two_ops": {"mixing": True, "exact": True, "r": 1},
    "tent_ulam": {"mixing": True},
}
# Monte-Carlo residuals must sit within this many standard errors of zero
MC_SIGMAS = 5.0

SIZES = {
    "full": {
        "cli_reports": None,  # every shipped cocycle scenario
        "cli_heavy": True,
        "counterexample_k": 8,
        "sweep_scenarios": None,  # every finite-driving scenario
        "sweep_omegas": 8,
        "ulam_n": 4096, "ulam_samples": 256, "ulam_basis": 12,
        "exact_n": 1024, "baker_bits": 16, "exact_basis": 32,
        "periodicity_n": 1024,
        "mc_n": 256, "mc_ulam_samples": 1000, "mc_samples": 64,
        "mc_horizon": 40,
    },
    "tiny": {
        "cli_reports": ("blockswap", "block3cycle", "identity",
                        "rotation_two_ops"),
        "cli_heavy": False,
        "counterexample_k": 2,
        "sweep_scenarios": ("blockswap", "identity", "rotation_two_ops"),
        "sweep_omegas": 2,
        "ulam_n": 256, "ulam_samples": 256, "ulam_basis": 12,
        "exact_n": 64, "baker_bits": 8, "exact_basis": 16,
        "periodicity_n": 64,
        "mc_n": 64, "mc_ulam_samples": 200, "mc_samples": 8,
        "mc_horizon": 20,
    },
}


@dataclasses.dataclass
class Op:
    """One oracle-checked operation of a pass."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]      # -> [(label, ok), ...]
    outputs: Callable[[object], dict]    # -> {output name: bytes}


def build_ops(workload: str, params: dict, work_dir: Path, size: str) -> list:
    """Fresh operations for one pass of the workload."""
    builders = {"cli-suite": _cli_suite, "mixing-sweep": _mixing_sweep,
                "large-grid": _large_grid, "bernoulli-mc": _bernoulli_mc}
    return builders[workload](params, work_dir, SIZES[size])


def _digest_arrays(prefix: str, **arrays) -> dict:
    return {f"{prefix}.{k}": np.ascontiguousarray(v).tobytes()
            for k, v in arrays.items()}


# -- cli-suite ------------------------------------------------------------------

@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    out_path: Path


def _cli(argv: list, out_path: Path) -> Callable[[], CliResult]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cocyclelab.cli.main(argv)
        return CliResult(code, buf.getvalue(), out_path)
    return run


def _cli_outputs(name):
    def outputs(res: CliResult) -> dict:
        return {f"{name}.stdout": res.stdout.encode(),
                f"{name}.csv": res.out_path.read_bytes()}
    return outputs


def _flags(text: str, key: str) -> list:
    return re.findall(rf"\b{re.escape(key)}=(\S+)", text)


def _report_checks(name: str):
    expected = EXPECTED.get(name)

    def check(res: CliResult) -> list:
        out = res.stdout
        checks = [("exit 0", res.code == 0),
                  ("no FAIL lines", "[FAIL]" not in out),
                  ("oracle known", expected is not None)]
        if expected is None:
            return checks
        mix_line = next((ln for ln in out.splitlines()
                         if "mixing-notions-equivalent" in ln), "")
        verdicts = [_flags(mix_line, n) for n in mixing.NOTIONS]
        checks.append(("four notions = header verdict",
                       all(v == [str(expected["mixing"])] for v in verdicts)))
        ex_lines = [ln for ln in out.splitlines() if "exactness-routes-agree" in ln]
        if "exact" in expected:
            checks.append(("exactness = header verdict", bool(ex_lines) and all(
                _flags(ln, "norm") == [str(expected["exact"])] for ln in ex_lines)))
        if "r" in expected:
            per = [ln for ln in out.splitlines()
                   if "periodicity-vs-exactness" in ln]
            if expected["r"] is None:
                ok = bool(per) and all("none found" in ln for ln in per)
            else:
                ok = bool(per) and all(_flags(ln, "r") == [str(expected["r"])]
                                       for ln in per)
            checks.append(("periodicity = header verdict", ok))
        return checks
    return check


def _command_checks(kind: str):
    def check(res: CliResult) -> list:
        out = res.stdout
        checks = [("exit 0", res.code == 0)]
        lines = res.out_path.read_text().splitlines() if res.code == 0 else []
        if kind == "mixing":
            checks.append(("post-inhom decayed", _flags(out, "decayed") == ["True"]))
            # N = 64, one environment point: 63 densities x 64 step maps
            # x 41 steps, plus the header
            checks.append(("CSV rows", len(lines) == 1 + 63 * 64 * 41))
        elif kind == "skew":
            methods = _flags(out, "method")
            checks.append(("cylinder-product route",
                           methods == ["cylinder-product"] * 3))
            checks.append(("decayed", _flags(out, "decayed") == ["True"] * 3))
            # the environment factor factorizes from the cylinder width
            # max(b) - min(a) + 1, and from n = 0 for the unconstrained pair
            checks.append(("env factorizes from the cylinder width",
                           _flags(out, "env-factorizes-from") == ["1", "0", "1"]))
            checks.append(("CSV rows", len(lines) == 1 + 3 * 41))
        elif kind == "counterexample":
            values = [float(ln.split(",")[1]) for ln in lines[1:]]
            checks.append(("passes", "passes=True" in out))
            checks.append(("travelling correlation is exactly 1/2",
                           bool(values) and all(v == 0.5 for v in values)))
        elif kind == "exactness":
            checks.append(("routes agree", _flags(out, "routes_agree") == ["True"]))
            checks.append(("planar baker Ulam kernel is exact",
                           _flags(out, "exact") == ["True"]))
        elif kind == "asymp":
            checks.append(("planted 3-cycle", "r=3 rho=(0 1 2)" in out))
        elif kind == "qc":
            # pushed indicators of the exact doubling kernel are uniform
            # after log2 N steps, so a union of measure eps captures eps
            deltas = [float(ln.split(",")[1]) for ln in lines[1:]]
            checks.append(("delta(eps) = 1 - eps",
                           np.allclose(deltas, [0.875, 0.75], atol=1e-12)))
        return checks
    return check


def _cli_suite(params, work: Path, size) -> list:
    scen = params["scenarios"]
    seed = ["--seed-override", str(params["seed_override"])]
    names = size["cli_reports"] or sorted(scen)
    ops = []
    for name in names:
        out = work / f"report_{name}.csv"
        argv = ["report", "--scenario", scen[name], "--out", str(out)] + seed
        ops.append(Op(f"report:{name}", _cli(argv, out), _report_checks(name),
                      _cli_outputs(f"report:{name}")))
    k = size["counterexample_k"]
    commands = [("counterexample", ["run-counterexample", "--k", str(k)]),
                ("asymp", ["run-asymp", "--scenario", scen["block3cycle"]] + seed),
                ("qc", ["run-qc", "--scenario", scen["doubling_exact"]] + seed)]
    if size["cli_heavy"]:
        commands += [
            ("mixing", ["run-mixing", "--notion", "post-inhom", "--scenario",
                        scen["doubling_ulam"]] + seed),
            ("skew", ["run-skew", "--scenario", scen["bernoulli_doubling"],
                      "--sets", params["sets"]] + seed),
            ("exactness", ["run-exactness", "--scenario",
                           scen["baker_planar_ulam"]] + seed),
        ]
    for kind, argv in commands:
        out = work / f"run_{kind}.csv"
        ops.append(Op(argv[0], _cli(argv + ["--out", str(out)], out),
                      _command_checks(kind), _cli_outputs(argv[0])))
    return ops


# -- mixing-sweep -----------------------------------------------------------------

def _sweep_one(path: str, n_omegas: int):
    def run():
        sc = scenario.load_scenario(path)
        c = sc.cocycle
        q = c.driving.n_points
        omegas = [driving.point(c.driving, i % q) for i in range(n_omegas)]
        f_basis = mixing.zero_mean_basis(sc.space)
        g_obs = mixing.indicator_basis(sc.space)
        reps = {}
        for notion in mixing.NOTIONS:
            g_basis = (mixing.step_map_basis(c, g_obs)
                       if notion.endswith("inhom") else g_obs)
            reps[notion] = mixing.estimate_mixing(c, notion, f_basis, g_basis,
                                                  omegas, horizon=40, tol=1e-6)
        return sc.name, reps
    return run


def _sweep_checks(result) -> list:
    name, reps = result
    expected = EXPECTED.get(name, {}).get("mixing")
    verdicts = {rep.decayed for rep in reps.values()}
    return [("four notions agree", len(verdicts) == 1),
            ("verdict = header", verdicts == {expected})]


def _sweep_outputs(result) -> dict:
    name, reps = result
    return _digest_arrays(f"mixing:{name}",
                          **{n: r.values for n, r in reps.items()})


def _mixing_sweep(params, work: Path, size) -> list:
    names = size["sweep_scenarios"] or [n for n in sorted(params["scenarios"])
                                        if n != "bernoulli_doubling"]
    return [Op(f"sweep:{n}", _sweep_one(params["scenarios"][n],
                                        size["sweep_omegas"]),
               _sweep_checks, _sweep_outputs) for n in names]


# -- large-grid ---------------------------------------------------------------------

def _constant(P):
    d = driving.finite_rotation(1)
    return cocycle.CocycleFamily(driving=d, table={0: P}), driving.point(d, 0)


def _large_grid(params, work: Path, size) -> list:
    def ulam_mixing():
        space = measure.FiniteMeasureSpace.uniform(size["ulam_n"])
        P = transfer.pf_ulam(transfer.MapSpec("doubling"), space,
                             size["ulam_samples"], params["ulam_seed"])
        c, w = _constant(P)
        count = size["ulam_basis"]
        return mixing.estimate_mixing(
            c, "prior-hom", mixing.zero_mean_basis(space, count=count),
            mixing.indicator_basis(space, count=count), [w], 40, 1e-6)

    def exact_report(spec, n):
        def run():
            space = measure.FiniteMeasureSpace.uniform(n)
            c, w = _constant(transfer.pf_exact(spec, space))
            count = size["exact_basis"]
            return exactness.exactness_report(
                c, w, mixing.zero_mean_basis(space, count=count),
                mixing.indicator_basis(space, count=count), 40, 1e-8)
        return run

    def exact_checks(expect_exact, expect_tail):
        def check(rep):
            checks = [("routes agree", rep.routes_agree),
                      ("exact verdict", rep.exact_verdict == expect_exact),
                      ("tail route ran", (rep.tail is not None) == expect_tail)]
            if rep.tail is not None:
                checks.append(("tail agrees", rep.tail.trivial == rep.exact_verdict))
            return checks
        return check

    def exact_outputs(prefix):
        return lambda rep: _digest_arrays(
            prefix, norm=rep.norm_curves, flat=rep.flatness_curves,
            dist=rep.mean_distance_curves)

    def periodicity():
        space = measure.FiniteMeasureSpace.uniform(size["periodicity_n"])
        c, w = _constant(transfer.pf_exact(transfer.MapSpec("doubling"), space))
        return asymptotic.detect_periodicity(c, w, 40, 8)

    bits = size["baker_bits"]
    return [
        Op("ulam-mixing", ulam_mixing, lambda rep: [("decayed", rep.decayed)],
           lambda rep: _digest_arrays("ulam", values=rep.values)),
        Op("exact-doubling", exact_report(transfer.MapSpec("doubling"),
                                          size["exact_n"]),
           exact_checks(True, False), exact_outputs("doubling")),
        Op("exact-baker", exact_report(
            transfer.MapSpec("baker_cyclic", bits=bits), 1 << bits),
           exact_checks(False, True), exact_outputs("baker")),
        Op("periodicity", periodicity,
           lambda dec: [("found r = 1", dec.found and dec.r == 1)],
           lambda dec: _digest_arrays("periodicity",
                                      profile=dec.densities[0].values)),
    ]


# -- bernoulli-mc -------------------------------------------------------------------

# the product sets of scenarios/sets_halves.yaml, scaled to the fiber size
def _pairs(n):
    h, q = n // 2, n // 4
    cells = np.arange
    return [
        ("cyl_halves", skew.ProductSet(cells(0, h), env_constraints={0: 0}),
         skew.ProductSet(cells(0, h), env_constraints={0: 1})),
        ("fiber_quarters", skew.ProductSet(cells(0, q)),
         skew.ProductSet(cells(n - q, n))),
        ("wide_cylinder", skew.ProductSet(cells(h, n),
                                          env_constraints={0: 0, 1: 1}),
         skew.ProductSet(cells(0, h), env_constraints={0: 1})),
    ]


def _bernoulli_mc(params, work: Path, size) -> list:
    n = size["mc_n"]
    samples = size["mc_samples"]
    state = {}
    pairs = _pairs(n)

    def build():
        space = measure.FiniteMeasureSpace.uniform(n)
        seeds = params["ulam_seeds"]
        table = {s: transfer.pf_ulam(transfer.MapSpec(kind), space,
                                     size["mc_ulam_samples"], seeds[kind])
                 for s, kind in enumerate(("doubling", "tent"))}
        c = cocycle.CocycleFamily(driving=driving.bernoulli_shift([0.5, 0.5]),
                                  table=table)
        state["nc"] = cocycle.NormalizedCocycle(
            cocycle=c, h=cocycle.build_invariant_density_map(c))
        return state["nc"]

    def curve(a, b):
        return lambda: skew.skew_mixing_curve(
            state["nc"], a, b, size["mc_horizon"], 1e-6, mc_samples=samples,
            seed=params["mc_seed"])

    def curve_checks(rep):
        return [("monte-carlo route", rep.method == "monte-carlo"),
                ("every pullback converged", rep.h_converged)]

    def theta():
        psets = [s for _, a, b in pairs for s in (a, b)]
        return skew.theta_invariance(state["nc"], psets, mc_samples=samples,
                                     seed=params["mc_seed"])

    def theta_checks(rep):
        return [("monte-carlo route", not rep.exact),
                ("every pullback converged", rep.h_converged),
                ("residual within its standard error",
                 rep.residual <= MC_SIGMAS * rep.stderr + 1e-12)]

    def nu():
        whole = skew.ProductSet(np.arange(n))
        half = skew.ProductSet(np.arange(n), env_constraints={0: 0})
        return [skew.nu_measure(state["nc"], s, mc_samples=samples,
                                seed=params["mc_seed"]) for s in (whole, half)]

    def nu_checks(res):
        whole, half = res
        # fiber densities are probability densities; a one-coordinate
        # cylinder of the fair shift has probability 1/2
        return [("monte-carlo route", whole.method == half.method == "monte-carlo"),
                ("every pullback converged", whole.h_converged and half.h_converged),
                ("nu(whole space) = 1", abs(whole.value - 1.0) <= 1e-9),
                ("nu(cylinder x fiber) = 1/2 within its standard error",
                 abs(half.value - 0.5) <= MC_SIGMAS * half.stderr + 1e-12)]

    ops = [Op("build-table", build, lambda nc: [("table built", True)],
              lambda nc: _digest_arrays(
                  "kernels", **{str(k): P.kernel
                                for k, P in nc.cocycle.table.items()}))]
    for pair_id, a, b in pairs:
        ops.append(Op(f"skew:{pair_id}", curve(a, b), curve_checks,
                      lambda rep, p=pair_id: _digest_arrays(
                          f"skew:{p}", joint=rep.joint, stderr=rep.stderr)))
    ops.append(Op("theta-invariance", theta, theta_checks,
                  lambda rep: _digest_arrays("theta", per_set=rep.per_set)))
    ops.append(Op("nu-measure", nu, nu_checks,
                  lambda res: _digest_arrays(
                      "nu", values=np.array([r.value for r in res]))))
    return ops
