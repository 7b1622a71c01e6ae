"""Command-line dispatch for scenario runs.

Subcommands write RFC-4180-style CSV ('.' decimal separator, '\\n' line
endings) so output is diffable and bit-identical across runs with the same
scenario and seeds.

Exit codes: 0 = run completed (consistent negative verdicts included),
1 = `report` found a cross-check violation, 2 = usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .asymptotic import detect_periodicity, quasi_constrictive_probe, \
    restricted_power_cocycle
from .cocycle import NormalizedCocycle, build_invariant_density_map
from .driving import BERNOULLI, DrivingError, point, points, sample_env
from .exactness import exactness_report
from .measure import PreconditionError
from .mixing import (
    NOTIONS,
    counterexample_run,
    estimate_mixing,
    indicator_basis,
    step_map_basis,
    zero_mean_basis,
)
from .scenario import ScenarioError, load_product_sets, load_scenario
from .skew import skew_mixing_curve

# caps for the aggregate `report` command on sampled (bernoulli) driving,
# where the dual-route kernel composition and the burn-in composition are
# the dominant costs; finite driving always enumerates every point
REPORT_HEAVY_OMEGAS = 4


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _env_points(scenario, seed_override=None, count=None):
    d = scenario.driving
    if d.kind == BERNOULLI:
        seed = scenario.analysis.env_seed if seed_override is None \
            else seed_override
        n = count if count is not None else scenario.analysis.env_samples
        return sample_env(d, n, seed)
    return points(d)


def _bases(scenario):
    count = scenario.analysis.basis_count
    f_basis = zero_mean_basis(scenario.space, count=count)
    g_obs = indicator_basis(scenario.space, count=count)
    return f_basis, g_obs


def _g_basis_for(scenario, notion, g_obs):
    if notion.endswith("inhom"):
        return step_map_basis(scenario.cocycle, g_obs)
    return g_obs


def cycle_notation(perm) -> str:
    """Permutation as disjoint cycles, fixed points included: '(0 2 1)(3)'."""
    perm = [int(v) for v in perm]
    seen, parts = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts)


def _horizon_tol(args, scenario):
    """The --horizon and --tol overrides, or the scenario's values where a
    flag is absent; a zero horizon is a valid override."""
    a = scenario.analysis
    horizon = a.horizon if args.horizon is None else args.horizon
    tol = a.tol if args.tol is None else args.tol
    if horizon < 0:
        raise PreconditionError(f"horizon must be >= 0, got {horizon}")
    if not tol > 0:
        raise PreconditionError(f"tolerance must be > 0, got {tol}")
    return horizon, tol


# -- subcommands ----------------------------------------------------------------


def cmd_run_mixing(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, tol = _horizon_tol(args, sc)
    omegas = _env_points(sc, args.seed_override)
    f_basis, g_obs = _bases(sc)
    g_basis = _g_basis_for(sc, args.notion, g_obs)
    rep = estimate_mixing(sc.cocycle, args.notion, f_basis, g_basis, omegas,
                          horizon, tol)
    rows = []
    for w in range(len(omegas)):
        for i in range(len(f_basis)):
            for j in range(len(g_basis)):
                for n in range(horizon + 1):
                    rows.append((args.notion, w, i, j, n, rep.values[w, i, j, n]))
    _write_csv(args.out, ("notion", "omega_id", "f_id", "g_id", "n", "value"),
               rows)
    print(f"{sc.name}: {args.notion} decayed={rep.decayed} "
          f"(tol={tol}, horizon={horizon}) -> {args.out}")
    return 0


def cmd_run_exactness(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, tol = _horizon_tol(args, sc)
    omegas = _env_points(sc, args.seed_override,
                         count=min(REPORT_HEAVY_OMEGAS,
                                   sc.analysis.env_samples))
    f_basis, g_obs = _bases(sc)
    rows = []
    for w, omega in enumerate(omegas):
        rep = exactness_report(sc.cocycle, omega, f_basis, g_obs, horizon, tol,
                               tail_fraction=sc.analysis.tail_fraction)
        for n in range(horizon + 1):
            rows.append((w, "norm", n, rep.norm_curves[:, n].max()))
        for n in range(horizon + 1):
            rows.append((w, "lin", n, rep.flatness_curves[:, n].max()))
        if rep.tail is not None:
            for n, count in enumerate(rep.tail.atom_counts):
                rows.append((w, "tail", n, int(count)))
        print(f"{sc.name} omega_{w}: exact={rep.exact_verdict} "
              f"dual={rep.dual_decayed} routes_agree={rep.routes_agree}"
              + (f" tail_trivial={rep.tail.trivial}" if rep.tail else ""))
    _write_csv(args.out, ("omega_id", "test", "n", "value_or_flag"), rows)
    return 0


def cmd_run_asymp(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, _ = _horizon_tol(args, sc)
    rmax = args.rmax or sc.analysis.rmax
    omegas = _env_points(sc, args.seed_override,
                         count=min(REPORT_HEAVY_OMEGAS,
                                   sc.analysis.env_samples))
    rows = []
    for w, omega in enumerate(omegas):
        dec = detect_periodicity(sc.cocycle, omega, horizon, rmax,
                                 tol=sc.analysis.asymp_tol)
        if dec.found:
            rows.append((w, dec.r, cycle_notation(dec.rho), dec.residual))
            print(f"{sc.name} omega_{w}: r={dec.r} rho={cycle_notation(dec.rho)} "
                  f"period={dec.period} residual={dec.residual:.3g}")
        else:
            rows.append((w, "none", dec.reason, dec.residual))
            print(f"{sc.name} omega_{w}: none found ({dec.reason})")
    _write_csv(args.out, ("omega_id", "r", "rho", "residual"), rows)
    return 0


def cmd_run_qc(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, _ = _horizon_tol(args, sc)
    eps_values = tuple(float(v) for v in args.eps.split(",")) if args.eps \
        else sc.analysis.eps
    omegas = _env_points(sc, args.seed_override,
                         count=min(REPORT_HEAVY_OMEGAS,
                                   sc.analysis.env_samples))
    # delta per eps is the worst (largest) leftover over the probed points
    eps_sorted = sorted(set(eps_values))
    worst = np.zeros(len(eps_sorted))
    for omega in omegas:
        rep = quasi_constrictive_probe(sc.cocycle, omega, horizon, eps_sorted)
        worst = np.maximum(worst, rep.deltas)
    _write_csv(args.out, ("eps", "delta"), list(zip(eps_sorted, worst)))
    verdict = worst[0] > 0.0
    print(f"{sc.name}: quasi-constrictive={verdict} "
          f"deltas={[float(v) for v in worst]} -> {args.out}")
    return 0


def cmd_run_skew(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, tol = _horizon_tol(args, sc)
    pairs = load_product_sets(args.sets, sc.space.n)
    nc = NormalizedCocycle(cocycle=sc.cocycle,
                           h=build_invariant_density_map(sc.cocycle))
    seed = sc.analysis.env_seed if args.seed_override is None \
        else args.seed_override
    mc = args.mc_samples or sc.analysis.env_samples
    rows = []
    for pair_id, a, b in pairs:
        rep = skew_mixing_curve(nc, a, b, horizon, tol,
                                mc_samples=mc, seed=seed)
        for n in range(horizon + 1):
            rows.append((pair_id, n, rep.joint[n], rep.product,
                         rep.discrepancy[n]))
        flags = f"method={rep.method} decayed={rep.decayed}"
        if rep.driving_not_mixing:
            flags += " driving-not-mixing (theorem hypotheses unmet)"
        if rep.factorizes_from is not None:
            flags += f" env-factorizes-from={rep.factorizes_from}"
        print(f"{sc.name} {pair_id}: {flags}")
    _write_csv(args.out,
               ("set_pair_id", "n", "nu_joint", "nu_product", "discrepancy"),
               rows)
    return 0


def cmd_run_counterexample(args) -> int:
    if args.horizon is not None and args.horizon < 1:
        raise PreconditionError(
            f"run-counterexample records n = 1..horizon; got horizon {args.horizon}")
    rep = counterexample_run(args.k, horizon=args.horizon)
    rows = [(n, rep.inhom_values[n]) for n in range(1, rep.horizon + 1)]
    _write_csv(args.out, ("n", "value"), rows)
    print(f"counterexample k={args.k}: {len(rows)} rows, "
          f"travelling correlation stays at {rep.inhom_values[1]:.3g}, "
          f"disjointness max {max(rep.disjoint_overlaps):.3g}, "
          f"passes={rep.passes}" + (" (horizon capped at the cell period)"
                                    if rep.horizon_capped else ""))
    return 0


def cmd_report(args) -> int:
    sc = load_scenario(args.scenario)
    horizon, tol = _horizon_tol(args, sc)
    failures = []
    lines = []

    def check(name, omega_id, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        lines.append((name, omega_id, status, detail))
        print(f"[{status}] {name} @ omega_{omega_id} {detail}")
        if not ok:
            failures.append(name)

    def skip(name, omega_id, detail):
        lines.append((name, omega_id, "SKIP", detail))
        print(f"[SKIP] {name} @ omega_{omega_id} {detail}")

    omegas = _env_points(sc, args.seed_override)
    heavy = omegas[:REPORT_HEAVY_OMEGAS] if sc.driving.kind == BERNOULLI \
        else omegas
    f_basis, g_obs = _bases(sc)

    # mixing notions: the four estimator verdicts must coincide
    verdicts = {}
    for notion in NOTIONS:
        g_basis = _g_basis_for(sc, notion, g_obs)
        rep = estimate_mixing(sc.cocycle, notion, f_basis, g_basis, omegas,
                              horizon, tol)
        verdicts[notion] = rep.decayed
    agree = len(set(verdicts.values())) == 1
    check("mixing-notions-equivalent", "all", agree,
          " ".join(f"{k}={v}" for k, v in verdicts.items()))

    # exactness route agreement per probed point, tail route where defined
    exact_by_omega = {}
    for w, omega in enumerate(heavy):
        rep = exactness_report(sc.cocycle, omega, f_basis, g_obs, horizon, tol,
                               tail_fraction=sc.analysis.tail_fraction)
        exact_by_omega[w] = rep.exact_verdict
        check("exactness-routes-agree", w, rep.routes_agree,
              f"norm={rep.norms_decayed} dual={rep.dual_decayed}")
        if rep.tail is not None:
            check("tail-partition-matches", w,
                  rep.tail.trivial == rep.exact_verdict,
                  f"tail_trivial={rep.tail.trivial} exact={rep.exact_verdict}")
        else:
            skip("tail-partition-matches", w, "operators are not cell maps")

    # asymptotic periodicity against exactness and the mixing verdicts
    finite = sc.driving.kind != BERNOULLI
    for w, omega in enumerate(heavy):
        dec = detect_periodicity(sc.cocycle, omega, horizon,
                                 sc.analysis.rmax, tol=sc.analysis.asymp_tol)
        if not dec.found:
            skip("periodicity-vs-exactness", w, f"none found: {dec.reason}")
            continue
        r_one = dec.r == 1
        check("periodicity-vs-exactness", w, r_one == exact_by_omega[w],
              f"r={dec.r} exact={exact_by_omega[w]}")
        check("periodicity-vs-travelling-mixing", w,
              r_one == verdicts["prior-inhom"] == verdicts["post-inhom"],
              f"r={dec.r} prior-inhom={verdicts['prior-inhom']} "
              f"post-inhom={verdicts['post-inhom']}")
        if finite:
            check("periodicity-vs-hom-mixing", w,
                  r_one == verdicts["prior-hom"],
                  f"r={dec.r} prior-hom={verdicts['prior-hom']}")
            # restricted power on each multi-cell component must be exact
            for i in range(dec.r):
                if len(dec.supports[i]) < 2:
                    continue
                sub, cells = restricted_power_cocycle(sc.cocycle, dec, i)
                sub_f = zero_mean_basis(sub.table[0].space)
                sub_g = indicator_basis(sub.table[0].space)
                sub_rep = exactness_report(sub, point(sub.driving, 0), sub_f,
                                           sub_g, horizon, tol)
                check("restricted-power-exact", w, sub_rep.exact_verdict,
                      f"component={i} cells={int(cells[0])}..{int(cells[-1])} "
                      f"({len(cells)})")
        else:
            skip("periodicity-vs-hom-mixing", w,
                 "finite driving only")
            skip("restricted-power-exact", w, "finite driving only")

    if args.out:
        _write_csv(args.out, ("check", "omega_id", "status", "detail"), lines)
    if failures:
        print(f"{sc.name}: {len(failures)} consistency check(s) failed")
        return 1
    print(f"{sc.name}: all consistency checks passed")
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_common(p, out_required=True):
    p.add_argument("--scenario", required=True, help="scenario YAML file")
    if out_required:
        p.add_argument("--out", required=True, help="output CSV path")
    else:
        p.add_argument("--out", default=None, help="optional output CSV path")
    p.add_argument("--horizon", type=int, default=None,
                   help="override the scenario horizon")
    p.add_argument("--tol", type=float, default=None,
                   help="override the scenario tolerance")
    p.add_argument("--seed-override", type=int, default=None,
                   help="replace the environment-sampling seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Markov operator cocycle laboratory: scenario runners")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-mixing", help="correlation curves for one notion")
    _add_common(p)
    p.add_argument("--notion", required=True, choices=NOTIONS)
    p.set_defaults(fn=cmd_run_mixing)

    p = sub.add_parser("run-exactness", help="norm/dual/tail exactness curves")
    _add_common(p)
    p.set_defaults(fn=cmd_run_exactness)

    p = sub.add_parser("run-asymp", help="asymptotic periodicity detection")
    _add_common(p)
    p.add_argument("--rmax", type=int, default=None,
                   help="override the component-count cap")
    p.set_defaults(fn=cmd_run_asymp)

    p = sub.add_parser("run-qc", help="quasi-constrictivity probe")
    _add_common(p)
    p.add_argument("--eps", default=None,
                   help="comma-separated capture thresholds, e.g. 0.1,0.01")
    p.set_defaults(fn=cmd_run_qc)

    p = sub.add_parser("run-skew", help="skew-product joint measure curves")
    _add_common(p)
    p.add_argument("--sets", required=True, help="product-set YAML file")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="Monte-Carlo sample count for non-constant tables")
    p.set_defaults(fn=cmd_run_skew)

    p = sub.add_parser("run-counterexample",
                       help="travelling-observable non-decay demonstration")
    p.add_argument("--k", type=int, required=True,
                   help="half bit count; the model has 2^(2k) cells")
    p.add_argument("--horizon", type=int, default=None,
                   help="steps to record (capped at the cell period 2k)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_run_counterexample)

    p = sub.add_parser("report", help="aggregate cross-check consistency suite")
    _add_common(p, out_required=False)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, PreconditionError, DrivingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
