"""Command-line dispatch for scenario runs.

Subcommands write RFC-4180-style CSV ('.' decimal separator, '\\n' line
endings, floats as format(x, '.17g'), labels quoted by the csv module) so
output is diffable and bit-identical across runs with the same scenario and
seeds.  Curve tables put the leading indices outer and n innermost, and are
written a block of rows at a time, byte for byte as row by row.

Exit codes: 0 = run completed (consistent negative verdicts included),
1 = `report` found a cross-check violation, 2 = usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from .asymptotic import detect_periodicity, permutation_cycles, \
    quasi_constrictive_probe, restricted_power_cocycle
from .cocycle import NormalizedCocycle, build_invariant_density_map, kernel_groups
from .curves import decay_verdict
from .driving import BERNOULLI, DrivingError, point, points, sample_env
from .exactness import exactness_report
from .measure import PreconditionError, single_blas_thread
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
# where each probed kernel sequence costs an exactness report and a pushed
# burn-in; finite driving always enumerates every point
REPORT_HEAVY_OMEGAS = 4


def _record(fields) -> str:
    """One CSV line as the csv module quotes it, newline included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _cells(column) -> list:
    """A numeric column's cells in a block template: a 1-D column's values
    as text (floats as '.17g', integers by str), a 2-D column's % slots."""
    a = np.asarray(column)
    spec = ".17g" if a.dtype.kind == "f" else ""
    return ([f"%{spec or 's'}"] * a.shape[-1] if a.ndim == 2
            else [format(v, spec) for v in a.tolist()])


def _write_csv(path: str, header, blocks):
    """Write `header`, then each block `(labels, columns)` as one string.
    Row (k, m) is labels[k] + c[m] for each 1-D column c and + c[k, m] for
    each 2-D one, k outer and m inner; a block without columns is its
    labels.  The bytes equal the csv module's, written row by row."""
    with open(path, "w", newline="") as fh:
        fh.write(_record(header))
        for labels, columns in blocks:
            if not columns:
                fh.write("".join(map(_record, labels)))
                continue
            # one template per block; the empty last field gives a label its ','
            heads = [_record((*lab, ""))[:-1].replace("%", "%%") if lab else ""
                     for lab in labels]
            rows = [",".join(r) + "\n" for r in zip(*map(_cells, columns))]
            wide = [np.ravel(c).astype(object) for c in columns if np.ndim(c) == 2]
            values = tuple(np.stack(wide, -1).ravel()) if wide else ()
            fh.write("".join([h + r for h in heads for r in rows]) % values)


def _env_points(scenario, count=None):
    d, a = scenario.driving, scenario.analysis
    if d.kind == BERNOULLI:
        return sample_env(d, a.env_samples if count is None else count,
                          a.env_seed)
    return points(d)


def _per_probed_point(sc, route, *args):
    """(omega, route(sc.cocycle, omega, *args)) for every point of
    finite driving or the first REPORT_HEAVY_OMEGAS bernoulli samples, with
    one run per group of points meeting the same operators at t = 0..horizon
    (the detector reads sigma^burn omega, and burn can equal horizon)."""
    omegas = _env_points(sc, min(REPORT_HEAVY_OMEGAS, sc.analysis.env_samples))
    _, groups = kernel_groups(sc.cocycle, omegas, sc.analysis.horizon + 1)
    first = {w: members[0] for members in groups.values() for w in members}
    results = []
    for w, omega in enumerate(omegas):
        results.append(route(sc.cocycle, omega, *args)
                       if first[w] == w else results[first[w]])
        yield omega, results[w]


def _bases(scenario):
    count = scenario.analysis.basis_count
    return (zero_mean_basis(scenario.space, count=count),
            indicator_basis(scenario.space, count=count))


def _g_basis_for(scenario, notion, g_obs):
    if notion.endswith("inhom"):
        return step_map_basis(scenario.cocycle, g_obs)
    return g_obs


def cycle_notation(perm) -> str:
    """Permutation as disjoint cycles, fixed points included: '(0 2 1)(3)'."""
    return "".join("(" + " ".join(map(str, cycle)) + ")"
                   for cycle in permutation_cycles(perm))


# -- subcommands ----------------------------------------------------------------


def cmd_run_mixing(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    a = sc.analysis
    omegas = _env_points(sc)
    f_basis, g_obs = _bases(sc)
    g_basis = _g_basis_for(sc, args.notion, g_obs)
    rep = estimate_mixing(sc.cocycle, args.notion, f_basis, g_basis, omegas,
                          a.horizon, a.tol)
    ns, (n_w, n_f, n_g, _) = np.arange(a.horizon + 1), rep.values.shape
    blocks = (([(args.notion, w, i, j) for j in range(n_g)],
               (ns, rep.values[w, i])) for w in range(n_w) for i in range(n_f))
    _write_csv(args.out, ("notion", "omega_id", "f_id", "g_id", "n", "value"),
               blocks)
    print(f"{sc.name}: {args.notion} decayed={rep.decayed} "
          f"(tol={a.tol}, horizon={a.horizon}) -> {args.out}")
    return 0


def cmd_run_exactness(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    a = sc.analysis
    f_basis, g_obs = _bases(sc)
    ns, blocks = np.arange(a.horizon + 1), []
    for w, (_, rep) in enumerate(_per_probed_point(
            sc, exactness_report, f_basis, g_obs, a.horizon, a.tol)):
        blocks += [([(w, "norm")], (ns, rep.norm_curves.max(axis=0))),
                   ([(w, "lin")], (ns, rep.flatness_curves.max(axis=0)))]
        if rep.tail is not None:
            blocks.append(([(w, "tail")], (ns, rep.tail.atom_counts)))
        print(f"{sc.name} omega_{w}: exact={rep.exact_verdict} "
              f"dual={rep.dual_decayed} routes_agree={rep.routes_agree}"
              + (f" tail_trivial={rep.tail.trivial}" if rep.tail else ""))
    _write_csv(args.out, ("omega_id", "test", "n", "value_or_flag"), blocks)
    return 0


def cmd_run_asymp(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    a, blocks = sc.analysis, []
    for w, (_, dec) in enumerate(_per_probed_point(
            sc, detect_periodicity, a.horizon, a.rmax)):
        if dec.found:
            label = (w, dec.r, cycle_notation(dec.rho))
            print(f"{sc.name} omega_{w}: r={dec.r} rho={cycle_notation(dec.rho)} "
                  f"period={dec.period} residual={dec.residual:.3g}")
        else:
            label = (w, "none", dec.reason)
            print(f"{sc.name} omega_{w}: none found ({dec.reason})")
        blocks.append(([label], ([dec.residual],)))
    _write_csv(args.out, ("omega_id", "r", "rho", "residual"), blocks)
    return 0


def cmd_run_qc(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    # delta per eps is the worst (largest) leftover over the probed points
    eps_sorted = sorted(set(sc.analysis.eps))
    worst = np.zeros(len(eps_sorted))
    for _, rep in _per_probed_point(sc, quasi_constrictive_probe,
                                    sc.analysis.horizon, eps_sorted):
        worst = np.maximum(worst, rep.deltas)
    _write_csv(args.out, ("eps", "delta"), [([()], (eps_sorted, worst))])
    verdict = worst[0] > 0.0
    print(f"{sc.name}: quasi-constrictive={verdict} "
          f"deltas={[float(v) for v in worst]} -> {args.out}")
    return 0


def cmd_run_skew(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    an = sc.analysis
    pairs = load_product_sets(args.sets, sc.space.n)
    nc = NormalizedCocycle(cocycle=sc.cocycle,
                           h=build_invariant_density_map(sc.cocycle))
    ns, blocks = np.arange(an.horizon + 1), []
    for pair_id, a, b in pairs:
        rep = skew_mixing_curve(nc, a, b, an.horizon, an.tol,
                                mc_samples=an.env_samples, seed=an.env_seed)
        product = np.full(ns.size, rep.product)
        blocks.append(([(pair_id,)], (ns, rep.joint, product, rep.discrepancy)))
        flags = (f"method={rep.method} decayed={rep.decayed} "
                 f"h_converged={rep.h_converged}")
        if rep.stderr is not None:
            flags += f" max_stderr={float(rep.stderr.max()):.3g}"
        if rep.driving_not_mixing:
            flags += " driving-not-mixing (theorem hypotheses unmet)"
        if rep.factorizes_from is not None:
            flags += f" env-factorizes-from={rep.factorizes_from}"
        print(f"{sc.name} {pair_id}: {flags}")
    _write_csv(args.out,
               ("set_pair_id", "n", "nu_joint", "nu_product", "discrepancy"),
               blocks)
    return 0


def cmd_run_counterexample(args) -> int:
    if args.horizon is not None and args.horizon < 1:
        raise PreconditionError(
            f"run-counterexample records n = 1..horizon; got horizon {args.horizon}")
    rep = counterexample_run(args.k, horizon=args.horizon)
    ns = np.arange(1, rep.horizon + 1)
    _write_csv(args.out, ("n", "value"), [([()], (ns, rep.inhom_values[ns]))])
    print(f"counterexample k={args.k}: {rep.horizon} rows, "
          f"travelling correlation stays at {rep.inhom_values[1]:.3g}, "
          f"disjointness max {max(rep.disjoint_overlaps):.3g}, "
          f"passes={rep.passes}" + (" (horizon capped at the cell period)"
                                    if rep.horizon_capped else ""))
    return 0


def _report_checks(sc):
    """The cross-checks of `report` as rows (check, omega_id, ok, detail),
    one at a time, with ok None for a SKIP."""
    a = sc.analysis
    omegas = _env_points(sc)
    f_basis, g_obs = _bases(sc)

    # on a finite sample prior and posterior are one conjunction, so one run
    # per kind gives both orders: the check compares hom with inhom
    mixing = [estimate_mixing(
        sc.cocycle, f"prior-{kind}", f_basis, _g_basis_for(sc, kind, g_obs),
        omegas, a.horizon, a.tol) for kind in ("hom", "inhom")]
    hom, inhom = (rep.decayed for rep in mixing)
    yield ("mixing-notions-equivalent", "all", hom == inhom,
           f"prior-hom={hom} post-hom={hom} "
           f"prior-inhom={inhom} post-inhom={inhom}")

    # exactness route agreement per probed point, tail route where defined
    exact = []
    for w, (_, rep) in enumerate(_per_probed_point(
            sc, exactness_report, f_basis, g_obs, a.horizon, a.tol)):
        exact.append(rep.exact_verdict)
        yield ("exactness-routes-agree", w, rep.routes_agree,
               f"norm={rep.norms_decayed} dual={rep.dual_decayed}")
        if rep.tail is None:
            yield ("tail-partition-matches", w, None,
                   "operators are not cell maps")
        else:
            yield ("tail-partition-matches", w,
                   rep.tail.trivial == rep.exact_verdict,
                   f"tail_trivial={rep.tail.trivial} exact={rep.exact_verdict}")

    # periodicity against exactness and mixing, both read from the window
    for w, (omega, dec) in enumerate(_per_probed_point(
            sc, detect_periodicity, a.horizon, a.rmax)):
        if not dec.found:
            yield "periodicity-vs-exactness", w, None, f"none found: {dec.reason}"
            continue
        # the point's decomposition meets the point's own mixing verdicts:
        # probed point w is omegas[w]: bernoulli samples are prefix-stable
        hom_w, inhom_w = (decay_verdict(rep.prior_thresholds[w], a.horizon)
                          for rep in mixing)
        r_one = dec.r == 1
        yield ("periodicity-vs-exactness", w, r_one == exact[w],
               f"r={dec.r} exact={exact[w]}")
        yield ("periodicity-vs-travelling-mixing", w, r_one == inhom_w,
               f"r={dec.r} prior-inhom={inhom_w} post-inhom={inhom_w}")
        if sc.driving.kind == BERNOULLI:
            yield "periodicity-vs-hom-mixing", w, None, "finite driving only"
            yield "restricted-power-exact", w, None, "finite driving only"
            continue
        yield ("periodicity-vs-hom-mixing", w, r_one == hom_w,
               f"r={dec.r} prior-hom={hom_w}")
        # restricted power on each multi-cell component must be exact
        for i in range(dec.r):
            if len(dec.supports[i]) < 2:
                continue
            try:
                sub, cells = restricted_power_cocycle(sc.cocycle, dec, i)
            except PreconditionError as exc:
                yield "restricted-power-exact", w, None, f"component={i}: {exc}"
                continue
            sub_rep = exactness_report(
                sub, point(sub.driving, omega.index),
                zero_mean_basis(sub.space), indicator_basis(sub.space),
                a.horizon, a.tol)
            yield ("restricted-power-exact", w, sub_rep.exact_verdict,
                   f"component={i} cells={int(cells[0])}..{int(cells[-1])} "
                   f"({len(cells)})")


def cmd_report(args) -> int:
    sc = load_scenario(args.scenario, vars(args))
    rows = []
    for check, omega_id, ok, detail in _report_checks(sc):
        status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        rows.append((check, omega_id, status, detail))
        print(f"[{status}] {check} @ omega_{omega_id} {detail}")
    if args.out:
        _write_csv(args.out, ("check", "omega_id", "status", "detail"),
                   [(rows, ())])
    failures = sum(status == "FAIL" for _, _, status, _ in rows)
    print(f"{sc.name}: {failures} consistency check(s) failed" if failures
          else f"{sc.name}: all consistency checks passed")
    return 1 if failures else 0


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Markov operator cocycle laboratory: scenario runners")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, common=True, out_required=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if common:
            p.add_argument("--scenario", required=True,
                           help="scenario YAML file")
            p.add_argument("--out", required=out_required,
                           help="output CSV path")
            p.add_argument("--horizon", type=int, default=None,
                           help="replace analysis.horizon")
            p.add_argument("--tol", type=float, default=None,
                           help="replace analysis.tol")
            p.add_argument("--seed-override", type=int, default=None,
                           help="replace driving.seed")
        return p

    p = command("run-mixing", cmd_run_mixing,
                "correlation curves for one notion")
    p.add_argument("--notion", required=True, choices=NOTIONS)
    command("run-exactness", cmd_run_exactness,
            "norm/dual/tail exactness curves")
    p = command("run-asymp", cmd_run_asymp, "asymptotic periodicity detection")
    p.add_argument("--rmax", type=int, default=None,
                   help="replace analysis.rmax")
    p = command("run-qc", cmd_run_qc, "quasi-constrictivity probe")
    p.add_argument("--eps", default=None,
                   help="replace analysis.eps: comma-separated, "
                        "e.g. 0.1,0.01")
    p = command("run-skew", cmd_run_skew, "skew-product joint measure curves")
    p.add_argument("--sets", required=True, help="product-set YAML file")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="replace driving.samples, the Monte-Carlo "
                        "sample count for non-constant tables")
    p = command("run-counterexample", cmd_run_counterexample,
                "travelling-observable non-decay demonstration", common=False)
    p.add_argument("--k", type=int, required=True,
                   help="half bit count; the model has 2^(2k) cells")
    p.add_argument("--horizon", type=int, default=None,
                   help="steps to record (capped at the cell period 2k)")
    p.add_argument("--out", required=True, help="output CSV path")
    command("report", cmd_report, "aggregate cross-check consistency suite",
            out_required=False)
    return ap


@single_blas_thread
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, PreconditionError, DrivingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
