#!/usr/bin/env python3
"""Fit geometric decay rates to homogeneous correlation curves across the
shipped scenarios and print a per-scenario summary table.

Usage:
    python3 scripts/decay_rates.py [--scenario-dir scenarios] [--horizon 40]
"""

import argparse
import glob
import os

from cocyclelab.curves import fit_geometric_rates
from cocyclelab.driving import BERNOULLI, points, sample_env
from cocyclelab.mixing import estimate_mixing, indicator_basis, zero_mean_basis
from cocyclelab.scenario import load_scenario


def env_points(sc):
    if sc.driving.kind == BERNOULLI:
        return sample_env(sc.driving, sc.analysis.env_samples,
                          sc.analysis.env_seed)
    return points(sc.driving)


def bases(sc):
    count = sc.analysis.basis_count
    return (zero_mean_basis(sc.space, count=count),
            indicator_basis(sc.space, count=count))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario-dir", default="scenarios")
    ap.add_argument("--horizon", type=int, default=40)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args(argv)

    files = sorted(glob.glob(os.path.join(args.scenario_dir, "*.yaml")))
    print(f"{'scenario':22s} {'decayed':8s} {'rate':>8s} {'r^2':>6s} curves")
    for path in files:
        if os.path.basename(path).startswith("sets_"):
            continue
        sc = load_scenario(path)
        f_basis, g_obs = bases(sc)
        rep = estimate_mixing(sc.cocycle, "prior-hom", f_basis, g_obs,
                              env_points(sc), args.horizon, args.tol)
        n_curves = rep.values.shape[0] * rep.values.shape[1] * rep.values.shape[2]
        fits = [f for f in fit_geometric_rates(rep.values).values()
                if f.n_points >= 2]
        if rep.decayed and fits:
            # slowest surviving mode dominates the long-run decay
            best = max(fits, key=lambda f: f.rate)
            print(f"{sc.name:22s} {str(rep.decayed):8s} {best.rate:8.4f} "
                  f"{best.r_squared:6.3f} {n_curves}")
        else:
            print(f"{sc.name:22s} {str(rep.decayed):8s} {'-':>8s} {'-':>6s} "
                  f"{n_curves}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
