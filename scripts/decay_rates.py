#!/usr/bin/env python3
"""Fit geometric decay rates to homogeneous correlation curves across the
shipped scenarios and print a per-scenario summary table.

Usage:
    python3 scripts/decay_rates.py [--scenario-dir DIR] [--horizon N] [--tol T]

--horizon and --tol replace each scenario's values, checked by its rules.
"""

import argparse
import glob
import os
import sys

from cocyclelab.cli import _bases, _env_points
from cocyclelab.curves import fit_geometric_rates
from cocyclelab.mixing import estimate_mixing
from cocyclelab.scenario import ScenarioError, load_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario-dir", default="scenarios")
    ap.add_argument("--horizon", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None)
    args = ap.parse_args(argv)

    files = sorted(glob.glob(os.path.join(args.scenario_dir, "*.yaml")))
    print(f"{'scenario':22s} {'decayed':8s} {'rate':>8s} {'r^2':>6s} curves")
    for path in files:
        if os.path.basename(path).startswith("sets_"):
            continue
        try:
            sc = load_scenario(path, vars(args))
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        a = sc.analysis
        f_basis, g_obs = _bases(sc)
        rep = estimate_mixing(sc.cocycle, "prior-hom", f_basis, g_obs,
                              _env_points(sc), a.horizon, a.tol)
        fits = fit_geometric_rates(rep.values)
        usable = fits.n_points >= 2
        if rep.decayed and usable.any():
            # slowest surviving mode dominates the long-run decay; the mask
            # reads row-major and argmax takes the first maximum
            best = fits.rate[usable].argmax()
            print(f"{sc.name:22s} {str(rep.decayed):8s} "
                  f"{fits.rate[usable][best]:8.4f} "
                  f"{fits.r_squared[usable][best]:6.3f} {len(fits)}")
        else:
            print(f"{sc.name:22s} {str(rep.decayed):8s} {'-':>8s} {'-':>6s} "
                  f"{len(fits)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
