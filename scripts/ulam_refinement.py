#!/usr/bin/env python3
"""Refinement study for Monte-Carlo Ulam kernels: adjoint-duality residual
and second eigenvalue versus grid size for the doubling and tent maps.

The duality residual compares the operator-picture integral against
midpoint quadrature of the pointwise pullback; it shrinks as the grid
refines in expectation, but a single draw's scalar residual fluctuates at
the scale of its own mean, so compare averages over several --seed values
rather than one row.  The second eigenvalue controls the mixing rate.

Usage:
    python3 scripts/ulam_refinement.py [--sizes 64,128,256] [--samples 4000]
"""

import argparse

import numpy as np

from cocyclelab.measure import Density, FiniteMeasureSpace, Observable
from cocyclelab.transfer import MapSpec, duality_residual, pf_ulam


def second_eigenvalue(kernel, iters: int = 2000, tail: int = 500) -> float:
    """Modulus of the second-largest eigenvalue of a dense or CSR kernel via
    deflated power iteration (the leading pair is (1, stationary)).
    Single-step growth factors oscillate when the dominant deflated mode is
    a complex pair on a non-normal matrix, so the estimate averages
    log-growth over the final iterations instead of reading one step."""
    n = kernel.shape[0]
    v = np.cos(np.linspace(0.0, np.pi, n))
    v -= v.mean()
    v /= np.linalg.norm(v)
    logs = []
    for _ in range(iters):
        v = v @ kernel            # mass convention: left action
        v -= v.mean()             # deflate the conserved direction
        norm = np.linalg.norm(v)
        if norm < 1e-300:
            return 0.0
        logs.append(np.log(norm))
        v /= norm
    return float(np.exp(np.mean(logs[-tail:])))


def smooth_pair(space: FiniteMeasureSpace):
    x = (np.arange(space.n) + 0.5) / space.n
    fvals = 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    mass = fvals * space.weights
    f = Density(space, mass / mass.sum())
    # mixed parity under x -> 1-x, so reflection-related maps (tent vs
    # doubling) produce different pullbacks
    g = Observable(space, np.cos(2.0 * np.pi * x)
                   + 0.3 * np.sin(6.0 * np.pi * x))
    return f, g


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128,256")
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    sizes = [int(v) for v in args.sizes.split(",")]
    for kind in ("doubling", "tent"):
        spec = MapSpec(kind)
        print(f"\n{kind} map, {args.samples} samples/cell, seed {args.seed}")
        print(f"{'N':>6s} {'duality residual':>17s} {'lambda_2':>9s}")
        for n in sizes:
            space = FiniteMeasureSpace.uniform(n)
            P = pf_ulam(spec, space, args.samples, args.seed)
            f, g = smooth_pair(space)
            res = duality_residual(P, spec, f, g, refinement=8)
            lam = second_eigenvalue(P.kernel)
            print(f"{n:6d} {res:17.3e} {lam:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
