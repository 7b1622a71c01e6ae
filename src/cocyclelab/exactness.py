"""Exactness tests for Markov operator cocycles.

Three routes, kept separate and cross-checked:

* norm route: for zero-mean densities f the curves ||P^(n)(omega) f||_1 are
  non-increasing, and exactness means they all vanish in the limit.  A sign
  witness pairs each pushed density with its own sign observable, recomputing
  the norm through the duality pairing.

* dual route: the adjoint orbit of an observable is the composed kernel
  applied to it, and exactness means every such orbit flattens to a constant.
  We track the composed kernel incrementally (one kernel multiply per step,
  sparse kernels stay sparse) and record per-observable flatness: the value
  spread max - min, plus the distance from the measure-weighted mean as a
  second constant-reference reading.

* tail-partition route, for kernels that move whole cells (every entry 0 or
  1): the n-step composition is then itself a cell map, its preimage classes
  form a partition that can only coarsen with n, and exactness of the cell
  dynamics means the partition collapses to a single atom.  Kernels with
  fractional entries do not induce a partition and are rejected.

The norm and dual verdicts are both reported, never merged; agreement is a
flag the caller can assert.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from cocyclelab.cocycle import (
    CocycleFamily,
    _identity_kernel,
    orbit,
    orbit_kernels,
)
from cocyclelab.curves import RateFits, curve_decayed, fit_geometric_rates
from cocyclelab.driving import EnvPoint
from cocyclelab.measure import (
    MarkovMatrix,
    PreconditionError,
    kernel_matmul,
    mass_apply,
)

CELL_MAP_ATOL = 1e-9


@dataclasses.dataclass(frozen=True)
class NormCurves:
    values: np.ndarray       # (n_f, horizon + 1) L1 norms of pushed densities
    sgn_witness_gap: float   # max |norm - sign-paired integral| over all (f, n)


def exactness_norms(c: CocycleFamily, omega: EnvPoint, f_basis,
                    horizon: int) -> NormCurves:
    """L1-norm decay curves of pushed zero-mean densities.

    Each norm is recomputed through the duality pairing with the pushed
    density's own sign observable; the worst gap between the two readings is
    reported (it is zero in exact arithmetic).
    """
    for f in f_basis:
        if abs(f.total_mass) > 1e-9 * max(f.l1_norm, 1e-300):
            raise PreconditionError(
                "exactness norm curves are posed for zero-mean densities")
    mass = np.stack([f.mass for f in f_basis])
    curves = np.empty((len(f_basis), horizon + 1))
    gap = 0.0
    kernels = orbit_kernels(c, omega, horizon)
    for n in range(horizon + 1):
        norms = np.abs(mass).sum(axis=1)
        witness = np.einsum("ij,ij->i", mass, np.sign(mass))
        gap = max(gap, float(np.abs(norms - witness).max()))
        curves[:, n] = norms
        if n < horizon:
            mass = mass_apply(mass, kernels[n])
    return NormCurves(values=curves, sgn_witness_gap=gap)


@dataclasses.dataclass(frozen=True)
class DualFlatnessCurves:
    flatness: np.ndarray        # (n_g, horizon + 1) spread max - min
    mean_distance: np.ndarray   # (n_g, horizon + 1) max |value - weighted mean|


def lin_dual_flatness(c: CocycleFamily, omega: EnvPoint, g_basis,
                      horizon: int) -> DualFlatnessCurves:
    """Flattening of adjoint orbits: the composed kernel applied to each
    observable, tracked incrementally by appending one step kernel per n."""
    g_mat = np.stack([g.values for g in g_basis], axis=1)
    w = c.space.weights
    flat = np.empty((len(g_basis), horizon + 1))
    dist = np.empty((len(g_basis), horizon + 1))
    kernels = orbit_kernels(c, omega, horizon)
    composed = _identity_kernel(c)
    for n in range(horizon + 1):
        v = np.asarray(composed @ g_mat)
        flat[:, n] = v.max(axis=0) - v.min(axis=0)
        dist[:, n] = np.abs(v - w @ v).max(axis=0)
        if n < horizon:
            composed = kernel_matmul(composed, kernels[n])
    return DualFlatnessCurves(flatness=flat, mean_distance=dist)


@dataclasses.dataclass(frozen=True)
class TailPartitionReport:
    atom_counts: np.ndarray   # (horizon + 1,) partition sizes, non-increasing
    trivial: bool             # one atom reached by the horizon
    horizon: int


def cell_map_destinations(P: MarkovMatrix, atol: float = CELL_MAP_ATOL) -> np.ndarray:
    """Destination cell of each source cell for a 0/1 kernel."""
    if not P.is_cell_map(atol=atol):
        raise PreconditionError(
            "tail partition test needs cell-map kernels (all entries 0 or 1); "
            "this kernel has fractional entries")
    dest = np.asarray(P.kernel @ np.arange(P.n, dtype=float)).ravel()
    return np.rint(dest).astype(np.int64)


def tail_partition(c: CocycleFamily, omega: EnvPoint,
                   horizon: int) -> TailPartitionReport:
    """Preimage-partition coarsening along the orbit, for cell-map cocycles.

    The n-step composition of cell maps is the composition of their index
    maps; its preimage classes coarsen monotonically (that is checked, not
    assumed), and triviality means a single atom by the horizon.
    """
    c.check_point(omega)
    step_dests = [cell_map_destinations(P) for _, P in
                  itertools.islice(orbit(c, omega, horizon), horizon)]
    dest = np.arange(c.n, dtype=np.int64)
    counts = np.empty(horizon + 1, dtype=np.int64)
    counts[0] = c.n
    for n, d_next in enumerate(step_dests, start=1):
        dest = d_next[dest]
        counts[n] = np.unique(dest).size
        if counts[n] > counts[n - 1]:
            raise AssertionError("preimage partition refined instead of coarsening")
    return TailPartitionReport(atom_counts=counts,
                               trivial=bool(counts[-1] == 1),
                               horizon=horizon)


@dataclasses.dataclass(eq=False)
class ExactnessReport:
    horizon: int
    tol: float
    tail_fraction: float
    norm_curves: np.ndarray
    flatness_curves: np.ndarray
    mean_distance_curves: np.ndarray
    norms_decayed: bool
    dual_decayed: bool
    routes_agree: bool
    exact_verdict: bool
    sgn_witness_gap: float
    norm_rates: RateFits
    tail: TailPartitionReport | None


def exactness_report(c: CocycleFamily, omega: EnvPoint, f_basis, g_basis,
                     horizon: int, tol: float,
                     tail_fraction: float = 0.1) -> ExactnessReport:
    """Run the norm and dual routes side by side; add the tail-partition
    route when every operator moves whole cells.

    ``exact_verdict`` follows the norm route; ``routes_agree`` records
    whether the dual route reached the same conclusion on its basis.
    """
    norms = exactness_norms(c, omega, f_basis, horizon)
    dual = lin_dual_flatness(c, omega, g_basis, horizon)
    norms_decayed = all(curve_decayed(row, tol, tail_fraction)
                        for row in norms.values)
    dual_decayed = all(curve_decayed(row, tol, tail_fraction)
                       for row in dual.flatness)
    tail = None
    if all(P.is_cell_map(atol=CELL_MAP_ATOL) for P in c.table.values()):
        tail = tail_partition(c, omega, horizon)
    return ExactnessReport(
        horizon=horizon, tol=tol, tail_fraction=tail_fraction,
        norm_curves=norms.values, flatness_curves=dual.flatness,
        mean_distance_curves=dual.mean_distance,
        norms_decayed=norms_decayed, dual_decayed=dual_decayed,
        routes_agree=norms_decayed == dual_decayed,
        exact_verdict=norms_decayed,
        sgn_witness_gap=norms.sgn_witness_gap,
        norm_rates=fit_geometric_rates(norms.values), tail=tail)
