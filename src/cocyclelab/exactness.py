"""Exactness tests for Markov operator cocycles.

Three routes, kept separate and cross-checked:

* norm route: for zero-mean densities f the curves ||P^(n)(omega) f||_1 are
  non-increasing, and exactness means they all vanish in the limit.

* dual route: the adjoint orbit of an observable is the composed kernel
  applied to it, and exactness means every such orbit flattens to a constant.
  We never form the composed kernel: the observables are pulled through one
  step kernel at a time, one pulled stack per start within one period of the
  kernel sequence (a constant table has period one), and we record
  per-observable flatness: the value spread max - min, plus the distance from
  the measure-weighted mean as a second constant-reference reading.

* tail-partition route, for kernels that move whole cells (every entry 0 or
  1): the n-step composition is then itself a cell map, its preimage classes
  form a partition that can only coarsen with n, and exactness of the cell
  dynamics means the partition collapses to a single atom.  Kernels with
  fractional entries do not induce a partition and are rejected.

The norm route reads a (k, N) mass stack and the dual route an (N, k)
observable stack, each checked once, as the bases build them.  Pushed and
pulled stacks follow ``stored_stack``: CSR through CSR kernels while at most
1/32 of the stack is nonzero, densified past that fill.  That conversion is
all the two routes share; each keeps its own push or pull and its own
reading, which hold for either storage.

``cell_map_orbit`` is the one walk that composes cell maps.  It pushes no
mass, so the tail route and the skew set picture that read it stay
independent of the norm route and the skew operator picture.

The routes share only the verdict rule of ``curves`` applied to their
finished curves.  The norm and dual verdicts are both reported, never merged;
agreement is a flag the caller can assert.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from cocyclelab.cocycle import CocycleFamily, orbit, orbit_kernels, push_kernels
from cocyclelab.curves import decay_verdict, settle_index
from cocyclelab.driving import EnvPoint
from cocyclelab.measure import (MarkovMatrix, PreconditionError, issparse,
                                require_finite_columns, require_horizon,
                                require_stack, require_tolerance,
                                require_zero_mean, single_blas_thread,
                                stored_stack)


@single_blas_thread
def exactness_norms(c: CocycleFamily, omega: EnvPoint, f_basis,
                    horizon: int) -> np.ndarray:
    """L1-norm decay curves of pushed zero-mean densities: entry [i, n] is
    ||P^(n)(omega) f_i||_1 for row i of the (n_f, N) mass stack ``f_basis``,
    an (n_f, horizon + 1) array."""
    require_stack(f_basis, c.n, 1, "an exactness norm curve")
    require_zero_mean(f_basis, "an exactness norm curve")
    require_horizon(horizon)
    kernels = orbit_kernels(c, omega, horizon)
    mass = stored_stack(f_basis, kernels[0]) if kernels else f_basis
    curves = np.empty((f_basis.shape[0], horizon + 1))
    # the loop rebinds `mass`, so no pushed or converted stack outlives its step
    for n, mass in enumerate(push_kernels(mass, kernels)):
        curves[:, n] = abs(mass).sum(axis=1)
    return curves


@dataclasses.dataclass(frozen=True)
class DualFlatnessCurves:
    flatness: np.ndarray        # (n_g, horizon + 1) spread max - min
    mean_distance: np.ndarray   # (n_g, horizon + 1) max |value - weighted mean|


def _kernel_period(kernels) -> int:
    """Smallest p with ``kernels[t] is kernels[t - p]`` for every t >= p,
    compared by object identity: 1 for a constant table, the orbit period on
    finite driving, len(kernels) when the sequence has no shorter period."""
    h = len(kernels)
    return next((p for p in range(1, h)
                 if all(kernels[t] is kernels[t - p] for t in range(p, h))),
                max(h, 1))


@single_blas_thread
def lin_dual_flatness(c: CocycleFamily, omega: EnvPoint, g_basis,
                      horizon: int) -> DualFlatnessCurves:
    """Flattening of adjoint orbits K^(n)(omega) g for the columns g of the
    (N, n_g) observable stack ``g_basis``, pulled one step kernel at a time
    without composing kernels.

    ``pulled[j]`` holds K_j K_{j+1} ... K_{j+n-1} g for the starts j within one
    period p of the kernel sequence, so that pulled[0] is K^(n)(omega) g and
    the next step is pulled[j] <- K_j pulled[(j + 1) % p]; the wrap is sound
    because every start holds g at n = 0.  Only starts that a later step
    still reads are pulled, so an aperiodic sequence costs at most about
    horizon^2 / 2 pulls.
    """
    require_stack(g_basis, c.n, 0, "the dual route")
    require_finite_columns(g_basis, "the dual route")
    require_horizon(horizon)
    w = c.space.weights
    flat = np.empty((g_basis.shape[1], horizon + 1))
    dist = np.empty((g_basis.shape[1], horizon + 1))
    kernels = orbit_kernels(c, omega, horizon)
    p = _kernel_period(kernels)
    pulled = [stored_stack(g_basis, kernels[0]) if kernels else g_basis] * p
    for n in range(horizon + 1):
        v = pulled[0]
        # max |v - mean| is reached at the max or at the min of v: rounding
        # is monotone and symmetric, so this equals abs(v - mean).max()
        (hi, lo), mean = _column_extrema(v), w @ v
        flat[:, n] = hi - lo
        dist[:, n] = np.maximum(hi - mean, mean - lo)
        # step n + 1 reads the starts j <= horizon - n - 1
        pulled = [_pull(kernels[j], pulled[(j + 1) % p])
                  for j in range(min(p, horizon - n))]
    return DualFlatnessCurves(flatness=flat, mean_distance=dist)


def _column_extrema(v):
    """Column max and min of an (N, n_g) stack.  A CSR stack is read from its
    stored entries, and a column storing fewer than N of them also counts
    its implicit zeros; as in scipy's ``v.max(axis=0)``, a zero extremum
    reads +0.0."""
    if not issparse(v):
        return v.max(axis=0), v.min(axis=0)
    cols = v.shape[1]
    hi, lo = np.full(cols, -np.inf), np.full(cols, np.inf)
    np.maximum.at(hi, v.indices, v.data)
    np.minimum.at(lo, v.indices, v.data)
    gaps = np.bincount(v.indices, minlength=cols) < v.shape[0]
    hi[gaps] = np.maximum(hi[gaps], 0.0)
    lo[gaps] = np.minimum(lo[gaps], 0.0)
    return hi + 0.0, lo + 0.0  # -0.0 + 0.0 is +0.0


def _pull(kernel, v):
    """K @ v for an observable stack v; a CSR product is stored by
    ``stored_stack``, a dense one stays dense."""
    out = kernel @ v
    return stored_stack(out, kernel) if issparse(out) else np.asarray(out)


@dataclasses.dataclass(frozen=True)
class TailPartitionReport:
    atom_counts: np.ndarray   # (horizon + 1,) partition sizes, non-increasing
    trivial: bool             # one atom from the verdict window's start on


def require_cell_maps(c: CocycleFamily):
    """Reject a table with a kernel that is not a cell map, before the
    cell-map walk starts, at any horizon."""
    if not c.moves_whole_cells:
        raise PreconditionError(
            "the cell-map walk needs kernels with all entries 0 or 1; "
            "this table has fractional entries")


def cell_map_destinations(P: MarkovMatrix) -> np.ndarray:
    """Destination cell of each source cell for a 0/1 kernel."""
    dest = np.asarray(P.kernel @ np.arange(P.n, dtype=float)).ravel()
    return np.rint(dest).astype(np.int64)


def cell_map_orbit(c: CocycleFamily, omega: EnvPoint, n: int):
    """The pairs (sigma^t omega, dest_t) for t = 0, 1, ..., n, where
    dest_t[i] is the cell that t steps of a cell-map cocycle send cell i to:
    dest_{t+1} = d_t[dest_t] with d_t the destinations of K(sigma^t omega)."""
    dest = np.arange(c.n, dtype=np.int64)
    # one resolve per distinct operator, keyed by identity (eq=False)
    destinations = functools.cache(cell_map_destinations)
    for t, pt in enumerate(orbit(c, omega, n)):
        yield pt, dest
        if t < n:
            dest = destinations(c.operator_at(pt))[dest]


def tail_partition(c: CocycleFamily, omega: EnvPoint,
                   horizon: int) -> TailPartitionReport:
    """Preimage-partition coarsening along the orbit, for cell-map cocycles.

    The atoms at step n are the nonempty preimage classes of the n-step
    destinations; they coarsen monotonically (that is checked, not assumed),
    and triviality means one atom from the verdict window's start on.
    """
    require_horizon(horizon)
    require_cell_maps(c)
    counts = np.empty(horizon + 1, dtype=np.int64)
    for n, (_, dest) in enumerate(cell_map_orbit(c, omega, horizon)):
        counts[n] = np.count_nonzero(np.bincount(dest, minlength=c.n))
        if n and counts[n] > counts[n - 1]:
            raise AssertionError("preimage partition refined instead of coarsening")
    # counts - 1 is an integer: it is below 1 exactly where one atom is left
    return TailPartitionReport(counts, decay_verdict(
        settle_index(counts - 1, 1), horizon))


@dataclasses.dataclass(eq=False)
class ExactnessReport:
    """The norm, dual and (for cell maps) tail-route curves with their
    verdicts.  The report fits no rates; a caller that wants them calls
    ``fit_geometric_rates(report.norm_curves)``."""

    horizon: int
    tol: float
    norm_curves: np.ndarray
    flatness_curves: np.ndarray
    mean_distance_curves: np.ndarray
    norms_decayed: bool
    dual_decayed: bool
    tail: TailPartitionReport | None

    @property
    def exact_verdict(self) -> bool:
        """The exactness verdict, which follows the norm route."""
        return self.norms_decayed

    @property
    def routes_agree(self) -> bool:
        """Whether the dual route reached the norm route's verdict."""
        return self.norms_decayed == self.dual_decayed


@single_blas_thread
def exactness_report(c: CocycleFamily, omega: EnvPoint, f_basis, g_basis,
                     horizon: int, tol: float) -> ExactnessReport:
    """Run the norm and dual routes side by side; add the tail-partition
    route when every operator moves whole cells.

    ``exact_verdict`` follows the norm route; ``routes_agree`` records
    whether the dual route reached the same conclusion on its basis.
    """
    require_tolerance(tol)
    require_horizon(horizon)
    norms = exactness_norms(c, omega, f_basis, horizon)
    dual = lin_dual_flatness(c, omega, g_basis, horizon)
    tail = tail_partition(c, omega, horizon) if c.moves_whole_cells else None
    norms_decayed, dual_decayed = (
        decay_verdict(settle_index(v, tol), horizon)
        for v in (norms, dual.flatness))
    return ExactnessReport(
        horizon=horizon, tol=tol,
        norm_curves=norms, flatness_curves=dual.flatness,
        mean_distance_curves=dual.mean_distance,
        norms_decayed=norms_decayed, dual_decayed=dual_decayed, tail=tail)
