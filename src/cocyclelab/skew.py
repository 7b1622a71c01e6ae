"""Skew products over the driving system.

The skew map sends (omega, x) to (sigma omega, T_omega x); its invariant
measure integrates the fiber measures mu_omega = h_omega m against the
driving's invariant law.  This module measures product sets E x F (an
environment part times a cell union), computes the joint-vs-product mixing
curves nu(Theta^-n A and B) - nu(A) nu(B), and checks Theta-invariance of
the measure.

Routes, chosen by the driving and operator table and reported in ``method``:

* finite driving: exact sums over the environment points;
* bernoulli driving with a constant operator table: exact — the environment
  factor is a cylinder-intersection probability (and factorizes exactly once
  the shifted constraints clear the static ones), the fiber factor is a
  kernel-power correlation;
* otherwise: Monte Carlo over sampled environment points, with a standard
  error attached.

For operator tables that move whole cells there is a second, set-theoretic
route: pull the target cell set back through composed destination maps and
measure the intersection directly.  It must agree with the operator route
and is kept separate so the agreement stays checkable.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from cocyclelab.cocycle import NormalizedCocycle, orbit
from cocyclelab.curves import curve_decayed
from cocyclelab.driving import (
    BERNOULLI,
    DrivingSystem,
    EnvPoint,
    advance,
    cylinder_probability,
    intersect_constraints,
    point,
    sample_env,
    shifted_constraints,
)
from cocyclelab.exactness import cell_map_destinations
from cocyclelab.measure import PreconditionError, mass_apply


@dataclasses.dataclass(frozen=True)
class ProductSet:
    """E x F: an environment part times a union of cells.

    The environment part is a tuple of point indices (finite driving), a
    cylinder constraint dict {coordinate: symbol} (bernoulli driving), or
    neither, meaning the whole environment.
    """

    cells: np.ndarray
    env_indices: tuple | None = None
    env_constraints: dict | None = None

    def __post_init__(self):
        if self.env_indices is not None and self.env_constraints is not None:
            raise ValueError("a product set takes point indices or cylinder "
                             "constraints, not both")
        cells = np.unique(np.asarray(self.cells, dtype=np.int64))
        if cells.size == 0:
            raise ValueError("the cell part of a product set must be nonempty")
        object.__setattr__(self, "cells", cells)
        if self.env_indices is not None:
            object.__setattr__(self, "env_indices",
                               tuple(sorted(set(int(i) for i in self.env_indices))))


def _check_cells(space_n: int, pset: ProductSet):
    if pset.cells[0] < 0 or pset.cells[-1] >= space_n:
        raise PreconditionError(f"cell indices out of range for {space_n} cells")


def env_probability(d: DrivingSystem, pset: ProductSet) -> float:
    """Exact invariant probability of the environment part."""
    if d.kind == BERNOULLI:
        if pset.env_indices is not None:
            raise PreconditionError("bernoulli driving takes cylinder constraints")
        return cylinder_probability(d, pset.env_constraints or {})
    if pset.env_constraints is not None:
        raise PreconditionError("finite driving takes point indices")
    if pset.env_indices is None:
        return 1.0
    return float(d.probs[list(pset.env_indices)].sum())


def _env_mask_finite(d: DrivingSystem, pset: ProductSet) -> np.ndarray:
    mask = np.ones(d.n_points, dtype=bool)
    if pset.env_indices is not None:
        mask[:] = False
        mask[list(pset.env_indices)] = True
    return mask


def constraints_satisfied(omega: EnvPoint, constraints: dict | None) -> bool:
    if not constraints:
        return True
    return all(omega.symbol(k) == s for k, s in constraints.items())


def _h_probe_point(nc: NormalizedCocycle, seed: int = 0) -> EnvPoint:
    d = nc.cocycle.driving
    if d.kind == BERNOULLI:
        return sample_env(d, 1, seed)[0]
    return point(d, 0)


@dataclasses.dataclass(frozen=True)
class NuResult:
    value: float
    exact: bool
    stderr: float | None
    method: str
    h_converged: bool


def nu_measure(nc: NormalizedCocycle, pset: ProductSet,
               mc_samples: int = 0, seed: int = 0) -> NuResult:
    """nu(E x F) = integral over E of mu_omega(F).

    Exact for finite driving (a finite sum) and for bernoulli driving with a
    constant operator table (the fiber density is point-independent there);
    Monte Carlo with a standard error otherwise.
    """
    c = nc.cocycle
    d = c.driving
    _check_cells(c.n, pset)
    if d.kind != BERNOULLI:
        mask = _env_mask_finite(d, pset)
        value = 0.0
        converged = True
        for p in np.flatnonzero(mask):
            res = nc.h.result_at(point(d, int(p)))
            converged &= res.converged
            value += float(d.probs[p]) * float(res.density.mass[pset.cells].sum())
        return NuResult(value=value, exact=True, stderr=None,
                        method="finite-sum", h_converged=converged)
    if pset.env_indices is not None:
        raise PreconditionError("bernoulli driving takes cylinder constraints")
    if c.is_constant:
        res = nc.h.result_at(_h_probe_point(nc, seed))
        env = cylinder_probability(d, pset.env_constraints or {})
        return NuResult(value=env * float(res.density.mass[pset.cells].sum()),
                        exact=True, stderr=None, method="cylinder-product",
                        h_converged=res.converged)
    if mc_samples <= 0:
        raise PreconditionError(
            "nu over bernoulli driving with a point-dependent table needs "
            "mc_samples > 0")
    samples = sample_env(d, mc_samples, seed)
    vals = np.empty(mc_samples)
    converged = True
    for i, w in enumerate(samples):
        res = nc.h.result_at(w)
        converged &= res.converged
        ind = 1.0 if constraints_satisfied(w, pset.env_constraints) else 0.0
        vals[i] = ind * float(res.density.mass[pset.cells].sum())
    stderr = float(vals.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else None
    return NuResult(value=float(vals.mean()), exact=False, stderr=stderr,
                    method="monte-carlo", h_converged=converged)


@dataclasses.dataclass(eq=False)
class SkewMixingReport:
    horizon: int
    tol: float
    joint: np.ndarray            # nu(Theta^-n A and B)
    product: float               # nu(A) nu(B)
    discrepancy: np.ndarray      # joint - product
    decayed: bool
    driving_not_mixing: bool     # finite driving with a proper env part can
                                 # never mix the environment factor
    method: str
    env_factor: np.ndarray | None        # exact cylinder route only
    factorizes_from: int | None          # n with exact env factorization onward
    stderr: np.ndarray | None
    h_converged: bool


def skew_mixing_curve(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int, tol: float, tail_fraction: float = 0.1,
                      mc_samples: int = 0, seed: int = 0) -> SkewMixingReport:
    """Joint-measure curve nu(Theta^-n A and B) against nu(A) nu(B).

    In the operator picture the fiber part of the joint measure pushes the
    density 1_{F_B} h_omega for n steps and reads its mass on F_A, while the
    environment part asks for sigma^n omega in E_A with omega in E_B.
    """
    c = nc.cocycle
    d = c.driving
    _check_cells(c.n, a)
    _check_cells(c.n, b)

    if d.kind != BERNOULLI:
        return _skew_finite(nc, a, b, horizon, tol, tail_fraction)
    if c.is_constant:
        return _skew_cylinder(nc, a, b, horizon, tol, tail_fraction, seed)
    return _skew_monte_carlo(nc, a, b, horizon, tol, tail_fraction,
                             mc_samples, seed)


def _not_mixing_flag(d: DrivingSystem, a: ProductSet, b: ProductSet) -> bool:
    if d.kind == BERNOULLI:
        return False
    proper_a = a.env_indices is not None and len(a.env_indices) < d.n_points
    proper_b = b.env_indices is not None and len(b.env_indices) < d.n_points
    return proper_a or proper_b


def _skew_finite(nc, a, b, horizon, tol, tail_fraction):
    c = nc.cocycle
    d = c.driving
    mask_a = _env_mask_finite(d, a)
    mask_b = _env_mask_finite(d, b)
    converged = True
    h_mass = []
    for p in range(d.n_points):
        res = nc.h.result_at(point(d, int(p)))
        converged &= res.converged
        h_mass.append(res.density.mass)
    h_mass = np.stack(h_mass)

    nu_a = float(sum(d.probs[p] * h_mass[p, a.cells].sum()
                     for p in np.flatnonzero(mask_a)))
    nu_b = float(sum(d.probs[p] * h_mass[p, b.cells].sum()
                     for p in np.flatnonzero(mask_b)))

    joint = np.zeros(horizon + 1)
    for p in np.flatnonzero(mask_b):
        state = np.zeros(c.n)
        state[b.cells] = h_mass[p, b.cells]  # mass of 1_{F_B} h_omega
        for n, (pt, P) in enumerate(orbit(c, point(d, int(p)), horizon)):
            if mask_a[pt.index]:
                joint[n] += d.probs[p] * state[a.cells].sum()
            if n < horizon:
                state = mass_apply(state, P.kernel)
    product = nu_a * nu_b
    disc = joint - product
    return SkewMixingReport(
        horizon=horizon, tol=tol, joint=joint, product=product,
        discrepancy=disc,
        decayed=bool(curve_decayed(np.abs(disc), tol, tail_fraction)),
        driving_not_mixing=_not_mixing_flag(d, a, b),
        method="finite-sum", env_factor=None, factorizes_from=None,
        stderr=None, h_converged=converged)


def _skew_cylinder(nc, a, b, horizon, tol, tail_fraction, seed):
    c = nc.cocycle
    d = c.driving
    res = nc.h.result_at(_h_probe_point(nc, seed))
    h = res.density
    kernel = next(iter(c.table.values())).kernel

    cons_a = a.env_constraints or {}
    cons_b = b.env_constraints or {}
    prob_a = cylinder_probability(d, cons_a)
    prob_b = cylinder_probability(d, cons_b)
    env = np.empty(horizon + 1)
    for n in range(horizon + 1):
        merged = intersect_constraints(shifted_constraints(cons_a, n), cons_b)
        env[n] = 0.0 if merged is None else cylinder_probability(d, merged)
    if cons_a and cons_b:
        factor_from = max(0, max(cons_b) - min(cons_a) + 1)
    else:
        factor_from = 0

    mu_a = float(h.mass[a.cells].sum())
    state = np.zeros(c.n)
    state[b.cells] = h.mass[b.cells]
    fiber = np.empty(horizon + 1)
    for n in range(horizon + 1):
        fiber[n] = state[a.cells].sum()
        if n < horizon:
            state = mass_apply(state, kernel)
    joint = env * fiber
    product = prob_a * mu_a * prob_b * float(h.mass[b.cells].sum())
    disc = joint - product
    return SkewMixingReport(
        horizon=horizon, tol=tol, joint=joint, product=product,
        discrepancy=disc,
        decayed=bool(curve_decayed(np.abs(disc), tol, tail_fraction)),
        driving_not_mixing=False, method="cylinder-product",
        env_factor=env, factorizes_from=factor_from, stderr=None,
        h_converged=res.converged)


def _skew_monte_carlo(nc, a, b, horizon, tol, tail_fraction, mc_samples, seed):
    c = nc.cocycle
    d = c.driving
    if mc_samples <= 1:
        raise PreconditionError(
            "skew mixing over bernoulli driving with a point-dependent table "
            "needs mc_samples > 1")
    samples = sample_env(d, mc_samples, seed)
    per = np.zeros((mc_samples, horizon + 1))
    converged = True
    nu_a_terms = np.empty(mc_samples)
    nu_b_terms = np.empty(mc_samples)
    for i, w in enumerate(samples):
        res = nc.h.result_at(w)
        converged &= res.converged
        h_mass = res.density.mass
        in_b = constraints_satisfied(w, b.env_constraints)
        nu_a_terms[i] = (h_mass[a.cells].sum()
                         if constraints_satisfied(w, a.env_constraints) else 0.0)
        nu_b_terms[i] = h_mass[b.cells].sum() if in_b else 0.0
        state = np.zeros(c.n)
        state[b.cells] = h_mass[b.cells]
        if in_b:
            for n, (pt, P) in enumerate(orbit(c, w, horizon)):
                if constraints_satisfied(pt, a.env_constraints):
                    per[i, n] = state[a.cells].sum()
                if n < horizon:
                    state = mass_apply(state, P.kernel)
    joint = per.mean(axis=0)
    stderr = per.std(axis=0, ddof=1) / np.sqrt(mc_samples)
    product = float(nu_a_terms.mean() * nu_b_terms.mean())
    disc = joint - product
    return SkewMixingReport(
        horizon=horizon, tol=tol, joint=joint, product=product,
        discrepancy=disc,
        decayed=bool(curve_decayed(np.abs(disc), tol, tail_fraction)),
        driving_not_mixing=False, method="monte-carlo", env_factor=None,
        factorizes_from=None, stderr=stderr, h_converged=converged)


def set_picture_joint(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int) -> np.ndarray:
    """The same joint-measure curve by direct set algebra, for operator
    tables that move whole cells: pull F_A back through composed destination
    maps, intersect with F_B, and measure the fibers.  Exact for finite
    driving and for constant tables over bernoulli driving."""
    c = nc.cocycle
    d = c.driving
    _check_cells(c.n, a)
    _check_cells(c.n, b)
    in_a = np.zeros(c.n, dtype=bool)
    in_a[a.cells] = True
    in_b = np.zeros(c.n, dtype=bool)
    in_b[b.cells] = True

    if d.kind != BERNOULLI:
        mask_a = _env_mask_finite(d, a)
        mask_b = _env_mask_finite(d, b)
        joint = np.zeros(horizon + 1)
        for p in range(d.n_points):
            if not mask_b[p]:
                continue
            h_mass = nc.h.at(point(d, int(p))).mass
            dest = np.arange(c.n)
            for n, (pt, P) in enumerate(orbit(c, point(d, p), horizon)):
                if mask_a[pt.index]:
                    fiber_cells = in_b & in_a[dest]
                    joint[n] += d.probs[p] * h_mass[fiber_cells].sum()
                if n < horizon:
                    dest = cell_map_destinations(P)[dest]
        return joint

    if not c.is_constant:
        raise PreconditionError(
            "the set picture over bernoulli driving is implemented for "
            "constant operator tables only")
    h_mass = nc.h.at(_h_probe_point(nc)).mass
    step = cell_map_destinations(next(iter(c.table.values())))
    cons_a = a.env_constraints or {}
    cons_b = b.env_constraints or {}
    dest = np.arange(c.n)
    joint = np.empty(horizon + 1)
    for n in range(horizon + 1):
        merged = intersect_constraints(shifted_constraints(cons_a, n), cons_b)
        env = 0.0 if merged is None else cylinder_probability(d, merged)
        joint[n] = env * h_mass[in_b & in_a[dest]].sum()
        if n < horizon:
            dest = step[dest]
    return joint


@dataclasses.dataclass(frozen=True)
class InvarianceReport:
    residual: float          # worst |nu(Theta^-1 A) - nu(A)| over the sets
    per_set: np.ndarray
    exact: bool
    stderr: float | None
    h_converged: bool


def theta_invariance(nc: NormalizedCocycle, psets,
                     mc_samples: int = 0, seed: int = 0) -> InvarianceReport:
    """Check nu(Theta^-1 A) = nu(A) on the given product sets.

    The pullback fiber measure mu_omega((T_omega)^-1 F) is the pushed
    invariant density's mass on F, so the residual is exactly the
    equivariance defect of the fiber densities weighted over the sets.
    """
    c = nc.cocycle
    d = c.driving
    gaps = []
    converged = True
    stderr = None
    if d.kind != BERNOULLI:
        for pset in psets:
            _check_cells(c.n, pset)
            mask = _env_mask_finite(d, pset)
            direct = 0.0
            pulled = 0.0
            for p in range(d.n_points):
                res = nc.h.result_at(point(d, int(p)))
                converged &= res.converged
                if mask[p]:
                    direct += d.probs[p] * res.density.mass[pset.cells].sum()
                if mask[int(d.sigma[p])]:
                    pushed = mass_apply(res.density.mass,
                                        c.table[p].kernel)
                    pulled += d.probs[p] * pushed[pset.cells].sum()
            gaps.append(abs(direct - pulled))
        exact = True
    elif c.is_constant:
        res = nc.h.result_at(_h_probe_point(nc, seed))
        converged &= res.converged
        kernel = next(iter(c.table.values())).kernel
        pushed = mass_apply(res.density.mass, kernel)
        for pset in psets:
            _check_cells(c.n, pset)
            env = cylinder_probability(d, pset.env_constraints or {})
            direct = env * res.density.mass[pset.cells].sum()
            pulled = env * pushed[pset.cells].sum()
            gaps.append(abs(direct - pulled))
        exact = True
    else:
        if mc_samples <= 1:
            raise PreconditionError(
                "invariance over bernoulli driving with a point-dependent "
                "table needs mc_samples > 1")
        samples = sample_env(d, mc_samples, seed)
        diffs = np.zeros((len(psets), mc_samples))
        for i, w in enumerate(samples):
            res = nc.h.result_at(w)
            converged &= res.converged
            pushed = mass_apply(res.density.mass, c.operator_at(w).kernel)
            w_next = advance(d, w, 1)
            for s_id, pset in enumerate(psets):
                _check_cells(c.n, pset)
                direct = (res.density.mass[pset.cells].sum()
                          if constraints_satisfied(w, pset.env_constraints)
                          else 0.0)
                pulled = (pushed[pset.cells].sum()
                          if constraints_satisfied(w_next, pset.env_constraints)
                          else 0.0)
                diffs[s_id, i] = pulled - direct
        gaps = np.abs(diffs.mean(axis=1)).tolist()
        stderr = float((diffs.std(axis=1, ddof=1) / np.sqrt(mc_samples)).max())
        exact = False
    per_set = np.array(gaps)
    return InvarianceReport(residual=float(per_set.max()), per_set=per_set,
                            exact=exact, stderr=stderr, h_converged=converged)
