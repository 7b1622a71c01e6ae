"""Skew products over the driving system.

The skew map sends (omega, x) to (sigma omega, T_omega x); its invariant
measure integrates the fiber measures mu_omega = h_omega m against the
driving's invariant law.  This module measures product sets E x F (an
environment part times a cell union), computes the joint-vs-product mixing
curves nu(Theta^-n A and B) - nu(A) nu(B), and checks Theta-invariance of
the measure.

The environment part E is what an observer sees of the driving: point
indices in 0..q-1 under finite driving, cylinder constraints whose symbols
lie in the alphabet under bernoulli driving, or nothing for the whole
environment.  Every public function reads E through one reader, which checks
it against the driving and the cell part against the fiber; any other
environment part raises ``PreconditionError``.

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

from cocyclelab.cocycle import NormalizedCocycle, orbit, push_orbit
from cocyclelab.curves import curve_decayed
from cocyclelab.driving import (
    BERNOULLI,
    DrivingSystem,
    EnvPoint,
    advance,
    cylinder_probability,
    intersect_constraints,
    point,
    points,
    sample_env,
    shifted_constraints,
)
from cocyclelab.exactness import cell_map_destinations
from cocyclelab.measure import PreconditionError, mass_apply


@dataclasses.dataclass(frozen=True)
class ProductSet:
    """E x F: an environment part times a union of cells.

    The environment part is a tuple of point indices in 0..q-1 (finite
    driving), a cylinder constraint dict {coordinate: symbol} with symbols in
    the alphabet (bernoulli driving), or neither, meaning the whole
    environment.  The skew functions reject any other with
    ``PreconditionError``.
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


def _env_part(d: DrivingSystem, pset: ProductSet, n_cells: int | None = None):
    """The environment part of a product set, checked against the driving:
    a boolean mask over the points (finite driving) or a constraint dict
    (bernoulli driving).  The cell part is checked too when n_cells is given."""
    if n_cells is not None and (pset.cells[0] < 0 or pset.cells[-1] >= n_cells):
        raise PreconditionError(f"cell indices out of range for {n_cells} cells")
    if d.kind == BERNOULLI:
        if pset.env_indices is not None:
            raise PreconditionError("bernoulli driving takes cylinder constraints")
        cons = pset.env_constraints or {}
        outside = sorted({s for s in cons.values() if not 0 <= s < d.n_features})
        if outside:
            raise PreconditionError(
                f"cylinder symbols {outside} lie outside the alphabet "
                f"0..{d.n_features - 1}")
        return cons
    if pset.env_constraints is not None:
        raise PreconditionError("finite driving takes point indices")
    idx = pset.env_indices
    if idx and (idx[0] < 0 or idx[-1] >= d.n_points):
        raise PreconditionError(
            f"point indices {list(idx)} do not all lie in 0..{d.n_points - 1}")
    mask = np.full(d.n_points, idx is None)
    if idx:
        mask[list(idx)] = True
    return mask


def env_probability(d: DrivingSystem, pset: ProductSet) -> float:
    """Exact invariant probability of the environment part."""
    env = _env_part(d, pset)
    if d.kind == BERNOULLI:
        return cylinder_probability(d, env)
    return 1.0 if env.all() else float(d.probs[env].sum())


def constraints_satisfied(omega: EnvPoint, constraints: dict | None) -> bool:
    if not constraints:
        return True
    return all(omega.symbol(k) == s for k, s in constraints.items())


def _masses_in(cons: dict, cells, omegas, masses: np.ndarray) -> np.ndarray:
    """Per bernoulli point, its fibre mass row summed over the cells, or 0
    when the point does not satisfy the constraints."""
    inside = [constraints_satisfied(w, cons) for w in omegas]
    return np.where(inside, masses[:, cells].sum(axis=1), 0.0)


def _h_probe_point(nc: NormalizedCocycle, seed: int = 0) -> EnvPoint:
    d = nc.cocycle.driving
    if d.kind == BERNOULLI:
        return sample_env(d, 1, seed)[0]
    return point(d, 0)


def _fibre_masses(nc: NormalizedCocycle, omegas) -> tuple[np.ndarray, bool]:
    """The fibre masses h(omega) stacked in the order of the given points,
    and whether every one of their pullbacks converged."""
    results = [nc.h.result_at(w) for w in omegas]
    masses = np.array([r.density.mass for r in results])
    return masses.reshape(-1, nc.cocycle.n), all(r.converged for r in results)


def _mc_points(d: DrivingSystem, mc_samples: int, seed: int, minimum: int,
               what: str) -> list[EnvPoint]:
    """The Monte-Carlo sample; ``what`` names the caller in the error."""
    if mc_samples < minimum:
        raise PreconditionError(
            f"{what} over bernoulli driving with a point-dependent table "
            f"needs mc_samples > {minimum - 1}")
    return sample_env(d, mc_samples, seed)


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
    env = _env_part(d, pset, c.n)
    if d.kind != BERNOULLI:
        in_e = np.flatnonzero(env)
        h_mass, converged = _fibre_masses(nc, [point(d, int(p)) for p in in_e])
        value = 0.0
        for p, mass in zip(in_e, h_mass):
            value += float(d.probs[p]) * float(mass[pset.cells].sum())
        return NuResult(value=value, exact=True, stderr=None,
                        method="finite-sum", h_converged=converged)
    if c.is_constant:
        h_mass, converged = _fibre_masses(nc, [_h_probe_point(nc, seed)])
        return NuResult(value=cylinder_probability(d, env)
                        * float(h_mass[0, pset.cells].sum()),
                        exact=True, stderr=None, method="cylinder-product",
                        h_converged=converged)
    samples = _mc_points(d, mc_samples, seed, 1, "nu")
    h_mass, converged = _fibre_masses(nc, samples)
    vals = _masses_in(env, pset.cells, samples, h_mass)
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
    method: str
    h_converged: bool
    driving_not_mixing: bool = False     # finite driving with a proper env
                                         # part can never mix the env factor
    env_factor: np.ndarray | None = None  # exact cylinder route only
    factorizes_from: int | None = None    # n with exact env factorization onward
    stderr: np.ndarray | None = None      # Monte-Carlo route only


def skew_mixing_curve(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int, tol: float, tail_fraction: float = 0.1,
                      mc_samples: int = 0, seed: int = 0) -> SkewMixingReport:
    """Joint-measure curve nu(Theta^-n A and B) against nu(A) nu(B).

    In the operator picture the fiber part of the joint measure pushes the
    density 1_{F_B} h_omega for n steps and reads its mass on F_A, while the
    environment part asks for sigma^n omega in E_A with omega in E_B.
    """
    c = nc.cocycle
    env_a, env_b = (_env_part(c.driving, s, c.n) for s in (a, b))
    if horizon < 0:
        raise PreconditionError(f"horizon must be >= 0, got {horizon}")
    if not tol > 0:
        raise PreconditionError(f"tol must be > 0, got {tol}")

    if c.driving.kind != BERNOULLI:
        route = _skew_finite(nc, a, b, env_a, env_b, horizon)
    elif c.is_constant:
        route = _skew_cylinder(nc, a, b, env_a, env_b, horizon, seed)
    else:
        route = _skew_monte_carlo(nc, a, b, env_a, env_b, horizon,
                                  mc_samples, seed)
    joint, product, fields = route
    disc = joint - product
    return SkewMixingReport(
        horizon=horizon, tol=tol, joint=joint, product=product,
        discrepancy=disc,
        decayed=bool(curve_decayed(np.abs(disc), tol, tail_fraction)),
        **fields)


def _skew_finite(nc, a, b, mask_a, mask_b, horizon):
    c = nc.cocycle
    d = c.driving
    h_mass, converged = _fibre_masses(nc, points(d))

    nu_a, nu_b = (float(sum(d.probs[p] * h_mass[p, s.cells].sum()
                            for p in np.flatnonzero(mask)))
                  for s, mask in ((a, mask_a), (b, mask_b)))

    joint = np.zeros(horizon + 1)
    for p in np.flatnonzero(mask_b):
        start = np.zeros(c.n)
        start[b.cells] = h_mass[p, b.cells]  # mass of 1_{F_B} h_omega
        pushes = push_orbit(c, point(d, int(p)), start, horizon)
        for n, (pt, state) in enumerate(pushes):
            if mask_a[pt.index]:
                joint[n] += d.probs[p] * state[a.cells].sum()
    return joint, nu_a * nu_b, dict(
        method="finite-sum", h_converged=converged,
        driving_not_mixing=not (mask_a.all() and mask_b.all()))


def _skew_cylinder(nc, a, b, cons_a, cons_b, horizon, seed):
    c = nc.cocycle
    d = c.driving
    probe = _h_probe_point(nc, seed)
    h_mass, converged = _fibre_masses(nc, [probe])
    h_mass = h_mass[0]

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

    mu_a = float(h_mass[a.cells].sum())
    start = np.zeros(c.n)
    start[b.cells] = h_mass[b.cells]
    fiber = np.array([state[a.cells].sum() for _, state in
                      push_orbit(c, probe, start, horizon)])
    product = prob_a * mu_a * prob_b * float(h_mass[b.cells].sum())
    return env * fiber, product, dict(
        method="cylinder-product", h_converged=converged, env_factor=env,
        factorizes_from=factor_from)


def _skew_monte_carlo(nc, a, b, cons_a, cons_b, horizon, mc_samples, seed):
    c = nc.cocycle
    d = c.driving
    samples = _mc_points(d, mc_samples, seed, 2, "skew mixing")
    fibres, converged = _fibre_masses(nc, samples)
    nu_a_terms = _masses_in(cons_a, a.cells, samples, fibres)
    nu_b_terms = _masses_in(cons_b, b.cells, samples, fibres)
    # the orbits of the samples in B walk in lockstep; their fibre states
    # are the rows of one stack, pushed together per distinct step kernel
    rows = np.flatnonzero([constraints_satisfied(w, cons_b) for w in samples])
    walks = [orbit(c, samples[i], horizon) for i in rows]
    states = np.zeros((rows.size, c.n))
    states[:, b.cells] = fibres[rows][:, b.cells]
    per = np.zeros((mc_samples, horizon + 1))
    for n in range(horizon + 1):
        steps = [next(walk) for walk in walks]
        per[rows, n] = _masses_in(cons_a, a.cells, [pt for pt, _ in steps],
                                  states)
        if n < horizon:
            groups = {}
            for r, (_, P) in enumerate(steps):
                groups.setdefault(id(P), (P, []))[1].append(r)
            for P, members in groups.values():
                states[members] = mass_apply(states[members], P.kernel)
    stderr = per.std(axis=0, ddof=1) / np.sqrt(mc_samples)
    product = float(nu_a_terms.mean() * nu_b_terms.mean())
    return per.mean(axis=0), product, dict(
        method="monte-carlo", h_converged=converged, stderr=stderr)


def set_picture_joint(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int) -> np.ndarray:
    """The same joint-measure curve by direct set algebra, for operator
    tables that move whole cells: pull F_A back through composed destination
    maps, intersect with F_B, and measure the fibers.  Exact for finite
    driving and for constant tables over bernoulli driving."""
    c = nc.cocycle
    d = c.driving
    env_a, env_b = (_env_part(d, s, c.n) for s in (a, b))
    in_a = np.zeros(c.n, dtype=bool)
    in_a[a.cells] = True
    in_b = np.zeros(c.n, dtype=bool)
    in_b[b.cells] = True

    if d.kind != BERNOULLI:
        joint = np.zeros(horizon + 1)
        for p in np.flatnonzero(env_b):
            h_mass = nc.h.at(point(d, int(p))).mass
            dest = np.arange(c.n)
            for n, (pt, P) in enumerate(orbit(c, point(d, int(p)), horizon)):
                if env_a[pt.index]:
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
    dest = np.arange(c.n)
    joint = np.empty(horizon + 1)
    for n in range(horizon + 1):
        merged = intersect_constraints(shifted_constraints(env_a, n), env_b)
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
    if not psets:
        raise PreconditionError("theta invariance needs at least one product set")
    envs = [_env_part(d, pset, c.n) for pset in psets]
    gaps = []
    stderr = None
    if d.kind != BERNOULLI:
        h_mass, converged = _fibre_masses(nc, points(d))
        pushed = [mass_apply(h, c.table[p].kernel) for p, h in enumerate(h_mass)]
        for pset, mask in zip(psets, envs):
            direct = 0.0
            pulled = 0.0
            for p in range(d.n_points):
                if mask[p]:
                    direct += d.probs[p] * h_mass[p, pset.cells].sum()
                if mask[int(d.sigma[p])]:
                    pulled += d.probs[p] * pushed[p][pset.cells].sum()
            gaps.append(abs(direct - pulled))
        exact = True
    elif c.is_constant:
        h_mass, converged = _fibre_masses(nc, [_h_probe_point(nc, seed)])
        kernel = next(iter(c.table.values())).kernel
        pushed = mass_apply(h_mass[0], kernel)
        for pset, cons in zip(psets, envs):
            env = cylinder_probability(d, cons)
            direct = env * h_mass[0, pset.cells].sum()
            pulled = env * pushed[pset.cells].sum()
            gaps.append(abs(direct - pulled))
        exact = True
    else:
        samples = _mc_points(d, mc_samples, seed, 2, "invariance")
        h_mass, converged = _fibre_masses(nc, samples)
        pushed = np.array([mass_apply(h, c.operator_at(w).kernel)
                           for h, w in zip(h_mass, samples)])
        nexts = [advance(d, w, 1) for w in samples]
        diffs = np.array([_masses_in(cons, pset.cells, nexts, pushed)
                          - _masses_in(cons, pset.cells, samples, h_mass)
                          for pset, cons in zip(psets, envs)])
        gaps = np.abs(diffs.mean(axis=1)).tolist()
        stderr = float((diffs.std(axis=1, ddof=1) / np.sqrt(mc_samples)).max())
        exact = False
    per_set = np.array(gaps)
    return InvarianceReport(residual=float(per_set.max()), per_set=per_set,
                            exact=exact, stderr=stderr, h_converged=converged)
