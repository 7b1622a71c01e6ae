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

The operator picture chooses its route once per call, by the driving and
the operator table, and reports it in ``method``:

* finite driving: exact sums over the environment points;
* bernoulli driving with a constant operator table: exact — the environment
  factor is a cylinder-intersection probability (and factorizes exactly once
  the shifted constraints clear the static ones), the fiber factor is a
  kernel-power correlation;
* otherwise: Monte Carlo over sampled environment points, with a standard
  error attached.

Every route then takes one walk: the points of E_B pull back their fibre
densities and push 1_{F_B} h along their orbits, one stack per step kernel,
reading the mass on each E_A x F_A asked for at every n.  nu(A) reads the
walk from A at n = 0; the invariance check reads the walk from the whole
space at n = 0 and 1.

For operator tables that move whole cells there is a second, set-theoretic
route: pull the target cell set back through the n-step cell maps that
``exactness.cell_map_orbit`` composes and measure the intersection directly.
It integrates the environment as the operator picture does (finite sum or
exact cylinder factor), but its fibre part pushes no mass, so its agreement
with the operator route stays checkable.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from cocyclelab.cocycle import NormalizedCocycle, orbit
from cocyclelab.curves import decay_verdict, settle_index
from cocyclelab.driving import (
    BERNOULLI,
    DrivingSystem,
    EnvPoint,
    cylinder_probability,
    intersect_constraints,
    points,
    sample_env,
    shifted_constraints,
)
from cocyclelab.exactness import cell_map_orbit, require_cell_maps
from cocyclelab.measure import (PreconditionError, mass_apply, require_horizon,
                                require_tolerance, single_blas_thread)


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


@dataclasses.dataclass(frozen=True)
class _Route:
    """How the operator and set pictures integrate over the environment:
    the points a walk may start from, whether a point lies in an environment
    part, and the weights of the per-point terms (None: their mean, with a
    standard error).  ``factor`` gives the exact environment factor of the
    joint measure per n, and ``extra`` the route's own report fields."""

    method: str
    points: list
    inside: Callable
    weights: np.ndarray | None
    factor: Callable = lambda env_a, env_b, horizon: np.ones(horizon + 1)
    extra: Callable = lambda env_a, env_b, factor: {}

    @property
    def exact(self) -> bool:
        return self.weights is not None

    def integral(self, terms: np.ndarray):
        """The integral of per-point terms (axis 0) over the environment."""
        return self.weights @ terms if self.exact else terms.mean(axis=0)

    def stderr(self, terms: np.ndarray):
        """The Monte-Carlo standard error of the integral; None when exact."""
        if not self.exact and len(terms) > 1:
            return terms.std(axis=0, ddof=1) / np.sqrt(len(terms))
        return None


def _route(nc: NormalizedCocycle, mc_samples: int, seed: int, minimum: int,
           what: str) -> _Route:
    """The one choice among the routes: every point weighted by its
    probability under finite driving; the probe point times the exact
    cylinder factor for a constant table over a Bernoulli shift (the fibre
    density is point-independent there); otherwise the mean over a
    Monte-Carlo sample.  ``what`` names the caller in the error."""
    c = nc.cocycle
    d = c.driving
    if d.kind != BERNOULLI:
        return _Route("finite-sum", points(d), lambda env, w: bool(env[w.index]),
                      d.probs, extra=lambda env_a, env_b, factor: dict(
                          driving_not_mixing=not (env_a.all() and env_b.all())))
    if c.is_constant:
        def factor(cons_a, cons_b, horizon):  # P(sigma^-n E_A and E_B), exact
            merged = (intersect_constraints(shifted_constraints(cons_a, n), cons_b)
                      for n in range(horizon + 1))
            return np.array([0.0 if m is None else cylinder_probability(d, m)
                             for m in merged])

        def extra(cons_a, cons_b, env):
            # the shifted constraints clear the static ones from here on
            start = max(0, max(cons_b) - min(cons_a) + 1) if cons_a and cons_b else 0
            return dict(env_factor=env, factorizes_from=start)
        return _Route("cylinder-product", sample_env(d, 1, seed),
                      lambda env, w: True, np.ones(1), factor, extra)
    if mc_samples < minimum:
        raise PreconditionError(
            f"{what} over bernoulli driving with a point-dependent table "
            f"needs mc_samples > {minimum - 1}")
    return _Route("monte-carlo", sample_env(d, mc_samples, seed),
                  lambda env, w: constraints_satisfied(w, env), None)


def _walk(nc: NormalizedCocycle, route: _Route, env_b, cells_b: np.ndarray,
          reads, horizon: int) -> tuple[np.ndarray, bool]:
    """The per-point terms of the joint measures nu(Theta^-n A and B) for one
    start set B and the reads A = (E_A, F_A, factor): per[r, i, n] is the
    mass that 1_{F_B} h(omega_i), pushed n steps, puts on F_A when
    sigma^n omega_i lies in E_A, times factor[n]; 0 when omega_i is not in
    E_B.  Only the points in E_B are pulled back, and their orbits walk in
    lockstep, their states pushed as one stack per distinct step kernel.
    Also returns whether every pullback converged."""
    c = nc.cocycle
    rows = [i for i, w in enumerate(route.points) if route.inside(env_b, w)]
    pulled = [nc.h.result_at(route.points[i]) for i in rows]
    states = np.zeros((len(rows), c.n))
    for state, res in zip(states, pulled):
        state[cells_b] = res.density.mass[cells_b]
    walks = [orbit(c, route.points[i], horizon) for i in rows]
    per = np.zeros((len(reads), len(route.points), horizon + 1))
    for n in range(horizon + 1):
        pts = [next(walk) for walk in walks]
        for r, (env_a, cells_a, factor) in enumerate(reads):
            inside = [route.inside(env_a, pt) for pt in pts]
            per[r, rows, n] = factor[n] * np.where(
                inside, states[:, cells_a].sum(axis=1), 0.0)
        if n < horizon:
            groups = {}
            for k, pt in enumerate(pts):
                P = c.operator_at(pt)
                groups.setdefault(id(P), (P, []))[1].append(k)
            for P, members in groups.values():
                states[members] = mass_apply(states[members], P.kernel)
    return per, all(res.converged for res in pulled)


def _nu_terms(nc: NormalizedCocycle, route: _Route, env,
              pset: ProductSet) -> tuple[np.ndarray, bool]:
    """The per-point terms of nu(E x F): the walk from E x F, read at n = 0."""
    read = (env, pset.cells, route.factor(env, env, 0))
    per, converged = _walk(nc, route, env, pset.cells, [read], 0)
    return per[0, :, 0], converged


@dataclasses.dataclass(frozen=True)
class NuResult:
    value: float
    exact: bool
    stderr: float | None
    method: str
    h_converged: bool


@single_blas_thread
def nu_measure(nc: NormalizedCocycle, pset: ProductSet,
               mc_samples: int = 0, seed: int = 0) -> NuResult:
    """nu(E x F) = integral over E of mu_omega(F).

    Exact for finite driving (a finite sum) and for bernoulli driving with a
    constant operator table (the fiber density is point-independent there);
    Monte Carlo with a standard error otherwise.
    """
    c = nc.cocycle
    env = _env_part(c.driving, pset, c.n)
    route = _route(nc, mc_samples, seed, 1, "nu")
    terms, converged = _nu_terms(nc, route, env, pset)
    stderr = route.stderr(terms)
    return NuResult(value=float(route.integral(terms)), exact=route.exact,
                    stderr=None if stderr is None else float(stderr),
                    method=route.method, h_converged=converged)


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


@single_blas_thread
def skew_mixing_curve(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int, tol: float, *, mc_samples: int = 0,
                      seed: int = 0) -> SkewMixingReport:
    """Joint-measure curve nu(Theta^-n A and B) against nu(A) nu(B).

    In the operator picture the fiber part of the joint measure pushes the
    density 1_{F_B} h_omega for n steps and reads its mass on F_A, while the
    environment part asks for sigma^n omega in E_A with omega in E_B.
    """
    c = nc.cocycle
    env_a, env_b = (_env_part(c.driving, s, c.n) for s in (a, b))
    require_horizon(horizon)
    require_tolerance(tol)

    route = _route(nc, mc_samples, seed, 2, "skew mixing")
    factor = route.factor(env_a, env_b, horizon)
    per, converged = _walk(nc, route, env_b, b.cells,
                           [(env_a, a.cells, factor)], horizon)
    (terms_a, conv_a), (terms_b, conv_b) = (
        _nu_terms(nc, route, env, s) for env, s in ((env_a, a), (env_b, b)))
    joint = route.integral(per[0])
    product = float(route.integral(terms_a)) * float(route.integral(terms_b))
    disc = joint - product
    return SkewMixingReport(
        horizon=horizon, tol=tol, joint=joint, product=product, discrepancy=disc,
        decayed=decay_verdict(settle_index(disc, tol), horizon),
        method=route.method, h_converged=converged and conv_a and conv_b,
        stderr=route.stderr(per[0]), **route.extra(env_a, env_b, factor))


@single_blas_thread
def set_picture_joint(nc: NormalizedCocycle, a: ProductSet, b: ProductSet,
                      horizon: int) -> np.ndarray:
    """The same joint-measure curve by direct set algebra, for operator
    tables that move whole cells: pull F_A back through the n-step cell maps
    of ``cell_map_orbit``, intersect with F_B, and measure the fibre with h.
    Each point of E_B counts by its probability while sigma^n omega lies in
    E_A (finite driving); the probe point counts by the exact cylinder
    factor (a constant table over bernoulli driving)."""
    c = nc.cocycle
    env_a, env_b = (_env_part(c.driving, s, c.n) for s in (a, b))
    require_horizon(horizon)
    require_cell_maps(c)
    if c.driving.kind == BERNOULLI and not c.is_constant:
        raise PreconditionError(
            "the set picture over bernoulli driving is implemented for "
            "constant operator tables only")
    route = _route(nc, 0, 0, 1, "the set picture")  # never Monte Carlo here
    factor = route.factor(env_a, env_b, horizon)
    in_a, in_b = (np.isin(np.arange(c.n), s.cells) for s in (a, b))
    joint = np.zeros(horizon + 1)
    for w, weight in zip(route.points, route.weights):
        if not route.inside(env_b, w):
            continue
        h_mass = nc.h.at(w).mass
        for n, (pt, dest) in enumerate(cell_map_orbit(c, w, horizon)):
            if route.inside(env_a, pt):
                joint[n] += weight * factor[n] * h_mass[in_b & in_a[dest]].sum()
    return joint


@dataclasses.dataclass(frozen=True)
class InvarianceReport:
    residual: float          # worst |nu(Theta^-1 A) - nu(A)| over the sets
    per_set: np.ndarray
    exact: bool
    stderr: float | None
    h_converged: bool


@single_blas_thread
def theta_invariance(nc: NormalizedCocycle, psets,
                     mc_samples: int = 0, seed: int = 0) -> InvarianceReport:
    """Check nu(Theta^-1 A) = nu(A) on the given product sets.

    Both sides read the joint measure against the whole space, at n = 1 and
    n = 0, on one walk of h: the pullback fiber measure mu_omega((T_omega)^-1
    F) is the pushed invariant density's mass on F, so the residual is
    exactly the equivariance defect of the fiber densities weighted over the
    sets.
    """
    c = nc.cocycle
    if not psets:
        raise PreconditionError("theta invariance needs at least one product set")
    envs = [_env_part(c.driving, pset, c.n) for pset in psets]
    route = _route(nc, mc_samples, seed, 2, "invariance")
    cells = np.arange(c.n)
    whole = _env_part(c.driving, ProductSet(cells=cells))
    reads = [(env, pset.cells, route.factor(env, whole, 1))
             for pset, env in zip(psets, envs)]
    per, converged = _walk(nc, route, whole, cells, reads, 1)
    diffs = (per[:, :, 1] - per[:, :, 0]).T  # per point, per set
    per_set = np.abs(route.integral(diffs))
    stderr = route.stderr(diffs)
    return InvarianceReport(residual=float(per_set.max()), per_set=per_set,
                            exact=route.exact,
                            stderr=None if stderr is None else float(stderr.max()),
                            h_converged=converged)
