"""Markov operator cocycles over a driving system.

A cocycle assigns one Markov kernel to each environment feature (point index
for finite driving, symbol at coordinate 0 for the Bernoulli shift); the
n-step operator from omega composes the kernels met along the orbit,

    K^(n)(omega) = K(omega) K(sigma omega) ... K(sigma^{n-1} omega)

in mass-row convention, so mass vectors evolve by right multiplication in
orbit order and the cocycle law reads
K^(n+m)(omega) = K^(m)(omega) K^(n)(sigma^m omega).

Invariant density maps are built by pulling a seed density back along the
orbit: h(omega) = limit of the n-step push of f0 started at sigma^{-n} omega,
certified by the L1 Cauchy increment between consecutive pullback depths.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import scipy.sparse as sp

from cocyclelab.driving import (
    BERNOULLI,
    FINITE_KINDS,
    DrivingError,
    DrivingSystem,
    EnvPoint,
    advance,
    feature,
)
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    apply,
    kernel_matmul,
    mass_apply,
    same_space,
)


@dataclasses.dataclass(frozen=True, eq=False)
class CocycleFamily:
    """Driving system plus the feature-indexed operator table."""

    driving: DrivingSystem
    table: dict
    space: FiniteMeasureSpace = None

    def __post_init__(self):
        if not self.table:
            raise ValueError("operator table is empty")
        spaces = [P.space for P in self.table.values()]
        space = self.space or spaces[0]
        for s in spaces:
            if not same_space(space, s):
                raise ValueError("all cocycle operators must share one space")
        object.__setattr__(self, "space", space)
        if self.driving.kind in FINITE_KINDS:
            needed = range(self.driving.n_points)
        else:
            needed = range(self.driving.n_symbols)
        missing = [k for k in needed if k not in self.table]
        if missing:
            raise ValueError(f"operator table missing features {missing}")

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def all_exact(self) -> bool:
        return all(P.exact for P in self.table.values())

    @property
    def is_constant(self) -> bool:
        return len({id(P) for P in self.table.values()}) == 1

    def operator_at(self, omega: EnvPoint) -> MarkovMatrix:
        return self.table[feature(self.driving, omega)]

    def check_point(self, omega: EnvPoint):
        if omega.system.kind != self.driving.kind or (
                omega.index is not None
                and omega.index >= self.driving.n_points):
            raise DrivingError("point does not belong to this cocycle's driving")


def _identity_kernel(c: CocycleFamily):
    if all(sp.issparse(P.kernel) for P in c.table.values()):
        return sp.identity(c.n, format="csr")
    return np.eye(c.n)


def orbit(c: CocycleFamily, omega: EnvPoint, n: int):
    """The orbit pairs (sigma^t omega, P(sigma^t omega)) for t = 0, 1, ..., n,
    or t = 0, -1, ..., n when n < 0 (the driving is invertible).

    The walk advances one step at a time, and only when the next pair is
    asked for, so a caller that stops early pays for no further steps.
    """
    c.check_point(omega)
    step = 1 if n >= 0 else -1
    pt = omega
    for _ in range(abs(n)):
        yield pt, c.operator_at(pt)
        pt = advance(c.driving, pt, step)
    yield pt, c.operator_at(pt)


def orbit_kernels(c: CocycleFamily, omega: EnvPoint, n: int):
    """The per-step kernels K(sigma^t omega) for t = 0..n-1."""
    return [P.kernel for _, P in orbit(c, omega, max(n, 0))][:-1]


def compose(c: CocycleFamily, omega: EnvPoint, n: int) -> MarkovMatrix:
    """The n-step operator from omega; n = 0 gives the identity."""
    if n < 0:
        raise PreconditionError("cocycle steps run forward only (n >= 0)")
    kernel = _identity_kernel(c)
    for step in orbit_kernels(c, omega, n):
        kernel = kernel_matmul(kernel, step)
    return MarkovMatrix(c.space, kernel, exact=c.all_exact)


@dataclasses.dataclass(frozen=True)
class PullbackResult:
    """Pullback approximation of the invariant density at one point, with
    its convergence certificate."""

    density: Density
    increment: float          # L1 gap between the last two pullback depths
    steps: int
    converged: bool
    tol: float


def invariant_density_pullback(c: CocycleFamily, omega: EnvPoint, k_max: int,
                               f0: Density | None = None,
                               tol: float = 1e-10) -> PullbackResult:
    """Push f0 forward from sigma^{-k} omega for growing k until the L1
    increment between consecutive depths falls below tol (or k hits k_max).

    Failure to converge is reported through the certificate, never hidden.
    """
    c.check_point(omega)
    if f0 is None:
        f0 = Density.uniform(c.space)
    if f0.total_mass <= 0:
        raise PreconditionError("pullback seed must carry positive mass")
    base = f0.mass
    if c.is_constant:
        kernel = next(iter(c.table.values())).kernel
        cur = base
        steps, inc = 0, np.inf
        for k in range(1, k_max + 1):
            nxt = mass_apply(cur, kernel)
            inc = float(np.abs(nxt - cur).sum())
            cur, steps = nxt, k
            if inc <= tol:
                break
        return PullbackResult(Density.from_mass(c.space, cur), inc, steps,
                              inc <= tol, tol)
    # omega-dependent table: prepend kernels along the backward orbit, so the
    # depth-k pullback is base @ K(sigma^-k) @ ... @ K(sigma^-1)
    bracket = _identity_kernel(c)
    prev = base
    steps, inc = 0, np.inf
    backward = itertools.islice(orbit(c, omega, -k_max), 1, None)
    for k, (_, back_op) in zip(range(1, k_max + 1), backward):
        bracket = kernel_matmul(back_op.kernel, bracket)
        cur = mass_apply(base, bracket)
        inc = float(np.abs(cur - prev).sum())
        prev, steps = cur, k
        if inc <= tol:
            break
    return PullbackResult(Density.from_mass(c.space, prev), inc, steps,
                          inc <= tol, tol)


@dataclasses.dataclass(eq=False)
class InvariantDensityMap:
    """Equivariant family omega -> h(omega) with P(omega) h(omega) =
    h(sigma omega), realized by cached pullbacks (finite driving caches by
    point, bernoulli by resolved stream and origin)."""

    cocycle: CocycleFamily
    k_max: int = 64
    tol: float = 1e-10
    f0: Density | None = None

    def __post_init__(self):
        self._cache: dict[EnvPoint, PullbackResult] = {}

    def result_at(self, omega: EnvPoint) -> PullbackResult:
        res = self._cache.get(omega)
        if res is None:
            res = invariant_density_pullback(self.cocycle, omega, self.k_max,
                                             self.f0, self.tol)
            self._cache[omega] = res
        return res

    def at(self, omega: EnvPoint) -> Density:
        return self.result_at(omega).density

    def all_converged(self, omegas) -> bool:
        return all(self.result_at(w).converged for w in omegas)

    def equivariance_residual(self, omegas) -> float:
        """max over the given points of || P(omega) h(omega) - h(sigma omega) ||_L1."""
        worst = 0.0
        for w in omegas:
            pushed = apply(self.cocycle.operator_at(w), self.at(w))
            nxt = self.at(advance(self.cocycle.driving, w, 1))
            worst = max(worst, float(np.abs(pushed.mass - nxt.mass).sum()))
        return worst


def build_invariant_density_map(c: CocycleFamily, k_max: int = 64,
                                tol: float = 1e-10,
                                f0: Density | None = None) -> InvariantDensityMap:
    return InvariantDensityMap(cocycle=c, k_max=k_max, tol=tol, f0=f0)


@dataclasses.dataclass(frozen=True)
class NormalizedApplyResult:
    density: Density
    excluded_cells: np.ndarray   # cells dropped because h(sigma omega) ~ 0
    excluded_mass: float         # mass the drop discarded (float dust when
                                 # the invariant map is consistent)


@dataclasses.dataclass(eq=False)
class NormalizedCocycle:
    """Cocycle renormalized by an invariant density map:
    Phat(omega) f = P(omega)(f h(omega)) / h(sigma omega) on the support of
    h(sigma omega), and 0 outside it.  Densities here are taken w.r.t. the
    measures mu(omega) = h(omega) m, and Phat maps the constant 1 on the
    support of h(omega) to the constant 1 on the support of h(sigma omega).
    """

    cocycle: CocycleFamily
    h: InvariantDensityMap
    support_floor_rel: float = 1e-9

    def support_mask(self, omega: EnvPoint) -> np.ndarray:
        hv = self.h.at(omega).values
        return hv > self.support_floor_rel * float(np.abs(hv).max())


def normalized_apply(nc: NormalizedCocycle, omega: EnvPoint,
                     f: Density) -> NormalizedApplyResult:
    c = nc.cocycle
    c.check_point(omega)
    h_here = nc.h.at(omega)
    h_next = nc.h.at(advance(c.driving, omega, 1))
    product = Density(c.space, f.values * h_here.values)
    pushed = apply(c.operator_at(omega), product)
    mask = nc.support_mask(advance(c.driving, omega, 1))
    values = np.zeros(c.n)
    values[mask] = pushed.values[mask] / h_next.values[mask]
    excluded = np.flatnonzero(~mask)
    excluded_mass = float(np.abs(pushed.mass[~mask]).sum())
    return NormalizedApplyResult(Density(c.space, values), excluded,
                                 excluded_mass)


def mu_integral(nc: NormalizedCocycle, omega: EnvPoint, f: Density) -> float:
    """integral of f with respect to mu(omega) = h(omega) m."""
    return float(np.sum(f.values * nc.h.at(omega).mass))


def support_defect(c: CocycleFamily, h: InvariantDensityMap, omega: EnvPoint,
                   n: int, floor_rel: float = 1e-9) -> float:
    """m-measure of supp P^(n) 1 minus supp P^(n) h(omega): the soft-support
    mismatch between iterating full mass and iterating the invariant density."""
    kernel = compose(c, omega, n).kernel
    one_mass = mass_apply(Density.uniform(c.space).mass, kernel)
    h_mass = mass_apply(h.at(omega).mass, kernel)
    sup_one = np.abs(one_mass) > floor_rel * float(np.abs(one_mass).max())
    hmax = float(np.abs(h_mass).max())
    sup_h = np.abs(h_mass) > (floor_rel * hmax if hmax > 0 else 0.0)
    return float(c.space.weights[sup_one & ~sup_h].sum())
