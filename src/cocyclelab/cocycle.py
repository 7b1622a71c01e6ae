"""Markov operator cocycles over a driving system.

A cocycle assigns one Markov kernel to each environment feature (point index
for finite driving, symbol at coordinate 0 for the Bernoulli shift); the
n-step operator from omega composes the kernels met along the orbit,

    K^(n)(omega) = K(omega) K(sigma omega) ... K(sigma^{n-1} omega)

in mass-row convention, so mass vectors evolve by right multiplication in
orbit order and the cocycle law reads
K^(n+m)(omega) = K^(m)(omega) K^(n)(sigma^m omega).

Every walk steps through ``orbit``, which yields the points only.  A forward
push reads its factors from ``orbit_kernels`` and pushes by ``push_kernels``.
Four walks keep their own loops: ``kernel_groups`` keys points by the
operators they meet; the invariant-density pullback pushes a seed from
sigma^{-k} omega for growing k, so it walks backward; the skew walk stacks
the pushes of many points per step; and ``exactness.cell_map_orbit`` pushes
no mass, so the routes it serves stay independent of the mass pushes.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from cocyclelab.driving import (
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
    gather_apply,
    indicator_rows,
    kernel_matmul,
    mass_apply,
    require_count,
    same_space,
    single_blas_thread,
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
        missing = [k for k in range(self.driving.n_features)
                   if k not in self.table]
        if missing:
            raise ValueError(f"operator table missing features {missing}")
        ops = {id(P): P for P in self.table.values()}
        object.__setattr__(self, "_single", ops.popitem()[1] if len(ops) == 1 else None)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def all_exact(self) -> bool:
        return all(P.exact for P in self.table.values())

    @property
    def moves_whole_cells(self) -> bool:  # the cell-map walk's condition
        return all(P.is_cell_map() for P in self.table.values())

    @property
    def is_constant(self) -> bool:
        return self._single is not None

    def operator_at(self, omega: EnvPoint) -> MarkovMatrix:
        # a constant table reads no feature, so a Bernoulli point resolves no symbol
        return self._single or self.table[feature(self.driving, omega)]

    def check_point(self, omega: EnvPoint):
        if omega.system is not self.driving or (
                omega.index is not None
                and omega.index >= self.driving.n_points):
            raise DrivingError("point does not belong to this cocycle's driving")


def orbit(c: CocycleFamily, omega: EnvPoint, n: int):
    """The orbit points sigma^t omega for t = 0, 1, ..., n, or t = 0, -1,
    ..., n when n < 0 (the driving is invertible), and no kernels.

    The walk advances one step at a time, and only when the next point is
    asked for, so a caller that stops early pays for no further steps.
    """
    c.check_point(omega)
    step = 1 if n >= 0 else -1
    return itertools.accumulate(itertools.repeat(step, abs(n)),
                                lambda pt, s: advance(c.driving, pt, s),
                                initial=omega)


def kernel_groups(c: CocycleFamily, omegas, steps: int):
    """The walks sigma^t omegas[i], t = 0..steps (equal points share one), and
    the point indices grouped by the operators met at t < steps, by identity."""
    require_count(steps, "steps", 0)
    walked = {pt: list(orbit(c, pt, steps)) for pt in dict.fromkeys(omegas)}
    groups = {}
    for i, pt in enumerate(omegas):
        groups.setdefault(tuple(map(c.operator_at, walked[pt][:-1])), []).append(i)
    return [walked[pt] for pt in omegas], groups


def orbit_kernels(c: CocycleFamily, omega: EnvPoint, n: int):
    """The per-step kernels K(sigma^t omega) for t = 0..n-1, the factors of
    the n-step operator in orbit order."""
    require_count(n, "n", 0)
    return [c.operator_at(pt).kernel for _, pt in zip(range(n), orbit(c, omega, n))]


def push_kernels(mass: np.ndarray, kernels):
    """``mass``, one row or a stack of rows, then its pushes through each
    kernel in turn by ``mass_apply``; each push runs only when asked for."""
    return itertools.accumulate(kernels, mass_apply, initial=mass)


@single_blas_thread
def compose(c: CocycleFamily, omega: EnvPoint, n: int) -> MarkovMatrix:
    """The n-step operator from omega; n = 0 gives the identity."""
    kernel = indicator_rows(np.arange(c.n), c.n)
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


# pullback depths pushed together: at N = 256 one stacked push costs about
# 4 us per row for 8 rows against 14-18 us for a single row.  The block path
# pushes through a kernel's column gathers when it has them (at most N / 64
# sources in any column), and then 8 rows at N = 256 and 2 sources per
# column take about 12 us against 18-27 us dense.
PULLBACK_BLOCK = 8


def _pullback_depths(c: CocycleFamily, omega: EnvPoint, k_max: int,
                     base: np.ndarray):
    """The pullback masses of depths 1, 2, ..., k_max, lazily, in order."""
    if c.is_constant:
        kernel = c.operator_at(omega).kernel
        for _ in range(k_max):
            base = mass_apply(base, kernel)  # depth k is depth k-1 pushed once
            yield base
        return
    backward = (c.operator_at(pt)
                for pt in itertools.islice(orbit(c, omega, -k_max), 1, None))
    ops = []  # B_1, ..., B_k as the walk reaches them
    while len(ops) < k_max:
        lo = len(ops)
        ops.extend(itertools.islice(backward, PULLBACK_BLOCK))
        stack = np.empty((0, base.size))  # depths, deepest first
        for j in range(len(ops), 0, -1):
            if j > lo:
                stack = np.vstack([stack, base])
            gathers = ops[j - 1].column_gathers
            stack = (mass_apply(stack, ops[j - 1].kernel) if gathers is None
                     else gather_apply(stack, gathers))
        yield from stack[::-1]


@single_blas_thread
def invariant_density_pullback(c: CocycleFamily, omega: EnvPoint, k_max: int,
                               f0: Density | None = None,
                               tol: float = 1e-10) -> PullbackResult:
    """Push f0 forward from sigma^{-k} omega for growing k until the L1
    increment between consecutive depths falls below tol (or k hits k_max).

    With B_j = K(sigma^{-j} omega), depth k pushes the seed row through
    B_k, ..., B_1; no kernels are multiplied.  A constant table has period 1,
    so depth k is depth k-1 pushed once more.  Any other table walks the
    backward orbit in blocks of PULLBACK_BLOCK = 8 kernels and pushes the
    seed rows of a block's depths as one stack, each row joining just before
    its own B_j.  The increments are read in depth order, so the walk stops
    at the same depth but may overshoot it by up to 7 backward steps.

    The block path makes about k^2 / 2 row pushes to reach depth k, so it
    pushes each stack through B_j's ``column_gathers`` when B_j has them (a
    dense kernel with at most N / GATHER_WIDTH_DIVISOR sources in any
    column) and by ``mass_apply`` otherwise; only the rounding inside each
    push differs.  The constant-table path makes one push per depth and
    keeps ``mass_apply`` and its exact bits.

    Failure to converge is reported through the certificate, never hidden.
    """
    require_count(k_max, "k_max", 0)  # the pullback depth cap
    c.check_point(omega)
    if not 0 <= tol < np.inf:  # tol = 0 is legal: it runs to the depth cap
        raise PreconditionError(f"pullback tol must be finite and >= 0, got {tol}")
    if f0 is None:
        f0 = Density.uniform(c.space)
    if not 0 < f0.total_mass < np.inf:  # a NaN or inf entry fails it too
        raise PreconditionError(
            f"pullback seed must carry finite positive mass, got {f0.total_mass}")
    prev = f0.mass
    steps, inc = 0, np.inf
    for k, cur in enumerate(_pullback_depths(c, omega, k_max, prev), 1):
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


def build_invariant_density_map(c: CocycleFamily, k_max: int = 64,
                                tol: float = 1e-10,
                                f0: Density | None = None) -> InvariantDensityMap:
    return InvariantDensityMap(cocycle=c, k_max=k_max, tol=tol, f0=f0)


@dataclasses.dataclass(eq=False)
class NormalizedCocycle:
    """A cocycle paired with an invariant density map omega -> h(omega): the
    fibre measures mu(omega) = h(omega) m that the skew-product routes
    integrate against."""

    cocycle: CocycleFamily
    h: InvariantDensityMap

    def __post_init__(self):
        if self.h.cocycle is not self.cocycle:
            raise PreconditionError(
                "the invariant density map was built for another cocycle")
