"""Asymptotic periodicity: detection, invariant mixtures, restricted powers.

After a burn-in, an asymptotically periodic operator sends every cell's
indicator onto one of r disjoint density profiles g_1..g_r that a further
step permutes among themselves.  The detector pushes the cell indicators to
the verdict window's start, links the cells one pushed row reaches
(``cell_labels``), reads the permutation off one extra step, and verifies the
structure by residuals instead of trusting it: rows inside one component must
share a profile, and each pushed profile must equal the one it lands on.
Everything is reported (component count, permutation, profiles, weights,
residual); ``found`` is claimed only when the structure checks pass within
the structure tolerance its kernels set, and a component count above the
caller's cap is reported as not found rather than truncated.

``quasi_constrictive_probe`` gives numerical evidence for constrictivity:
the terminal mass that small cell unions can capture from any initial
density.  Normalized cell indicators are enough to probe all densities —
the captured mass is linear in the density, so its supremum over the density
simplex is attained at a vertex.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cocyclelab.cocycle import CocycleFamily, orbit_kernels, push_kernels
from cocyclelab.curves import tail_start
from cocyclelab.driving import BERNOULLI, DrivingSystem, EnvPoint, advance, points
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    dense,
    indicator_rows,
    issparse,
    mass_apply,
    require_count,
    require_horizon,
    single_blas_thread,
)

# masses at or below this count as outside a support
SUPPORT_FLOOR = 1e-12

# Rows of the burn-in product pushed and read together.  Detector on exact
# doubling, N = 1024, horizon 40 (traced peak, time; one core of a 2-core
# Xeon VM): 64 rows 13.1 MB 0.06-0.07 s, 128 rows 13.1 MB 0.057-0.062 s, 256
# 14.0 MB 0.07-0.09 s, 512 20.0 MB, all N rows at once 33.1 MB 0.08-0.10 s.
ROW_BLOCK = 128

# The structure residual the detector accepts; at horizon 40 the shipped exact
# scenarios leave 0, the Monte-Carlo (Ulam) ones 1e-15 to 3.2e-10.
EXACT_STRUCTURE_TOL, ESTIMATED_STRUCTURE_TOL = 1e-10, 1e-6


def is_permutation(perm, r: int) -> bool:
    """True when ``perm`` holds each of 0..r-1 exactly once."""
    return perm is not None and np.array_equal(np.sort(perm), np.arange(r))


def permutation_cycles(perm) -> list:
    """The cycles of a permutation of 0..r-1, fixed points included, each a
    list that starts at its smallest point, in order of that point."""
    perm, seen, cycles = [int(v) for v in perm], set(), []
    for start in range(len(perm)):
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        if cycle:
            cycles.append(cycle)
    return cycles


@dataclasses.dataclass(frozen=True)
class PeriodicDecomposition:
    found: bool
    r: int                     # detected component count (even when not found)
    rho: np.ndarray | None     # rho[i] = component the i-th profile maps onto
    supports: list             # per component, sorted cell indices
    densities: list            # per component, unit-mass Density profile g_i
    lambdas: np.ndarray | None  # burn-in mass of f0 on each component
    burn_in: int
    residual: float
    tol: float                 # the structure tolerance applied
    reason: str | None = None

    def __post_init__(self):  # a cycle that never returns would loop forever
        if self.found and not is_permutation(self.rho, self.r):
            raise PreconditionError(
                f"rho must be a permutation of 0..{self.r - 1}, got {self.rho}")

    def _cycles(self) -> list:
        if self.rho is None:
            raise PreconditionError("no permutation: decomposition not found")
        return permutation_cycles(self.rho)

    def cycle_length(self, i: int) -> int:
        cycles = self._cycles()
        if i not in range(self.r):
            raise PreconditionError(f"component {i} outside 0..{self.r - 1}")
        return next(len(cycle) for cycle in cycles if i in cycle)

    @property
    def period(self) -> int:
        return math.lcm(*map(len, self._cycles()))


def _not_found(r, burn_in, tol, reason, supports=(), densities=(), residual=math.nan):
    return PeriodicDecomposition(found=False, r=r, rho=None,
                                 supports=list(supports),
                                 densities=list(densities), lambdas=None,
                                 burn_in=burn_in, residual=residual, tol=tol,
                                 reason=reason)


def cell_labels(reach: np.ndarray) -> np.ndarray:
    """Label each cell (column) of the bipartite row-cell graph ``reach`` by
    the smallest cell of its component; a cell no row reaches keeps its own.
    Star hooking (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
    hooks every root to the least label its star's cells share a row with,
    then jumps pointers until every label is a root; labels only fall and
    stay in their component.  Its int32 work arrays are half a float64 kernel."""
    n = reach.shape[1]
    label, old = np.arange(n, dtype=np.int32), None
    while not np.array_equal(label, old):
        old = label.copy()
        row_min = np.where(reach, label, n).min(axis=1)
        np.minimum.at(label, old, np.where(reach, row_min[:, None], n).min(axis=0))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


def _burn_in_product(kernels, n: int) -> np.ndarray:
    """The (n, n) product of ``kernels``, with the bits of one push of the
    stored identity, C-ordered as a copy of its rows.  Through CSR kernels it
    is pushed ROW_BLOCK rows at a time: a stored CSR stack has sorted indices
    (``measure._by_fill`` sorts them), so a row sums in ascending cell order
    whether it is CSR or dense.  A walk that meets a dense kernel pushes all
    rows as one block, since gemm's summation order depends on the block
    shape."""
    step = ROW_BLOCK if all(map(issparse, kernels)) else n
    product = np.empty((n, n))
    for lo in range(0, n, step):
        block = indicator_rows(np.arange(lo, min(lo + step, n)), n)
        for pushed in push_kernels(block, kernels):
            pass
        product[lo:lo + step] = dense(pushed)
    return product


@single_blas_thread
def detect_periodicity(c: CocycleFamily, omega: EnvPoint, horizon: int,
                       r_max: int, f0: Density | None = None) -> PeriodicDecomposition:
    """Detect an asymptotic periodic decomposition along the orbit of omega.

    The structure tolerance is EXACT_STRUCTURE_TOL when every operator is
    exact, else ESTIMATED_STRUCTURE_TOL; the decomposition records it.  The
    burn-in ends at ``tail_start(horizon + 1)``, where the decay verdicts
    read.  One ``orbit_kernels`` walk of burn + 1 steps gives the burn-in
    kernels and, last, the step kernel the permutation is read through.
    The burn-in product is one dense (N, N) array, filled by pushing
    ROW_BLOCK cell indicators at a time through those kernels, stored by the
    stack rule; a walk that meets a dense kernel pushes all N as one block.
    It is read in place: the residual over row blocks, the burn-in masses of
    f0 as one push through it.
    """
    require_count(r_max, "r_max", 0)
    require_horizon(horizon)
    if f0 is not None and not np.isfinite(f0.values).all():
        raise PreconditionError("f0 must be finite: it holds NaN or inf values")
    n, tol = c.n, EXACT_STRUCTURE_TOL if c.all_exact else ESTIMATED_STRUCTURE_TOL
    burn = tail_start(horizon + 1)
    *kernels, step_kernel = orbit_kernels(c, omega, burn + 1)
    M = _burn_in_product(kernels, n)

    reach = M > SUPPORT_FLOOR
    hit = np.flatnonzero(reach.any(axis=0))
    roots, comp = np.unique(cell_labels(reach)[hit], return_inverse=True)
    r = roots.size
    if r > r_max:
        return _not_found(r, burn, tol, f"{r} components exceed the cap r_max={r_max}")
    supports = [hit[comp == i] for i in range(r)]

    # every row's support sits inside exactly one component, the one of its
    # first reached cell; rows of one component must share a single
    # unit-mass profile
    comp_of_cell = np.full(n, -1)
    comp_of_cell[hit] = comp
    profiles, within_residual = [], 0.0
    row_comp = comp_of_cell[np.argmax(reach, axis=1)]
    for i in range(r):
        mine = row_comp == i
        rows = M if mine.all() else M[mine]
        if rows.size == 0:
            return _not_found(r, burn, tol, "a component receives no mass", supports)
        profile = rows.mean(axis=0)
        for lo in range(0, len(rows), ROW_BLOCK):
            spread = np.abs(rows[lo:lo + ROW_BLOCK] - profile).sum(axis=1).max()
            within_residual = max(within_residual, float(spread))
        profiles.append(profile)

    # the burn-in mass of f0 on each component, pushed through the product;
    # the permutation is read off one more step, at sigma^burn omega
    if f0 is None:
        f0 = Density.uniform(c.space)
    burnt = f0.mass @ M
    lambdas = np.array([float(burnt[s].sum()) for s in supports])
    rho, push_residual = np.full(r, -1), 0.0
    for i, profile in enumerate(profiles):
        pushed = mass_apply(profile, step_kernel)
        landing = np.unique(comp_of_cell[np.flatnonzero(pushed > SUPPORT_FLOOR)])
        if landing.size != 1 or landing[0] < 0:
            return _not_found(r, burn, tol, "pushed profile does not land in a "
                              "single component", supports)
        rho[i] = landing[0]
        push_residual = max(push_residual,
                            float(np.abs(pushed - profiles[rho[i]]).sum()))
    if not is_permutation(rho, r):
        return _not_found(r, burn, tol, "component map is not a permutation", supports)

    residual = max(within_residual, push_residual)
    densities = [Density.from_mass(c.space, p) for p in profiles]

    if residual > tol:
        return _not_found(r, burn, tol,
                          f"structure residual {residual:.3e} above tolerance",
                          supports, densities, residual)
    return PeriodicDecomposition(found=True, r=r, rho=rho, supports=supports,
                                 densities=densities, lambdas=lambdas,
                                 burn_in=burn, residual=residual, tol=tol)


def invariant_density_from_decomposition(dec: PeriodicDecomposition) -> Density:
    """The equal-weight mixture of the periodic profiles; one step permutes
    the profiles, so the mixture is fixed."""
    if not dec.found:
        raise PreconditionError("no decomposition was found to average")
    space = dec.densities[0].space
    mass = np.mean([d.mass for d in dec.densities], axis=0)
    return Density.from_mass(space, mass)


@single_blas_thread
def restricted_power_cocycle(c: CocycleFamily, dec: PeriodicDecomposition,
                             component: int):
    """The cycle-length power of the cocycle restricted to one component.

    Defined for finite driving with supports that are invariant across
    environment points (checked through mass conservation: from every point
    p, the cycle-length push of the component's cells, which ends at sigma^k
    p, must keep their mass inside it).  Returns the restricted cocycle and
    the global cell indices of the component.
    """
    if not dec.found:
        raise PreconditionError("no decomposition to restrict to")
    if c.driving.kind == BERNOULLI:
        raise PreconditionError(
            "restricted powers are defined here for finite driving only; "
            "bernoulli driving has no finite point set to re-key the table on")
    k = dec.cycle_length(component)
    cells = dec.supports[component]
    w = c.space.weights[cells]
    sub_space = FiniteMeasureSpace(w / w.sum())

    table, sigma_k = {}, []
    for p, start in enumerate(points(c.driving)):
        for rows in push_kernels(dense(indicator_rows(cells, c.n)),
                                 orbit_kernels(c, start, k)):
            pass
        sigma_k.append(advance(c.driving, start, k).index)
        block = rows[:, cells]
        leak = float(np.abs(block.sum(axis=1) - 1.0).max())
        if leak > 1e-9:
            raise PreconditionError(
                f"component support is not invariant from every environment "
                f"point (mass leak {leak:.3e})")
        table[p] = MarkovMatrix(sub_space, block / block.sum(axis=1, keepdims=True),
                                exact=c.all_exact)
    sub_driving = DrivingSystem(kind="finite_permutation", probs=c.driving.probs,
                                sigma=sigma_k)
    return CocycleFamily(driving=sub_driving, table=table), cells


@dataclasses.dataclass(frozen=True)
class QCWitness:
    eps: float
    source_cell: int
    n: int
    cells: tuple
    captured: float


@dataclasses.dataclass(frozen=True)
class QCReport:
    eps_values: np.ndarray
    deltas: np.ndarray          # guaranteed escaping mass per eps (1 - captured)
    witnesses: list             # per eps, the capture-maximizing (f, n, E)
    quasi_constrictive: bool    # positive escape at the smallest probed eps


def _greedy_packs(ms: np.ndarray, ws: np.ndarray, eps_values: np.ndarray):
    """Greedy packs of the sorted rows ``ms`` per eps: take cells heaviest
    first, stop at the first mass <= SUPPORT_FLOOR, skip a cell whose weight
    ``ws`` (in the rows' order) would lift the union above eps.  One pass per
    sorted position adds in take order.  Returns the captures (rows, eps)
    and the taken (positions, rows, eps)."""
    limit = eps_values + 1e-15
    alive = np.logical_and.accumulate(~(ms <= SUPPORT_FLOOR), axis=1).T
    taken = np.zeros(alive.shape + limit.shape, dtype=bool)
    total = np.zeros(taken.shape[1:])
    captured = np.zeros(taken.shape[1:])
    for pos, w in enumerate(ws.T[:, :, None]):
        taken[pos] = alive[pos, :, None] & ~(total + w > limit)
        total = np.where(taken[pos], total + w, total)
        captured = np.where(taken[pos], captured + ms[:, pos, None], captured)
    return captured, taken


@single_blas_thread
def quasi_constrictive_probe(c: CocycleFamily, omega: EnvPoint, horizon: int,
                             eps_values) -> QCReport:
    """Probe constrictivity: the worst-case terminal mass a small cell union
    can capture, maximized over initial densities and the late times from
    ``tail_start(horizon + 1)``, where the decay verdicts read.

    For each eps, the probe packs the heaviest cells of each pushed
    indicator (greedily, exact when weights are uniform) subject to the
    union's measure staying at or below eps.  delta(eps) = 1 - capture;
    deltas bounded away from zero are constrictivity evidence, a zero delta
    at small eps means mass keeps concentrating (as for a cell permutation).
    The witness per eps is the first maximum in (step, row) order.
    """
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    if not (eps_values.size and np.isfinite(eps_values).all() and eps_values[0] > 0):
        raise PreconditionError(f"eps grid must be finite and > 0: {eps_values}")
    require_count(horizon, "horizon", 1)  # from 1 on the window leaves n = 0 out
    burn = tail_start(horizon + 1)
    w = c.space.weights

    best: list[QCWitness | None] = [None] * eps_values.size
    # rows: pushed cell indicators (unit mass each)
    for step, mass in enumerate(push_kernels(np.eye(c.n),
                                             orbit_kernels(c, omega, horizon))):
        if step >= burn:
            order = np.argsort(-mass, axis=1)
            captured, taken = _greedy_packs(
                np.take_along_axis(mass, order, axis=1),
                w[order], eps_values)
            for e_id, eps in enumerate(eps_values):
                j = int(captured[:, e_id].argmax())
                if best[e_id] is None or captured[j, e_id] > best[e_id].captured:
                    cells = order[j][taken[:, j, e_id]]
                    best[e_id] = QCWitness(eps=float(eps), source_cell=j,
                                           n=step, cells=tuple(cells.tolist()),
                                           captured=float(captured[j, e_id]))

    deltas = np.array([1.0 - b.captured for b in best])
    return QCReport(eps_values=eps_values, deltas=deltas, witnesses=best,
                    quasi_constrictive=bool(deltas[0] > 0.0))


def block_cycle_kernel(n_cells: int, r: int) -> np.ndarray:
    """Planted asymptotically periodic kernel: near-equal contiguous blocks,
    uniformized within a block and advanced one block cyclically per step.
    The decomposition is exact after a single step: r profiles (uniform on
    each block) permuted by the cycle i -> i+1 (mod r)."""
    if require_count(r, "r", 1) > n_cells:
        raise PreconditionError("need 1 <= r <= n_cells")
    edges = np.linspace(0, n_cells, r + 1).round().astype(int)
    blocks = [np.arange(edges[i], edges[i + 1]) for i in range(r)]
    kernel = np.zeros((n_cells, n_cells))
    for i, block in enumerate(blocks):
        target = blocks[(i + 1) % r]
        kernel[np.ix_(block, target)] = 1.0 / target.size
    return kernel
