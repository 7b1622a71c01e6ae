"""Asymptotic periodicity: detection, stability, and restricted powers.

After a burn-in, an asymptotically periodic operator sends every cell's
indicator onto one of r disjoint density profiles g_1..g_r that a further
step permutes among themselves.  The detector composes the cocycle for a
burn-in window, clusters the rows of the composed kernel by support overlap,
reads the permutation off one extra step, and verifies the structure by
residuals instead of trusting it: rows inside one component must share a
profile, and each pushed profile must coincide with the profile it lands on.
Everything is reported (component count, permutation, profiles, weights,
residual); ``found`` is claimed only when the structure checks pass within
tolerance, and a component count above the caller's cap is reported as not
found rather than truncated.

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
import scipy.sparse as sp

from cocyclelab.cocycle import CocycleFamily, compose, orbit
from cocyclelab.driving import BERNOULLI, DrivingSystem, EnvPoint, point
from cocyclelab.exactness import exactness_report
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    mass_apply,
)
from cocyclelab.mixing import indicator_basis, zero_mean_basis

SUPPORT_FLOOR = 1e-12


def burn_in_steps(n_cells: int, horizon: int) -> int:
    """Default burn-in: twice the dyadic depth of the grid, capped at half
    the horizon, at least one step."""
    return max(1, min(2 * math.ceil(math.log2(max(n_cells, 2))), horizon // 2))


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
    reason: str | None = None

    def cycle_length(self, i: int) -> int:
        if self.rho is None:
            raise PreconditionError("no permutation: decomposition not found")
        seen = i
        length = 1
        while int(self.rho[seen]) != i:
            seen = int(self.rho[seen])
            length += 1
        return length

    @property
    def period(self) -> int:
        return math.lcm(*(self.cycle_length(i) for i in range(self.r)))


def _not_found(r, burn_in, residual, reason, supports=(), densities=()):
    return PeriodicDecomposition(found=False, r=r, rho=None,
                                 supports=list(supports),
                                 densities=list(densities), lambdas=None,
                                 burn_in=burn_in, residual=residual,
                                 reason=reason)


def detect_periodicity(c: CocycleFamily, omega: EnvPoint, horizon: int,
                       r_max: int, tol: float = 1e-10,
                       f0: Density | None = None,
                       support_floor: float = SUPPORT_FLOOR) -> PeriodicDecomposition:
    """Detect an asymptotic periodic decomposition along the orbit of omega.

    The composed burn-in kernel is materialized densely, so this detector is
    meant for moderate cell counts.  Components are labeled canonically by
    their smallest cell index.
    """
    n = c.n
    burn = burn_in_steps(n, horizon)
    M = compose(c, omega, burn).kernel
    if sp.issparse(M):
        M = M.toarray()
    M = np.asarray(M)

    # imported here: csgraph pulls in scipy.sparse.linalg, which would add
    # about 0.1 s to every import of the package
    from scipy.sparse.csgraph import connected_components

    # cells are linked when one row reaches both: the components of the
    # bipartite row-cell graph, numbered by their smallest cell
    reach = M > support_floor
    links = sp.csr_matrix(reach)
    _, label = connected_components(sp.bmat([[None, links], [links.T, None]]),
                                    directed=False)
    hit = np.flatnonzero(reach.any(axis=0))
    _, first, comp = np.unique(label[n + hit], return_index=True,
                               return_inverse=True)
    comp = np.argsort(np.argsort(first))[comp]
    r = first.size
    if r > r_max:
        return _not_found(r, burn, float("nan"),
                          f"{r} components exceed the cap r_max={r_max}")
    supports = [hit[comp == i] for i in range(r)]

    # every row's support sits inside exactly one component; rows of one
    # component must share a single unit-mass profile
    comp_of_cell = np.full(n, -1)
    comp_of_cell[hit] = comp
    profiles = []
    within_residual = 0.0
    row_comp = comp_of_cell[np.argmax(M, axis=1)]
    for i in range(r):
        rows = M[row_comp == i]
        if rows.size == 0:
            return _not_found(r, burn, float("nan"),
                              "a component receives no mass", supports)
        profile = rows.mean(axis=0)
        within_residual = max(within_residual,
                              float(np.abs(rows - profile).sum(axis=1).max()))
        profiles.append(profile)

    # read the permutation off one more step
    *burn_orbit, (_, step_op) = orbit(c, omega, burn)
    step_kernel = step_op.kernel
    rho = np.full(r, -1)
    push_residual = 0.0
    pushed_profiles = [mass_apply(p, step_kernel) for p in profiles]
    for i, pushed in enumerate(pushed_profiles):
        landing = np.unique(comp_of_cell[np.flatnonzero(pushed > support_floor)])
        if landing.size != 1 or landing[0] < 0:
            return _not_found(r, burn, float("nan"),
                              "pushed profile does not land in a single component",
                              supports)
        rho[i] = landing[0]
    if sorted(rho.tolist()) != list(range(r)):
        return _not_found(r, burn, float("nan"),
                          "component map is not a permutation", supports)
    for i, pushed in enumerate(pushed_profiles):
        push_residual = max(push_residual,
                            float(np.abs(pushed - profiles[int(rho[i])]).sum()))

    residual = max(within_residual, push_residual)
    space = c.space
    densities = [Density.from_mass(space, p) for p in profiles]
    if f0 is None:
        f0 = Density.uniform(space)
    mass = f0.mass
    for _, P in burn_orbit:
        mass = mass_apply(mass, P.kernel)
    lambdas = np.array([float(mass[s].sum()) for s in supports])

    if residual > tol:
        return _not_found(r, burn, residual,
                          f"structure residual {residual:.3e} above tolerance",
                          supports, densities)
    return PeriodicDecomposition(found=True, r=r, rho=rho, supports=supports,
                                 densities=densities, lambdas=lambdas,
                                 burn_in=burn, residual=residual)


def invariant_density_from_decomposition(dec: PeriodicDecomposition) -> Density:
    """The equal-weight mixture of the periodic profiles; one step permutes
    the profiles, so the mixture is fixed."""
    if not dec.found:
        raise PreconditionError("no decomposition was found to average")
    space = dec.densities[0].space
    mass = np.mean([d.mass for d in dec.densities], axis=0)
    return Density.from_mass(space, mass)


@dataclasses.dataclass(frozen=True)
class StabilityReport:
    decomposition: PeriodicDecomposition
    exact_verdict: bool
    routes_agree: bool
    consistent: bool | None   # (r == 1) vs exactness; None when nothing found


def stability_check(c: CocycleFamily, omega: EnvPoint, horizon: int,
                    r_max: int, tol: float = 1e-10,
                    decay_tol: float = 1e-8) -> StabilityReport:
    """Cross-check the decomposition against the exactness routes: a single
    periodic profile is the same thing as exactness."""
    dec = detect_periodicity(c, omega, horizon, r_max, tol)
    rep = exactness_report(c, omega, zero_mean_basis(c.space),
                           indicator_basis(c.space), horizon, decay_tol)
    consistent = None
    if dec.found:
        consistent = (dec.r == 1) == rep.exact_verdict
    return StabilityReport(decomposition=dec, exact_verdict=rep.exact_verdict,
                           routes_agree=rep.routes_agree, consistent=consistent)


def restricted_power_cocycle(c: CocycleFamily, dec: PeriodicDecomposition,
                             component: int):
    """The cycle-length power of the cocycle restricted to one component.

    Defined for finite driving with supports that are invariant across
    environment points (checked through mass conservation: from every point,
    the composed cycle-length kernel must keep the component's mass inside
    it).  Returns the restricted cocycle and the global cell indices of the
    component.
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

    sigma_k = np.arange(c.driving.n_points)
    for _ in range(k):
        sigma_k = c.driving.sigma[sigma_k]
    sub_driving = DrivingSystem(kind="finite_permutation", probs=c.driving.probs,
                                sigma=sigma_k)

    table = {}
    for p in range(c.driving.n_points):
        M = compose(c, point(c.driving, p), k).kernel
        if sp.issparse(M):
            M = M.toarray()
        block = np.asarray(M)[np.ix_(cells, cells)]
        leak = float(np.abs(block.sum(axis=1) - 1.0).max())
        if leak > 1e-9:
            raise PreconditionError(
                f"component support is not invariant from every environment "
                f"point (mass leak {leak:.3e})")
        table[p] = MarkovMatrix(sub_space, block / block.sum(axis=1, keepdims=True),
                                exact=c.all_exact)
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


def quasi_constrictive_probe(c: CocycleFamily, omega: EnvPoint, horizon: int,
                             eps_values,
                             support_floor: float = SUPPORT_FLOOR) -> QCReport:
    """Probe constrictivity: the worst-case terminal mass a small cell union
    can capture, maximized over initial densities and late times.

    For each eps, the probe packs the heaviest cells of each pushed
    indicator (greedily, exact when weights are uniform) subject to the
    union's measure staying at or below eps.  delta(eps) = 1 - capture;
    deltas bounded away from zero are constrictivity evidence, a zero delta
    at small eps means mass keeps concentrating (as for a cell permutation).
    """
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    if eps_values.size == 0 or eps_values[0] <= 0:
        raise PreconditionError("eps grid must be positive")
    if horizon < 1:
        raise PreconditionError("the probe reads late times: need horizon >= 1")
    n = c.n
    w = c.space.weights
    burn = max(horizon // 2, 1)

    mass = np.eye(n)  # rows: pushed cell indicators (unit mass each)
    best: list[QCWitness | None] = [None] * eps_values.size
    for step, (_, P) in enumerate(orbit(c, omega, horizon)):
        if step >= burn:
            order = np.argsort(-mass, axis=1)
            for j in range(n):
                for e_id, eps in enumerate(eps_values):
                    total_w = 0.0
                    captured = 0.0
                    chosen = []
                    for cell in order[j]:
                        if mass[j, cell] <= support_floor:
                            break
                        if total_w + w[cell] > eps + 1e-15:
                            continue
                        total_w += w[cell]
                        captured += mass[j, cell]
                        chosen.append(int(cell))
                    if best[e_id] is None or captured > best[e_id].captured:
                        best[e_id] = QCWitness(eps=float(eps), source_cell=j,
                                               n=step, cells=tuple(chosen),
                                               captured=captured)
        if step < horizon:
            mass = mass_apply(mass, P.kernel)

    deltas = np.array([1.0 - b.captured for b in best])
    return QCReport(eps_values=eps_values, deltas=deltas, witnesses=best,
                    quasi_constrictive=bool(deltas[0] > 0.0))


def block_cycle_kernel(n_cells: int, r: int) -> np.ndarray:
    """Planted asymptotically periodic kernel: near-equal contiguous blocks,
    uniformized within a block and advanced one block cyclically per step.
    The decomposition is exact after a single step: r profiles (uniform on
    each block) permuted by the cycle i -> i+1 (mod r)."""
    if not 1 <= r <= n_cells:
        raise PreconditionError("need 1 <= r <= n_cells")
    edges = np.linspace(0, n_cells, r + 1).round().astype(int)
    blocks = [np.arange(edges[i], edges[i + 1]) for i in range(r)]
    kernel = np.zeros((n_cells, n_cells))
    for i, block in enumerate(blocks):
        target = blocks[(i + 1) % r]
        kernel[np.ix_(block, target)] = 1.0 / target.size
    return kernel
