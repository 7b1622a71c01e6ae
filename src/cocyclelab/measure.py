"""Finite measure spaces, densities, observables, and Markov kernels.

Everything downstream works on a finite partition of the state space into N
cells with positive weights summing to one.  A kernel K is row-stochastic in
mass coordinates: K[i, j] is the fraction of the mass of cell i sent to cell
j, so mass vectors evolve by right multiplication and the L1 contraction /
conservation properties hold entrywise.  Densities carry cell-averaged values
(mass = value * weight); observables carry plain cell values and pair with
densities through ``integrate``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

ROW_SUM_ATOL = 1e-12
ENTRY_ATOL = 1e-12


class SpaceMismatchError(ValueError):
    """Operands live on different measure spaces (size or weights differ)."""


class StochasticityError(ValueError):
    """Kernel rows fail positivity or the row-sum-one constraint."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


def _readonly(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """Partition of the state space into cells with positive weights.

    Parameters
    ----------
    weights : array_like, shape (n,)
        Cell measures; strictly positive, summing to 1 within 1e-12.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("invariant violation: cell weights must be finite")
        if np.any(w <= 0):
            raise ValueError("invariant violation: cell weights must be strictly positive")
        if abs(w.sum() - 1.0) > ROW_SUM_ATOL:
            raise ValueError(f"invariant violation: weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "FiniteMeasureSpace":
        return cls(np.full(n, 1.0 / n))

    def measure(self, cells) -> float:
        """Total weight of a cell subset (indices or boolean mask)."""
        return float(self.weights[np.asarray(cells)].sum())


def same_space(a: FiniteMeasureSpace, b: FiniteMeasureSpace) -> bool:
    return a is b or (a.n == b.n and np.array_equal(a.weights, b.weights))


def _require_same_space(a, b, what):
    if not same_space(a, b):
        raise SpaceMismatchError(f"{what}: operands on different spaces "
                                 f"({a.n} cells vs {b.n} cells or unequal weights)")


@dataclasses.dataclass(frozen=True, eq=False)
class Density:
    """Cell-averaged density values; mass in cell i is values[i] * weights[i]."""

    space: FiniteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.space.n,):
            raise SpaceMismatchError(f"density has {v.size} values for {self.space.n} cells")
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> np.ndarray:
        return self.values * self.space.weights

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.mass).sum())

    @classmethod
    def from_mass(cls, space: FiniteMeasureSpace, mass) -> "Density":
        return cls(space, np.asarray(mass, dtype=float) / space.weights)

    @classmethod
    def uniform(cls, space: FiniteMeasureSpace) -> "Density":
        return cls(space, np.ones(space.n))

    @classmethod
    def indicator(cls, space: FiniteMeasureSpace, cells, normalized: bool = False) -> "Density":
        """Density 1_E of a cell union E, optionally normalized to unit mass."""
        values = np.zeros(space.n)
        values[np.asarray(cells)] = 1.0
        d = cls(space, values)
        if normalized:
            tm = d.total_mass
            if tm <= 0:
                raise ValueError("cannot normalize an empty indicator")
            d = cls(space, values / tm)
        return d

    def support(self, floor: float = 0.0) -> np.ndarray:
        """Cells where the density exceeds floor (boolean mask)."""
        return np.abs(self.values) > floor


@dataclasses.dataclass(frozen=True, eq=False)
class Observable:
    """Bounded cell function; pairs with densities via ``integrate``."""

    space: FiniteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.space.n,):
            raise SpaceMismatchError(f"observable has {v.size} values for {self.space.n} cells")
        object.__setattr__(self, "values", v)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    @classmethod
    def indicator(cls, space: FiniteMeasureSpace, cells) -> "Observable":
        values = np.zeros(space.n)
        values[np.asarray(cells)] = 1.0
        return cls(space, values)

    @classmethod
    def constant(cls, space: FiniteMeasureSpace, c: float = 1.0) -> "Observable":
        return cls(space, np.full(space.n, float(c)))


# -- kernel helpers (dense ndarray or scipy.sparse, same call sites) --------

def kernel_row_sums(kernel) -> np.ndarray:
    return np.asarray(kernel.sum(axis=1)).ravel()


def kernel_min_entry(kernel) -> float:
    # sparse .min() accounts for implicit zeros when the matrix is not full
    return float(kernel.min())


def kernel_matmul(a, b):
    out = a @ b
    if sp.issparse(out):
        out = out.tocsr()
    return out


def mass_apply(mass: np.ndarray, kernel) -> np.ndarray:
    """Push a mass (row) vector or stacked rows through a kernel."""
    return np.asarray(mass @ kernel)


@dataclasses.dataclass(frozen=True)
class MarkovCheckReport:
    n: int
    max_row_sum_error: float
    min_entry: float
    ok: bool


def markov_check(kernel, row_sum_atol: float = ROW_SUM_ATOL,
                 entry_atol: float = ENTRY_ATOL) -> MarkovCheckReport:
    """Verify row-stochasticity: rows sum to 1 within tolerance, entries >= 0."""
    sums = kernel_row_sums(kernel)
    max_err = float(np.abs(sums - 1.0).max())
    min_entry = kernel_min_entry(kernel)
    ok = max_err <= row_sum_atol and min_entry >= -entry_atol
    return MarkovCheckReport(n=sums.size, max_row_sum_error=max_err,
                             min_entry=min_entry, ok=ok)


@dataclasses.dataclass(frozen=True, eq=False)
class MarkovMatrix:
    """Row-stochastic kernel over mass coordinates on a fixed space.

    ``exact`` distinguishes map-derived / hand-entered kernels from
    Monte-Carlo (Ulam) approximations; several tests are only meaningful for
    exact kernels.  The kernel may be a dense ndarray or a scipy.sparse
    matrix (permutation kernels at large N stay sparse).
    """

    space: FiniteMeasureSpace
    kernel: object
    exact: bool = True

    def __post_init__(self):
        k = self.kernel
        if sp.issparse(k):
            k = k.tocsr()
        else:
            k = _readonly(k)
        if k.shape != (self.space.n, self.space.n):
            raise SpaceMismatchError(
                f"kernel shape {k.shape} does not match {self.space.n} cells")
        report = markov_check(k)
        if not report.ok:
            raise StochasticityError(
                f"kernel is not row-stochastic: max row-sum error "
                f"{report.max_row_sum_error:.3e}, min entry {report.min_entry:.3e}")
        object.__setattr__(self, "kernel", k)

    @property
    def n(self) -> int:
        return self.space.n

    def is_cell_map(self, atol: float = 1e-9) -> bool:
        """True when every entry is 0 or 1, i.e. the kernel permutes/collapses
        whole cells and the Koopman dual maps indicators to indicator functions."""
        if sp.issparse(self.kernel):
            data = self.kernel.data
            return bool(np.all(np.minimum(np.abs(data), np.abs(data - 1.0)) <= atol))
        k = self.kernel
        return bool(np.all(np.minimum(np.abs(k), np.abs(k - 1.0)) <= atol))


def integrate(f: Density, g: Observable) -> float:
    """Pairing  integral of f*g dm  =  sum_i values_f[i] values_g[i] w[i]."""
    _require_same_space(f.space, g.space, "integrate")
    return float(np.dot(f.mass, g.values))


def apply(P: MarkovMatrix, f: Density) -> Density:
    """Push a density forward: mass_out = mass_in @ K."""
    _require_same_space(P.space, f.space, "apply")
    return Density.from_mass(f.space, mass_apply(f.mass, P.kernel))


def dual_apply(P: MarkovMatrix, g: Observable) -> Observable:
    """Koopman/adjoint action on observables: (P* g)[i] = sum_j K[i, j] g[j].

    Adjoint identity holds exactly at the arithmetic level:
    integrate(apply(P, f), g) == integrate(f, dual_apply(P, g)).
    """
    _require_same_space(P.space, g.space, "dual_apply")
    return Observable(g.space, np.asarray(P.kernel @ g.values))
