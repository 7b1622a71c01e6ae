"""Finite measure spaces, densities, observables, and Markov kernels.

Everything downstream works on a finite partition of the state space into N
cells with positive weights summing to one.  A kernel K is row-stochastic in
mass coordinates: K[i, j] is the fraction of the mass of cell i sent to cell
j, so mass vectors evolve by right multiplication and the L1 contraction /
conservation properties hold entrywise.  Densities carry cell-averaged values
(mass = value * weight); observables carry plain cell values and pair with
densities through ``integrate``.

Kernels are stored by one rule (``stored_kernel``, in ``MarkovMatrix`` and
``kernel_matmul``): CSR when N >= 512 and nnz <= N^2 / 32, dense otherwise.
A basis is one (k, N) mass or (N, k) observable stack, built from its entries
by the same rule (``stored_entries``, or ``indicator_rows`` for cell
indicators) and checked once in either storage.
A pushed or pulled stack stays CSR only while the kernel it meets is CSR and
at most 1/32 of the stack is nonzero (``stored_stack``); past that fill it is
densified, and a dense stack stays dense.  scipy.sparse, 0.21 s of a cold
start, is imported only for CSR kernels and stacks, never below 512 cells.

Threads: every public entry that runs a loop of products (``cli.main``, the
mixing, exactness, periodicity, pullback and skew routes) is wrapped in
``single_blas_thread``, so its products run on one OpenBLAS thread and the
caller's thread count is restored when it returns or raises.  The pushes are
small (N <= 512 dense, stacks of 1-64 rows), and a second BLAS thread spends
CPU on them without saving wall time.  A generator (``orbit`` or
``push_kernels``) iterated outside an entry runs on the caller's setting.
Like the pullback caches, the cap assumes one calling Python thread.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import sys

import numpy as np

ROW_SUM_ATOL = 1e-12
ENTRY_ATOL = 1e-12
CELL_MAP_ATOL = 1e-9  # entry distance from 0 or 1 in a kernel moving whole cells

# Kernel storage rule.  A one-row push through a kernel with 2 nonzeros per
# row took, dense vs CSR: N = 256 15-22 vs 38-44 us, N = 512 66 vs 27-36 us,
# N = 1024 200 vs 48 us.  With N^2 / 32 nonzeros CSR took 0.45-0.7x the
# dense time at N = 512-2048 (float64, one core of a 2-core Xeon VM).
SPARSE_MIN_CELLS = 512
SPARSE_FILL_DIVISOR = 32


class SpaceMismatchError(ValueError):
    """Operands live on different measure spaces (size or weights differ)."""


class StochasticityError(ValueError):
    """Kernel rows fail positivity or the row-sum-one constraint."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


def _frozen(a):
    """``a`` itself, marked read-only."""
    a.setflags(write=False)
    return a


def _readonly(a):
    return _frozen(np.array(a, dtype=float))


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


# -- kernel helpers (dense ndarray or scipy.sparse, same call sites) --------

def issparse(kernel) -> bool:
    """True for a scipy.sparse kernel; never imports scipy.sparse, since
    nothing can be one before it is loaded."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(kernel)


# thread-count functions of an OpenBLAS build: numpy 2 wheels, numpy 1
# wheels, system builds
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None when none is found.  Looked up on first use, never at
    import; dlsym on numpy's core extension also searches the libraries it
    links, so nothing new is loaded."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def single_blas_thread(fn):
    """Run ``fn`` with OpenBLAS on one thread, then restore the caller's
    count, whether ``fn`` returns or raises.  Does nothing when no OpenBLAS
    is found or the caller already runs one thread, so a nested call costs
    one read of the count.  Not for generators: it would cover only their
    creation, not their iteration."""
    @functools.wraps(fn)
    def capped(*args, **kwargs):
        threads = _blas_threads()
        caller = threads[0]() if threads else 1
        if caller <= 1:
            return fn(*args, **kwargs)
        threads[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            threads[1](caller)
    return capped


def dense(stack):
    """The stack as an ndarray: a CSR stack converted (read-only, as
    ``MarkovMatrix`` keeps a kernel), a dense one as is."""
    return _frozen(stack.toarray()) if issparse(stack) else stack


def _by_fill(a, may_be_csr: bool):
    """``a`` as a ``csr_array`` when ``may_be_csr`` and nnz <= a's size /
    SPARSE_FILL_DIVISOR, else as an ndarray (by ``dense``): the one storage
    rule, for kernels and stacks alike.  A CSR result has sorted indices, so
    a push sums each row in ascending cell order, as a dense push does; a
    CSR product (``csr_matmat``) leaves its rows unsorted."""
    if may_be_csr and SPARSE_FILL_DIVISOR * (
            a.count_nonzero() if issparse(a)
            else np.count_nonzero(a)) <= np.prod(a.shape):
        import scipy.sparse as sp
        stored = sp.csr_array(a, dtype=float)
        stored.sort_indices()
        return stored
    return dense(a)


def stored_kernel(kernel):
    """The kernel by the storage rule: CSR when N >= SPARSE_MIN_CELLS and
    nnz <= N^2 / SPARSE_FILL_DIVISOR."""
    return _by_fill(kernel, kernel.shape[0] >= SPARSE_MIN_CELLS)


def stored_entries(shape, cells: int, rows, cols, values):
    """The kernel or basis stack of ``shape`` with ``values`` summed at
    (``rows``, ``cols``), by the storage rule for ``cells`` cells: CSR when
    cells >= SPARSE_MIN_CELLS and nnz <= its size / SPARSE_FILL_DIVISOR, else
    a read-only ndarray; below SPARSE_MIN_CELLS dense, as the CSR build's
    toarray(), without scipy.sparse."""
    if cells < SPARSE_MIN_CELLS:
        return _frozen(np.bincount(rows * shape[1] + cols, weights=values,
                                   minlength=shape[0] * shape[1]
                                   ).reshape(shape))
    import scipy.sparse as sp
    return _by_fill(sp.csr_array((values, (rows, cols)), shape=shape), True)


def indicator_rows(cells, n: int):
    """The (len(cells), n) stack of cell-indicator mass rows, a 1 at (k,
    cells[k]), by ``stored_entries`` for n cells; int32 indices, as scipy's
    eye_array has, so rows of the identity equal its CSR rows."""
    cells = np.asarray(cells, dtype=np.int32)
    return stored_entries((cells.size, n), n, np.arange(cells.size, dtype=np.int32),
                          cells, np.ones(cells.size))


def kernel_matmul(a, b):
    """The product a @ b, stored by the kernel storage rule."""
    return stored_kernel(a @ b)


def stored_stack(stack, kernel):
    """A pushed or pulled mass or observable stack by the storage rule: CSR
    only while ``kernel`` is CSR."""
    return _by_fill(stack, issparse(kernel))


def mass_apply(mass, kernel):
    """Push a mass (row) vector or stacked rows through a kernel.  A dense
    input comes out dense; a CSR stack stays CSR by ``stored_stack``."""
    if issparse(mass):
        return stored_stack(mass @ kernel, kernel)
    return np.asarray(mass @ kernel)


def require_zero_mean(mass, what: str):
    """Reject a mass row, or a dense or CSR stack of rows, with a row whose L1
    norm is not finite or whose total is not zero relative to that norm."""
    mass = mass if issparse(mass) else np.atleast_2d(mass)
    with np.errstate(over="ignore", invalid="ignore"):  # the test below rejects
        totals, l1 = mass.sum(axis=1), np.abs(mass).sum(axis=1)
    ok = np.isfinite(l1) & (np.abs(totals) <= 1e-9 * np.maximum(l1, 1e-300))
    if not ok.all():
        raise PreconditionError(
            f"{what} is posed for zero-mean densities; "
            f"total mass is {float(totals[np.argmin(ok)])!r}")


def require_stack(stack, n: int, cells_axis: int, what: str):
    """Reject a basis that is not one 2-d ndarray or ``csr_array`` with ``n``
    cells along ``cells_axis`` and at least one element."""
    sp = sys.modules.get("scipy.sparse")
    shape = stack.shape if type(stack) is np.ndarray or (
        sp is not None and type(stack) is sp.csr_array) else ()
    if len(shape) != 2 or shape[cells_axis] != n or 0 in shape:
        raise PreconditionError(
            f"{what} needs a basis stack with at least one element and {n} "
            f"cells along axis {cells_axis}; got {shape or type(stack).__name__}")


def require_finite_columns(stack, what: str):
    """Reject a dense or CSR (..., N, k) observable stack holding NaN or inf,
    naming its first such column j, over every leading axis, as g_basis[j]."""
    bad = (stack.indices[~np.isfinite(stack.data)] if issparse(stack) else
           np.flatnonzero(~np.isfinite(stack).all(axis=tuple(range(stack.ndim - 1)))))
    if bad.size:
        raise PreconditionError(f"{what} needs finite observables; "
                                f"g_basis[{bad.min()}] holds NaN or inf values")


def require_count(value, name: str, least: int) -> int:
    """The one rule for a step count, cap or sample count: an integer (numpy
    ones included, bool not) of at least ``least``, returned as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise PreconditionError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_horizon(horizon: int):
    """Reject a step count that is not an integer >= 0."""
    require_count(horizon, "horizon", 0)


def require_tolerance(tol: float):
    """Reject a verdict tolerance that is NaN, infinite or <= 0."""
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and > 0, got {tol}")


@dataclasses.dataclass(frozen=True)
class MarkovCheckReport:
    n: int
    max_row_sum_error: float
    min_entry: float
    ok: bool


def markov_check(kernel) -> MarkovCheckReport:
    """Rows sum to 1 within ROW_SUM_ATOL and entries are >= -ENTRY_ATOL."""
    sums = np.asarray(kernel.sum(axis=1)).ravel()
    max_err = float(np.abs(sums - 1.0).max())
    min_entry = float(kernel.min())  # counts a sparse kernel's implicit zeros
    ok = max_err <= ROW_SUM_ATOL and min_entry >= -ENTRY_ATOL
    return MarkovCheckReport(n=sums.size, max_row_sum_error=max_err,
                             min_entry=min_entry, ok=ok)


@dataclasses.dataclass(frozen=True, eq=False)
class MarkovMatrix:
    """Row-stochastic kernel over mass coordinates on a fixed space.

    ``exact`` distinguishes map-derived / hand-entered kernels from
    Monte-Carlo (Ulam) approximations; several tests are only meaningful for
    exact kernels.  The kernel may be given dense or as any scipy.sparse
    matrix; ``stored_kernel`` picks its storage (dense ones are read-only).
    """

    space: FiniteMeasureSpace
    kernel: object
    exact: bool = True

    def __post_init__(self):
        k = self.kernel if issparse(self.kernel) else _readonly(self.kernel)
        if k.shape != (self.space.n, self.space.n):
            raise SpaceMismatchError(
                f"kernel shape {k.shape} does not match {self.space.n} cells")
        k = stored_kernel(k)
        report = markov_check(k)
        if not report.ok:
            raise StochasticityError(
                f"kernel is not row-stochastic: max row-sum error "
                f"{report.max_row_sum_error:.3e}, min entry {report.min_entry:.3e}")
        object.__setattr__(self, "kernel", k)

    @property
    def n(self) -> int:
        return self.space.n

    def is_cell_map(self) -> bool:
        """True when every entry is 0 or 1 within CELL_MAP_ATOL, i.e. the
        kernel permutes/collapses whole cells and the Koopman dual maps
        indicators to indicator functions."""
        k = self.kernel.data if issparse(self.kernel) else self.kernel
        return bool(np.all(np.minimum(np.abs(k), np.abs(k - 1.0)) <= CELL_MAP_ATOL))


def integrate(f: Density, g: Observable) -> float:
    """Pairing  integral of f*g dm  =  sum_i values_f[i] values_g[i] w[i]."""
    _require_same_space(f.space, g.space, "integrate")
    return float(np.dot(f.mass, g.values))


def apply(P: MarkovMatrix, f: Density) -> Density:
    """Push a density forward: mass_out = mass_in @ K."""
    _require_same_space(P.space, f.space, "apply")
    return Density.from_mass(f.space, mass_apply(f.mass, P.kernel))
