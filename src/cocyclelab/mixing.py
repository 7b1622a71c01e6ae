"""Mixing estimators for Markov operator cocycles.

Correlations come in a homogeneous flavor,

    C_hom(n)   = integral  P^(n)(omega) f  *  g  dm,

and an inhomogeneous flavor where the observable travels with the
environment,

    C_inhom(n) = integral  P^(n)(omega) f  *  g(sigma^n omega)  dm.

A travelling observable family is one dense (n_features, N, n_g) array g,
bounded and measurable in the driving: slice g[p] is the (N, n_g) observable
stack read where the environment has feature p, the layout of a fixed stack.
The prior notions ask for one threshold per environment point across the
whole (f, g) basis, the posterior notions one per pair.  Both are maxima of
one settle index per curve, so on a finite sample the two orders are one
conjunction and the verdict is read off them; comparing notions tests the
homogeneous verdict against the travelling one.

``counterexample_run`` reproduces the separating example: the cyclic
bit-shift baker cocycle with f the centered half-space indicator and
g_n = (transfer operator)^n applied to the half-space indicator; the baker
is a cell permutation, so both move by relabelling cells, with no kernel
built and scipy.sparse never loaded.  The inhomogeneous correlation then
equals the measure of the shifted half-space, exactly 1/2 at every step,
while a correlation against a fixed cell is bounded by one cell's measure,
and the one against the fixed half-space, 0 off multiples of the period,
tells the baker from the identity map; supports of the evolved half-space
indicators stay exactly disjoint.  The finite model is periodic with period
(bit count), so these values are only claimed for horizons up to that period
and the report says when the horizon was capped.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from cocyclelab.cocycle import CocycleFamily, kernel_groups, push_kernels
from cocyclelab.curves import decay_verdict, settle_index
from cocyclelab.driving import feature
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    PreconditionError,
    dense,
    mass_apply,  # unused here; the benchmark's tests read mixing.mass_apply
    require_count,
    require_finite_columns,
    require_horizon,
    require_stack,
    require_tolerance,
    require_zero_mean,
    single_blas_thread,
    stored_entries,
    stored_stack,
)
from cocyclelab.transfer import bit_shift_permutation

NOTIONS = ("prior-hom", "post-hom", "prior-inhom", "post-inhom")


# -- bases -------------------------------------------------------------------

def _evenly_spaced(size: int, count: int | None) -> np.ndarray:
    """``count`` evenly spaced indices of range(size), or all of them."""
    if count is None or require_count(count, "basis count", 1) >= size:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, count).round().astype(int))


def zero_mean_basis(space: FiniteMeasureSpace, count: int | None = None):
    """The (k, N) mass stack of normalized differences of consecutive cell
    indicators (masses +1/2 and -1/2), spanning the zero-mean densities on
    the grid; ``count`` keeps an evenly spaced subset.  Entries are stored as
    ``Density.from_mass(space, m).mass`` stores them, (m / w) * w."""
    n = space.n
    if n < 2:
        raise PreconditionError("zero-mean basis needs at least two cells")
    j = _evenly_spaced(n - 1, count)
    cols = np.stack([j, j + 1], axis=1).ravel()
    w = space.weights[cols]
    return stored_entries((j.size, n), n, np.repeat(np.arange(j.size), 2),
                          cols, np.tile([0.5, -0.5], j.size) / w * w)


def indicator_basis(space: FiniteMeasureSpace, count: int | None = None):
    """The (N, k) observable stack of single-cell indicators; ``count`` keeps
    an evenly spaced subset."""
    cells = _evenly_spaced(space.n, count)
    return stored_entries((space.n, cells.size), space.n, cells,
                          np.arange(cells.size), np.ones(cells.size))


def step_map_basis(c: CocycleFamily, g_observables) -> np.ndarray:
    """The (n_features, N, n_features * k) travelling basis of the (N, k)
    observable stack: column p * k + i holds column i at feature p and zeros
    at every other feature.  Spans the simple environment-indexed families
    the travelling notions quantify over."""
    g = dense(g_observables)
    n_feat, k = c.driving.n_features, g.shape[1]
    out = np.zeros((n_feat, c.n, n_feat * k))
    for p in range(n_feat):
        out[p, :, p * k:(p + 1) * k] = g
    return out


# -- estimator ----------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class MixingReport:
    """Correlation curves and both quantifier orders' thresholds, which give
    the one decay verdict.

    values[w, i, j, n] is the curve for omega_samples[w], row i of f_basis
    and column j of the observable stack (of each feature's slice g_basis[p]
    for the travelling notions).  Each curve is read as its ``settle_index``
    (horizon + 1 when it never stays below tol).  The report fits no rates;
    a caller that wants them calls ``fit_geometric_rates``.
    """

    notion: str
    horizon: int
    tol: float
    values: np.ndarray
    prior_thresholds: np.ndarray      # (n_omega,) latest settle per sample
    posterior_thresholds: np.ndarray  # (n_f, n_g) latest settle per pair

    @property
    def decayed(self) -> bool:
        """Every curve settles by the start of its verdict window."""
        return decay_verdict(self.prior_thresholds, self.horizon)


@single_blas_thread
def estimate_mixing(c: CocycleFamily, notion: str, f_basis, g_basis,
                    omega_samples, horizon: int, tol: float) -> MixingReport:
    """Correlation curves over the sampled environment points and bases,
    with the decay verdict in the requested quantifier order.

    f_basis is an (n_f, N) mass stack.  g_basis is an (N, n_g) observable
    stack for the homogeneous notions and a dense (n_features, N, n_g) array
    for the travelling ones, read at step n as the stack g_basis[p] of the
    feature p that the orbit meets there.
    """
    if notion not in NOTIONS:
        raise PreconditionError(f"unknown mixing notion {notion!r}; "
                                f"expected one of {NOTIONS}")
    inhom = notion.endswith("inhom")
    if not inhom:
        require_stack(g_basis, c.n, 0, "correlation decay")
    elif type(g_basis) is not np.ndarray or g_basis.ndim != 3 or \
            g_basis.shape[:2] != (c.driving.n_features, c.n) or 0 in g_basis.shape:
        raise PreconditionError(
            f"travelling notions take an (n_features, N, n_g) array of shape "
            f"({c.driving.n_features}, {c.n}, >= 1); got "
            f"{getattr(g_basis, 'shape', type(g_basis).__name__)}")
    require_finite_columns(g_basis, "correlation decay")
    require_stack(f_basis, c.n, 1, "correlation decay")
    require_zero_mean(f_basis, "correlation decay")
    if not len(omega_samples):
        raise PreconditionError(
            "mixing estimates need at least one environment point")
    require_horizon(horizon)
    require_tolerance(tol)
    # a curve reads only the operators and the features (none for fixed
    # observables) its orbit meets: walk each distinct point once, push once
    # per operator sequence, read each (step, feature) product once
    walks, groups = kernel_groups(c, omega_samples, horizon)
    paths = [tuple(feature(c.driving, pt) for pt in w) if inhom
             else (None,) * (horizon + 1) for w in walks]
    observables = {f: g_basis if f is None else g_basis[f]
                   for f in set().union(*paths)}
    rows, pos = {}, np.empty(len(omega_samples), dtype=np.intp)
    for ops, members in groups.items():  # a row per (operators, feature path)
        pos[members] = [rows.setdefault((ops, paths[u]), len(rows)) for u in members]
    curves = np.empty((len(rows), f_basis.shape[0], g_basis.shape[-1], horizon + 1))
    for ops, members in groups.items():
        mine = {paths[u]: pos[u] for u in members}  # the group's rows
        start = stored_stack(f_basis, ops[0].kernel) if ops else f_basis
        for n, cur in enumerate(push_kernels(start, (P.kernel for P in ops))):
            reads = {f: dense(cur @ observables[f]) for f in {p[n] for p in mine}}
            for p, row in mine.items():
                curves[row, ..., n] = reads[p[n]]
    settle = settle_index(curves, tol)
    identity = pos.size == len(rows) and (pos == np.arange(pos.size)).all()
    return MixingReport(notion=notion, horizon=horizon, tol=tol,
                        values=curves if identity else curves[pos],
                        prior_thresholds=settle.max(axis=(1, 2))[pos],
                        posterior_thresholds=settle.max(axis=0))


# -- the travelling-observable counterexample ---------------------------------

# the largest half bit count: 2^20 cells, where each pushed three-row stack
# holds 25 MB
COUNTEREXAMPLE_MAX_K = 10


@dataclasses.dataclass(frozen=True)
class CounterexampleReport:
    bits: int
    n_cells: int
    horizon: int
    horizon_capped: bool
    inhom_values: np.ndarray       # integral P^n f * g_n dm, expected 1/2
    disjoint_overlaps: np.ndarray  # integral (L^n 1_A)(L^n 1_Ac) dm, expected 0
    square_integrals: np.ndarray   # integral (L^n 1_A)^2 dm, expected 1/2
    hom_contrast_max: np.ndarray   # max over cell indicators of |C_hom(n)|
    hom_values: np.ndarray         # integral P^n f * 1_A dm, 1/2 if bits | n else 0

    @property
    def passes(self) -> bool:
        on_period = np.arange(self.horizon + 1) % self.bits == 0
        return all(np.all(got == want) for got, want in (
            (self.inhom_values, 0.5), (self.disjoint_overlaps, 0.0),
            (self.square_integrals, 0.5), (self.hom_values, 0.5 * on_period)))


@single_blas_thread
def counterexample_run(k: int, horizon: int | None = None) -> CounterexampleReport:
    """Travelling-vs-fixed observable separation on the cyclic bit-shift
    baker cocycle with 2k bits.

    The baker's transfer operator relabels cells, P f = f o T^-1, so the
    centered density f = 1_A - 1_{A^c} for the half space A = {leading bit 0}
    and the indicators of A and A^c (giving g_n = L^n 1_A) move by the
    bit-shift permutation; no kernel is built.  The inhomogeneous correlation
    equals 1/2 exactly for every n while homogeneous correlations against
    cell indicators are bounded by 1/N; L^n 1_A and L^n 1_{A^c} have exactly
    disjoint supports.  The model is periodic with period 2k, so horizons
    beyond 2k are capped (reported via horizon_capped).
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) \
            or not 1 <= k <= COUNTEREXAMPLE_MAX_K:
        raise PreconditionError(
            f"k must be an integer in 1..{COUNTEREXAMPLE_MAX_K} (the model has "
            f"4^k cells), got {k!r}")
    bits = period = 2 * int(k)
    capped = horizon is not None and require_count(horizon, "horizon", 0) > period
    horizon = period if horizon is None or capped else horizon
    n_cells = 1 << bits
    space = FiniteMeasureSpace.uniform(n_cells)

    half = n_cells // 2
    f = Density(space, np.where(np.arange(n_cells) < half, 1.0, -1.0))
    # the indicator densities and f move together, one relabelling a step
    rows = np.stack([Density.indicator(space, np.arange(half)).mass,
                     Density.indicator(space, np.arange(half, n_cells)).mass,
                     f.mass])
    pushed, perm = np.empty_like(rows), bit_shift_permutation(bits)
    w = space.weights

    inhom, overlaps, squares, contrast, hom = np.empty((5, horizon + 1))
    for n in range(horizon + 1):
        ind_a, ind_ac, fmass = rows
        g_vals = ind_a / w  # L^n 1_A as an observable (0/1 valued)
        inhom[n] = float(np.dot(fmass, g_vals))
        overlaps[n] = float(np.sum((ind_a / w) * (ind_ac / w) * w))
        squares[n] = float(np.sum(g_vals * g_vals * w))
        contrast[n] = float(np.abs(fmass).max())
        hom[n] = float(fmass[:half].sum())
        if n < horizon:  # the mass of cell i moves to cell perm[i]
            pushed[:, perm] = rows
            rows, pushed = pushed, rows

    return CounterexampleReport(bits=bits, n_cells=n_cells, horizon=horizon,
                                horizon_capped=capped, inhom_values=inhom,
                                disjoint_overlaps=overlaps,
                                square_integrals=squares,
                                hom_contrast_max=contrast, hom_values=hom)
