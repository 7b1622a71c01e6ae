"""Independent references the tests hold the package's routes against.

Each is a scalar or one-operator computation that shares no push loop or
grouping with the route it checks, so the two agreeing is evidence.  The ones
that walk an orbit run on one OpenBLAS thread (``single_blas_thread``), as the
routes do, so a comparison holds bit for bit at any caller thread count.
"""

import numpy as np

from cocyclelab.cocycle import (CocycleFamily, InvariantDensityMap,
                                orbit_kernels, push_kernels)
from cocyclelab.driving import EnvPoint, advance, feature
from cocyclelab.measure import (
    Density,
    MarkovMatrix,
    Observable,
    PreconditionError,
    _require_same_space,
    apply,
    require_zero_mean,
    single_blas_thread,
)


def _require_finite(values, name: str):
    if not np.isfinite(values).all():
        raise PreconditionError(f"{name} must be finite: it holds NaN or inf values")


@single_blas_thread
def correlation_inhom(c: CocycleFamily, omega: EnvPoint, f: Density,
                      g: np.ndarray, n: int) -> float:
    """integral P^(n)(omega) f * g(sigma^n omega) dm for a travelling g, an
    (n_features, N) array whose row p is the observable at feature p; a
    fixed observable is the same row at every feature."""
    require_zero_mean(f.mass, "correlation decay")
    _require_finite(g, "g")
    for mass in push_kernels(f.mass, orbit_kernels(c, omega, n)):
        pass
    return float(np.dot(mass, g[feature(c.driving, advance(c.driving, omega, n))]))


@single_blas_thread
def equivariance_residual(h: InvariantDensityMap, omegas) -> float:
    """max over the given points of || P(omega) h(omega) - h(sigma omega) ||_L1."""
    worst = 0.0
    for w in omegas:
        pushed = apply(h.cocycle.operator_at(w), h.at(w))
        nxt = h.at(advance(h.cocycle.driving, w, 1))
        worst = max(worst, float(np.abs(pushed.mass - nxt.mass).sum()))
    return worst


def dual_apply(P: MarkovMatrix, g: Observable) -> Observable:
    """Koopman/adjoint action on observables: (P* g)[i] = sum_j K[i, j] g[j].

    Adjoint identity holds exactly at the arithmetic level:
    integrate(apply(P, f), g) == integrate(f, dual_apply(P, g)).
    """
    _require_same_space(P.space, g.space, "dual_apply")
    return Observable(g.space, np.asarray(P.kernel @ g.values))
