"""Mixing estimators for Markov operator cocycles.

Correlations come in a homogeneous flavor,

    C_hom(n)   = integral  P^(n)(omega) f  *  g  dm,

and an inhomogeneous flavor where the observable travels with the
environment,

    C_inhom(n) = integral  P^(n)(omega) f  *  g(sigma^n omega)  dm.

Observable families g are either step maps (one bounded observable per
environment feature, measurable in the driving) or orbit schedules (a list of
observables attached to the forward orbit of one base point, keyed by elapsed
time; querying anywhere else is a schedule error).  Decay is judged per
quantifier order: the prior notions ask for one threshold per environment
point that works across the whole (f, g) basis, the posterior notions ask per
pair; both are computed and reported, never merged.

``counterexample_run`` reproduces the separating example: the cyclic
bit-shift baker cocycle with f the centered half-space indicator and the
orbit schedule g_n = (transfer operator)^n applied to the half-space
indicator.  The inhomogeneous correlation then equals the measure of the
shifted half-space, exactly 1/2 at every step, while every fixed-observable
correlation is bounded by one cell's measure; supports of the evolved
half-space indicators stay exactly disjoint.  The finite model is periodic
with period (bit count), so the identity is only claimed for horizons up to
that period and the report says when the horizon was capped.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from cocyclelab.cocycle import CocycleFamily, orbit, orbit_kernels
from cocyclelab.curves import fit_geometric_rates, tail_start
from cocyclelab.driving import EnvPoint, feature, finite_rotation
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    Observable,
    PreconditionError,
    mass_apply,
)
from cocyclelab.transfer import MapSpec, pf_exact

NOTIONS = ("prior-hom", "post-hom", "prior-inhom", "post-inhom")


class ScheduleError(PreconditionError):
    """An orbit-schedule observable map was queried off its orbit."""


@dataclasses.dataclass(frozen=True, eq=False)
class ObservableMap:
    """Environment-indexed observable family.

    mode "step": ``table`` maps environment features to Observables;
    features without an entry read as the zero observable.
    mode "orbit": ``schedule[n]`` is the observable at sigma^n(base), valid
    only on that orbit segment (elapsed time is the key, so the orbit is
    treated as free even when the finite driving would revisit its points).
    """

    space: FiniteMeasureSpace
    mode: str
    table: dict | None = None
    base: EnvPoint | None = None
    schedule: tuple | None = None

    def __post_init__(self):
        if self.mode == "step":
            if self.table is None:
                raise ValueError("step maps need a feature table")
        elif self.mode == "orbit":
            if self.base is None or not self.schedule:
                raise ValueError("orbit maps need a base point and a schedule")
            object.__setattr__(self, "schedule", tuple(self.schedule))
        else:
            raise ValueError(f"unknown observable-map mode {self.mode!r}")

    def at_feature(self, feat: int) -> Observable:
        g = self.table.get(feat)
        if g is None:
            return Observable(self.space, np.zeros(self.space.n))
        return g

    def at_orbit(self, base: EnvPoint, elapsed: int) -> Observable:
        if base != self.base:
            raise ScheduleError("orbit-schedule observable queried off its base point")
        if not 0 <= elapsed < len(self.schedule):
            raise ScheduleError(
                f"orbit schedule covers 0..{len(self.schedule) - 1}, "
                f"got elapsed time {elapsed}")
        return self.schedule[elapsed]


def step_map(space: FiniteMeasureSpace, table: dict) -> ObservableMap:
    return ObservableMap(space=space, mode="step", table=dict(table))


def orbit_schedule_map(space: FiniteMeasureSpace, base: EnvPoint,
                       schedule) -> ObservableMap:
    return ObservableMap(space=space, mode="orbit", base=base,
                         schedule=tuple(schedule))


def _require_zero_mean(f: Density):
    if abs(f.total_mass) > 1e-9 * max(f.l1_norm, 1e-300):
        raise PreconditionError(
            f"correlation decay is posed for zero-mean densities; "
            f"total mass is {f.total_mass!r}")


def correlation_hom(c: CocycleFamily, omega: EnvPoint, f: Density,
                    g: Observable, n: int) -> float:
    """integral P^(n)(omega) f * g dm for a fixed observable g."""
    _require_zero_mean(f)
    mass = f.mass
    for kernel in orbit_kernels(c, omega, n):
        mass = mass_apply(mass, kernel)
    return float(np.dot(mass, g.values))


def correlation_inhom(c: CocycleFamily, omega: EnvPoint, f: Density,
                      g: ObservableMap, n: int) -> float:
    """integral P^(n)(omega) f * g(sigma^n omega) dm for a travelling g."""
    _require_zero_mean(f)
    mass = f.mass
    for t, (pt, P) in enumerate(orbit(c, omega, n)):
        if t < n:
            mass = mass_apply(mass, P.kernel)
    if g.mode == "orbit":
        g_obs = g.at_orbit(omega, n)
    else:
        g_obs = g.at_feature(feature(c.driving, pt))
    return float(np.dot(mass, g_obs.values))


# -- bases -------------------------------------------------------------------

def zero_mean_basis(space: FiniteMeasureSpace, count: int | None = None):
    """Normalized differences of consecutive cell indicators (masses +1/2 and
    -1/2), spanning the zero-mean densities on the grid; ``count`` keeps an
    evenly spaced subset."""
    n = space.n
    if n < 2:
        raise PreconditionError("zero-mean basis needs at least two cells")
    idx = np.arange(n - 1)
    if count is not None and count < idx.size:
        idx = np.unique(np.linspace(0, n - 2, count).round().astype(int))
    out = []
    for j in idx:
        mass = np.zeros(n)
        mass[j], mass[j + 1] = 0.5, -0.5
        out.append(Density.from_mass(space, mass))
    return out


def indicator_basis(space: FiniteMeasureSpace, count: int | None = None):
    idx = np.arange(space.n)
    if count is not None and count < idx.size:
        idx = np.unique(np.linspace(0, space.n - 1, count).round().astype(int))
    return [Observable.indicator(space, [j]) for j in idx]


def step_map_basis(c: CocycleFamily, g_observables) -> list[ObservableMap]:
    """One step map per (feature, observable): g at that feature, zero
    elsewhere.  Spans the simple environment-indexed families the travelling
    notions quantify over."""
    if c.driving.kind == "bernoulli_shift":
        feats = range(c.driving.n_symbols)
    else:
        feats = range(c.driving.n_points)
    return [step_map(c.space, {p: g}) for p in feats for g in g_observables]


# -- estimator ----------------------------------------------------------------

@dataclasses.dataclass(eq=False)
class MixingReport:
    """Correlation curves plus both quantifier readings of the decay verdict.

    values[w, i, j, n] is the curve for omega_samples[w], f_basis[i] and the
    j-th observable (fixed observables for the homogeneous notions, step maps
    for the travelling ones).
    """

    notion: str
    horizon: int
    tol: float
    tail_fraction: float
    values: np.ndarray
    decayed: bool
    prior_decayed: bool         # per-omega grouping: every omega has one
                                # tail bound covering its whole (f, g) basis
    posterior_decayed: bool     # per-(f, g) grouping: every pair decays at
                                # every sampled omega
    prior_thresholds: list      # per omega: first n from which every curve
                                # of that omega stays below tol (None: never)
    posterior_thresholds: dict  # (f_id, g_id) -> worst such n over omega
    rates: dict                 # (omega_id, f_id, g_id) -> RateFit

    def curve(self, omega_id: int, f_id: int, g_id: int) -> np.ndarray:
        return self.values[omega_id, f_id, g_id]


def estimate_mixing(c: CocycleFamily, notion: str, f_basis, g_basis,
                    omega_samples, horizon: int, tol: float,
                    tail_fraction: float = 0.1) -> MixingReport:
    """Correlation curves over the sampled environment points and bases,
    with the decay verdict in the requested quantifier order.

    g_basis holds Observables for the homogeneous notions and step
    ObservableMaps for the travelling ones.
    """
    if notion not in NOTIONS:
        raise PreconditionError(f"unknown mixing notion {notion!r}; "
                                f"expected one of {NOTIONS}")
    inhom = notion.endswith("inhom")
    for f in f_basis:
        _require_zero_mean(f)
    if inhom:
        for g in g_basis:
            if not isinstance(g, ObservableMap) or g.mode != "step":
                raise PreconditionError(
                    "travelling notions take step observable maps")
    else:
        for g in g_basis:
            if not isinstance(g, Observable):
                raise PreconditionError("homogeneous notions take fixed observables")

    n_w, n_f, n_g = len(omega_samples), len(f_basis), len(g_basis)
    fmass = np.stack([f.mass for f in f_basis])
    values = np.empty((n_w, n_f, n_g, horizon + 1))

    if not inhom:
        gvals = np.stack([g.values for g in g_basis], axis=1)

    for w_id, omega in enumerate(omega_samples):
        cur = fmass
        for n, (pt, P) in enumerate(orbit(c, omega, horizon)):
            if inhom:
                g_now = np.stack(
                    [g.at_feature(feature(c.driving, pt)).values
                     for g in g_basis], axis=1)
                values[w_id, :, :, n] = cur @ g_now
            else:
                values[w_id, :, :, n] = cur @ gvals
            if n < horizon:
                cur = mass_apply(cur, P.kernel)

    ts = tail_start(horizon + 1, tail_fraction)
    decayed_matrix = np.abs(values[..., ts:]).max(axis=-1) < tol
    # the two quantifier orders group the same curves differently; on a
    # finite sample they must agree, and we check that rather than assume it
    prior_verdict = bool(all(decayed_matrix[w].all() for w in range(n_w)))
    posterior_verdict = bool(all(decayed_matrix[:, i, j].all()
                                 for i in range(n_f) for j in range(n_g)))
    if prior_verdict != posterior_verdict:
        raise AssertionError(
            "quantifier-order groupings disagree on a finite curve set")
    verdict = prior_verdict if notion.startswith("prior") else posterior_verdict

    # first index from which each curve's suffix envelope stays below tol
    env = np.maximum.accumulate(np.abs(values[..., ::-1]), axis=-1)[..., ::-1]
    below = env < tol
    ever = below.any(axis=-1)
    first = below.argmax(axis=-1)

    prior_thresholds = [
        int(first[w].max()) if ever[w].all() else None for w in range(n_w)]
    posterior_thresholds = {
        (i, j): int(first[:, i, j].max()) if ever[:, i, j].all() else None
        for i in range(n_f) for j in range(n_g)}

    fits = fit_geometric_rates(values)
    keys = ((w, i, j) for w in range(n_w) for i in range(n_f)
            for j in range(n_g))
    rates = dict(zip(keys, fits))

    return MixingReport(notion=notion, horizon=horizon, tol=tol,
                        tail_fraction=tail_fraction, values=values,
                        decayed=verdict, prior_decayed=prior_verdict,
                        posterior_decayed=posterior_verdict,
                        prior_thresholds=prior_thresholds,
                        posterior_thresholds=posterior_thresholds, rates=rates)


# -- the travelling-observable counterexample ---------------------------------

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

    @property
    def passes(self) -> bool:
        return (bool(np.all(self.inhom_values == 0.5))
                and bool(np.all(self.disjoint_overlaps == 0.0))
                and bool(np.all(self.square_integrals == 0.5)))


def counterexample_run(k: int, horizon: int | None = None) -> CounterexampleReport:
    """Travelling-vs-fixed observable separation on the cyclic bit-shift
    baker cocycle with 2k bits.

    Builds the constant cocycle over a rotation driving, the centered density
    f = 1_A - 1_{A^c} for the half space A = {leading bit 0}, and the orbit
    schedule g_n = L^n 1_A.  The inhomogeneous correlation equals 1/2 exactly
    for every n while homogeneous correlations against cell indicators are
    bounded by 1/N; the evolved indicators L^n 1_A and L^n 1_{A^c} have
    exactly disjoint supports.  The model is periodic with period 2k, so
    horizons beyond 2k are capped (reported via horizon_capped).
    """
    if k < 1:
        raise PreconditionError("need k >= 1")
    bits = 2 * k
    period = bits
    capped = horizon is not None and horizon > period
    horizon = period if horizon is None or capped else horizon
    n_cells = 1 << bits
    space = FiniteMeasureSpace.uniform(n_cells)
    P = pf_exact(MapSpec("baker_cyclic", bits=bits), space)
    driving = finite_rotation(max(horizon, 1))
    c = CocycleFamily(driving=driving,
                      table={i: P for i in range(max(horizon, 1))})
    base = EnvPoint(system=driving, index=0)

    half = n_cells // 2
    a_cells = np.arange(half)
    f = Density(space, np.where(np.arange(n_cells) < half, 1.0, -1.0))

    # evolve the indicator densities and the schedule with the same kernels
    ind_a = Density.indicator(space, a_cells).mass
    ind_ac = Density.indicator(space, np.arange(half, n_cells)).mass
    fmass = f.mass
    w = space.weights

    inhom = np.empty(horizon + 1)
    overlaps = np.empty(horizon + 1)
    squares = np.empty(horizon + 1)
    contrast = np.empty(horizon + 1)
    schedule = []
    kernel = P.kernel
    for n in range(horizon + 1):
        g_vals = ind_a / w  # L^n 1_A as an observable (0/1 valued)
        schedule.append(Observable(space, g_vals))
        inhom[n] = float(np.dot(fmass, g_vals))
        overlaps[n] = float(np.sum((ind_a / w) * (ind_ac / w) * w))
        squares[n] = float(np.sum(g_vals * g_vals * w))
        contrast[n] = float(np.abs(fmass).max())
        if n < horizon:
            ind_a = mass_apply(ind_a, kernel)
            ind_ac = mass_apply(ind_ac, kernel)
            fmass = mass_apply(fmass, kernel)

    # the schedule is also exposed through the public correlation route;
    # spot-check it agrees with the streamed values
    gmap = orbit_schedule_map(space, base, schedule)
    for n in (0, min(1, horizon), horizon):
        probe = correlation_inhom(c, base, f, gmap, n)
        if probe != inhom[n]:
            raise AssertionError("schedule route disagrees with streamed route")

    return CounterexampleReport(bits=bits, n_cells=n_cells, horizon=horizon,
                                horizon_capped=capped, inhom_values=inhom,
                                disjoint_overlaps=overlaps,
                                square_integrals=squares,
                                hom_contrast_max=contrast)
