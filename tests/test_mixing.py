"""Tests for correlation estimators, observable maps, and the
travelling-observable counterexample.

Hand-computed oracle used below: on the 4-cell dyadic doubling kernel the
two-step composition is the rank-one uniform kernel, so every zero-mean mass
vector vanishes exactly at n = 2.  For the mass vector (1/2, -1/2, 0, 0) the
cell-0 mass reads 1/2, 1/4, 0, 0, ...  For the 2-bit cyclic baker the shift
permutation is [0, 2, 1, 3]; pushing 1_{cells 0,1} once gives mass
(1/4, 0, 1/4, 0) and the half-space correlations work out to exactly 1/2.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cocyclelab.cocycle import CocycleFamily, compose
from cocyclelab.curves import fit_geometric_rate, fit_geometric_rates, first_below
from cocyclelab.driving import (
    EnvPoint,
    bernoulli_shift,
    finite_rotation,
    point,
    points,
)
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    dual_apply,
    integrate,
)
from cocyclelab.mixing import (
    NOTIONS,
    CounterexampleReport,
    ObservableMap,
    ScheduleError,
    correlation_hom,
    correlation_inhom,
    counterexample_run,
    estimate_mixing,
    indicator_basis,
    orbit_schedule_map,
    step_map,
    step_map_basis,
    zero_mean_basis,
)

DOUBLING4 = np.array([
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
])

UNIFORMIZER4 = np.full((4, 4), 0.25)


def constant_cocycle(kernel, q=1):
    space = FiniteMeasureSpace.uniform(kernel.shape[0])
    P = MarkovMatrix(space, kernel)
    driving = finite_rotation(q)
    return CocycleFamily(driving=driving, table={i: P for i in range(q)})


# -- plain correlations --------------------------------------------------------


def test_hom_correlation_doubling_frozen_curve():
    c = constant_cocycle(DOUBLING4)
    space = c.space
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    g = Observable.indicator(space, [0])
    omega = point(c.driving, 0)
    curve = [correlation_hom(c, omega, f, g, n) for n in range(5)]
    assert curve == [0.5, 0.25, 0.0, 0.0, 0.0]


def test_hom_correlation_requires_zero_mean():
    c = constant_cocycle(DOUBLING4)
    f = Density.uniform(c.space)
    g = Observable.indicator(c.space, [0])
    with pytest.raises(PreconditionError):
        correlation_hom(c, point(c.driving, 0), f, g, 1)


def test_inhom_step_map_reduces_to_hom_when_constant():
    # two genuinely different operators, but the same observable at both
    # features: the travelling correlation must coincide with the fixed one
    space = FiniteMeasureSpace.uniform(4)
    P = MarkovMatrix(space, DOUBLING4)
    Q = MarkovMatrix(space, UNIFORMIZER4)
    driving = finite_rotation(2)
    c = CocycleFamily(driving=driving, table={0: P, 1: Q})
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    g = Observable(space, np.array([1.0, -1.0, 0.5, 0.0]))
    gmap = step_map(space, {0: g, 1: g})
    omega = point(driving, 0)
    for n in range(6):
        assert correlation_inhom(c, omega, f, gmap, n) == pytest.approx(
            correlation_hom(c, omega, f, g, n), abs=1e-15)


def test_step_map_missing_feature_reads_zero():
    c = constant_cocycle(DOUBLING4, q=2)
    space = c.space
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    gmap = step_map(space, {0: Observable.indicator(space, [0])})
    omega = point(c.driving, 0)
    # starting at index 0, odd elapsed times sit at feature 1 -> zero observable
    assert correlation_inhom(c, omega, f, gmap, 1) == 0.0
    assert correlation_inhom(c, omega, f, gmap, 3) == 0.0
    assert correlation_inhom(c, omega, f, gmap, 0) == 0.5


def test_orbit_schedule_errors():
    c = constant_cocycle(DOUBLING4, q=2)
    space = c.space
    base = point(c.driving, 0)
    sched = [Observable.constant(space, 1.0), Observable.constant(space, 2.0)]
    gmap = orbit_schedule_map(space, base, sched)
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    with pytest.raises(ScheduleError):
        correlation_inhom(c, point(c.driving, 1), f, gmap, 0)  # off base
    with pytest.raises(ScheduleError):
        correlation_inhom(c, base, f, gmap, 2)  # past the schedule
    # on-orbit query works and pairs the n-step push with schedule[n]
    assert correlation_inhom(c, base, f, gmap, 0) == 0.0  # zero-mean vs const


def test_observable_map_validation():
    space = FiniteMeasureSpace.uniform(4)
    with pytest.raises(ValueError):
        ObservableMap(space=space, mode="step")
    with pytest.raises(ValueError):
        ObservableMap(space=space, mode="orbit", base=None, schedule=())
    with pytest.raises(ValueError):
        ObservableMap(space=space, mode="sideways", table={})


# -- adjoint route agreement (dual composition gives the same correlations) ---


@st.composite
def small_cocycle_case(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=1, max_value=3))
    space = FiniteMeasureSpace.uniform(n)
    table = {}
    for i in range(q):
        rows = []
        for _ in range(n):
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
            row = np.array(raw)
            rows.append(row / row.sum())
        table[i] = MarkovMatrix(space, np.array(rows))
    c = CocycleFamily(driving=finite_rotation(q), table=table)
    raw_mass = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                      max_size=n)))
    mass = raw_mass - raw_mass.mean()
    f = Density.from_mass(space, mass)
    g = Observable(space, np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                                 min_size=n, max_size=n))))
    steps = draw(st.integers(min_value=0, max_value=4))
    start = draw(st.integers(min_value=0, max_value=q - 1))
    return c, f, g, steps, start


@given(small_cocycle_case())
def test_hom_correlation_matches_dual_route(case):
    c, f, g, n, start = case
    omega = point(c.driving, start)
    direct = correlation_hom(c, omega, f, g, n)
    dual = integrate(f, dual_apply(compose(c, omega, n), g))
    assert abs(direct - dual) <= 1e-10


# -- bases ---------------------------------------------------------------------


def test_zero_mean_basis_properties():
    space = FiniteMeasureSpace(np.array([0.1, 0.2, 0.3, 0.4]))
    basis = zero_mean_basis(space)
    assert len(basis) == 3
    for f in basis:
        assert abs(f.total_mass) <= 1e-15
        assert f.l1_norm == pytest.approx(1.0)
    few = zero_mean_basis(space, count=2)
    assert len(few) == 2
    with pytest.raises(PreconditionError):
        zero_mean_basis(FiniteMeasureSpace.uniform(1))


def test_indicator_basis_subsetting():
    space = FiniteMeasureSpace.uniform(10)
    full = indicator_basis(space)
    assert len(full) == 10
    sub = indicator_basis(space, count=4)
    assert len(sub) == 4
    assert all(g.values.sum() == 1.0 for g in sub)


def test_step_map_basis_enumerates_feature_observable_pairs():
    c = constant_cocycle(DOUBLING4, q=2)
    obs = indicator_basis(c.space, count=2)
    maps = step_map_basis(c, obs)
    assert len(maps) == 4
    for m in maps:
        assert m.mode == "step" and len(m.table) == 1
    bern = CocycleFamily(
        driving=bernoulli_shift([0.5, 0.5]),
        table={0: MarkovMatrix(c.space, DOUBLING4),
               1: MarkovMatrix(c.space, UNIFORMIZER4)})
    assert len(step_map_basis(bern, obs)) == 4


# -- estimator -----------------------------------------------------------------


def test_estimator_mixing_verdict_on_doubling():
    c = constant_cocycle(DOUBLING4)
    f_basis = zero_mean_basis(c.space)
    g_basis = indicator_basis(c.space)
    omegas = points(c.driving)
    for notion in ("prior-hom", "post-hom"):
        rep = estimate_mixing(c, notion, f_basis, g_basis, omegas,
                              horizon=12, tol=1e-9)
        assert rep.decayed and rep.prior_decayed and rep.posterior_decayed
        assert rep.values.shape == (1, 3, 4, 13)
        # every zero-mean vector is annihilated by step 2 on this kernel
        assert np.all(rep.values[..., 2:] == 0.0)
        assert all(t is not None and t <= 2 for t in rep.prior_thresholds)
        assert all(t is not None and t <= 2
                   for t in rep.posterior_thresholds.values())


def test_estimator_inhom_verdicts_and_step_maps():
    space = FiniteMeasureSpace.uniform(4)
    P = MarkovMatrix(space, DOUBLING4)
    Q = MarkovMatrix(space, UNIFORMIZER4)
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: Q})
    f_basis = zero_mean_basis(space)
    g_basis = step_map_basis(c, indicator_basis(space, count=2))
    rep = estimate_mixing(c, "prior-inhom", f_basis, g_basis,
                          points(c.driving), horizon=12, tol=1e-9)
    assert rep.decayed
    # route agreement against the scalar correlation
    for w, omega in enumerate(points(c.driving)):
        for i, f in enumerate(f_basis):
            for j, g in enumerate(g_basis):
                want = [correlation_inhom(c, omega, f, g, n) for n in (0, 1, 5)]
                got = [rep.values[w, i, j, n] for n in (0, 1, 5)]
                assert got == pytest.approx(want, abs=1e-14)


def test_estimator_flags_non_mixing_identity():
    c = constant_cocycle(np.eye(4))
    rep = estimate_mixing(c, "post-hom", zero_mean_basis(c.space),
                          indicator_basis(c.space), points(c.driving),
                          horizon=20, tol=1e-6)
    assert not rep.decayed
    assert not rep.prior_decayed and not rep.posterior_decayed
    assert rep.prior_thresholds == [None]
    assert None in rep.posterior_thresholds.values()


def test_estimator_rejects_bad_inputs():
    c = constant_cocycle(DOUBLING4)
    f_basis = zero_mean_basis(c.space)
    g_obs = indicator_basis(c.space, count=1)
    omegas = points(c.driving)
    with pytest.raises(PreconditionError):
        estimate_mixing(c, "sideways-hom", f_basis, g_obs, omegas, 4, 1e-6)
    with pytest.raises(PreconditionError):
        estimate_mixing(c, "prior-inhom", f_basis, g_obs, omegas, 4, 1e-6)
    with pytest.raises(PreconditionError):
        estimate_mixing(c, "prior-hom", f_basis,
                        step_map_basis(c, g_obs), omegas, 4, 1e-6)
    with pytest.raises(PreconditionError):
        estimate_mixing(c, "prior-hom", [Density.uniform(c.space)], g_obs,
                        omegas, 4, 1e-6)
    assert set(NOTIONS) == {"prior-hom", "post-hom", "prior-inhom",
                            "post-inhom"}


def test_estimator_report_matches_scalar_curve_helpers():
    # the report computes verdicts/thresholds/fits over the whole curve
    # array at once; they must coincide with the per-curve helpers
    space = FiniteMeasureSpace.uniform(4)
    P = MarkovMatrix(space, DOUBLING4)
    Q = MarkovMatrix(space, UNIFORMIZER4)
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: Q})
    rep = estimate_mixing(c, "prior-hom", zero_mean_basis(space),
                          indicator_basis(space), points(c.driving),
                          horizon=10, tol=1e-8)
    n_w, n_f, n_g = rep.values.shape[:3]

    def group_threshold(fbs):
        return None if any(fb is None for fb in fbs) else max(fbs)

    for w in range(n_w):
        for i in range(n_f):
            for j in range(n_g):
                assert rep.rates[(w, i, j)] == fit_geometric_rate(
                    rep.values[w, i, j])
        assert rep.prior_thresholds[w] == group_threshold(
            [first_below(rep.values[w, i, j], rep.tol)
             for i in range(n_f) for j in range(n_g)])
    for i in range(n_f):
        for j in range(n_g):
            assert rep.posterior_thresholds[(i, j)] == group_threshold(
                [first_below(rep.values[w, i, j], rep.tol)
                 for w in range(n_w)])


@given(st.lists(
    st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
             min_size=1, max_size=20),
    min_size=1, max_size=6))
def test_batched_rate_fits_match_scalar_fits(rows):
    length = max(len(r) for r in rows)
    curves = np.array([[x * 10.0 ** -abs(x) for x in r] + [0.0] * (length - len(r))
                       for r in rows])
    assert fit_geometric_rates(curves) == [fit_geometric_rate(row)
                                           for row in curves]


def test_estimator_rate_fit_on_geometric_curve():
    # three-cell kernel with uniform invariant law and spectral gap 1/2
    kernel = np.array([
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
    ])
    c = constant_cocycle(kernel)
    f = Density.from_mass(c.space, [0.5, -0.5, 0.0])
    rep = estimate_mixing(c, "post-hom", [f], indicator_basis(c.space),
                          points(c.driving), horizon=25, tol=1e-6)
    assert rep.decayed
    fit = rep.rates[(0, 0, 0)]
    assert fit.rate == pytest.approx(0.25, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


# -- counterexample ------------------------------------------------------------


def test_counterexample_smallest_case_exact():
    rep = counterexample_run(1)
    assert rep.bits == 2 and rep.n_cells == 4
    assert rep.horizon == 2 and not rep.horizon_capped
    assert rep.inhom_values.tolist() == [0.5, 0.5, 0.5]
    assert rep.disjoint_overlaps.tolist() == [0.0, 0.0, 0.0]
    assert rep.square_integrals.tolist() == [0.5, 0.5, 0.5]
    assert rep.hom_contrast_max.tolist() == [0.25, 0.25, 0.25]
    assert rep.passes


@pytest.mark.parametrize("k", [2, 3])
def test_counterexample_scales_with_exact_half_correlation(k):
    rep = counterexample_run(k)
    n_cells = 1 << (2 * k)
    assert rep.n_cells == n_cells
    assert np.all(rep.inhom_values == 0.5)
    assert np.all(rep.disjoint_overlaps == 0.0)
    assert np.all(rep.square_integrals == 0.5)
    # fixed-observable correlations never exceed one cell's measure
    assert np.all(rep.hom_contrast_max == 1.0 / n_cells)
    assert rep.passes


def test_counterexample_horizon_capped_at_period():
    rep = counterexample_run(2, horizon=50)
    assert rep.horizon == 4 and rep.horizon_capped
    short = counterexample_run(2, horizon=3)
    assert short.horizon == 3 and not short.horizon_capped
    with pytest.raises(PreconditionError):
        counterexample_run(0)
    assert isinstance(rep, CounterexampleReport)
