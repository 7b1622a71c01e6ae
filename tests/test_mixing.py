"""Tests for correlation estimators, travelling observable bases, and the
travelling-observable counterexample.

Hand-computed oracle used below: on the 4-cell dyadic doubling kernel the
two-step composition is the rank-one uniform kernel, so every zero-mean mass
vector vanishes exactly at n = 2.  For the mass vector (1/2, -1/2, 0, 0) the
cell-0 mass reads 1/2, 1/4, 0, 0, ...  For the 2-bit cyclic baker the shift
permutation is [0, 2, 1, 3]; pushing 1_{cells 0,1} once gives mass
(1/4, 0, 1/4, 0) and the half-space correlations work out to exactly 1/2.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import cocyclelab.cocycle
import cocyclelab.mixing
from cocyclelab.cocycle import CocycleFamily, compose, orbit, push_kernels
from cocyclelab.curves import (
    decay_verdict,
    fit_geometric_rates,
    settle_index,
    suffix_envelope,
    tail_start,
)
from cocyclelab.driving import (
    DrivingError,
    EnvPoint,
    advance,
    bernoulli_shift,
    feature,
    finite_rotation,
    point,
    points,
    sample_env,
)
from cocyclelab.measure import (
    SPARSE_MIN_CELLS,
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    dense,
    dual_apply,
    indicator_rows,
    integrate,
    mass_apply,
    single_blas_thread,
)
from cocyclelab.mixing import (
    NOTIONS,
    CounterexampleReport,
    correlation_hom,
    correlation_inhom,
    counterexample_run,
    estimate_mixing,
    indicator_basis,
    step_map_basis,
    zero_mean_basis,
)
from cocyclelab.scenario import MAX_HORIZON
from cocyclelab.transfer import MapSpec, bit_shift_permutation, pf_exact

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


def window_below(values, tol):
    """Reference verdict per curve (last axis): does the verdict window stay
    below tol?"""
    v = np.abs(np.asarray(values, dtype=float))
    return v[..., tail_start(v.shape[-1]):].max(axis=-1) < tol


def first_below(values, tol):
    """Reference threshold: the first index from which the suffix envelope
    of one curve stays below tol, or None."""
    hits = np.flatnonzero(suffix_envelope(values) < tol)
    return int(hits[0]) if hits.size else None


# -- plain correlations --------------------------------------------------------


def test_hom_correlation_doubling_frozen_curve():
    c = constant_cocycle(DOUBLING4)
    space = c.space
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    g = Observable(space, Density.indicator(space, [0]).values)
    omega = point(c.driving, 0)
    curve = [correlation_hom(c, omega, f, g, n) for n in range(5)]
    assert curve == [0.5, 0.25, 0.0, 0.0, 0.0]


def test_hom_correlation_requires_zero_mean():
    c = constant_cocycle(DOUBLING4)
    f = Density.uniform(c.space)
    g = Observable(c.space, Density.indicator(c.space, [0]).values)
    with pytest.raises(PreconditionError):
        correlation_hom(c, point(c.driving, 0), f, g, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correlations_reject_a_non_finite_observable(bad):
    # a NaN or inf observable used to come back as a nan correlation; a
    # travelling one is checked at every feature, also one the orbit never
    # reads
    c = constant_cocycle(DOUBLING4, q=2)
    f = Density.from_mass(c.space, [0.5, -0.5, 0.0, 0.0])
    g = Observable(c.space, [bad, 0.0, 0.0, 0.0])
    omega = point(c.driving, 0)
    with pytest.raises(PreconditionError, match=r"^g must be finite.*NaN or inf"):
        correlation_hom(c, omega, f, g, 2)
    ok = Observable(c.space, Density.indicator(c.space, [0]).values)
    with pytest.raises(PreconditionError, match=r"^g must be finite.*NaN or inf"):
        correlation_inhom(c, omega, f, np.stack([ok.values, g.values]), 2)


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
    gmap = np.stack([g.values, g.values])
    omega = point(driving, 0)
    for n in range(6):
        assert correlation_inhom(c, omega, f, gmap, n) == pytest.approx(
            correlation_hom(c, omega, f, g, n), abs=1e-15)


def test_step_map_missing_feature_reads_zero():
    c = constant_cocycle(DOUBLING4, q=2)
    space = c.space
    f = Density.from_mass(space, [0.5, -0.5, 0.0, 0.0])
    gmap = np.stack([Density.indicator(space, [0]).values, np.zeros(4)])
    omega = point(c.driving, 0)
    # starting at index 0, odd elapsed times sit at feature 1 -> zero row
    assert correlation_inhom(c, omega, f, gmap, 1) == 0.0
    assert correlation_inhom(c, omega, f, gmap, 3) == 0.0
    assert correlation_inhom(c, omega, f, gmap, 0) == 0.5


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
    # centring can leave a rounding-error total mass comparable to the L1
    # norm (e.g. mass (0, -1.1e-16)); skip exactly the draws that are not
    # zero-mean densities by the estimator's own precondition
    assume(abs(mass.sum()) <= 1e-9 * np.abs(mass).sum())
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
    assert basis.shape == (3, 4)
    assert np.all(np.abs(basis.sum(axis=1)) <= 1e-15)
    assert np.abs(basis).sum(axis=1) == pytest.approx(1.0)
    few = zero_mean_basis(space, count=2)
    assert few.shape == (2, 4)
    with pytest.raises(PreconditionError):
        zero_mean_basis(FiniteMeasureSpace.uniform(1))


def test_indicator_basis_subsetting():
    space = FiniteMeasureSpace.uniform(10)
    full = indicator_basis(space)
    assert full.shape == (10, 10)
    sub = indicator_basis(space, count=4)
    assert sub.shape == (10, 4)
    assert np.all(sub.sum(axis=0) == 1.0)


def list_built_stacks(space, count):
    """The bases as lists of Density and Observable objects, stacked as the
    routes stacked them: np.stack over the masses, and over the observable
    values as columns."""
    def spaced(size):
        if count is None or count >= size:
            return np.arange(size)
        return np.unique(np.linspace(0, size - 1, count).round().astype(int))

    densities = []
    for j in spaced(space.n - 1):
        mass = np.zeros(space.n)
        mass[j], mass[j + 1] = 0.5, -0.5
        densities.append(Density.from_mass(space, mass))
    observables = [Observable(space, Density.indicator(space, [j]).values)
                   for j in spaced(space.n)]
    return (np.stack([f.mass for f in densities]),
            np.stack([g.values for g in observables], axis=1))


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 7, 64, 511, 512, 700, 2048]),
       st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(1, 40)))
def test_basis_stacks_hold_the_list_built_bytes(n, seed, count):
    raw = np.random.default_rng(seed).random(n) + 0.01
    space = FiniteMeasureSpace(raw / raw.sum())
    old_f, old_g = list_built_stacks(space, count)
    for new, old in ((zero_mean_basis(space, count), old_f),
                     (indicator_basis(space, count), old_g)):
        # CSR from 512 cells on: every element has at most two nonzeros
        assert sp.issparse(new) == (n >= SPARSE_MIN_CELLS)
        if sp.issparse(new):
            ref = sp.csr_array(old)
            assert new.has_canonical_format
            assert new.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(new.indices, ref.indices)
            assert np.array_equal(new.indptr, ref.indptr)
        assert new.shape == old.shape
        assert dense(new).tobytes() == old.tobytes()


@pytest.mark.parametrize("basis", [zero_mean_basis, indicator_basis])
@pytest.mark.parametrize("count", [0, -1])
def test_bases_reject_a_count_below_one(basis, count):
    with pytest.raises(PreconditionError, match="count"):
        basis(FiniteMeasureSpace.uniform(6), count=count)


def test_verdict_window_is_the_last_tenth_of_every_curve():
    # the float rule against integer arithmetic on every length a horizon
    # the loader accepts can give
    for length in range(1, MAX_HORIZON + 2):
        assert tail_start(length) == length - max(1, -(-length // 10))
    # no horizon of 1 or more reads n = 0 in its window
    assert all(tail_start(h + 1) >= 1 for h in range(1, MAX_HORIZON + 1))
    with pytest.raises(PreconditionError, match="at least one entry"):
        tail_start(0)


def test_step_map_basis_enumerates_feature_observable_pairs():
    # column p * k + i holds column i of the stack at feature p, zero at
    # every other feature
    c = constant_cocycle(DOUBLING4, q=3)
    obs = np.arange(8.0).reshape(4, 2) + 1.0
    g = step_map_basis(c, obs)
    assert type(g) is np.ndarray and g.shape == (3, 4, 6)
    for p in range(3):
        for q in range(3):
            block = g[p, :, 2 * q:2 * q + 2]
            assert block.tobytes() == (obs if p == q else np.zeros((4, 2))).tobytes()
    # a CSR stack reads as its dense columns
    big = FiniteMeasureSpace.uniform(SPARSE_MIN_CELLS)
    csr = indicator_basis(big, count=3)
    assert sp.issparse(csr)
    identity = MarkovMatrix(big, np.eye(big.n))
    bern = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                         table={0: identity, 1: identity})
    g = step_map_basis(bern, csr)
    assert g.shape == (2, big.n, 6)
    assert g[0, :, :3].tobytes() == g[1, :, 3:].tobytes() == dense(csr).tobytes()
    assert not g[0, :, 3:].any() and not g[1, :, :3].any()


# -- estimator -----------------------------------------------------------------


def test_estimator_mixing_verdict_on_doubling():
    c = constant_cocycle(DOUBLING4)
    f_basis = zero_mean_basis(c.space)
    g_basis = indicator_basis(c.space)
    omegas = points(c.driving)
    for notion in ("prior-hom", "post-hom"):
        rep = estimate_mixing(c, notion, f_basis, g_basis, omegas,
                              horizon=12, tol=1e-9)
        assert rep.decayed
        assert rep.values.shape == (1, 3, 4, 13)
        # every zero-mean vector is annihilated by step 2 on this kernel
        assert np.all(rep.values[..., 2:] == 0.0)
        assert rep.prior_thresholds.shape == (1,)
        assert rep.posterior_thresholds.shape == (3, 4)
        assert np.all(rep.prior_thresholds <= 2)
        assert np.all(rep.posterior_thresholds <= 2)


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
        for i, mass in enumerate(f_basis):
            f = Density.from_mass(space, mass)
            for j in range(g_basis.shape[2]):
                want = [correlation_inhom(c, omega, f, g_basis[..., j], n)
                        for n in (0, 1, 5)]
                got = [rep.values[w, i, j, n] for n in (0, 1, 5)]
                assert got == pytest.approx(want, abs=1e-14)


def test_estimator_flags_non_mixing_identity():
    c = constant_cocycle(np.eye(4))
    rep = estimate_mixing(c, "post-hom", zero_mean_basis(c.space),
                          indicator_basis(c.space), points(c.driving),
                          horizon=20, tol=1e-6)
    assert not rep.decayed
    # horizon + 1 marks a curve that never settles
    assert rep.prior_thresholds.tolist() == [21]
    assert (rep.posterior_thresholds == 21).any()


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
        estimate_mixing(c, "prior-hom", Density.uniform(c.space).mass[None],
                        g_obs, omegas, 4, 1e-6)
    assert set(NOTIONS) == {"prior-hom", "post-hom", "prior-inhom",
                            "post-inhom"}


def test_estimator_report_matches_scalar_curve_helpers():
    # the report computes verdicts and thresholds over the whole curve
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
        return rep.horizon + 1 if None in fbs else max(fbs)

    for w in range(n_w):
        assert rep.prior_thresholds[w] == group_threshold(
            [first_below(rep.values[w, i, j], rep.tol)
             for i in range(n_f) for j in range(n_g)])
    for i in range(n_f):
        for j in range(n_g):
            assert rep.posterior_thresholds[(i, j)] == group_threshold(
                [first_below(rep.values[w, i, j], rep.tol)
                 for w in range(n_w)])


@pytest.mark.parametrize("drop", ["omegas", "f_basis", "g_basis", "horizon"])
def test_estimator_rejects_empty_inputs_and_negative_horizon(drop):
    c = constant_cocycle(DOUBLING4)
    args = {"omegas": points(c.driving), "f_basis": zero_mean_basis(c.space),
            "g_basis": indicator_basis(c.space), "horizon": 4}
    args[drop] = {"horizon": -1, "omegas": [], "f_basis": np.empty((0, 4)),
                  "g_basis": np.empty((4, 0))}[drop]
    with pytest.raises(PreconditionError):
        estimate_mixing(c, "prior-hom", args["f_basis"], args["g_basis"],
                        args["omegas"], args["horizon"], 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("notion", ["prior-hom", "post-inhom"])
def test_estimator_rejects_a_non_finite_observable_before_walking(
        monkeypatch, notion, bad):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked the orbit")

    monkeypatch.setattr(cocyclelab.cocycle, "orbit", no_walk)
    c = constant_cocycle(DOUBLING4, q=2)
    values = np.zeros(4)
    values[1] = bad
    g_obs = np.column_stack([indicator_basis(c.space)[:, :2], values])
    if notion.endswith("inhom"):
        # the bad observable sits at feature 1 of the third column
        g_obs = np.stack([g_obs, g_obs])
        g_obs[0, :, 2], g_obs[1, :, :2] = g_obs[0, :, 0], 0.0
    with pytest.raises(PreconditionError, match=r"g_basis\[2\].*NaN or inf"):
        estimate_mixing(c, notion, zero_mean_basis(c.space), g_obs,
                        points(c.driving), 4, 1e-6)


TRAVELLING_MISFITS = {
    "2-d stack": lambda g: g[0],
    "list of arrays": list,
    "feature count": lambda g: g[:1],
    "cell count": lambda g: g[:, :3],
    "no columns": lambda g: g[..., :0],
    "csr": lambda g: sp.csr_array(g[0]),
}


@pytest.mark.parametrize("misfit", TRAVELLING_MISFITS)
@pytest.mark.parametrize("notion", ["prior-inhom", "post-inhom"])
def test_estimator_rejects_a_travelling_basis_that_is_not_one_array(
        monkeypatch, notion, misfit):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked the orbit")

    monkeypatch.setattr(cocyclelab.cocycle, "orbit", no_walk)
    c = constant_cocycle(DOUBLING4, q=2)
    g_basis = TRAVELLING_MISFITS[misfit](step_map_basis(c, indicator_basis(c.space)))
    with pytest.raises(PreconditionError, match=r"travelling notions take an "
                       r"\(n_features, N, n_g\) array of shape \(2, 4, >= 1\)"):
        estimate_mixing(c, notion, zero_mean_basis(c.space), g_basis,
                        points(c.driving), 4, 1e-6)


@pytest.mark.parametrize("column", [0, 5])
def test_estimator_names_a_nan_at_a_feature_the_orbit_never_meets(
        monkeypatch, column):
    # horizon 0 from point 0 reads feature 0 only; column 0 is zero at
    # feature 1 and column 5 holds an indicator there
    def no_walk(*args, **kwargs):
        raise AssertionError("walked the orbit")

    monkeypatch.setattr(cocyclelab.cocycle, "orbit", no_walk)
    c = constant_cocycle(DOUBLING4, q=2)
    g_basis = step_map_basis(c, indicator_basis(c.space))
    g_basis[1, 2, column] = np.nan
    with pytest.raises(PreconditionError,
                       match=rf"g_basis\[{column}\] holds NaN or inf"):
        estimate_mixing(c, "prior-inhom", zero_mean_basis(c.space), g_basis,
                        [point(c.driving, 0)], 0, 1e-6)


def test_estimator_rejects_a_point_of_another_driving():
    # same seed and origin, other probabilities: the points differ, so the
    # foreign one cannot merge with a native one and its own walk rejects it
    P = constant_cocycle(DOUBLING4).table[0]
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]), table={0: P, 1: P})
    other = bernoulli_shift([0.9, 0.1])
    omegas = sample_env(c.driving, 2, 5) + sample_env(other, 1, 5)
    assert omegas[2] != omegas[0]
    with pytest.raises(DrivingError):
        estimate_mixing(c, "prior-hom", zero_mean_basis(c.space),
                        indicator_basis(c.space), omegas, 4, 1e-6)


def reference_estimate(c, notion, f_basis, g_basis, omega_samples, horizon,
                       tol):
    """The estimator written out plainly: one orbit per sample, the
    observables read afresh at every step."""
    inhom = notion.endswith("inhom")
    n_w, n_f, n_g = len(omega_samples), f_basis.shape[0], g_basis.shape[-1]
    values = np.empty((n_w, n_f, n_g, horizon + 1))
    for w, omega in enumerate(omega_samples):
        cur = f_basis
        for n, pt in enumerate(orbit(c, omega, horizon)):
            if inhom:
                g_now = g_basis[feature(c.driving, pt)]
            else:
                g_now = np.array(g_basis)
            values[w, :, :, n] = cur @ g_now
            if n < horizon:
                cur = mass_apply(cur, c.operator_at(pt).kernel)

    def group(curves):
        firsts = [first_below(v, tol) for v in curves]
        return horizon + 1 if None in firsts else max(firsts)

    pairs = [(i, j) for i in range(n_f) for j in range(n_g)]
    decayed = {(w, i, j): window_below(values[w, i, j], tol)
               for w in range(n_w) for i, j in pairs}
    return {
        "values": values,
        "decayed": all(decayed.values()),
        "prior_thresholds": [group(values[w, i, j] for i, j in pairs)
                             for w in range(n_w)],
        "posterior_thresholds": [[group(values[w, i, j] for w in range(n_w))
                                  for j in range(n_g)] for i in range(n_f)],
    }


@st.composite
def repeated_omega_case(draw):
    """A random stochastic table over a small rotation or a Bernoulli shift
    on two or three symbols, with environment samples that repeat points.
    The table draws its kernels from a pool that may be smaller than the
    feature count, so it may be constant or have features share a kernel
    (as {0: A, 1: A, 2: B}), and distinct points may meet one kernel
    sequence."""
    n = draw(st.integers(min_value=2, max_value=4))
    space = FiniteMeasureSpace.uniform(n)

    def stochastic():
        raw = np.array([draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n)) for _ in range(n)]) + 0.05
        return MarkovMatrix(space, raw / raw.sum(axis=1, keepdims=True))

    def table(n_features):
        pool = [stochastic() for _ in range(draw(st.integers(1, n_features)))]
        return {k: pool[draw(st.integers(0, len(pool) - 1))]
                for k in range(n_features)}

    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=4))
        c = CocycleFamily(driving=finite_rotation(q), table=table(q))
        omegas = [point(c.driving, i) for i in draw(st.lists(
            st.integers(0, q - 1), min_size=1, max_size=6))]
    else:
        symbols = draw(st.integers(min_value=2, max_value=3))
        c = CocycleFamily(driving=bernoulli_shift([1 / symbols] * symbols),
                          table=table(symbols))
        pts = sample_env(c.driving, draw(st.integers(1, 3)),
                         draw(st.integers(0, 2**16)))
        omegas = pts + [pts[draw(st.integers(0, len(pts) - 1))]]
        omegas = draw(st.permutations(omegas))
    notion = draw(st.sampled_from(NOTIONS))
    horizon = draw(st.integers(min_value=0, max_value=12))  # windows of 1-2
    tol = draw(st.sampled_from([1e-12, 1e-4, 1e-2, 0.2]))
    return c, notion, omegas, horizon, tol


@given(repeated_omega_case())
def test_estimator_fast_paths_match_reference_loop(case):
    c, notion, omegas, horizon, tol = case
    space = c.space
    f_basis = zero_mean_basis(space)
    g_obs = indicator_basis(space)
    g_basis = g_obs
    if notion.endswith("inhom"):
        # the last column reads a different observable at features 0 and 1
        last = np.zeros((c.driving.n_features, space.n, 1))
        last[0, :, 0] = g_obs[:, 0]
        last[1:2, :, 0] = np.linspace(-1.0, 1.0, space.n)
        g_basis = np.concatenate([step_map_basis(c, g_obs), last], axis=2)
    rep = estimate_mixing(c, notion, f_basis, g_basis, omegas, horizon, tol)
    ref = reference_estimate(c, notion, f_basis, g_basis, omegas, horizon, tol)
    assert rep.values.shape == ref["values"].shape
    assert rep.values.tobytes() == ref["values"].tobytes()
    assert rep.decayed == ref["decayed"]
    assert rep.prior_thresholds.tolist() == ref["prior_thresholds"]
    assert rep.posterior_thresholds.tolist() == ref["posterior_thresholds"]
    if notion.endswith("inhom"):
        for w, omega in enumerate(omegas):
            for i, mass in enumerate(f_basis):
                f = Density.from_mass(space, mass)
                want = [correlation_inhom(c, omega, f, g_basis[..., -1], n)
                        for n in range(horizon + 1)]
                assert rep.values[w, i, -1] == pytest.approx(want, abs=1e-14)


@given(repeated_omega_case())
def test_verdict_and_both_orders_read_one_settle_index(case):
    c, notion, omegas, horizon, tol = case
    f_basis, g_basis = zero_mean_basis(c.space), indicator_basis(c.space)
    if notion.endswith("inhom"):
        g_basis = step_map_basis(c, g_basis)
    rep = estimate_mixing(c, notion, f_basis, g_basis, omegas, horizon, tol)
    window = tail_start(horizon + 1)
    assert rep.decayed == bool(window_below(rep.values, tol).all())
    assert rep.prior_thresholds.max() == rep.posterior_thresholds.max()
    for w in range(len(omegas)):
        assert (rep.prior_thresholds[w] <= window) == bool(
            window_below(rep.values[w], tol).all())
        assert decay_verdict(rep.prior_thresholds[w], horizon) == bool(
            window_below(rep.values[w], tol).all())


@pytest.mark.parametrize("notion", NOTIONS)
def test_estimator_pushes_once_per_kernel_sequence(monkeypatch, notion):
    pushes = []
    monkeypatch.setattr(cocyclelab.cocycle, "mass_apply",
                        lambda mass, kernel: pushes.append(1) or mass_apply(mass, kernel))
    space = FiniteMeasureSpace.uniform(4)
    P, Q = MarkovMatrix(space, DOUBLING4), MarkovMatrix(space, UNIFORMIZER4)
    horizon = 5
    for table in ({0: P, 1: P}, {0: P, 1: Q}):
        c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]), table=table)
        omegas = sample_env(c.driving, 64, seed=11)
        g_basis = indicator_basis(space)
        if notion.endswith("inhom"):
            g_basis = step_map_basis(c, g_basis)
        pushes.clear()
        estimate_mixing(c, notion, zero_mean_basis(space), g_basis, omegas,
                        horizon, 1e-6)
        if c.is_constant:
            assert len(pushes) == horizon
            if notion.endswith("-hom"):  # no step reads a feature
                assert all(w.stream.cache == {} for w in omegas)
        else:
            # 64 points, but at most 2^5 symbol words to meet
            words = {tuple(w.symbol(t) for t in range(horizon)) for w in omegas}
            assert 1 < len(words) < len(omegas)
            assert len(pushes) == horizon * len(words)


@pytest.mark.parametrize("notion", NOTIONS)
def test_estimator_walks_each_distinct_point_once(monkeypatch, notion):
    # the grouping walk resolves every kernel that a group's push applies,
    # so no orbit is walked a second time
    steps = []
    monkeypatch.setattr(cocyclelab.cocycle, "advance",
                        lambda d, pt, n: steps.append(n) or advance(d, pt, n))
    space = FiniteMeasureSpace.uniform(4)
    P, Q = MarkovMatrix(space, DOUBLING4), MarkovMatrix(space, UNIFORMIZER4)
    horizon = 5
    shift, rotation = bernoulli_shift([0.5, 0.5]), finite_rotation(3)
    for c, omegas in (
            (CocycleFamily(driving=shift, table={0: P, 1: Q}),
             sample_env(shift, 16, seed=3)),
            (CocycleFamily(driving=rotation, table={0: P, 1: Q, 2: P}),
             points(rotation))):
        omegas = omegas + omegas[:2]
        g_basis = indicator_basis(space)
        if notion.endswith("inhom"):
            g_basis = step_map_basis(c, g_basis)
        steps.clear()
        estimate_mixing(c, notion, zero_mean_basis(space), g_basis, omegas,
                        horizon, 1e-6)
        assert steps == [1] * (len(set(omegas)) * horizon)


@given(repeated_omega_case())
def test_travelling_curves_are_the_masked_homogeneous_curves(case):
    # a step map column reads its observable only where the orbit meets its
    # feature, so each travelling curve is a homogeneous curve times the
    # indicator of that feature along the orbit
    c, _, omegas, horizon, _ = case
    f_basis, g_obs = zero_mean_basis(c.space), indicator_basis(c.space)
    hom = estimate_mixing(c, "prior-hom", f_basis, g_obs, omegas, horizon,
                          1e-6).values
    inhom = estimate_mixing(c, "prior-inhom", f_basis, step_map_basis(c, g_obs),
                            omegas, horizon, 1e-6).values
    feats = np.array([[feature(c.driving, pt) for pt in orbit(c, w, horizon)]
                      for w in omegas])
    mask = feats[:, None, :] == np.arange(c.driving.n_features)[:, None]
    # step maps run feature outer, observable inner
    masked = (hom[:, :, None] * mask[:, None, :, None, :]).reshape(inhom.shape)
    np.testing.assert_allclose(inhom, masked, rtol=0, atol=1e-15)


@given(st.lists(
    st.lists(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
             min_size=1, max_size=20),
    min_size=1, max_size=6))
def test_batched_rate_fits_match_scalar_fits(rows):
    length = max(len(r) for r in rows)
    curves = np.array([[x * 10.0 ** -abs(x) for x in r] + [0.0] * (length - len(r))
                       for r in rows])
    whole = fit_geometric_rates(curves)
    assert len(whole) == len(curves)
    for k, row in enumerate(curves):
        own = fit_geometric_rates(row)
        for name in ("rate", "log_c", "r_squared", "n_points"):
            assert getattr(own, name).shape == ()
            assert getattr(whole, name)[k].tobytes() \
                == getattr(own, name).tobytes()


@pytest.mark.parametrize("shape", [(2, 0), (0,), ()])
def test_curve_readers_need_a_curve_entry(shape):
    with pytest.raises(PreconditionError, match="at least one entry"):
        fit_geometric_rates(np.zeros(shape))
    with pytest.raises(PreconditionError, match="at least one entry"):
        settle_index(np.zeros(shape), 1e-6)


def reference_envelope(values):
    """The one-curve suffix envelope, written for 1-D input only."""
    v = np.abs(np.asarray(values, dtype=float))
    return np.maximum.accumulate(v[::-1])[::-1]


def reference_settle(values, tol):
    """The one-curve settle index, written for 1-D input only: walk back from
    the end while |value| stays below tol."""
    n = len(values)
    while n and abs(values[n - 1]) < tol:
        n -= 1
    return n


def reference_window_max(values):
    """The one-curve maximum over the verdict window, for 1-D input only."""
    v = np.asarray(values, dtype=float)
    return float(np.abs(v[tail_start(v.size):]).max())


@st.composite
def curve_stack(draw):
    """0-3 leading axes over curves of length 1-40 with exact zeros, sign
    changes and magnitudes spread over several decades; from 11 entries on
    the verdict window holds more than one entry."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3))) \
        + (draw(st.integers(1, 40)),)
    entry = st.one_of(st.just(0.0),
                      st.builds(lambda x, k: x * 10.0 ** -k,
                                st.floats(-4.0, 4.0, allow_nan=False),
                                st.integers(0, 12)))
    flat = draw(st.lists(entry, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat).reshape(shape)


@given(curve_stack(), st.sampled_from([1e-12, 1e-6, 1e-3, 0.5, 2.0]))
def test_settle_index_reads_the_last_axis_like_the_one_curve_code(values, tol):
    env = suffix_envelope(values)
    settle = settle_index(values, tol)
    horizon = values.shape[-1] - 1
    assert env.shape == values.shape
    assert np.shape(settle) == values.shape[:-1]
    for idx in np.ndindex(values.shape[:-1]):
        assert env[idx].tobytes() == reference_envelope(values[idx]).tobytes()
        assert settle[idx] == reference_settle(values[idx], tol)
        # settling by the window start is the window's maximum below tol
        assert decay_verdict(settle[idx], horizon) == (
            reference_window_max(values[idx]) < tol)
    assert decay_verdict(settle, horizon) == bool(
        window_below(values, tol).all())


@given(st.lists(st.lists(st.sampled_from(
           [0.0, -0.0, 1e-9, -1e-9, 1.0, np.nan, np.inf, -np.inf,
            1e-6, -1e-6, 0.5, -0.5, 2.0, -2.0]),
           min_size=8, max_size=8), min_size=1, max_size=3),
       st.sampled_from([1e-6, 0.5, 2.0]))
def test_settle_index_reads_a_non_finite_entry_as_not_settled(rows, tol):
    # NaN is not below tol, so a NaN entry keeps its curve unsettled as an
    # inf entry does, and so does an entry of magnitude exactly tol; each row
    # of the stack walks back like one curve
    settle = settle_index(np.array(rows), tol)
    assert settle.tolist() == [reference_settle(r, tol) for r in rows]


def test_estimator_rate_fit_on_geometric_curve():
    # three-cell kernel with uniform invariant law and spectral gap 1/2
    kernel = np.array([
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
    ])
    c = constant_cocycle(kernel)
    f = Density.from_mass(c.space, [0.5, -0.5, 0.0])
    rep = estimate_mixing(c, "post-hom", f.mass[None],
                          indicator_basis(c.space),
                          points(c.driving), horizon=25, tol=1e-6)
    assert rep.decayed
    fit = fit_geometric_rates(rep.values)
    assert fit.rate[0, 0, 0] == pytest.approx(0.25, rel=1e-6)
    assert fit.r_squared[0, 0, 0] == pytest.approx(1.0, abs=1e-9)


def test_estimator_holds_one_copy_of_its_curves():
    # the halving map i -> i // 2 on 1024 cells with full bases: 1023 x 1024
    # curves over n = 0..10, 88 MB; a step-major buffer copied to n-innermost,
    # or a second copy for an identity sample order, lifted the peak to 2.27x
    n = 1024
    c = constant_cocycle(indicator_rows(np.arange(n) // 2, n))
    f, g = zero_mean_basis(c.space), indicator_basis(c.space)
    tracemalloc.start()
    try:
        rep = estimate_mixing(c, "prior-hom", f, g, [point(c.driving, 0)], 10,
                              1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.values.shape == (1, n - 1, n, 11)
    assert not rep.decayed  # the partition reaches one atom only at n = 10
    assert peak < 1.6 * rep.values.nbytes


# -- counterexample ------------------------------------------------------------


def test_counterexample_smallest_case_exact():
    rep = counterexample_run(1)
    assert rep.bits == 2 and rep.n_cells == 4
    assert rep.horizon == 2 and not rep.horizon_capped
    assert rep.inhom_values.tolist() == [0.5, 0.5, 0.5]
    assert rep.disjoint_overlaps.tolist() == [0.0, 0.0, 0.0]
    assert rep.square_integrals.tolist() == [0.5, 0.5, 0.5]
    assert rep.hom_contrast_max.tolist() == [0.25, 0.25, 0.25]
    assert rep.hom_values.tolist() == [0.5, 0.0, 0.5]
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
    # the shifted half-space meets A in half of A off the period: 1/4 - 1/4
    assert rep.hom_values.tolist() == [0.5] + [0.0] * (2 * k - 1) + [0.5]
    assert rep.passes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_counterexample_fails_on_a_relabelling_that_is_not_the_baker(
        monkeypatch, k):
    # the identity keeps every relabelling-invariant array at its baker
    # value; only the fixed half-space correlation, stuck at 1/2, tells
    monkeypatch.setattr(cocyclelab.mixing, "bit_shift_permutation",
                        lambda bits: np.arange(1 << bits))
    rep = counterexample_run(k)
    assert np.all(rep.inhom_values == 0.5)
    assert np.all(rep.disjoint_overlaps == 0.0)
    assert np.all(rep.square_integrals == 0.5)
    assert np.all(rep.hom_values == 0.5)
    assert not rep.passes


@pytest.mark.parametrize("k", [1, 2])
def test_counterexample_matches_the_travelling_route(k):
    # the generic route: a constant cocycle over a rotation whose point t
    # carries the indicator of perm^t(A), built from the permutation, not
    # from a push
    rep = counterexample_run(k)
    bits, n_cells = 2 * k, 1 << (2 * k)
    space = FiniteMeasureSpace.uniform(n_cells)
    P = pf_exact(MapSpec("baker_cyclic", bits=bits), space)
    driving = finite_rotation(rep.horizon + 1)
    c = CocycleFamily(driving=driving,
                      table={t: P for t in range(rep.horizon + 1)})
    perm, cells = bit_shift_permutation(bits), np.arange(n_cells // 2)
    g = np.empty((rep.horizon + 1, n_cells))
    for t in range(rep.horizon + 1):
        g[t] = Density.indicator(space, cells).values
        cells = perm[cells]
    f = Density(space, np.where(np.arange(n_cells) < n_cells // 2, 1.0, -1.0))
    omega = point(driving, 0)
    values = [correlation_inhom(c, omega, f, g, n)
              for n in range(rep.horizon + 1)]
    assert np.array(values).tobytes() == rep.inhom_values.tobytes()


@single_blas_thread
def pushed_counterexample(k, horizon):
    """Reference counterexample arrays: the rows 1_A, 1_Ac and f pushed
    through the baker's exact transfer kernel along a one-point orbit, the
    route the report took before it walked the permutation."""
    bits, n_cells = 2 * k, 1 << (2 * k)
    space = FiniteMeasureSpace.uniform(n_cells)
    P = pf_exact(MapSpec("baker_cyclic", bits=bits), space)
    half = n_cells // 2
    f = Density(space, np.where(np.arange(n_cells) < half, 1.0, -1.0))
    rows = np.stack([Density.indicator(space, np.arange(half)).mass,
                     Density.indicator(space, np.arange(half, n_cells)).mass,
                     f.mass])
    w = space.weights
    out = np.empty((5, horizon + 1))
    # a one-point orbit meets the one kernel at every step
    for n, (ind_a, ind_ac, fmass) in enumerate(
            push_kernels(rows, [P.kernel] * horizon)):
        g_vals = ind_a / w
        out[:, n] = (float(np.dot(fmass, g_vals)),
                     float(np.sum((ind_a / w) * (ind_ac / w) * w)),
                     float(np.sum(g_vals * g_vals * w)),
                     float(np.abs(fmass).max()),
                     float(fmass[:half].sum()))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("horizon", [None, 1, 50])
def test_counterexample_relabelling_matches_the_kernel_push_bit_for_bit(
        k, horizon):
    # default horizon (the period), a short one and one capped at the period;
    # up to k = 4 the kernel is dense, so the push is a BLAS product
    rep = counterexample_run(k, horizon=horizon)
    assert rep.horizon_capped == (horizon == 50)
    expected = pushed_counterexample(k, rep.horizon)
    for got, want in zip((rep.inhom_values, rep.disjoint_overlaps,
                          rep.square_integrals, rep.hom_contrast_max,
                          rep.hom_values),
                         expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2.0, 2.5, True, "2", None])
def test_counterexample_rejects_a_k_that_is_not_an_integer(k):
    # 2.0 and 2.5 used to fail inside the bit shift, and True ran as k = 1
    with pytest.raises(PreconditionError, match="k must be an integer in 1.."):
        counterexample_run(k)


def test_counterexample_takes_a_numpy_integer_k():
    a, b = counterexample_run(np.int64(2)), counterexample_run(2)
    assert a.bits == b.bits == 4
    assert a.inhom_values.tobytes() == b.inhom_values.tobytes()


@pytest.mark.parametrize("horizon", [-1, -5])
def test_counterexample_rejects_a_negative_horizon(horizon):
    # a relabelling loop over range(horizon + 1) alone would return empty
    # arrays that pass
    with pytest.raises(PreconditionError, match="horizon must be an integer >= 0"):
        counterexample_run(2, horizon=horizon)


def test_counterexample_horizon_capped_at_period():
    rep = counterexample_run(2, horizon=50)
    assert rep.horizon == 4 and rep.horizon_capped
    short = counterexample_run(2, horizon=3)
    assert short.horizon == 3 and not short.horizon_capped
    with pytest.raises(PreconditionError):
        counterexample_run(0)
    assert isinstance(rep, CounterexampleReport)
