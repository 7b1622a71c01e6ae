import contextlib
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab.measure
from cocyclelab.asymptotic import detect_periodicity, quasi_constrictive_probe
from cocyclelab.cocycle import (
    CocycleFamily,
    NormalizedCocycle,
    build_invariant_density_map,
    invariant_density_pullback,
)
from cocyclelab.driving import point
from cocyclelab.exactness import exactness_report, tail_partition
from cocyclelab.measure import (
    SPARSE_FILL_DIVISOR,
    SPARSE_MIN_CELLS,
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    SpaceMismatchError,
    StochasticityError,
    apply,
    dual_apply,
    integrate,
    mass_apply,
    markov_check,
    require_zero_mean,
    single_blas_thread,
    stored_stack,
)
from cocyclelab.mixing import (
    counterexample_run,
    estimate_mixing,
    indicator_basis,
    zero_mean_basis,
)
from cocyclelab.scenario import load_scenario
from cocyclelab.skew import ProductSet, set_picture_joint, skew_mixing_curve
from cocyclelab.transfer import MapSpec, duality_residual, pf_exact

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Doubling-map kernel on 4 uniform cells, rows derived by hand from the
# preimage geometry: cell i maps onto cells (2i mod 4, 2i+1 mod 4), half each.
DOUBLING4 = np.array([
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
])


@pytest.fixture
def space4():
    return FiniteMeasureSpace.uniform(4)


@pytest.fixture
def doubling4(space4):
    return MarkovMatrix(space4, DOUBLING4)


def test_uniform_space_weights(space4):
    assert space4.n == 4
    assert np.allclose(space4.weights, 0.25)


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError, match="weights sum"):
        FiniteMeasureSpace(np.array([0.4, 0.5]))
    with pytest.raises(ValueError, match="positive"):
        FiniteMeasureSpace(np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_space_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        FiniteMeasureSpace(np.array([bad, 1.0]))


def test_integrate_uniform_against_one(space4):
    f = Density.uniform(space4)
    g = Observable.constant(space4, 1.0)
    assert integrate(f, g) == pytest.approx(1.0, abs=1e-15)


def test_integrate_disjoint_supports_is_zero(space4):
    f = Density(space4, np.array([4.0, 0.0, 0.0, 0.0]))
    g = Observable(space4, Density.indicator(space4, [1]).values)
    assert integrate(f, g) == 0.0


def test_apply_point_mass_spreads_then_uniformizes(doubling4, space4):
    f = Density.from_mass(space4, np.array([1.0, 0, 0, 0]))
    f1 = apply(doubling4, f)
    assert np.allclose(f1.mass, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    f2 = apply(doubling4, f1)
    assert np.allclose(f2.mass, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_apply_conserves_mass_and_contracts(doubling4, space4):
    rng = np.random.default_rng(0)
    f = Density(space4, rng.normal(size=4))
    out = apply(doubling4, f)
    assert out.total_mass == pytest.approx(f.total_mass, abs=1e-12)
    assert out.l1_norm <= f.l1_norm + 1e-12


def test_dual_apply_doubling_indicator(doubling4, space4):
    g = Observable(space4, Density.indicator(space4, [0]).values)
    back = dual_apply(doubling4, g)
    assert np.allclose(back.values, [0.5, 0.0, 0.5, 0.0], atol=1e-15)


def test_adjoint_identity_exact(doubling4, space4):
    rng = np.random.default_rng(1)
    f = Density(space4, rng.normal(size=4))
    g = Observable(space4, rng.normal(size=4))
    lhs = integrate(apply(doubling4, f), g)
    rhs = integrate(f, dual_apply(doubling4, g))
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_markov_check_flags_bad_row_sum(space4):
    bad = DOUBLING4.copy()
    bad[0, 0] = 0.55  # row sums to 1.05
    report = markov_check(bad)
    assert not report.ok
    assert report.max_row_sum_error == pytest.approx(0.05)
    with pytest.raises(StochasticityError):
        MarkovMatrix(space4, bad)


def test_markov_check_flags_negative_entry(space4):
    bad = np.array([
        [1.1, -0.1, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    report = markov_check(bad)
    assert not report.ok and report.min_entry == pytest.approx(-0.1)


def test_space_mismatch_raises(doubling4):
    other = FiniteMeasureSpace.uniform(5)
    with pytest.raises(SpaceMismatchError):
        apply(doubling4, Density.uniform(other))
    weighted = FiniteMeasureSpace(np.array([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(SpaceMismatchError):
        apply(doubling4, Density.uniform(weighted))


def test_sparse_kernel_matches_dense():
    # 1024-cell doubling kernel: CSR under the storage rule, compared with
    # the same entries applied as a dense array
    n = 1024
    space = FiniteMeasureSpace.uniform(n)
    rows = np.arange(n)
    dense = np.zeros((n, n))
    dense[rows, 2 * rows % n] = dense[rows, (2 * rows + 1) % n] = 0.5
    sparse = MarkovMatrix(space, dense)
    assert isinstance(sparse.kernel, sp.csr_array)
    rng = np.random.default_rng(2)
    f = Density(space, rng.normal(size=n))
    g = Observable(space, rng.normal(size=n))
    assert np.allclose(apply(sparse, f).mass, f.mass @ dense, rtol=0, atol=1e-15)
    assert np.allclose(dual_apply(sparse, g).values, dense @ g.values, rtol=0,
                       atol=1e-15)
    assert sparse.is_cell_map() is False


def spread_kernel(n, per_row):
    """Row i spreads evenly over the per_row cells i, i+1, ... (mod n)."""
    k = np.zeros((n, n))
    for shift in range(per_row):
        k[np.arange(n), (np.arange(n) + shift) % n] = 1.0 / per_row
    return k


@pytest.mark.parametrize("n, per_row, stored_sparse", [
    (SPARSE_MIN_CELLS - 1, 2, False),             # small: dense
    (SPARSE_MIN_CELLS, 2, True),                  # large and sparse: CSR
    (SPARSE_MIN_CELLS, SPARSE_MIN_CELLS // SPARSE_FILL_DIVISOR, True),
    (SPARSE_MIN_CELLS, SPARSE_MIN_CELLS // SPARSE_FILL_DIVISOR + 1, False),
    (1024, 1024, False),                          # large and full: dense
])
def test_storage_rule(n, per_row, stored_sparse):
    space = FiniteMeasureSpace.uniform(n)
    entries = spread_kernel(n, per_row)
    rng = np.random.default_rng(n + per_row)
    f = Density(space, rng.normal(size=n))
    g = Observable(space, rng.normal(size=n))
    for given_as in (entries, sp.csr_array(entries), sp.coo_array(entries)):
        P = MarkovMatrix(space, given_as)
        assert sp.issparse(P.kernel) == stored_sparse
        if stored_sparse:
            assert isinstance(P.kernel, sp.csr_array)
            assert np.array_equal(P.kernel.toarray(), entries)
        else:
            assert isinstance(P.kernel, np.ndarray)
            assert not P.kernel.flags.writeable
            assert np.array_equal(P.kernel, entries)
        # both storages push and pull the same numbers
        assert np.allclose(apply(P, f).mass, f.mass @ entries, rtol=0,
                           atol=1e-15)
        assert np.allclose(dual_apply(P, g).values, entries @ g.values, rtol=0,
                           atol=1e-15)


def test_stack_storage_follows_the_kernel_rule():
    n = SPARSE_MIN_CELLS
    space = FiniteMeasureSpace.uniform(n)
    csr = MarkovMatrix(space, spread_kernel(n, 2)).kernel
    dense = MarkovMatrix(space, spread_kernel(n, n // SPARSE_FILL_DIVISOR + 1)).kernel
    assert sp.issparse(csr) and not sp.issparse(dense)
    rows = 4
    at_fill = np.zeros((rows, n))
    at_fill.ravel()[::SPARSE_FILL_DIVISOR] = 1.0    # rows * n / 32 nonzeros
    past_fill = at_fill.copy()
    past_fill[0, 1] = 1.0
    stored = stored_stack(at_fill, csr)
    assert isinstance(stored, sp.csr_array)
    assert np.array_equal(stored.toarray(), at_fill)
    assert stored_stack(past_fill, csr) is past_fill
    assert stored_stack(at_fill, dense) is at_fill
    # a CSR stack past the fill, or meeting a dense kernel, is densified
    for stack, kernel in ((sp.csr_array(past_fill), csr), (stored, dense)):
        out = stored_stack(stack, kernel)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, stack.toarray())


def test_mass_apply_keeps_a_csr_stack_until_it_passes_the_fill():
    n = 1024
    rows = np.arange(n)
    doubling = np.zeros((n, n))
    doubling[rows, 2 * rows % n] = doubling[rows, (2 * rows + 1) % n] = 0.5
    K = MarkovMatrix(FiniteMeasureSpace.uniform(n), doubling).kernel
    point_masses = np.eye(n)[[0, 100, 513, 1000]]
    stack, dense = stored_stack(point_masses, K), point_masses
    storages = []
    for _ in range(8):
        stack, dense = mass_apply(stack, K), mass_apply(dense, K)
        storages.append(sp.issparse(stack))
        assert isinstance(dense, np.ndarray)
        got = stack.toarray() if sp.issparse(stack) else stack
        assert got.tobytes() == dense.tobytes()
    # 2^t nonzeros per row after t pushes: CSR while 2^t <= n / 32
    assert storages == [True] * 5 + [False] * 3
    # a dense stack stays dense even where a push leaves it sparse
    collapse = np.zeros((n, n))
    collapse[:, 0] = 1.0
    out = mass_apply(dense, MarkovMatrix(FiniteMeasureSpace.uniform(n), collapse).kernel)
    assert isinstance(out, np.ndarray) and np.count_nonzero(out) == 4


def test_a_pushed_csr_stack_has_sorted_indices():
    # a CSR product leaves its rows unsorted; the stored stack sums each row
    # in ascending cell order, so CSR and dense pushes agree bit for bit
    n = 1024
    rng = np.random.default_rng(3)
    rows = np.repeat(np.arange(n), 3)
    weights = rng.integers(1, 8, size=rows.size).astype(float)
    kernel = sp.csr_array((weights, (rows, rng.integers(0, n, rows.size))),
                          shape=(n, n))
    K = MarkovMatrix(FiniteMeasureSpace.uniform(n),
                     kernel.multiply(1.0 / kernel.sum(axis=1)[:, None])).kernel
    point_masses = np.eye(n)[rng.integers(0, n, 64)]
    stack, dense = stored_stack(point_masses, K), point_masses
    for _ in range(3):
        stack, dense = mass_apply(stack, K), mass_apply(dense, K)
        assert isinstance(stack, sp.csr_array) and stack.has_sorted_indices
        for lo, hi in zip(stack.indptr[:-1], stack.indptr[1:]):
            assert (np.diff(stack.indices[lo:hi]) > 0).all()
        assert stack.toarray().tobytes() == dense.tobytes()


def test_is_cell_map_detects_permutations(space4):
    perm = np.eye(4)[[1, 0, 3, 2]]
    assert MarkovMatrix(space4, perm).is_cell_map()
    assert not MarkovMatrix(space4, DOUBLING4).is_cell_map()


def test_density_indicator_normalization(space4):
    d = Density.indicator(space4, [0, 1], normalized=True)
    assert d.total_mass == pytest.approx(1.0)
    assert np.allclose(d.values, [2.0, 2.0, 0.0, 0.0])


def test_values_are_readonly(space4):
    f = Density.uniform(space4)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


# -- property tests over random kernels / functions -------------------------

@st.composite
def space_kernel_density_observable(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=n)
    space = FiniteMeasureSpace(w / w.sum())
    k = rng.uniform(0.0, 1.0, size=(n, n)) + 1e-3
    k /= k.sum(axis=1, keepdims=True)
    f = Density(space, rng.uniform(-5, 5, size=n))
    g = Observable(space, rng.uniform(-5, 5, size=n))
    return space, MarkovMatrix(space, k), f, g


@given(space_kernel_density_observable())
def test_prop_conservation_positivity_contraction(case):
    space, P, f, g = case
    out = apply(P, f)
    assert abs(out.total_mass - f.total_mass) <= 1e-10
    assert out.l1_norm <= f.l1_norm + 1e-10
    pos = apply(P, Density(space, np.abs(f.values)))
    assert np.all(pos.values >= -1e-12)


@given(space_kernel_density_observable())
def test_prop_adjoint_identity(case):
    _, P, f, g = case
    assert integrate(apply(P, f), g) == pytest.approx(
        integrate(f, dual_apply(P, g)), abs=1e-10, rel=1e-10)


@given(space_kernel_density_observable(), st.floats(-3, 3), st.floats(-3, 3))
def test_prop_integrate_bilinear(case, a, b):
    space, P, f, g = case
    f2 = Density(space, np.roll(f.values, 1))
    lhs = integrate(Density(space, a * f.values + b * f2.values), g)
    rhs = a * integrate(f, g) + b * integrate(f2, g)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_zero_mean_check_reads_a_stack_of_rows():
    good = np.array([[0.5, -0.5, 0.0], [0.0, 0.25, -0.25], [1.0, 0.0, -1.0]])
    require_zero_mean(good, "a stack")
    require_zero_mean(good[0], "a row")
    with pytest.raises(PreconditionError, match="total mass is 0.5$"):
        require_zero_mean(np.insert(good, 1, [0.5, 0.0, 0.0], axis=0), "a stack")
    with pytest.raises(PreconditionError, match="total mass is nan$"):
        require_zero_mean(np.insert(good, 2, [np.nan, 0.0, 0.0], axis=0),
                          "a stack")
    with pytest.raises(PreconditionError, match="zero-mean"):
        require_zero_mean([0.25, 0.0, 0.0], "a row")


# -- the one tolerance rule of the verdict routes --------------------------------

# verdict route -> call on a cocycle and a start point with the given tol
TOL_ROUTES = {
    "estimate_mixing": lambda c, w, tol: estimate_mixing(
        c, "prior-hom", zero_mean_basis(c.space), indicator_basis(c.space),
        [w], 5, tol),
    "exactness_report": lambda c, w, tol: exactness_report(
        c, w, zero_mean_basis(c.space), indicator_basis(c.space), 5, tol),
    "skew_mixing_curve": lambda c, w, tol: skew_mixing_curve(
        NormalizedCocycle(c, build_invariant_density_map(c)),
        ProductSet(cells=[0]), ProductSet(cells=[1]), 5, tol),
}


@pytest.mark.parametrize("route", TOL_ROUTES)
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_verdict_routes_reject_a_tolerance_not_finite_and_positive(
        monkeypatch, route, tol):
    # on the identity every curve stays put, so an infinite tol would pass
    c = load_scenario(str(SCENARIOS / "identity.yaml")).cocycle
    w = point(c.driving, 0)

    def no_walk(self, omega):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(CocycleFamily, "check_point", no_walk)
    with pytest.raises(PreconditionError,
                       match=f"tol must be finite and > 0, got {tol}"):
        TOL_ROUTES[route](c, w, tol)


# -- the one integer rule for step counts and caps ---------------------------------

# route -> (call on a cocycle and a start point with the given count, least)
COUNT_ROUTES = {
    "estimate_mixing": (lambda c, w, n: estimate_mixing(
        c, "prior-hom", zero_mean_basis(c.space), indicator_basis(c.space),
        [w], n, 1e-6), 0),
    "exactness_report": (lambda c, w, n: exactness_report(
        c, w, zero_mean_basis(c.space), indicator_basis(c.space), n, 1e-6), 0),
    "tail_partition": (lambda c, w, n: tail_partition(c, w, n), 0),
    "detect_periodicity": (lambda c, w, n: detect_periodicity(c, w, n, 8), 0),
    "detect_periodicity.r_max": (
        lambda c, w, n: detect_periodicity(c, w, 5, n), 0),
    "quasi_constrictive_probe": (
        lambda c, w, n: quasi_constrictive_probe(c, w, n, [0.5]), 1),
    "skew_mixing_curve": (lambda c, w, n: skew_mixing_curve(
        NormalizedCocycle(c, build_invariant_density_map(c)),
        ProductSet(cells=[0]), ProductSet(cells=[1]), n, 1e-6), 0),
    "set_picture_joint": (lambda c, w, n: set_picture_joint(
        NormalizedCocycle(c, build_invariant_density_map(c)),
        ProductSet(cells=[0]), ProductSet(cells=[1]), n), 0),
    "invariant_density_pullback.k_max": (
        lambda c, w, n: invariant_density_pullback(c, w, n), 0),
    "zero_mean_basis.count": (lambda c, w, n: zero_mean_basis(c.space, n), 1),
    "indicator_basis.count": (lambda c, w, n: indicator_basis(c.space, n), 1),
    "counterexample_run": (lambda c, w, n: counterexample_run(1, horizon=n), 0),
    "duality_residual.refinement": (lambda c, w, n: duality_residual(
        pf_exact(MapSpec("doubling"), c.space), MapSpec("doubling"),
        Density.uniform(c.space), Observable.constant(c.space), n), 1),
}
# routes where None is legal: every basis element, the period as horizon
NONE_LEGAL = {"zero_mean_basis.count", "indicator_basis.count",
              "counterexample_run"}


@pytest.mark.parametrize("route,bad", [
    (route, bad) for route in COUNT_ROUTES for bad in (2.5, True, None, "3")
    if not (bad is None and route in NONE_LEGAL)])
def test_count_routes_reject_a_value_that_is_not_an_integer(
        monkeypatch, route, bad):
    # True used to run as 1, 2.5 as a float step count, and None or "3"
    # ended in a bare TypeError
    c = load_scenario(str(SCENARIOS / "identity.yaml")).cocycle
    w = point(c.driving, 0)
    call, least = COUNT_ROUTES[route]

    def no_walk(self, omega):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(CocycleFamily, "check_point", no_walk)
    with pytest.raises(PreconditionError,
                       match=rf"must be an integer >= {least}, got {bad!r}"):
        call(c, w, bad)


@pytest.mark.parametrize("route", COUNT_ROUTES)
def test_count_routes_take_numpy_integers(route):
    c = load_scenario(str(SCENARIOS / "identity.yaml")).cocycle
    w = point(c.driving, 0)
    call, _ = COUNT_ROUTES[route]
    for value in (np.int64(3), np.uint8(3)):
        call(c, w, value)


# -- one BLAS thread per entry ------------------------------------------------------

BLAS = cocyclelab.measure._blas_threads()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="no OpenBLAS thread-count symbols found")


@contextlib.contextmanager
def caller_threads(count):
    """Run the block with the caller's OpenBLAS count at ``count``."""
    get, set_ = BLAS
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


@single_blas_thread
def blas_count_inside():
    return BLAS[0]()


@single_blas_thread
def raises_inside(seen):
    seen.append(BLAS[0]())
    raise PreconditionError("inside")


@needs_blas
def test_single_blas_thread_caps_the_call_and_restores_the_caller():
    with caller_threads(2):
        assert blas_count_inside() == 1
        assert BLAS[0]() == 2


@needs_blas
def test_single_blas_thread_restores_the_caller_after_a_raise():
    seen = []
    with caller_threads(2):
        with pytest.raises(PreconditionError, match="inside"):
            raises_inside(seen)
        assert seen == [1] and BLAS[0]() == 2


@needs_blas
def test_a_nested_capped_call_sets_the_count_no_more_than_a_single_call(
        monkeypatch):
    get, set_ = BLAS
    sets = []
    monkeypatch.setattr(cocyclelab.measure, "_blas_threads",
                        lambda: (get, lambda k: sets.append(k) or set_(k)))
    outer = single_blas_thread(blas_count_inside)
    with caller_threads(2):
        assert blas_count_inside() == 1
        assert sets == [1, 2]
        sets.clear()
        assert outer() == 1
        assert sets == [1, 2] and get() == 2


@needs_blas
def test_single_blas_thread_does_nothing_when_the_lookup_finds_nothing(
        monkeypatch):
    monkeypatch.setattr(cocyclelab.measure, "_blas_threads", lambda: None)
    with caller_threads(2):
        assert blas_count_inside() == 2
        with pytest.raises(PreconditionError):
            raises_inside([])
        assert BLAS[0]() == 2


CAPPED_ENTRIES = [
    ("cli", "main"),
    ("mixing", "estimate_mixing"), ("mixing", "counterexample_run"),
    ("mixing", "correlation_hom"), ("mixing", "correlation_inhom"),
    ("exactness", "exactness_norms"), ("exactness", "lin_dual_flatness"),
    ("exactness", "exactness_report"),
    ("asymptotic", "detect_periodicity"),
    ("asymptotic", "restricted_power_cocycle"),
    ("asymptotic", "quasi_constrictive_probe"),
    ("cocycle", "compose"), ("cocycle", "invariant_density_pullback"),
    ("cocycle", "InvariantDensityMap.equivariance_residual"),
    ("skew", "nu_measure"), ("skew", "skew_mixing_curve"),
    ("skew", "set_picture_joint"), ("skew", "theta_invariance"),
]


@pytest.mark.parametrize("module, name", CAPPED_ENTRIES)
def test_every_entry_that_loops_over_products_is_capped(module, name):
    entry = importlib.import_module(f"cocyclelab.{module}")
    for part in name.split("."):
        entry = getattr(entry, part)
    # a capped entry is the decorator's wrapper, as blas_count_inside is
    assert entry.__code__ is blas_count_inside.__code__


@needs_blas
@settings(max_examples=30)
@given(n=st.sampled_from([64, 256, 512]), rows=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_pushes_are_bit_equal_on_one_thread_and_on_two(n, rows, seed):
    # the sizes cross OpenBLAS's gemv path and its threaded-gemm threshold.
    # Row stacks only: a pull K @ V through a wide V (193 or more columns at
    # N >= 256) can round differently on one thread and on two.
    rng = np.random.default_rng(seed)
    kernel = rng.random((n, n))
    kernel /= kernel.sum(axis=1, keepdims=True)
    stack = rng.standard_normal((rows, n))
    with caller_threads(2):
        threaded = mass_apply(stack, kernel)
        one_thread = single_blas_thread(mass_apply)(stack, kernel)
    assert threaded.tobytes() == one_thread.tobytes()
