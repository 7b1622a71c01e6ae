import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    SpaceMismatchError,
    StochasticityError,
    apply,
    dual_apply,
    integrate,
    markov_check,
)

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
    assert space4.measure([0, 1]) == pytest.approx(0.5)


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
    g = Observable.indicator(space4, [1])
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
    g = Observable.indicator(space4, [0])
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


def test_sparse_kernel_matches_dense(space4):
    dense = MarkovMatrix(space4, DOUBLING4)
    sparse = MarkovMatrix(space4, sp.csr_array(DOUBLING4))
    rng = np.random.default_rng(2)
    f = Density(space4, rng.normal(size=4))
    g = Observable(space4, rng.normal(size=4))
    assert np.allclose(apply(dense, f).values, apply(sparse, f).values, atol=1e-15)
    assert np.allclose(dual_apply(dense, g).values, dual_apply(sparse, g).values,
                       atol=1e-15)
    assert sparse.is_cell_map() is False


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
