import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocyclelab.cocycle import (
    CocycleFamily,
    InvariantDensityMap,
    NormalizedCocycle,
    build_invariant_density_map,
    compose,
    invariant_density_pullback,
    mu_integral,
    normalized_apply,
    orbit,
    orbit_kernels,
    support_defect,
)
from cocyclelab.driving import (
    advance,
    bernoulli_shift,
    finite_permutation,
    finite_rotation,
    point,
    sample_env,
)
from cocyclelab.measure import Density, FiniteMeasureSpace, MarkovMatrix, apply
from cocyclelab.transfer import MapSpec, pf_exact


def make_space(n=4):
    return FiniteMeasureSpace.uniform(n)


def rank_one(space, target_mass):
    # every row equals the target mass vector: mass is absorbed in one step
    k = np.tile(np.asarray(target_mass, dtype=float), (space.n, 1))
    return MarkovMatrix(space, k)


def constant_cocycle(P, q=1):
    d = finite_rotation(q)
    return CocycleFamily(driving=d, table={i: P for i in range(q)})


SWAP = np.array([  # block {0,1} <-> block {2,3}, uniform within target
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
])


def test_compose_zero_steps_is_identity():
    space = make_space()
    c = constant_cocycle(MarkovMatrix(space, SWAP))
    K0 = compose(c, point(c.driving, 0), 0)
    assert np.array_equal(np.asarray(K0.kernel), np.eye(4))


def test_compose_two_step_rotation_order():
    # rotation q=2 applies P0 first, then P1: mass @ K0 @ K1
    space = make_space()
    P0 = MarkovMatrix(space, SWAP)
    P1 = pf_exact(MapSpec("doubling"), space)
    d = finite_rotation(2)
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    K2 = compose(c, point(d, 0), 2)
    assert np.allclose(np.asarray(K2.kernel), SWAP @ np.asarray(P1.kernel),
                       atol=1e-15)
    f = Density.from_mass(space, [1.0, 0, 0, 0])
    stepwise = apply(P1, apply(P0, f))
    assert np.allclose(apply(K2, f).values, stepwise.values, atol=1e-15)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**20))
def test_prop_cocycle_law(n, m, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    size = int(rng.integers(2, 5))
    space = FiniteMeasureSpace.uniform(size)
    table = {}
    for i in range(q):
        k = rng.uniform(size=(size, size)) + 0.1
        table[i] = MarkovMatrix(space, k / k.sum(axis=1, keepdims=True))
    d = finite_rotation(q)
    c = CocycleFamily(driving=d, table=table)
    w = point(d, int(rng.integers(q)))
    lhs = np.asarray(compose(c, w, n + m).kernel)
    rhs = np.asarray(compose(c, w, m).kernel) @ np.asarray(
        compose(c, advance(d, w, m), n).kernel)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_compose_over_bernoulli_uses_symbol_table():
    space = make_space()
    d = bernoulli_shift([0.5, 0.5], window=3)
    table = {0: MarkovMatrix(space, SWAP), 1: pf_exact(MapSpec("doubling"), space)}
    c = CocycleFamily(driving=d, table=table)
    (w,) = sample_env(d, 1, seed=9)
    n = 3
    expected = np.eye(4)
    for t in range(n):
        expected = expected @ np.asarray(table[w.symbol(t)].kernel)
    assert np.allclose(np.asarray(compose(c, w, n).kernel), expected, atol=1e-15)


def two_operator_cocycle(kind):
    space = make_space()
    P0 = MarkovMatrix(space, SWAP)
    P1 = pf_exact(MapSpec("doubling"), space)
    if kind == "finite":
        d = finite_permutation([2, 0, 1])
        c = CocycleFamily(driving=d, table={0: P0, 1: P1, 2: P1})
        return c, point(d, 1)
    d = bernoulli_shift([0.5, 0.5], window=1)
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    return c, sample_env(d, 1, seed=5)[0]


@pytest.mark.parametrize("kind", ["finite", "bernoulli"])
@pytest.mark.parametrize("n", [0, 7, -7])
def test_orbit_walks_the_driving_both_ways(kind, n):
    c, w = two_operator_cocycle(kind)
    walk = list(orbit(c, w, n))
    assert len(walk) == abs(n) + 1
    step = 1 if n >= 0 else -1
    for k, (pt, P) in enumerate(walk):
        expected = advance(c.driving, w, step * k)
        assert pt == expected
        assert P is c.operator_at(expected)


@pytest.mark.parametrize("kind", ["finite", "bernoulli"])
def test_orbit_kernels_are_the_first_n_orbit_operators(kind):
    c, w = two_operator_cocycle(kind)
    for n in (0, 1, 6):
        got = orbit_kernels(c, w, n)
        assert len(got) == n
        for t, kernel in enumerate(got):
            assert kernel is c.operator_at(advance(c.driving, w, t)).kernel


def test_table_must_cover_all_features():
    space = make_space()
    d = finite_rotation(2)
    with pytest.raises(ValueError, match="missing features"):
        CocycleFamily(driving=d, table={0: MarkovMatrix(space, SWAP)})


def test_pullback_doubling_reaches_uniform_exactly():
    space = FiniteMeasureSpace.uniform(8)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    rng = np.random.default_rng(0)
    f0 = Density.from_mass(space, rng.dirichlet(np.ones(8)))
    res = invariant_density_pullback(c, point(c.driving, 0), k_max=16, f0=f0)
    assert res.converged and res.increment <= 1e-10
    assert np.allclose(res.density.values, 1.0, atol=1e-12)
    assert res.steps <= 8  # uniform after log2(N)=3 steps, certificate lags one


def test_pullback_identity_keeps_seed():
    space = make_space()
    c = constant_cocycle(MarkovMatrix(space, np.eye(4)))
    f0 = Density.from_mass(space, [0.4, 0.3, 0.2, 0.1])
    res = invariant_density_pullback(c, point(c.driving, 0), k_max=5, f0=f0)
    assert res.converged and res.steps == 1 and res.increment == 0.0
    assert np.allclose(res.density.values, f0.values)


def test_pullback_nonconvergence_is_reported():
    # a pure swap permutation keeps flipping a non-symmetric seed
    space = make_space()
    perm = np.eye(4)[[1, 0, 3, 2]]
    c = constant_cocycle(MarkovMatrix(space, perm))
    f0 = Density.from_mass(space, [0.7, 0.1, 0.1, 0.1])
    res = invariant_density_pullback(c, point(c.driving, 0), k_max=9, f0=f0)
    assert not res.converged
    assert res.increment == pytest.approx(1.2)  # |0.7-0.1| swap, twice


def test_invariant_map_equivariance_two_operator_rotation():
    space = FiniteMeasureSpace.uniform(8)
    P0 = pf_exact(MapSpec("doubling"), space)
    k1 = np.tile(np.full(8, 1.0 / 8), (8, 1))
    P1 = MarkovMatrix(space, k1)
    d = finite_rotation(2)
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    h = build_invariant_density_map(c, k_max=32, tol=1e-12)
    pts = [point(d, 0), point(d, 1)]
    assert h.all_converged(pts)
    assert h.equivariance_residual(pts) <= 1e-12


def test_invariant_map_over_bernoulli_driving():
    space = FiniteMeasureSpace.uniform(8)
    P0 = pf_exact(MapSpec("doubling"), space)
    k1 = np.tile(np.full(8, 1.0 / 8), (8, 1))
    P1 = MarkovMatrix(space, k1)
    d = bernoulli_shift([0.5, 0.5], window=2)
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    h = build_invariant_density_map(c, k_max=24, tol=1e-12)
    pts = sample_env(d, 4, seed=21)
    assert h.all_converged(pts)
    assert h.equivariance_residual(pts) <= 1e-10


def test_normalized_cocycle_planted_fixed_density():
    # rank-one kernel absorbs everything into a non-uniform fixed density u
    space = make_space()
    u_mass = np.array([0.4, 0.3, 0.2, 0.1])
    c = constant_cocycle(rank_one(space, u_mass))
    h = build_invariant_density_map(c, k_max=8, tol=1e-12)
    nc = NormalizedCocycle(cocycle=c, h=h)
    w = point(c.driving, 0)
    out = normalized_apply(nc, w, Density.uniform(space))
    assert np.allclose(out.density.values, 1.0, atol=1e-12)
    assert out.excluded_cells.size == 0 and out.excluded_mass == 0.0


def test_normalized_apply_preserves_mu_mass():
    space = make_space()
    c = constant_cocycle(MarkovMatrix(space, SWAP))
    h = build_invariant_density_map(c, k_max=8)
    nc = NormalizedCocycle(cocycle=c, h=h)
    w = point(c.driving, 0)
    rng = np.random.default_rng(3)
    f = Density(space, rng.uniform(0.0, 2.0, size=4))
    out = normalized_apply(nc, w, f)
    before = mu_integral(nc, w, f)
    after = mu_integral(nc, advance(c.driving, w, 1), out.density)
    assert after == pytest.approx(before, abs=1e-10)


def half_space_cocycle():
    # support of h is {0,1}; mass started outside leaks everywhere forever
    space = make_space()
    k = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.25, 0.25, 0.25],
    ])
    return constant_cocycle(MarkovMatrix(space, k))


def test_normalized_apply_maps_support_indicator_to_support_indicator():
    c = half_space_cocycle()
    space = c.space
    h = build_invariant_density_map(
        c, k_max=8, tol=1e-12,
        f0=Density.from_mass(space, [0.5, 0.5, 0.0, 0.0]))
    nc = NormalizedCocycle(cocycle=c, h=h)
    w = point(c.driving, 0)
    mask = nc.support_mask(w)
    assert mask.tolist() == [True, True, False, False]
    one_supp = Density(space, mask.astype(float))
    out = normalized_apply(nc, w, one_supp)
    assert np.allclose(out.density.values, mask.astype(float), atol=1e-10)
    assert out.excluded_mass <= 1e-12


def test_support_defect_half_support_plant():
    c = half_space_cocycle()
    h = build_invariant_density_map(
        c, k_max=8, tol=1e-12,
        f0=Density.from_mass(c.space, [0.5, 0.5, 0.0, 0.0]))
    w = point(c.driving, 0)
    assert support_defect(c, h, w, 0) == pytest.approx(0.5)
    # oracle: enumerate supports of both iterates directly
    kern = np.asarray(compose(c, w, 5).kernel)
    one = np.full(4, 0.25) @ kern
    hh = np.array([0.5, 0.5, 0, 0]) @ kern
    expect = c.space.weights[(one > 1e-9 * one.max())
                             & ~(hh > 1e-9 * hh.max())].sum()
    assert support_defect(c, h, w, 5) == pytest.approx(expect)
    assert expect == pytest.approx(0.5)
