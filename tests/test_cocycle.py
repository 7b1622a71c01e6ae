import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import cocyclelab.cocycle
from cocyclelab.cocycle import (
    CocycleFamily,
    NormalizedCocycle,
    build_invariant_density_map,
    compose,
    invariant_density_pullback,
    kernel_groups,
    orbit,
    orbit_kernels,
    push_kernels,
)
from cocyclelab.driving import (
    DrivingError,
    advance,
    bernoulli_shift,
    finite_permutation,
    finite_rotation,
    point,
    points,
    sample_env,
)
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    apply,
    kernel_matmul,
    mass_apply,
    stored_kernel,
)
from cocyclelab.skew import ProductSet, nu_measure
from cocyclelab.transfer import (
    MapSpec,
    bit_shift_permutation,
    pf_exact,
    pf_ulam,
)
from references import equivariance_residual


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


def test_compose_switches_to_dense_past_the_fill_in_bound(monkeypatch):
    space = make_space(1024)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    w = point(c.driving, 0)
    # doubling^k spreads each row over 2^k cells: CSR up to 32 = 1024 / 32
    # per row, dense from 64 on
    assert isinstance(compose(c, w, 0).kernel, sp.csr_array)
    assert isinstance(compose(c, w, 5).kernel, sp.csr_array)
    assert isinstance(compose(c, w, 6).kernel, np.ndarray)
    # the running product follows the same rule between steps
    running_sparse = []

    def recording(a, b):
        running_sparse.append(sp.issparse(a))
        return kernel_matmul(a, b)

    monkeypatch.setattr(cocyclelab.cocycle, "kernel_matmul", recording)
    K12 = compose(c, w, 12).kernel
    assert running_sparse == [True] * 6 + [False] * 6
    assert isinstance(K12, np.ndarray)
    assert np.all(K12 == 1.0 / 1024)
    # the 2^10-cell baker permutation composed 12 times stays a permutation
    baker = constant_cocycle(pf_exact(MapSpec("baker_cyclic", bits=10), space))
    P12 = compose(baker, point(baker.driving, 0), 12).kernel
    assert isinstance(P12, sp.csr_array) and P12.nnz == 1024
    perm = np.arange(1024)
    for _ in range(12):
        perm = bit_shift_permutation(10)[perm]
    assert np.array_equal(P12.indices, perm)
    assert np.array_equal(P12.data, np.ones(1024))


def test_compose_over_bernoulli_uses_symbol_table():
    space = make_space()
    d = bernoulli_shift([0.5, 0.5])
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
    d = bernoulli_shift([0.5, 0.5])
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    return c, sample_env(d, 1, seed=5)[0]


@pytest.mark.parametrize("kind", ["finite", "bernoulli"])
@pytest.mark.parametrize("n", [0, 7, -7])
def test_orbit_walks_the_driving_both_ways(kind, n):
    c, w = two_operator_cocycle(kind)
    walk = list(orbit(c, w, n))
    assert len(walk) == abs(n) + 1
    step = 1 if n >= 0 else -1
    for k, pt in enumerate(walk):
        assert pt == advance(c.driving, w, step * k)


@pytest.mark.parametrize("n", [0, 7, -7])
def test_orbit_and_a_zero_step_push_resolve_no_symbol(n):
    # the walk yields points only; a kernel is looked up only to step from it
    c, w = two_operator_cocycle("bernoulli")
    assert len(list(orbit(c, w, n))) == abs(n) + 1
    (mass,) = push_kernels(np.ones((2, c.n)), orbit_kernels(c, w, 0))
    assert mass.shape == (2, c.n)
    assert w.stream.cache == {}


def test_a_constant_table_resolves_no_symbol():
    # every feature maps to one kernel, so no step needs the symbol it reads
    P = MarkovMatrix(make_space(), SWAP)
    d = bernoulli_shift([0.5, 0.5])
    c = CocycleFamily(driving=d, table={0: P, 1: P})
    (w,) = sample_env(d, 1, seed=5)
    kernels = orbit_kernels(c, w, 10)
    assert len(kernels) == 10 and all(k is P.kernel for k in kernels)
    assert len(list(push_kernels(np.full(c.n, 0.25), kernels))) == 11
    assert all(c.operator_at(pt) is P for pt in orbit(c, w, 10))
    assert w.stream.cache == {}


@pytest.mark.parametrize("kind", ["finite", "bernoulli"])
def test_orbit_kernels_are_the_first_n_orbit_operators(kind):
    c, w = two_operator_cocycle(kind)
    for n in (0, 1, 6):
        got = orbit_kernels(c, w, n)
        assert len(got) == n
        for t, kernel in enumerate(got):
            assert kernel is c.operator_at(advance(c.driving, w, t)).kernel


@st.composite
def push_case(draw):
    """A random table over a rotation or a Bernoulli shift, a start point,
    one mass row or a stack of rows, and a step count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = FiniteMeasureSpace.uniform(draw(st.integers(2, 6)))
    table = {}
    if draw(st.sampled_from(["rotation", "bernoulli"])) == "rotation":
        d = finite_rotation(draw(st.integers(1, 4)))
        omega = point(d, draw(st.integers(0, d.n_points - 1)))
    else:
        d = bernoulli_shift([0.5, 0.5])
        (omega,) = sample_env(d, 1, draw(st.integers(0, 2**20)))
    for i in range(d.n_features):
        table[i] = random_kernel(space, rng, 0.0)
    rows = draw(st.sampled_from([None, 1, 3]))
    shape = (space.n,) if rows is None else (rows, space.n)
    mass = rng.standard_normal(shape)
    return (CocycleFamily(driving=d, table=table), omega, mass,
            draw(st.integers(0, 12)))


@given(push_case())
def test_prop_pushes_through_orbit_kernels_are_t_explicit_pushes(case):
    c, omega, mass, n = case
    pushes = list(push_kernels(mass, orbit_kernels(c, omega, n)))
    assert len(pushes) == n + 1
    expected = mass
    for t, pushed in enumerate(pushes):
        assert pushed.tobytes() == expected.tobytes()
        pt = advance(c.driving, omega, t)
        expected = mass_apply(expected, c.operator_at(pt).kernel)


@st.composite
def grouping_case(draw):
    """A table of at most two distinct operators (features may share one
    object) over a rotation or a Bernoulli shift, a list of points with
    repeats, and a step count."""
    space = FiniteMeasureSpace.uniform(3)
    ops = [MarkovMatrix(space, np.eye(3)), MarkovMatrix(space, np.eye(3))]
    if draw(st.sampled_from(["rotation", "bernoulli"])) == "rotation":
        d = finite_rotation(draw(st.integers(1, 4)))
        pool = points(d)
    else:
        d = bernoulli_shift([0.5, 0.5])
        pool = sample_env(d, 6, draw(st.integers(0, 2**20)))
    table = {i: ops[draw(st.integers(0, 1))] for i in range(d.n_features)}
    omegas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return CocycleFamily(driving=d, table=table), omegas, draw(st.integers(0, 6))


@given(grouping_case())
def test_prop_kernel_groups_hold_the_points_that_meet_one_operator_sequence(case):
    # the two operators are equal matrices, so only identity tells them apart
    c, omegas, steps = case
    walks, groups = kernel_groups(c, omegas, steps)
    assert [list(w) for w in walks] == [list(orbit(c, w, steps)) for w in omegas]
    assert sorted(i for members in groups.values() for i in members) == list(
        range(len(omegas)))

    def meets(i):
        return [c.operator_at(pt) for pt in walks[i][:steps]]

    for ops, members in groups.items():
        assert members == sorted(members)
        for i in members:
            assert all(a is b for a, b in zip(meets(i), ops, strict=True))
    keys = list(groups)
    for x in range(len(keys)):
        for y in range(x + 1, len(keys)):
            assert not all(a is b for a, b in zip(keys[x], keys[y]))


@pytest.mark.parametrize("kind", ["finite", "bernoulli"])
@pytest.mark.parametrize("stop", [0, 1, 4])
def test_push_kernels_pushes_only_when_asked(monkeypatch, kind, stop):
    c, w = two_operator_cocycle(kind)
    calls = []

    def counting(mass, kernel):
        calls.append(kernel)
        return mass_apply(mass, kernel)

    monkeypatch.setattr(cocyclelab.cocycle, "mass_apply", counting)
    pushes = push_kernels(Density.uniform(c.space).mass, orbit_kernels(c, w, 10))
    for _ in range(stop + 1):
        next(pushes)
    assert len(calls) == stop


WALK_HELPERS = {
    "orbit_kernels": lambda c, w, n: orbit_kernels(c, w, n),
    "kernel_groups": lambda c, w, n: kernel_groups(c, [w], n),
    "compose": lambda c, w, n: compose(c, w, n),
}


@pytest.mark.parametrize("helper", WALK_HELPERS)
@pytest.mark.parametrize("bad", [-1, True, 2.5, None, "3"])
def test_walk_helpers_run_forward_by_an_integer_step_count(monkeypatch, helper, bad):
    # -1 used to give no kernels (orbit_kernels) or walk backward
    # (kernel_groups), True one step; the count is checked before any step
    c, w = two_operator_cocycle("finite")

    def no_step(*args):
        raise AssertionError("advanced the driving")

    monkeypatch.setattr(cocyclelab.cocycle, "advance", no_step)
    with pytest.raises(PreconditionError,
                       match=rf"must be an integer >= 0, got {bad!r}"):
        WALK_HELPERS[helper](c, w, bad)


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_pullback_rejects_a_tolerance_that_certifies_nothing(monkeypatch, tol):
    pushes = []
    monkeypatch.setattr(cocyclelab.cocycle, "mass_apply",
                        lambda mass, kernel: pushes.append(1) or mass_apply(mass, kernel))
    for kind in ("finite", "bernoulli"):
        c, w = two_operator_cocycle(kind)
        with pytest.raises(PreconditionError, match="pullback tol"):
            invariant_density_pullback(c, w, 8, tol=tol)
        with pytest.raises(PreconditionError, match="pullback tol"):
            build_invariant_density_map(c, tol=tol).at(w)
    assert pushes == []
    # tol = 0 stays legal: only an exactly zero increment converges
    c, w = two_operator_cocycle("finite")
    assert invariant_density_pullback(c, w, 8, tol=0.0).steps >= 1


@pytest.mark.parametrize("k_max", [2.5, float("inf"), float("nan"), -1, "8"])
def test_pullback_rejects_a_depth_cap_that_is_not_a_count(monkeypatch, k_max):
    pushes = []
    monkeypatch.setattr(cocyclelab.cocycle, "mass_apply",
                        lambda mass, kernel: pushes.append(1) or mass_apply(mass, kernel))
    for kind in ("finite", "bernoulli"):
        c, w = two_operator_cocycle(kind)
        with pytest.raises(PreconditionError, match="k_max"):
            invariant_density_pullback(c, w, k_max)
        with pytest.raises(PreconditionError, match="k_max"):
            build_invariant_density_map(c, k_max=k_max).at(w)
    assert pushes == []
    # a zero cap and a numpy integer stay legal
    c, w = two_operator_cocycle("finite")
    assert invariant_density_pullback(c, w, 0).steps == 0
    assert invariant_density_pullback(c, w, np.int64(3)).steps >= 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pullback_rejects_a_seed_that_is_not_finite(monkeypatch, bad):
    # a NaN seed used to run to the cap and return a NaN density
    pushes = []
    monkeypatch.setattr(cocyclelab.cocycle, "mass_apply",
                        lambda mass, kernel: pushes.append(1) or mass_apply(mass, kernel))
    for kind in ("finite", "bernoulli"):
        c, w = two_operator_cocycle(kind)
        f0 = Density(c.space, [bad, 1.0, 1.0, 1.0])
        with pytest.raises(PreconditionError, match="finite positive mass"):
            invariant_density_pullback(c, w, 8, f0=f0)
        with pytest.raises(PreconditionError, match="finite positive mass"):
            build_invariant_density_map(c, f0=f0).at(w)
    assert pushes == []


# -- the row-by-row pullback against the bracket loop ----------------------------


def bracket_pullback_reference(c, omega, k_max, f0, tol):
    """The pullback written with an N x N bracket: prepend K(sigma^-k omega)
    to the bracket at every depth and push the seed through it once; a
    constant table pushes the previous depth once more."""
    base = f0.mass
    prev, steps, inc = base, 0, np.inf
    bracket = np.eye(c.n)
    for k in range(1, k_max + 1):
        if c.is_constant:
            cur = mass_apply(prev, next(iter(c.table.values())).kernel)
        else:
            back = c.operator_at(advance(c.driving, omega, -k)).kernel
            bracket = kernel_matmul(back, bracket)
            cur = mass_apply(base, bracket)
        inc = float(np.abs(cur - prev).sum())
        prev, steps = cur, k
        if inc <= tol:
            break
    return Density.from_mass(c.space, prev), steps, inc <= tol


def random_kernel(space, rng, laziness):
    raw = rng.random((space.n, space.n)) + 0.5
    k = raw / raw.sum(axis=1, keepdims=True)
    return MarkovMatrix(space, laziness * np.eye(space.n) + (1 - laziness) * k)


@st.composite
def pullback_case(draw):
    """A cocycle, a start point, a seed, a tolerance and a depth cap up to
    40, so that the walk crosses several blocks of stacked depths: random
    tables over a rotation, a table over a permutation with a 2-cycle and a
    3-cycle started on the 3-cycle, point-dependent and constant tables over
    a Bernoulli shift, and constant tables over a rotation.

    With tol = 0 a depth converges only on an increment of exactly zero,
    which rounding decides, so those cases draw lazy kernels (weight >= 3/4
    on the identity): each push shrinks a zero-mass difference by at most a
    half, and every increment up to depth 40 stays far above rounding.
    With tol = 1e-10 half the draws are half lazy, and those converge at
    depths of about 30, past the first blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([0.0, 1e-10]))
    laziness = (draw(st.floats(0.75, 0.95)) if tol == 0
                else draw(st.sampled_from([0.0, 0.5])))
    space = FiniteMeasureSpace.uniform(draw(st.integers(2, 5)))
    kind = draw(st.sampled_from(["rotation", "permutation", "bernoulli",
                                 "bernoulli-constant", "rotation-constant"]))

    def kernel():
        return random_kernel(space, rng, laziness)

    P = kernel()
    if kind.startswith("rotation"):
        d = finite_rotation(draw(st.integers(1, 3)))
        table = {i: P if kind == "rotation-constant" else kernel()
                 for i in range(d.n_points)}
        omega = point(d, draw(st.integers(0, d.n_points - 1)))
    elif kind == "permutation":
        d = finite_permutation([1, 0, 3, 4, 2])
        table = {i: kernel() for i in range(5)}
        omega = point(d, draw(st.integers(2, 4)))
    else:
        d = bernoulli_shift([0.5, 0.5])
        table = {0: P, 1: kernel() if kind == "bernoulli" else P}
        (omega,) = sample_env(d, 1, draw(st.integers(0, 2**20)))
    f0 = Density.from_mass(space, rng.random(space.n) + 0.1)
    k_max = draw(st.integers(0, 40))
    return CocycleFamily(driving=d, table=table), omega, f0, tol, k_max


def assert_pullback_matches_the_bracket_loop(c, omega, f0, tol, k_max):
    res = invariant_density_pullback(c, omega, k_max, f0, tol)
    ref, steps, converged = bracket_pullback_reference(c, omega, k_max, f0,
                                                       tol)
    assert (res.steps, res.converged) == (steps, converged)
    if c.is_constant:
        assert res.density.mass.tobytes() == ref.mass.tobytes()
    else:
        # depth k rounds at k stacked pushes against k bracket products and
        # one push; each rounding moves at most n eps of the L1 mass of
        # nonnegative rows, and stochastic kernels do not grow the error
        atol = (2 * res.steps + 1) * c.n * np.finfo(float).eps * np.abs(f0.mass).sum()
        np.testing.assert_allclose(res.density.mass, ref.mass, rtol=0,
                                   atol=atol)


@given(pullback_case())
def test_pullback_matches_the_bracket_loop(case):
    c, omega, f0, tol, k_max = case
    assert_pullback_matches_the_bracket_loop(c, omega, f0, tol, k_max)


@pytest.mark.parametrize("seed", [617, 1422])
def test_pullback_matches_the_bracket_loop_at_depth_37(seed):
    # two lazy 4-cell kernels over a fair shift, tol = 0 and depth cap 37:
    # the stacked and the one-row pushes differed here by about 12 ulps
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace.uniform(4)
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                      table={i: random_kernel(space, rng, 0.95) for i in (0, 1)})
    f0 = Density.from_mass(space, rng.random(4) + 0.1)
    (omega,) = sample_env(c.driving, 1, seed)
    assert_pullback_matches_the_bracket_loop(c, omega, f0, 0.0, 37)


def ulam_table(n, laziness=0.0):
    """The doubling and tent Ulam kernels on n uniform cells, each mixed
    with the identity at weight ``laziness``."""
    space = FiniteMeasureSpace.uniform(n)
    return {s: MarkovMatrix(space, laziness * np.eye(n) + (1 - laziness)
                            * pf_ulam(MapSpec(kind), space, 16, s).kernel)
            for s, kind in enumerate(("doubling", "tent"))}


def spy(monkeypatch, name):
    """Record the kernel argument of every call of cocycle's ``name``."""
    seen = []
    real = getattr(cocyclelab.cocycle, name)

    def recording(mass, kernel_or_gathers):
        seen.append(kernel_or_gathers)
        return real(mass, kernel_or_gathers)

    monkeypatch.setattr(cocyclelab.cocycle, name, recording)
    return seen


@pytest.mark.parametrize("tol, laziness, k_max", [(1e-10, 0.0, 64),
                                                  (0.0, 0.75, 30)])
def test_ulam_pullback_gathers_and_matches_the_bracket_loop(
        monkeypatch, tol, laziness, k_max):
    # 256 cells, two inverse branches per map: at most 2 sources per column,
    # 3 with the identity mixed in, within 256 / GATHER_WIDTH_DIVISOR.
    # With tol = 0 the lazy kernels keep every increment above rounding.
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                      table=ulam_table(256, laziness))
    gathered = spy(monkeypatch, "gather_apply")
    f0 = Density.from_mass(c.space, np.random.default_rng(5).random(256) + 0.1)
    (omega,) = sample_env(c.driving, 1, 11)
    assert_pullback_matches_the_bracket_loop(c, omega, f0, tol, k_max)
    forms = [P.column_gathers for P in c.table.values()]
    assert gathered and all(any(g is f for f in forms) for g in gathered)


def test_a_kernel_wider_than_the_gather_cutoff_keeps_the_dense_push(
        monkeypatch):
    thin = ulam_table(256)[0]
    kernel = np.array(thin.kernel)
    kernel[:8] = 0.0  # cells 0..7 spread evenly over cells 0..7
    kernel[:8, :8] = 1 / 8
    wide = MarkovMatrix(thin.space, kernel, exact=False)
    assert wide.column_gathers is None
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                      table={0: thin, 1: wide})
    gathered = spy(monkeypatch, "gather_apply")
    dense_pushed = spy(monkeypatch, "mass_apply")
    f0 = Density.uniform(c.space)
    (omega,) = sample_env(c.driving, 1, 2)
    assert_pullback_matches_the_bracket_loop(c, omega, f0, 1e-10, 64)
    assert gathered and all(g is thin.column_gathers for g in gathered)
    assert dense_pushed and all(k is wide.kernel for k in dense_pushed)


def test_column_gathers_die_with_their_kernel():
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                      table=ulam_table(256))
    h = build_invariant_density_map(c)
    (omega,) = sample_env(c.driving, 1, 3)
    assert h.result_at(omega).converged
    refs = [weakref.ref(P) for P in c.table.values()]
    assert all(r().column_gathers is not None for r in refs)
    del c, h
    gc.collect()
    assert all(r() is None for r in refs)


def test_nu_over_a_proper_part_pulls_back_only_its_points(monkeypatch):
    space = make_space()
    d = finite_rotation(3)
    c = CocycleFamily(driving=d, table={
        0: MarkovMatrix(space, SWAP), 1: MarkovMatrix(space, np.eye(4)),
        2: MarkovMatrix(space, np.full((4, 4), 0.25))})
    pulled = []
    real = cocyclelab.cocycle.invariant_density_pullback

    def counting(c, omega, *args, **kwargs):
        pulled.append(omega.index)
        return real(c, omega, *args, **kwargs)

    monkeypatch.setattr(cocyclelab.cocycle, "invariant_density_pullback",
                        counting)
    nc = NormalizedCocycle(cocycle=c, h=build_invariant_density_map(c))
    nu_measure(nc, ProductSet(cells=[0, 1], env_indices=(0, 2)))
    assert pulled == [0, 2]


def test_invariant_map_equivariance_two_operator_rotation():
    space = FiniteMeasureSpace.uniform(8)
    P0 = pf_exact(MapSpec("doubling"), space)
    k1 = np.tile(np.full(8, 1.0 / 8), (8, 1))
    P1 = MarkovMatrix(space, k1)
    d = finite_rotation(2)
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    h = build_invariant_density_map(c, k_max=32, tol=1e-12)
    pts = [point(d, 0), point(d, 1)]
    assert all(h.result_at(w).converged for w in pts)
    assert equivariance_residual(h, pts) <= 1e-12


def test_invariant_map_over_bernoulli_driving():
    space = FiniteMeasureSpace.uniform(8)
    P0 = pf_exact(MapSpec("doubling"), space)
    k1 = np.tile(np.full(8, 1.0 / 8), (8, 1))
    P1 = MarkovMatrix(space, k1)
    d = bernoulli_shift([0.5, 0.5])
    c = CocycleFamily(driving=d, table={0: P0, 1: P1})
    h = build_invariant_density_map(c, k_max=24, tol=1e-12)
    pts = sample_env(d, 4, seed=21)
    assert all(h.result_at(w).converged for w in pts)
    assert equivariance_residual(h, pts) <= 1e-10


def test_normalized_cocycle_planted_fixed_density():
    # rank-one kernel absorbs everything into a non-uniform fixed density u
    space = make_space()
    u_mass = np.array([0.4, 0.3, 0.2, 0.1])
    c = constant_cocycle(rank_one(space, u_mass))
    h = build_invariant_density_map(c, k_max=8, tol=1e-12)
    nc = NormalizedCocycle(cocycle=c, h=h)
    w = point(c.driving, 0)
    assert nc.h.result_at(w).converged
    assert np.allclose(nc.h.at(w).mass, u_mass, atol=1e-12)


def test_normalized_cocycle_rejects_a_density_map_of_another_cocycle():
    # the shift's density map holds the uniform density; the collapse's holds
    # a point mass at cell 0, which the shift does not keep
    space = make_space()
    shift = constant_cocycle(
        MarkovMatrix(space, np.roll(np.eye(4), 1, axis=1)))
    collapse = constant_cocycle(rank_one(space, [1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(PreconditionError, match="another cocycle"):
        NormalizedCocycle(cocycle=shift,
                          h=build_invariant_density_map(collapse))
    # a copy of the cocycle has its own driving, whose points the map caches
    twin = constant_cocycle(shift.operator_at(point(shift.driving, 0)))
    with pytest.raises(PreconditionError, match="another cocycle"):
        NormalizedCocycle(cocycle=shift, h=build_invariant_density_map(twin))
    nc = NormalizedCocycle(cocycle=shift, h=build_invariant_density_map(shift))
    assert nc.h.cocycle is shift


@pytest.mark.parametrize("other", [finite_rotation(3), finite_rotation(2)])
def test_points_of_another_driving_are_rejected(other):
    # a point of another rotation, even one with the same number of points,
    # does not belong to this cocycle's driving
    space = make_space()
    c = constant_cocycle(MarkovMatrix(space, SWAP), q=2)
    omega = point(other, 1)
    with pytest.raises(DrivingError):
        compose(c, omega, 3)
    with pytest.raises(DrivingError):
        invariant_density_pullback(c, omega, k_max=4)


def test_compose_identity_is_the_stored_eye():
    for n in (8, 1024):
        c = constant_cocycle(pf_exact(MapSpec("doubling"), make_space(n)))
        got = compose(c, point(c.driving, 0), 0).kernel
        ref = stored_kernel(sp.eye_array(n, format="csr"))
        # below 512 cells dense, from there on the CSR arrays of sp.eye_array
        assert type(got) is type(ref)
        if sp.issparse(ref):
            assert all(getattr(got, a).tobytes() == getattr(ref, a).tobytes()
                       and getattr(got, a).dtype == getattr(ref, a).dtype
                       for a in ("indptr", "indices", "data"))
        else:
            assert got.tobytes() == ref.tobytes()
