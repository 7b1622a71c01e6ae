"""Tests for skew-product measures, mixing curves, and invariance.

Hand-computed oracles on the 8-cell doubling kernel with the uniform fiber
density: the left-half indicator's mass spreads uniformly after one step, so
the fiber correlation curve reads 1/2, 1/4, 1/4, ...  With single-coordinate
cylinder parts {0: 0} and {0: 1} on a fair two-symbol shift, the environment
factor reads 0, 1/4, 1/4, ... and factorizes exactly from n = 1 on.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cocyclelab.cocycle
import cocyclelab.exactness
import cocyclelab.measure
import cocyclelab.skew
from cocyclelab.cli import main
from cocyclelab.cocycle import (
    CocycleFamily,
    NormalizedCocycle,
    build_invariant_density_map,
    orbit,
)
from cocyclelab.driving import (
    BERNOULLI,
    bernoulli_shift,
    cylinder_probability,
    finite_permutation,
    finite_rotation,
    intersect_constraints,
    point,
    points,
    sample_env,
    shifted_constraints,
)
from cocyclelab.exactness import exactness_norms, tail_partition
from cocyclelab.measure import (
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    mass_apply,
)
from cocyclelab.mixing import zero_mean_basis
from cocyclelab.skew import (
    InvarianceReport,
    NuResult,
    ProductSet,
    constraints_satisfied,
    env_probability,
    nu_measure,
    set_picture_joint,
    skew_mixing_curve,
    theta_invariance,
)
from cocyclelab.transfer import MapSpec, pf_exact

UNIFORMIZER4 = np.full((4, 4), 0.25)


def normalized(c, **kw):
    return NormalizedCocycle(cocycle=c, h=build_invariant_density_map(c, **kw))


def doubling_nc(n_cells=8, q=1):
    space = FiniteMeasureSpace.uniform(n_cells)
    P = pf_exact(MapSpec("doubling"), space)
    c = CocycleFamily(driving=finite_rotation(q),
                      table={i: P for i in range(q)})
    return normalized(c)


def bernoulli_nc(table_kernels, probs=(0.5, 0.5)):
    space = FiniteMeasureSpace.uniform(table_kernels[0].shape[0])
    ops = {}
    table = {}
    for i, k in enumerate(table_kernels):
        # share the operator object when the kernel array is shared, so the
        # cocycle is recognized as having a constant table
        if id(k) not in ops:
            ops[id(k)] = MarkovMatrix(space, k)
        table[i] = ops[id(k)]
    c = CocycleFamily(driving=bernoulli_shift(list(probs)), table=table)
    return normalized(c)


# -- product sets and nu -------------------------------------------------------


def test_product_set_validation_and_normalization():
    ps = ProductSet(cells=[3, 1, 1, 2], env_indices=[2, 0, 2])
    assert ps.cells.tolist() == [1, 2, 3]
    assert ps.env_indices == (0, 2)
    with pytest.raises(ValueError):
        ProductSet(cells=[0], env_indices=(0,), env_constraints={0: 1})
    with pytest.raises(ValueError):
        ProductSet(cells=[])


def test_env_probability_exact():
    rot = finite_rotation(4)
    assert env_probability(rot, ProductSet(cells=[0], env_indices=(1, 3))) == 0.5
    assert env_probability(rot, ProductSet(cells=[0])) == 1.0
    bern = bernoulli_shift([0.25, 0.75])
    ps = ProductSet(cells=[0], env_constraints={2: 1, 5: 0})
    assert env_probability(bern, ps) == 0.75 * 0.25
    with pytest.raises(PreconditionError):
        env_probability(bern, ProductSet(cells=[0], env_indices=(0,)))
    with pytest.raises(PreconditionError):
        env_probability(rot, ProductSet(cells=[0], env_constraints={0: 0}))


def test_nu_finite_sum_uniform_density():
    nc = doubling_nc(8, q=4)
    res = nu_measure(nc, ProductSet(cells=[0], env_indices=(1, 3)))
    assert isinstance(res, NuResult)
    assert res.exact and res.method == "finite-sum" and res.h_converged
    assert res.value == pytest.approx(0.5 * (1 / 8), abs=1e-15)


def test_nu_cylinder_product_constant_table():
    space = FiniteMeasureSpace.uniform(8)
    P = pf_exact(MapSpec("doubling"), space)
    nc = bernoulli_nc([P.kernel, P.kernel])
    ps = ProductSet(cells=range(4), env_constraints={2: 1, 5: 0})
    res = nu_measure(nc, ps)
    assert res.exact and res.method == "cylinder-product"
    assert res.value == pytest.approx(0.25 * 0.5, abs=1e-15)


def test_nu_monte_carlo_point_dependent_table():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    nc = bernoulli_nc([P.kernel, UNIFORMIZER4])
    with pytest.raises(PreconditionError):
        nu_measure(nc, ProductSet(cells=[0]))
    # full product set: every sample contributes exactly 1
    res = nu_measure(nc, ProductSet(cells=range(4)), mc_samples=64, seed=3)
    assert not res.exact and res.method == "monte-carlo"
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.stderr == pytest.approx(0.0, abs=1e-12)
    # constrained env part: estimate within sampling error of 1/2
    half = nu_measure(nc, ProductSet(cells=range(4), env_constraints={0: 0}),
                      mc_samples=400, seed=11)
    assert abs(half.value - 0.5) <= 5 * half.stderr


def test_nu_rejects_out_of_range_cells():
    nc = doubling_nc(8)
    with pytest.raises(PreconditionError):
        nu_measure(nc, ProductSet(cells=[7, 8]))


# -- mixing curves --------------------------------------------------------------


def test_skew_curve_finite_exact_frozen():
    nc = doubling_nc(8)
    left = ProductSet(cells=range(4))
    rep = skew_mixing_curve(nc, left, left, horizon=6, tol=1e-12)
    assert rep.method == "finite-sum" and rep.h_converged
    assert rep.joint.tolist() == [0.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25]
    assert rep.product == pytest.approx(0.25, abs=1e-15)
    assert rep.decayed
    assert not rep.driving_not_mixing


def test_skew_curve_rotation_env_factor_blocks_mixing():
    nc = doubling_nc(8, q=2)
    a = ProductSet(cells=range(8), env_indices=(0,))
    rep = skew_mixing_curve(nc, a, a, horizon=8, tol=1e-9)
    assert rep.driving_not_mixing
    assert not rep.decayed
    # the joint measure oscillates with the rotation phase
    assert rep.joint.tolist() == pytest.approx(
        [0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5], abs=1e-15)
    assert rep.product == pytest.approx(0.25, abs=1e-15)


def test_skew_curve_cylinder_exact_frozen():
    space = FiniteMeasureSpace.uniform(8)
    P = pf_exact(MapSpec("doubling"), space)
    nc = bernoulli_nc([P.kernel, P.kernel])
    a = ProductSet(cells=range(4), env_constraints={0: 0})
    b = ProductSet(cells=range(4), env_constraints={0: 1})
    rep = skew_mixing_curve(nc, a, b, horizon=6, tol=1e-12)
    assert rep.method == "cylinder-product"
    assert rep.factorizes_from == 1
    assert rep.env_factor.tolist() == [0.0] + [0.25] * 6
    assert rep.joint.tolist() == pytest.approx(
        [0.0] + [1 / 16] * 6, abs=1e-15)
    assert rep.product == pytest.approx(1 / 16, abs=1e-15)
    assert rep.decayed and not rep.driving_not_mixing


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_skew_curve_rejects_a_pullback_tolerance_that_certifies_nothing(tol):
    # with tol = inf the first pullback step would certify h_converged
    P = pf_exact(MapSpec("doubling"), FiniteMeasureSpace.uniform(8))
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]), table={0: P, 1: P})
    a = ProductSet(cells=range(4), env_constraints={0: 0})
    with pytest.raises(PreconditionError, match="pullback tol"):
        skew_mixing_curve(NormalizedCocycle(c, build_invariant_density_map(
            c, tol=tol)), a, a, horizon=4, tol=1e-9)


def test_skew_cylinder_env_factorizes_past_width():
    bern = bernoulli_shift([0.5, 0.5])
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    nc = bernoulli_nc([P.kernel, P.kernel])
    a = ProductSet(cells=[0, 1], env_constraints={0: 0, 2: 1})
    b = ProductSet(cells=[0, 1], env_constraints={0: 1, 1: 1})
    rep = skew_mixing_curve(nc, a, b, horizon=8, tol=1e-9)
    pa, pb = env_probability(bern, a), env_probability(bern, b)
    assert rep.factorizes_from == 2  # max B coord 1, min A coord 0
    for n in range(rep.factorizes_from, 9):
        assert rep.env_factor[n] == pa * pb  # exact equality
    assert rep.env_factor[0] == 0.0  # {0:0} conflicts with {0:1}


def test_skew_curve_monte_carlo_matches_nu_at_zero():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    nc = bernoulli_nc([P.kernel, UNIFORMIZER4])
    left = [0, 1]
    a = ProductSet(cells=left, env_constraints={0: 0})
    b = ProductSet(cells=left)
    rep = skew_mixing_curve(nc, a, b, horizon=5, tol=1e-3,
                            mc_samples=128, seed=21)
    assert rep.method == "monte-carlo"
    assert rep.stderr is not None and rep.stderr.shape == rep.joint.shape
    # same samples, same h cache: n = 0 equals nu(A and B) estimated by MC
    inter = ProductSet(cells=left, env_constraints={0: 0})
    nu0 = nu_measure(nc, inter, mc_samples=128, seed=21)
    assert rep.joint[0] == pytest.approx(nu0.value, abs=1e-15)
    with pytest.raises(PreconditionError):
        skew_mixing_curve(nc, a, b, horizon=5, tol=1e-3)


def monte_carlo_loop(nc, a, b, horizon, mc_samples, seed):
    """Reference curve: one environment point at a time, one fibre state
    pushed one step kernel at a time.  Finite driving weights every point by
    its probability (no standard error); Bernoulli driving averages a
    Monte-Carlo sample."""
    c = nc.cocycle
    d = c.driving
    if d.kind == BERNOULLI:
        omegas = sample_env(d, mc_samples, seed)

        def inside(w, s):
            return constraints_satisfied(w, s.env_constraints)
    else:
        omegas = points(d)

        def inside(w, s):
            return s.env_indices is None or w.index in s.env_indices
    per = np.zeros((len(omegas), horizon + 1))
    for i, w in enumerate(omegas):
        if not inside(w, b):
            continue
        state = np.zeros(c.n)
        state[b.cells] = nc.h.at(w).mass[b.cells]
        for n, pt in enumerate(orbit(c, w, horizon)):
            if inside(pt, a):
                per[i, n] = state[a.cells].sum()
            if n < horizon:
                state = mass_apply(state, c.operator_at(pt).kernel)
    if d.kind != BERNOULLI:
        return sum(p * row for p, row in zip(d.probs, per)), None
    return per.mean(axis=0), per.std(axis=0, ddof=1) / np.sqrt(mc_samples)


@st.composite
def product_set(draw, n, q=None):
    """Cells of an n-cell fibre times cylinder constraints of a two-symbol
    shift, or, given q, point indices of a q-point driving."""
    cells = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    if q is not None:
        idx = draw(st.none() | st.lists(st.integers(0, q - 1), max_size=q))
        return ProductSet(cells=cells, env_indices=idx)
    cons = draw(st.dictionaries(st.integers(-2, 3), st.integers(0, 1),
                                max_size=2))
    return ProductSet(cells=cells, env_constraints=cons or None)


def random_kernels(seed, n, count=2):
    rng = np.random.default_rng(seed)
    raw = (rng.random((count, n, n)) * (rng.random((count, n, n)) < 0.6)
           + np.eye(n))
    return [k / k.sum(axis=1, keepdims=True) for k in raw]


def cell_map_kernels(seed, n, count=2):
    """Random 0/1 kernels: each cell moves whole onto one random cell."""
    rng = np.random.default_rng(seed)
    kernels = np.zeros((count, n, n))
    for k, dest in zip(kernels, rng.integers(0, n, (count, n))):
        k[np.arange(n), dest] = 1.0
    return list(kernels)


@st.composite
def finite_nc(draw, n, kernels=random_kernels):
    """A q-point rotation, or q fixed points with random probabilities, with
    a table alternating two random kernels."""
    q = draw(st.integers(1, 5))
    if draw(st.booleans()):
        d = finite_rotation(q)
    else:
        p = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(q)
        d = finite_permutation(np.arange(q), p / p.sum())
    space = FiniteMeasureSpace.uniform(n)
    ops = [MarkovMatrix(space, k)
           for k in kernels(draw(st.integers(0, 2**32 - 1)), n)]
    return normalized(CocycleFamily(driving=d,
                                    table={i: ops[i % 2] for i in range(q)}))


@given(st.integers(2, 8).flatmap(
           lambda n: st.tuples(st.just(n), product_set(n), product_set(n))),
       st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(2, 24),
       st.integers(0, 2**20))
def test_monte_carlo_curve_matches_the_per_sample_loop(sets, kernel_seed,
                                                       horizon, mc_samples,
                                                       seed):
    n, a, b = sets
    nc = bernoulli_nc(random_kernels(kernel_seed, n))
    rep = skew_mixing_curve(nc, a, b, horizon, 1e-3, mc_samples=mc_samples,
                            seed=seed)
    joint, stderr = monte_carlo_loop(nc, a, b, horizon, mc_samples, seed)
    assert rep.method == "monte-carlo"
    np.testing.assert_allclose(rep.joint, joint, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rep.stderr, stderr, rtol=0, atol=1e-15)


@given(st.data(), st.integers(2, 8), st.integers(0, 12))
def test_finite_curve_matches_the_per_point_loop(data, n, horizon):
    nc = data.draw(finite_nc(n))
    q = nc.cocycle.driving.n_points
    a, b = (data.draw(product_set(n, q)) for _ in range(2))
    rep = skew_mixing_curve(nc, a, b, horizon, 1e-3)
    joint, _ = monte_carlo_loop(nc, a, b, horizon, 0, 0)
    assert rep.method == "finite-sum" and rep.stderr is None
    np.testing.assert_allclose(rep.joint, joint, rtol=0, atol=1e-15)


ROUTES = ("finite-sum", "cylinder-product", "monte-carlo")


@given(st.data(), st.sampled_from(ROUTES), st.integers(2, 6),
       st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(0, 2**20))
def test_nu_and_invariance_are_readings_of_the_joint_measure(
        data, route, n, kernel_seed, mc_samples, seed):
    # nu(A) is the joint measure of A against the whole space at n = 0, and
    # nu(Theta^-1 A) the same reading at n = 1
    if route == "finite-sum":
        nc = data.draw(finite_nc(n))
        q = nc.cocycle.driving.n_points
    else:
        kernels = random_kernels(kernel_seed, n)
        probs = data.draw(st.sampled_from([(0.5, 0.5), (0.3, 0.7)]))
        nc = bernoulli_nc(kernels if route == "monte-carlo" else kernels[:1] * 2,
                          probs)
        q = None
    a, b = (data.draw(product_set(n, q)) for _ in range(2))
    whole = ProductSet(cells=range(n))
    kw = dict(mc_samples=mc_samples, seed=seed)
    rep = skew_mixing_curve(nc, a, b, 3, 1e-3, **kw)
    nu_a, nu_b = (nu_measure(nc, s, **kw) for s in (a, b))
    assert rep.method == nu_a.method == route
    assert rep.product == nu_a.value * nu_b.value
    for s, nu in ((a, nu_a), (b, nu_b)):
        reading = skew_mixing_curve(nc, s, whole, 1, 1e-3, **kw).joint
        assert abs(nu.value - reading[0]) <= 1e-15
        residual = theta_invariance(nc, [s], **kw).per_set[0]
        if route == "cylinder-product":
            assert residual == abs(reading[1] - reading[0])
        else:
            assert abs(residual - abs(reading[1] - reading[0])) <= 1e-15


@pytest.mark.parametrize("route", ["finite-sum", "cylinder-product",
                                   "monte-carlo"])
@pytest.mark.parametrize("horizon, tol", [(-1, 1e-3), (5, float("nan")),
                                          (5, float("inf")), (5, 0.0),
                                          (5, -1e-3)])
def test_skew_curve_rejects_a_bad_horizon_or_tol(monkeypatch, route, horizon,
                                                 tol):
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    nc = {"finite-sum": lambda: doubling_nc(4, q=2),
          "cylinder-product": lambda: bernoulli_nc([P.kernel, P.kernel]),
          "monte-carlo": lambda: bernoulli_nc([P.kernel, UNIFORMIZER4])}[route]()

    def no_walk(*args, **kwargs):
        raise AssertionError("walked an orbit")

    for name in ("invariant_density_pullback", "orbit"):
        monkeypatch.setattr(cocyclelab.cocycle, name, no_walk)
    monkeypatch.setattr(cocyclelab.skew, "orbit", no_walk)
    s = ProductSet(cells=[0, 1])
    with pytest.raises(PreconditionError, match="horizon" if horizon < 0
                       else "tol"):
        skew_mixing_curve(nc, s, s, horizon, tol, mc_samples=8, seed=1)


def test_skew_curve_takes_samples_and_seed_by_keyword_only():
    # a positional call cannot read a seed as a sample count
    s = ProductSet(cells=[0, 1])
    with pytest.raises(TypeError, match="positional"):
        skew_mixing_curve(doubling_nc(4, q=2), s, s, 5, 1e-3, 8, 1)


# -- set picture -----------------------------------------------------------------


def test_set_picture_matches_operator_route_finite():
    # point-dependent cell maps: a bit-shift permutation and a pair collapse
    space = FiniteMeasureSpace.uniform(4)
    perm = pf_exact(MapSpec("baker_cyclic", bits=2), space)
    collapse = np.zeros((4, 4))
    collapse[np.arange(4), np.arange(4) // 2] = 1.0
    c = CocycleFamily(driving=finite_rotation(2),
                      table={0: perm, 1: MarkovMatrix(space, collapse)})
    nc = normalized(c, k_max=32)
    a = ProductSet(cells=[0, 2], env_indices=(0,))
    b = ProductSet(cells=[0, 1])
    rep = skew_mixing_curve(nc, a, b, horizon=6, tol=1e-9)
    direct = set_picture_joint(nc, a, b, horizon=6)
    assert rep.joint == pytest.approx(direct.tolist(), abs=1e-12)


def test_set_picture_matches_cylinder_route():
    space = FiniteMeasureSpace.uniform(4)
    perm = pf_exact(MapSpec("baker_cyclic", bits=2), space)
    nc = bernoulli_nc([perm.kernel, perm.kernel])
    a = ProductSet(cells=[0, 1], env_constraints={0: 0})
    b = ProductSet(cells=[1, 3], env_constraints={1: 1})
    rep = skew_mixing_curve(nc, a, b, horizon=8, tol=1e-9)
    direct = set_picture_joint(nc, a, b, horizon=8)
    assert rep.joint == pytest.approx(direct.tolist(), abs=1e-15)


def set_picture_loop(nc, a, b, horizon):
    """The set picture written out plainly: per point of E_B, compose the
    step destinations (read off the 0/1 kernels by argmax) one at a time;
    bernoulli driving takes the probe point times the cylinder factor."""
    c = nc.cocycle
    d = c.driving
    in_a, in_b = (np.isin(np.arange(c.n), s.cells) for s in (a, b))
    joint = np.zeros(horizon + 1)
    if d.kind == BERNOULLI:
        step = np.argmax(c.table[0].kernel, axis=1)
        h_mass = nc.h.at(sample_env(d, 1, 0)[0]).mass
        dest = np.arange(c.n)
        for n in range(horizon + 1):
            merged = intersect_constraints(
                shifted_constraints(a.env_constraints or {}, n),
                b.env_constraints or {})
            env = 0.0 if merged is None else cylinder_probability(d, merged)
            joint[n] = env * h_mass[in_b & in_a[dest]].sum()
            dest = step[dest]
        return joint
    for p in range(d.n_points):
        if b.env_indices is not None and p not in b.env_indices:
            continue
        h_mass = nc.h.at(point(d, p)).mass
        dest, at = np.arange(c.n), p
        for n in range(horizon + 1):
            if a.env_indices is None or at in a.env_indices:
                joint[n] += d.probs[p] * h_mass[in_b & in_a[dest]].sum()
            dest = np.argmax(c.table[at].kernel, axis=1)[dest]
            at = int(d.sigma[at])
    return joint


@given(st.data(), st.booleans(), st.integers(2, 8), st.integers(0, 2**32 - 1),
       st.integers(0, 12))
def test_set_picture_matches_the_per_point_destination_loop(
        data, finite, n, kernel_seed, horizon):
    if finite:
        nc = data.draw(finite_nc(n, cell_map_kernels))
        q = nc.cocycle.driving.n_points
    else:
        probs = data.draw(st.sampled_from([(0.5, 0.5), (0.3, 0.7)]))
        nc = bernoulli_nc(cell_map_kernels(kernel_seed, n, 1) * 2, probs)
        q = None
    a, b = (data.draw(product_set(n, q)) for _ in range(2))
    joint = set_picture_joint(nc, a, b, horizon)
    assert joint.tobytes() == set_picture_loop(nc, a, b, horizon).tobytes()
    operator = skew_mixing_curve(nc, a, b, horizon, 1e-3).joint
    np.testing.assert_allclose(joint, operator, rtol=0, atol=1e-12)


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function in every cocyclelab module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("cocyclelab"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def test_cell_map_walk_and_mass_pushes_stay_apart(monkeypatch):
    # the tail route and the set picture push no mass; the norm route and
    # the operator picture compose no cell maps
    space = FiniteMeasureSpace.uniform(4)
    perm = pf_exact(MapSpec("baker_cyclic", bits=2), space)
    collapse = np.zeros((4, 4))
    collapse[np.arange(4), np.arange(4) // 2] = 1.0
    finite = normalized(CocycleFamily(driving=finite_rotation(2), table={
        0: perm, 1: MarkovMatrix(space, collapse)}), k_max=32)
    cylinder = bernoulli_nc([perm.kernel, perm.kernel])
    a = ProductSet(cells=[0, 2])
    b = ProductSet(cells=[0, 1])
    w = point(finite.cocycle.driving, 0)
    # the set picture reads h, whose pullback pushes mass: pull it back first
    pictures = [set_picture_joint(nc, a, b, 6) for nc in (finite, cylinder)]
    counts = tail_partition(finite.cocycle, w, 6).atom_counts

    def forbidden(*args, **kwargs):
        raise AssertionError("called a route it must stay apart from")

    with monkeypatch.context() as m:
        for original in (cocyclelab.measure.mass_apply,
                         cocyclelab.cocycle.push_kernels,
                         cocyclelab.cocycle.orbit_kernels):
            patch_everywhere(m, original, forbidden)
        for nc, joint in zip((finite, cylinder), pictures):
            assert set_picture_joint(nc, a, b, 6).tobytes() == joint.tobytes()
        assert tail_partition(finite.cocycle, w, 6).atom_counts.tolist() == (
            counts.tolist())
    patch_everywhere(monkeypatch, cocyclelab.exactness.cell_map_orbit, forbidden)
    exactness_norms(finite.cocycle, w, zero_mean_basis(space), 6)
    for nc in (finite, cylinder):
        skew_mixing_curve(nc, a, b, 6, 1e-3)


def test_set_picture_rejects_fractional_kernels():
    nc = doubling_nc(8)
    left = ProductSet(cells=range(4))
    with pytest.raises(PreconditionError, match="fractional entries"):
        set_picture_joint(nc, left, left, horizon=3)


@pytest.mark.parametrize("horizon", [0, 1])
def test_cell_map_routes_reject_a_fractional_table_at_every_horizon(horizon):
    # at horizon 0 the walk resolves no kernel, and both routes used to
    # answer there (one atom count of 4, a joint curve [0.5])
    space = FiniteMeasureSpace.uniform(4)
    nc = normalized(CocycleFamily(driving=finite_rotation(1), table={
        0: MarkovMatrix(space, UNIFORMIZER4)}))
    half = ProductSet(cells=[0, 1])
    with pytest.raises(PreconditionError, match="fractional entries"):
        tail_partition(nc.cocycle, point(nc.cocycle.driving, 0), horizon)
    with pytest.raises(PreconditionError, match="fractional entries"):
        set_picture_joint(nc, half, half, horizon)


@pytest.mark.parametrize("horizon", [-1, -4])
def test_set_picture_rejects_a_negative_horizon_before_walking(monkeypatch,
                                                               horizon):
    # -1 used to end in a bare IndexError
    space = FiniteMeasureSpace.uniform(4)
    nc = normalized(CocycleFamily(driving=finite_rotation(2), table={
        0: MarkovMatrix(space, np.eye(4)), 1: MarkovMatrix(space, np.eye(4)[::-1])}))

    def no_walk(*args, **kwargs):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(cocyclelab.skew, "cell_map_orbit", no_walk)
    s = ProductSet(cells=[0, 1])
    with pytest.raises(PreconditionError,
                       match=f"horizon must be an integer >= 0, got {horizon}"):
        set_picture_joint(nc, s, s, horizon)


# -- invariance ------------------------------------------------------------------


def test_theta_invariance_exact_finite():
    nc = doubling_nc(8, q=2)
    sets = [ProductSet(cells=range(4), env_indices=(0,)),
            ProductSet(cells=[0]),
            ProductSet(cells=range(8), env_indices=(1,))]
    rep = theta_invariance(nc, sets)
    assert isinstance(rep, InvarianceReport)
    assert rep.exact and rep.h_converged
    assert rep.residual <= 1e-12


def test_theta_invariance_two_operator_rotation():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    Q = MarkovMatrix(space, UNIFORMIZER4)
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: Q})
    rep = theta_invariance(normalized(c), [ProductSet(cells=[0, 3]),
                                           ProductSet(cells=[1])])
    assert rep.exact
    assert rep.residual <= 1e-10


def test_theta_invariance_rejects_an_empty_set_list(monkeypatch):
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    nc = normalized(CocycleFamily(driving=finite_rotation(2),
                                  table={0: P, 1: P}))

    def no_pullback(*args, **kwargs):
        raise AssertionError("pulled back a fibre density")

    monkeypatch.setattr(cocyclelab.cocycle, "invariant_density_pullback",
                        no_pullback)
    with pytest.raises(PreconditionError, match="at least one product set"):
        theta_invariance(nc, [])


def test_theta_invariance_cylinder_and_monte_carlo():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    const = bernoulli_nc([P.kernel, P.kernel])
    sets = [ProductSet(cells=[0, 1], env_constraints={0: 0})]
    rep = theta_invariance(const, sets)
    assert rep.exact and rep.residual <= 1e-12

    varying = bernoulli_nc([P.kernel, UNIFORMIZER4])
    with pytest.raises(PreconditionError):
        theta_invariance(varying, sets)
    mc = theta_invariance(varying, sets, mc_samples=400, seed=5)
    assert not mc.exact and mc.stderr is not None
    # the env indicator is read at omega directly but at sigma(omega) after the
    # pullback, so the two terms only cancel in expectation: statistical bound
    assert mc.residual <= 5 * max(mc.stderr, 1e-12)
    # a full env set pairs the same uniform fiber mass on both sides: exact 0
    full = theta_invariance(varying, [ProductSet(cells=[0, 1])],
                            mc_samples=32, seed=7)
    assert full.residual <= 1e-12


# -- environment parts checked against the driving ---------------------------------

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# case -> (routes it reaches, environment part, words of the error)
BAD_ENV_PARTS = {
    "indices-on-bernoulli": (("cylinder-product", "monte-carlo"),
                             {"env_indices": (0,)}, "cylinder constraints"),
    "constraints-on-finite": (("finite-sum",), {"env_constraints": {0: 1}},
                              "point indices"),
    "index-past-the-end": (("finite-sum",), {"env_indices": (5,)},
                           r"point indices \[5\] do not all lie in 0\.\.1"),
    "negative-index": (("finite-sum",), {"env_indices": (-1,)},
                       r"point indices \[-1\] do not all lie in 0\.\.1"),
    "symbol-outside-alphabet": (("cylinder-product", "monte-carlo"),
                                {"env_constraints": {0: 1, 3: 2}},
                                r"symbols \[2\] lie outside the alphabet 0\.\.1"),
}

GOOD_SET = ProductSet(cells=[0, 1])

# public function -> call with the bad set; each takes it on every route
BAD_SET_CALLERS = {
    "env_probability": lambda nc, s: env_probability(nc.cocycle.driving, s),
    "nu_measure": lambda nc, s: nu_measure(nc, s, mc_samples=8, seed=1),
    "skew_mixing_curve-a": lambda nc, s: skew_mixing_curve(
        nc, s, GOOD_SET, 3, 1e-3, mc_samples=8, seed=1),
    "skew_mixing_curve-b": lambda nc, s: skew_mixing_curve(
        nc, GOOD_SET, s, 3, 1e-3, mc_samples=8, seed=1),
    "set_picture_joint-a": lambda nc, s: set_picture_joint(nc, s, GOOD_SET, 3),
    "set_picture_joint-b": lambda nc, s: set_picture_joint(nc, GOOD_SET, s, 3),
    "theta_invariance": lambda nc, s: theta_invariance(
        nc, [GOOD_SET, s], mc_samples=8, seed=1),
}


def route_nc(route):
    """A 4-cell doubling cocycle on the given route: a two-point rotation,
    or a fair two-symbol shift with a constant or point-dependent table."""
    P = pf_exact(MapSpec("doubling"), FiniteMeasureSpace.uniform(4))
    if route == "finite-sum":
        return doubling_nc(4, q=2)
    if route == "cylinder-product":
        return bernoulli_nc([P.kernel, P.kernel])
    return bernoulli_nc([P.kernel, UNIFORMIZER4])


@pytest.mark.parametrize("caller", BAD_SET_CALLERS)
@pytest.mark.parametrize("case, route", [
    (case, route) for case, (routes, _, _) in BAD_ENV_PARTS.items()
    for route in routes])
def test_bad_environment_part_is_rejected_before_any_work(monkeypatch, case,
                                                          route, caller):
    _, env, words = BAD_ENV_PARTS[case]
    nc = route_nc(route)

    def no_pullback(*args, **kwargs):
        raise AssertionError("pulled back a fibre density")

    monkeypatch.setattr(cocyclelab.cocycle, "invariant_density_pullback",
                        no_pullback)
    with pytest.raises(PreconditionError, match=words):
        BAD_SET_CALLERS[caller](nc, ProductSet(cells=[0, 1], **env))


def test_full_and_proper_environment_parts_on_a_rotation():
    nc = doubling_nc(4, q=2)
    whole = ProductSet(cells=[0, 1], env_indices=(0, 1))
    assert env_probability(nc.cocycle.driving, whole) == 1.0
    rep = skew_mixing_curve(nc, whole, whole, horizon=4, tol=1e-9)
    assert not rep.driving_not_mixing
    assert rep.joint.tolist() == skew_mixing_curve(
        nc, GOOD_SET, GOOD_SET, horizon=4, tol=1e-9).joint.tolist()
    nobody = ProductSet(cells=[0, 1], env_indices=())
    rep = skew_mixing_curve(nc, nobody, whole, horizon=4, tol=1e-9)
    assert rep.driving_not_mixing and rep.joint.tolist() == [0.0] * 5
    assert nu_measure(nc, nobody).value == 0.0


@pytest.mark.parametrize("scenario, env, words", [
    ("bernoulli_doubling.yaml", "env_indices: [0]", "cylinder constraints"),
    ("bernoulli_doubling.yaml", "env_constraints: {0: 2}", "alphabet 0..1"),
    ("rotation_two_ops.yaml", "env_constraints: {0: 1}", "point indices"),
    ("rotation_two_ops.yaml", "env_indices: [5]", "[5] do not all lie in 0..1"),
    ("rotation_two_ops.yaml", "env_indices: [-1]", "[-1] do not all lie"),
])
def test_cli_skew_bad_environment_part_exits_two(tmp_path, capsys, scenario,
                                                 env, words):
    # the bad part is the second pair's, so the first pair's curve has been
    # computed when the error comes
    sets = tmp_path / "sets.yaml"
    sets.write_text("sets:\n"
                    "  - {id: ok, a: {cells: [0]}, b: {cells: [1]}}\n"
                    f"  - {{id: bad, a: {{cells: [0], {env}}},\n"
                    "      b: {cells: [1]}}\n")
    out = tmp_path / "skew.csv"
    assert main(["run-skew", "--scenario", str(SCENARIOS / scenario),
                 "--sets", str(sets), "--horizon", "4",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert words in err
    assert not out.exists()
