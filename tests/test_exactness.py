"""Tests for the exactness routes: norm decay, adjoint-orbit flattening, and
preimage-partition coarsening.

Hand-computed oracles: on the 8-cell dyadic doubling kernel the composed
kernel reaches the rank-one uniform kernel at step 3, so the cell-0 column
spread reads 1, 1/2, 1/4, 0, ... and adjacent-difference norms read
1, 1, 1, 0, ...  The pair-collapse map i -> i // 2 on 8 cells coarsens its
preimage partition as 8, 4, 2, 1.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import cocyclelab.exactness
from cocyclelab.cocycle import (
    CocycleFamily,
    compose,
    orbit,
    orbit_kernels,
    push_kernels,
)
from cocyclelab.curves import fit_geometric_rates
from cocyclelab.driving import (
    DrivingError,
    bernoulli_shift,
    finite_permutation,
    finite_rotation,
    point,
    sample_env,
)
from cocyclelab.exactness import (
    ExactnessReport,
    cell_map_destinations,
    exactness_norms,
    exactness_report,
    lin_dual_flatness,
    require_cell_maps,
    tail_partition,
)
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    dense,
    kernel_matmul,
    require_zero_mean,
    stored_entries,
)
from cocyclelab.mixing import estimate_mixing, indicator_basis, zero_mean_basis
from cocyclelab.transfer import MapSpec, pf_exact
from references import correlation_inhom

SWAP4 = np.array([
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
])


def constant_cocycle(P, q=1):
    driving = finite_rotation(q)
    return CocycleFamily(driving=driving, table={i: P for i in range(q)})


def doubling_cocycle(n_cells):
    space = FiniteMeasureSpace.uniform(n_cells)
    return constant_cocycle(pf_exact(MapSpec("doubling"), space))


def cell_map_cocycle(dest):
    dest = np.asarray(dest)
    n = dest.size
    kernel = np.zeros((n, n))
    kernel[np.arange(n), dest] = 1.0
    return constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(n), kernel))


# -- norm route ----------------------------------------------------------------


def test_norm_curves_doubling_frozen():
    c = doubling_cocycle(8)
    f = Density.from_mass(c.space, [0.5, -0.5, 0, 0, 0, 0, 0, 0])
    res = exactness_norms(c, point(c.driving, 0), f.mass[None], horizon=5)
    assert res[0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


def test_norm_curves_reject_nonzero_mean():
    c = doubling_cocycle(4)
    with pytest.raises(PreconditionError):
        exactness_norms(c, point(c.driving, 0),
                        Density.uniform(c.space).mass[None], 3)


def test_norm_curves_block_swap_oscillate():
    c = constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(4), SWAP4))
    f = Density.from_mass(c.space, [0, 0.5, -0.5, 0])
    res = exactness_norms(c, point(c.driving, 0), f.mass[None], horizon=6)
    assert np.all(res[0] == 1.0)


# -- dual route ----------------------------------------------------------------


def test_dual_flatness_doubling_frozen():
    c = doubling_cocycle(8)
    res = lin_dual_flatness(c, point(c.driving, 0),
                            indicator_basis(c.space, count=1), horizon=5)
    assert res.flatness[0].tolist() == [1.0, 0.5, 0.25, 0.0, 0.0, 0.0]
    # weighted-mean distance is sandwiched by the spread
    assert np.all(res.mean_distance <= res.flatness + 1e-15)
    assert np.all(res.flatness <= 2.0 * res.mean_distance + 1e-15)


def test_dual_flatness_matches_composed_operator():
    space = FiniteMeasureSpace.uniform(4)
    P = MarkovMatrix(space, np.array([
        [0.7, 0.1, 0.1, 0.1],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.5, 0.5, 0.0],
        [0.1, 0.2, 0.3, 0.4],
    ]))
    Q = MarkovMatrix(space, SWAP4)
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: Q})
    g = Observable(space, np.array([1.0, -2.0, 0.5, 3.0]))
    omega = point(c.driving, 0)
    res = lin_dual_flatness(c, omega, g.values[:, None], horizon=4)
    for n in range(5):
        v = np.asarray(compose(c, omega, n).kernel @ g.values)
        assert res.flatness[0, n] == pytest.approx(v.max() - v.min(), abs=1e-14)


def test_dual_flatness_sparse_permutation_stays_flat_at_one():
    for bits in (4, 10):
        space = FiniteMeasureSpace.uniform(1 << bits)
        P = pf_exact(MapSpec("baker_cyclic", bits=bits), space)
        # the storage rule keeps the 1024-cell permutation sparse
        assert sp.issparse(P.kernel) == (bits == 10)
        c = constant_cocycle(P)
        res = lin_dual_flatness(c, point(c.driving, 0),
                                indicator_basis(space, count=4), horizon=8)
        assert np.all(res.flatness == 1.0)


# -- tail partition route ------------------------------------------------------


def test_cell_map_destinations_and_rejection():
    c = cell_map_cocycle([1, 2, 3, 0])
    P = c.table[0]
    assert cell_map_destinations(P).tolist() == [1, 2, 3, 0]
    require_cell_maps(c)
    swap = constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(4), SWAP4))
    assert not swap.moves_whole_cells
    with pytest.raises(PreconditionError, match="fractional entries"):
        require_cell_maps(swap)


def test_tail_partition_pair_collapse_coarsens_to_trivial():
    c = cell_map_cocycle([i // 2 for i in range(8)])
    rep = tail_partition(c, point(c.driving, 0), horizon=5)
    assert rep.atom_counts.tolist() == [8, 4, 2, 1, 1, 1]
    assert rep.trivial


def test_tail_partition_permutation_never_coarsens():
    space = FiniteMeasureSpace.uniform(16)
    c = constant_cocycle(pf_exact(MapSpec("baker_cyclic", bits=4), space))
    rep = tail_partition(c, point(c.driving, 0), horizon=6)
    assert np.all(rep.atom_counts == 16)
    assert not rep.trivial


def test_tail_partition_identity_not_trivial():
    c = cell_map_cocycle([0, 1, 2, 3])
    rep = tail_partition(c, point(c.driving, 0), horizon=4)
    assert np.all(rep.atom_counts == 4)
    assert not rep.trivial


def test_tail_route_resolves_each_kernel_once(monkeypatch):
    calls = []
    resolve = cocyclelab.exactness.cell_map_destinations
    monkeypatch.setattr(cocyclelab.exactness, "cell_map_destinations",
                        lambda P: calls.append(P) or resolve(P))
    space = FiniteMeasureSpace.uniform(8)
    shift = MarkovMatrix(space, np.eye(8)[np.roll(np.arange(8), 1)])
    collapse = cell_map_cocycle([i // 2 for i in range(8)]).table[0]
    for table, distinct in (({0: shift}, 1), ({0: shift, 1: collapse}, 2)):
        calls.clear()
        c = CocycleFamily(driving=finite_rotation(len(table)), table=table)
        tail_partition(c, point(c.driving, 0), horizon=40)
        assert len(calls) == distinct
        assert {id(P) for P in calls} == {id(P) for P in table.values()}


def test_tail_route_rejects_a_fractional_kernel_met_on_the_walk():
    space = FiniteMeasureSpace.uniform(4)
    c = CocycleFamily(driving=finite_rotation(2), table={
        0: MarkovMatrix(space, np.eye(4)), 1: MarkovMatrix(space, SWAP4)})
    with pytest.raises(PreconditionError, match="fractional entries"):
        tail_partition(c, point(c.driving, 0), horizon=3)


@pytest.mark.parametrize("horizon, trivial", [(3, True), (2, False),
                                              (1, False), (10, True)])
def test_tail_partition_reads_one_atom_from_the_window_start(horizon, trivial):
    # 8, 4, 2, 1, ...: one atom from n = 3 on; the window starts at n = 3, 2,
    # 1 and 9, so the atoms count as trivial only from a start at n >= 3
    c = cell_map_cocycle([i // 2 for i in range(8)])
    rep = tail_partition(c, point(c.driving, 0), horizon)
    assert rep.trivial is trivial


@pytest.mark.parametrize("horizon", [10, 11])
def test_halving_map_tail_route_agrees_with_the_norm_route(horizon):
    # i -> i // 2 on 1024 cells collapses to one atom exactly at n = 10; at
    # horizon 10 the default window starts at n = 9, where two atoms are left
    # and the norm curves have not yet reached zero
    c = cell_map_cocycle([i // 2 for i in range(1024)])
    rep = full_report(c, horizon=horizon)
    assert rep.tail is not None and rep.routes_agree
    assert rep.tail.trivial == rep.exact_verdict == (horizon == 11)


# -- combined report -----------------------------------------------------------


def full_report(c, horizon=12, tol=1e-9, **kw):
    return exactness_report(c, point(c.driving, 0),
                            zero_mean_basis(c.space),
                            indicator_basis(c.space), horizon, tol, **kw)


def test_report_doubling_exact():
    rep = full_report(doubling_cocycle(8))
    assert rep.exact_verdict and rep.norms_decayed and rep.dual_decayed
    assert rep.routes_agree
    assert rep.tail is None  # doubling kernel has fractional entries


def test_report_identity_not_exact_with_tail_partition():
    rep = full_report(cell_map_cocycle([0, 1, 2, 3]))
    assert not rep.exact_verdict
    assert not rep.norms_decayed and not rep.dual_decayed and rep.routes_agree
    assert rep.tail is not None and not rep.tail.trivial


def test_report_collapse_exact_with_trivial_tail():
    rep = full_report(cell_map_cocycle([0, 0, 0, 0]))
    assert rep.exact_verdict and rep.routes_agree
    assert rep.tail is not None and rep.tail.trivial
    assert rep.tail.atom_counts[1] == 1


def test_report_block_swap_not_exact_no_tail():
    c = constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(4), SWAP4))
    rep = full_report(c)
    assert not rep.exact_verdict and rep.routes_agree
    assert rep.tail is None
    assert isinstance(rep, ExactnessReport)


def test_report_two_operator_rotation_exact_from_both_starts():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    Q = MarkovMatrix(space, np.full((4, 4), 0.25))
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: Q})
    for idx in (0, 1):
        rep = exactness_report(c, point(c.driving, idx),
                               zero_mean_basis(space),
                               indicator_basis(space), 10, 1e-9)
        assert rep.exact_verdict and rep.routes_agree


def test_report_rate_fit_on_lazy_kernel():
    kernel = np.array([
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
    ])
    c = constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(3), kernel))
    rep = full_report(c, horizon=25, tol=1e-6)
    assert rep.exact_verdict
    rates = fit_geometric_rates(rep.norm_curves).rate
    assert rates.size == len(rep.norm_curves)
    assert rates.tolist() == pytest.approx([0.25] * rates.size, rel=1e-6)


# -- properties ----------------------------------------------------------------


@st.composite
def random_cocycle(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=1, max_value=2))
    space = FiniteMeasureSpace.uniform(n)
    table = {}
    for i in range(q):
        rows = []
        for _ in range(n):
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0),
                                         min_size=n, max_size=n)))
            rows.append(raw / raw.sum())
        table[i] = MarkovMatrix(space, np.array(rows))
    return CocycleFamily(driving=finite_rotation(q), table=table)


@given(random_cocycle(), st.integers(min_value=1, max_value=5))
def test_norm_curves_never_increase(c, horizon):
    res = exactness_norms(c, point(c.driving, 0), zero_mean_basis(c.space),
                          horizon)
    diffs = np.diff(res, axis=1)
    assert np.all(diffs <= 1e-12)


@given(random_cocycle(), st.integers(min_value=1, max_value=5))
def test_flatness_bounded_by_initial_spread_and_sandwich(c, horizon):
    res = lin_dual_flatness(c, point(c.driving, 0),
                            indicator_basis(c.space), horizon)
    assert np.all(res.flatness <= res.flatness[:, [0]] + 1e-12)
    assert np.all(res.mean_distance <= res.flatness + 1e-12)
    assert np.all(res.flatness <= 2.0 * res.mean_distance + 1e-12)


@given(random_cocycle(), st.integers(min_value=0, max_value=5))
def test_correlations_bounded_by_norm_times_sup(c, n):
    f = Density.from_mass(c.space, zero_mean_basis(c.space)[0])
    g = Observable(c.space, np.linspace(-1.0, 1.0, c.n))
    omega = point(c.driving, 0)
    res = exactness_norms(c, omega, f.mass[None], horizon=n)
    # a fixed observable travels as the same row at every feature
    fixed = np.tile(g.values, (c.driving.n_features, 1))
    corr = correlation_inhom(c, omega, f, fixed, n)
    assert abs(corr) <= res[0, n] * np.abs(g.values).max() + 1e-12


# -- the dual pull against the composed-kernel loop ------------------------------


def composed_dual_reference(c, omega, g_basis, horizon):
    """The dual route written with composed kernels: append one step kernel
    to the n-step kernel at every n and apply it to the observables, the
    columns of the dense (N, k) stack ``g_basis``."""
    w = c.space.weights
    flat = np.empty((g_basis.shape[1], horizon + 1))
    dist = np.empty((g_basis.shape[1], horizon + 1))
    kernels = orbit_kernels(c, omega, horizon)
    composed = np.eye(c.n)
    for n in range(horizon + 1):
        v = np.asarray(composed @ g_basis)
        flat[:, n] = v.max(axis=0) - v.min(axis=0)
        dist[:, n] = np.abs(v - w @ v).max(axis=0)
        if n < horizon:
            composed = kernel_matmul(composed, kernels[n])
    return flat, dist


def random_kernel(space, rng):
    raw = rng.random((space.n, space.n)) + 0.05
    return MarkovMatrix(space, raw / raw.sum(axis=1, keepdims=True))


@st.composite
def dual_case(draw):
    """A cocycle, a start point and observables: random tables over a
    rotation, a table over a permutation with a 2-cycle and a 3-cycle started
    on the 3-cycle, and point-dependent or constant tables over a Bernoulli
    shift."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = FiniteMeasureSpace.uniform(draw(st.integers(2, 5)))
    kind = draw(st.sampled_from(["rotation", "permutation",
                                 "bernoulli", "bernoulli-constant"]))
    if kind == "rotation":
        d = finite_rotation(draw(st.integers(1, 3)))
        table = {i: random_kernel(space, rng) for i in range(d.n_points)}
        omega = point(d, draw(st.integers(0, d.n_points - 1)))
    elif kind == "permutation":
        d = finite_permutation([1, 0, 3, 4, 2])
        table = {i: random_kernel(space, rng) for i in range(5)}
        omega = point(d, draw(st.integers(2, 4)))
    else:
        d = bernoulli_shift([0.5, 0.5])
        P = random_kernel(space, rng)
        Q = random_kernel(space, rng) if kind == "bernoulli" else P
        table = {0: P, 1: Q}
        (omega,) = sample_env(d, 1, draw(st.integers(0, 2**20)))
    c = CocycleFamily(driving=d, table=table)
    g_basis = np.column_stack([rng.normal(size=space.n),
                               Density.indicator(space, [0]).values])
    return c, omega, g_basis


@given(dual_case(), st.integers(0, 17))
def test_dual_pull_matches_composed_kernels(case, horizon):
    c, omega, g_basis = case
    flat, dist = composed_dual_reference(c, omega, g_basis, horizon)
    res = lin_dual_flatness(c, omega, g_basis, horizon)
    np.testing.assert_allclose(res.flatness, flat, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.mean_distance, dist, rtol=0, atol=1e-12)


@given(st.sampled_from(["doubling", "baker_cyclic"]), st.sampled_from([2, 4, 6]),
       st.integers(1, 2), st.integers(0, 17))
def test_dual_pull_is_bit_identical_on_dyadic_kernels(kind, bits, q, horizon):
    space = FiniteMeasureSpace.uniform(1 << bits)
    spec = MapSpec(kind, bits=bits) if kind == "baker_cyclic" else MapSpec(kind)
    c = constant_cocycle(pf_exact(spec, space), q)
    omega = point(c.driving, 0)
    g_basis = np.column_stack([indicator_basis(space),
                               np.arange(space.n) / space.n])
    flat, dist = composed_dual_reference(c, omega, g_basis, horizon)
    res = lin_dual_flatness(c, omega, g_basis, horizon)
    assert res.flatness.tobytes() == flat.tobytes()
    assert res.mean_distance.tobytes() == dist.tobytes()


# -- stack storage against a dense reference loop ---------------------------------


def dense_reference(c, omega, f_basis, g_basis, horizon):
    """Both routes with every stack and kernel dense: the norm curves push
    the mass stack one step at a time, and the dual curves pull g through
    K_{n-1}, ..., K_0 afresh at every n."""
    kernels = [dense(k) for k in orbit_kernels(c, omega, horizon)]
    mass, g_mat = dense(f_basis), dense(g_basis)
    w = c.space.weights
    norms = np.empty((mass.shape[0], horizon + 1))
    flat = np.empty((g_mat.shape[1], horizon + 1))
    dist = np.empty((g_mat.shape[1], horizon + 1))
    for n in range(horizon + 1):
        norms[:, n] = np.abs(mass).sum(axis=1)
        v = g_mat
        for K in reversed(kernels[:n]):
            v = K @ v
        flat[:, n] = v.max(axis=0) - v.min(axis=0)
        dist[:, n] = np.abs(v - w @ v).max(axis=0)
        if n < horizon:
            mass = mass @ kernels[n]
    return norms, flat, dist


def storage_case_kernel(kind, n, rng):
    """A kernel on n uniform cells; 'fractional' and 'wide' have random
    entries, the other kinds only entries 0, 1 or multiples of 1/4."""
    space = FiniteMeasureSpace.uniform(n)
    if kind == "doubling":
        return pf_exact(MapSpec("doubling"), space)
    per_row = {"permutation": 1, "collapse": 1, "dyadic": 4,
               "fractional": 3, "wide": 40}[kind]
    rows = np.repeat(np.arange(n), per_row)
    if kind == "permutation":
        cols = rng.permutation(n)
    elif kind == "collapse":
        cols = rng.integers(0, n // 8, size=n)
    else:
        cols = rng.integers(0, n, size=rows.size)
    if kind in ("fractional", "wide"):
        values = rng.random(rows.size) + 0.05
        values /= np.bincount(rows, weights=values)[rows]
    else:
        values = np.full(rows.size, 1.0 / per_row)
    return MarkovMatrix(space, stored_entries((n, n), n, rows, cols, values))


# ulps of the allowance for fractional kernels: each loop evaluates every
# curve entry in float64 with sums of at most n terms per step, so it is within
# (t + 1) n u of the exact value at step t (u = eps / 2; the kernels are
# L1 / sup-norm contractions, so earlier errors do not grow, and the reading
# adds one more sum of n terms) plus 2u for the final subtraction; two loops
# then differ by at most (t + 2) n eps, with ||f||_1 = ||g||_sup = 1 here
def fractional_allowance(n, horizon):
    return (np.arange(horizon + 1) + 2) * n * np.finfo(float).eps


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([512, 1024]),
       st.lists(st.sampled_from(["permutation", "collapse", "dyadic",
                                 "doubling", "fractional", "wide"]),
                min_size=1, max_size=2),
       st.booleans(), st.integers(0, 10))
def test_stack_storage_matches_a_dense_reference(seed, n, kinds, dense_g,
                                                 horizon):
    rng = np.random.default_rng(seed)
    table = {i: storage_case_kernel(kind, n, rng) for i, kind in enumerate(kinds)}
    c = CocycleFamily(driving=finite_rotation(len(kinds)), table=table)
    omega = point(c.driving, int(rng.integers(len(kinds))))
    f_basis = zero_mean_basis(c.space, count=8)
    # a dense observable puts the g stack past the fill from the start
    g_basis = indicator_basis(c.space, count=6)
    if dense_g:
        g_basis = sp.hstack([g_basis, (np.arange(n) / n)[:, None]],
                            format="csr")
    norms, flat, dist = dense_reference(c, omega, f_basis, g_basis, horizon)
    got_norms = exactness_norms(c, omega, f_basis, horizon)
    got = lin_dual_flatness(c, omega, g_basis, horizon)
    pairs = ((got_norms, norms), (got.flatness, flat), (got.mean_distance, dist))
    if {"fractional", "wide"} & set(kinds):
        allowance = fractional_allowance(n, horizon)
        for a, b in pairs:
            assert np.all(np.abs(a - b) <= allowance)
    else:
        # 0/1 and quarter entries keep every value a short dyadic: exact
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8),
       st.booleans())
def test_csr_column_extrema_match_scipy(seed, n, cols, explicit_zeros):
    # signed, explicit and implicit zeros, full and empty columns
    rng = np.random.default_rng(seed)
    dense = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e-300],
                       size=(n, cols), p=[.3, .1, .1, .1, .1, .1, .1, .1])
    dense[:, 0] = rng.choice([-1.0, 2.0], size=n)
    v = sp.csr_array(dense)
    if explicit_zeros:
        v.data[rng.random(v.data.size) < 0.3] = rng.choice([0.0, -0.0])
    hi, lo = cocyclelab.exactness._column_extrema(v)
    assert hi.tobytes() == v.max(axis=0).toarray().tobytes()
    assert lo.tobytes() == v.min(axis=0).toarray().tobytes()


def test_doubling_norm_stack_crosses_the_fill_mid_horizon(monkeypatch):
    c = doubling_cocycle(1024)
    storages = []
    monkeypatch.setattr(cocyclelab.exactness, "push_kernels", lambda mass, ks: (
        storages.append(sp.issparse(m)) or m for m in push_kernels(mass, ks)))
    omega = point(c.driving, 0)
    f_basis = zero_mean_basis(c.space, count=32)
    got = exactness_norms(c, omega, f_basis, 8)
    # a difference of two cells spreads to 2^(t+1) cells; CSR while <= 32
    assert storages == [True] * 5 + [False] * 4
    norms, _, _ = dense_reference(c, omega, f_basis,
                                  indicator_basis(c.space, count=1), 8)
    assert got.tobytes() == norms.tobytes()


def test_large_grid_report_builds_no_dense_basis():
    # a dense (32, 2^16) float stack alone is 16 MB; the CSR bases, the
    # pushed and pulled stacks and the tail route's int64 arrays stay far
    # below that
    space = FiniteMeasureSpace.uniform(1 << 16)
    c = constant_cocycle(pf_exact(MapSpec("baker_cyclic", bits=16), space))
    tracemalloc.start()
    try:
        rep = exactness_report(c, point(c.driving, 0),
                               zero_mean_basis(space, count=32),
                               indicator_basis(space, count=32), 40, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.routes_agree and not rep.exact_verdict
    assert peak < 8 * 2**20


# -- the tail count against np.unique --------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3),
       st.integers(0, 12))
def test_atom_counts_match_unique_reference(seed, n, q, horizon):
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace.uniform(n)
    # the first table entry skips cells n - 1 and up: its image misses them
    dests = [rng.integers(0, max(n - 1 - i, 1), size=n) if i == 0
             else rng.integers(0, n, size=n) for i in range(q)]
    table = {}
    for i, dest in enumerate(dests):
        kernel = np.zeros((n, n))
        kernel[np.arange(n), dest] = 1.0
        table[i] = MarkovMatrix(space, kernel)
    c = CocycleFamily(driving=finite_rotation(q), table=table)
    omega = point(c.driving, int(rng.integers(q)))
    dest = np.arange(n)
    expected = [n]
    for pt in list(orbit(c, omega, horizon))[:-1]:
        dest = dests[pt.index][dest]
        expected.append(np.unique(dest).size)
    rep = tail_partition(c, omega, horizon)
    assert rep.atom_counts.tolist() == expected


# -- inputs the routes reject ----------------------------------------------------


def run_route(route, c, f_basis, g_basis, horizon):
    omega = point(c.driving, 0)
    if route == "report":
        return exactness_report(c, omega, f_basis, g_basis, horizon, 1e-9)
    if route == "norms":
        return exactness_norms(c, omega, f_basis, horizon)
    return lin_dual_flatness(c, omega, g_basis, horizon)


@pytest.mark.parametrize("route, empty", [("report", "f"), ("report", "g"),
                                          ("norms", "f"), ("dual", "g")])
def test_routes_reject_an_empty_basis(route, empty):
    c = doubling_cocycle(4)
    f_basis = np.empty((0, 4)) if empty == "f" else zero_mean_basis(c.space)
    g_basis = np.empty((4, 0)) if empty == "g" else indicator_basis(c.space)
    with pytest.raises(PreconditionError, match="at least one"):
        run_route(route, c, f_basis, g_basis, 3)


# stacks the routes do not read: an np.matrix or a legacy csr_matrix sums to
# (k, 1) columns, a COO stack has no row index, a list is not a stack
OTHER_STACKS = {"csr_matrix": sp.csr_matrix, "np.matrix": np.asmatrix,
                "coo_array": sp.coo_array, "list": list}


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
@pytest.mark.parametrize("kind", sorted(OTHER_STACKS))
@pytest.mark.parametrize("route, which", [("report", "f"), ("report", "g"),
                                          ("norms", "f"), ("dual", "g"),
                                          ("estimator", "f"),
                                          ("estimator", "g")])
def test_routes_reject_a_basis_of_another_type(route, which, kind):
    c = doubling_cocycle(4)
    f_basis, g_basis = zero_mean_basis(c.space), indicator_basis(c.space)
    if which == "f":
        f_basis = OTHER_STACKS[kind](f_basis)
    else:
        g_basis = OTHER_STACKS[kind](g_basis)
    named = "basis stack.*" + ("list" if kind == "list" else kind.split(".")[-1])
    with pytest.raises(PreconditionError, match=named):
        if route == "estimator":
            estimate_mixing(c, "prior-hom", f_basis, g_basis,
                            [point(c.driving, 0)], 3, 1e-6)
        else:
            run_route(route, c, f_basis, g_basis, 3)


@pytest.mark.parametrize("horizon", [-1, -3])
@pytest.mark.parametrize("route", ["report", "norms", "dual"])
def test_routes_reject_a_negative_horizon(route, horizon):
    c = doubling_cocycle(4)
    with pytest.raises(PreconditionError, match="horizon"):
        run_route(route, c, zero_mean_basis(c.space), indicator_basis(c.space),
                  horizon)


def test_tail_partition_rejects_a_negative_horizon():
    c = cell_map_cocycle([1, 2, 3, 0])
    with pytest.raises(PreconditionError, match="horizon"):
        tail_partition(c, point(c.driving, 0), -1)


@pytest.mark.parametrize("horizon", [-1, -3])
@pytest.mark.parametrize("route", ["report", "norms", "dual", "tail"])
def test_routes_reject_a_negative_horizon_before_walking(monkeypatch, route,
                                                         horizon):
    # a negative step count names a backward walk on an invertible driving;
    # each route rejects it before asking for the first orbit point
    c = cell_map_cocycle([1, 2, 3, 0])

    def no_walk(self, omega):
        raise AssertionError("walked an orbit")

    monkeypatch.setattr(CocycleFamily, "check_point", no_walk)
    with pytest.raises(PreconditionError, match=f"horizon must be an integer >= 0, got "
                       f"{horizon}"):
        if route == "tail":
            tail_partition(c, point(c.driving, 0), horizon)
        else:
            run_route(route, c, zero_mean_basis(c.space),
                      indicator_basis(c.space), horizon)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["report", "dual"])
def test_dual_route_rejects_a_non_finite_observable(route, bad):
    c = doubling_cocycle(16)
    values = np.zeros(16)
    values[5] = bad
    g_basis = np.column_stack([indicator_basis(c.space, count=2), values])
    with pytest.raises(PreconditionError, match=r"g_basis\[2\].*NaN or inf"):
        run_route(route, c, zero_mean_basis(c.space), g_basis, 6)


def stored_as(storage, stack):
    return sp.csr_array(stack) if storage == "csr" else np.asarray(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_observable_checks_read_either_storage(storage, bad):
    c = doubling_cocycle(16)
    g_basis = np.column_stack([indicator_basis(c.space, count=3),
                               np.zeros(16)])
    g_basis[5, 3] = bad
    g_basis = stored_as(storage, g_basis)
    f_basis = zero_mean_basis(c.space)
    named = r"g_basis\[3\].*NaN or inf"
    for route in ("report", "dual"):
        with pytest.raises(PreconditionError, match=named):
            run_route(route, c, f_basis, g_basis, 6)
    with pytest.raises(PreconditionError, match=named):
        estimate_mixing(c, "prior-hom", f_basis, g_basis,
                        [point(c.driving, 0)], 6, 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "mean"])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_zero_mean_checks_read_either_storage(storage, bad):
    c = doubling_cocycle(16)
    f_basis = np.array(zero_mean_basis(c.space, count=4))
    if bad == "mean":
        f_basis[2, 0] += 0.25
    else:
        f_basis[2, 7] = bad
    f_basis = stored_as(storage, f_basis)
    with pytest.raises(PreconditionError, match="zero-mean"):
        require_zero_mean(f_basis, "a stack")
    for route in ("report", "norms"):
        with pytest.raises(PreconditionError, match="zero-mean"):
            run_route(route, c, f_basis, indicator_basis(c.space), 6)
    with pytest.raises(PreconditionError, match="zero-mean"):
        estimate_mixing(c, "prior-hom", f_basis, indicator_basis(c.space),
                        [point(c.driving, 0)], 6, 1e-6)


INF = float("inf")


@pytest.mark.parametrize("row", [[INF, 0.0, 0.0, 0.0], [0.0, -INF, 0.0, 0.0],
                                 [INF, -INF, 0.0, 0.0]])
def test_zero_mean_routes_reject_a_row_of_infinite_mass(row):
    # inf <= 1e-9 * inf holds, so only a finiteness test keeps these out
    c = doubling_cocycle(4)
    omega = point(c.driving, 0)
    f = Density.from_mass(c.space, row)
    good = zero_mean_basis(c.space)[0]
    with pytest.raises(PreconditionError, match="zero-mean"):
        require_zero_mean(np.stack([good, f.mass]), "a stack")
    with pytest.raises(PreconditionError, match="zero-mean"):
        # finite entries, an L1 norm of inf
        require_zero_mean([1e308, 1e308, -1e308, -1e308], "a row")
    with pytest.raises(PreconditionError, match="zero-mean"):
        exactness_norms(c, omega, f.mass[None], 3)
    with pytest.raises(PreconditionError, match="zero-mean"):
        estimate_mixing(c, "prior-hom", f.mass[None],
                        indicator_basis(c.space),
                        [omega], 3, 1e-6)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_report_rejects_a_tol_that_is_not_positive(tol):
    with pytest.raises(PreconditionError, match="tol"):
        full_report(doubling_cocycle(4), tol=tol)


def test_report_rejects_a_point_of_another_driving():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    c = CocycleFamily(driving=finite_rotation(2), table={0: P, 1: P})
    for other in (finite_rotation(3), finite_rotation(2)):
        with pytest.raises(DrivingError):
            exactness_report(c, point(other, 1), zero_mean_basis(space),
                             indicator_basis(space), 3, 1e-9)
