"""Tests for asymptotic periodicity detection, stability, restricted powers,
and the constrictivity probe.

Planted oracle: the block-cycle kernel on near-equal contiguous blocks is
asymptotically periodic after a single step, with uniform block profiles,
the cyclic permutation i -> i + 1 (mod r), and zero residual.  On the 8-cell
doubling kernel the composed kernel is exactly uniform by the burn-in, so
capture values of small cell unions are exact multiples of 1/8.
"""

import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import connected_components

from cocyclelab import asymptotic
from cocyclelab.asymptotic import (
    SUPPORT_FLOOR,
    PeriodicDecomposition,
    QCReport,
    block_cycle_kernel,
    cell_labels,
    detect_periodicity,
    invariant_density_from_decomposition,
    quasi_constrictive_probe,
    restricted_power_cocycle,
)
from cocyclelab.cocycle import CocycleFamily, compose
from cocyclelab.curves import tail_start
from cocyclelab.driving import bernoulli_shift, finite_rotation, point
from cocyclelab.exactness import exactness_norms, exactness_report
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    mass_apply,
)
from cocyclelab.mixing import indicator_basis, zero_mean_basis
from cocyclelab.transfer import MapSpec, pf_exact


def constant_cocycle(kernel_or_P, q=1):
    if isinstance(kernel_or_P, MarkovMatrix):
        P = kernel_or_P
    else:
        kernel = np.asarray(kernel_or_P, dtype=float)
        P = MarkovMatrix(FiniteMeasureSpace.uniform(kernel.shape[0]), kernel)
    return CocycleFamily(driving=finite_rotation(q),
                         table={i: P for i in range(q)})


def detect(c, horizon=16, r_max=16, tol=1e-10, f0=None):
    return detect_periodicity(c, point(c.driving, 0), horizon, r_max, tol, f0)


# -- detection -----------------------------------------------------------------


SIX = FiniteMeasureSpace.uniform(6)


@pytest.mark.parametrize("kw", [{"tol": float("nan")}, {"tol": 0.0},
                                {"tol": -1e-10}, {"r_max": -1},
                                {"horizon": -5},
                                {"f0": Density(SIX, np.full(6, np.nan))},
                                {"f0": Density(SIX, np.r_[np.inf, np.ones(5)])}])
def test_detector_rejects_a_bad_tolerance_or_cap(kw):
    c = constant_cocycle(block_cycle_kernel(6, 3))
    with pytest.raises(PreconditionError):
        detect(c, **kw)


def test_burn_in_is_the_verdict_window_start():
    # found or not, the detector reads from where the decay verdicts read,
    # the identity at horizon 0 included
    c = constant_cocycle(block_cycle_kernel(6, 3))
    for horizon in (0, 1, 2, 10, 40):
        for tail_fraction in (0.1, 0.5, 1.0):
            dec = detect_periodicity(c, point(c.driving, 0), horizon, 8,
                                     tail_fraction=tail_fraction)
            assert dec.burn_in == tail_start(horizon + 1, tail_fraction)
    assert detect(c, horizon=0).burn_in == 0


def test_planted_three_cycle_recovered_exactly():
    c = constant_cocycle(block_cycle_kernel(12, 3))
    dec = detect(c)
    assert dec.found and dec.r == 3
    assert dec.rho.tolist() == [1, 2, 0]
    assert dec.residual == 0.0
    assert dec.period == 3
    assert [s.tolist() for s in dec.supports] == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    assert dec.lambdas.tolist() == pytest.approx([1 / 3] * 3, abs=1e-15)
    for i, g in enumerate(dec.densities):
        assert g.total_mass == pytest.approx(1.0, abs=1e-12)
        assert set(np.flatnonzero(g.values)) == set(dec.supports[i])


def test_detector_reads_lambdas_and_rho_after_the_burn_in():
    # nine burn-in steps (horizon 10, window from n = 9) alternate the block
    # cycle P0 (block i to i + 1) and its reverse P1 = P0^T, so they end one
    # block on, at sigma^9 omega_0 = omega_1, where the permutation is read
    # off P1
    kernel = block_cycle_kernel(6, 3)
    c = CocycleFamily(driving=finite_rotation(2),
                      table={0: MarkovMatrix(SIX, kernel),
                             1: MarkovMatrix(SIX, kernel.T)})
    f0 = Density.from_mass(SIX, np.array([0.3, 0.1, 0.2, 0.05, 0.25, 0.1]))
    dec = detect(c, horizon=10, f0=f0)
    assert dec.found and dec.burn_in == 9
    assert dec.rho.tolist() == [2, 0, 1]
    assert dec.lambdas.tolist() == pytest.approx([0.35, 0.4, 0.25], abs=1e-15)


def test_uniformizer_single_profile():
    c = constant_cocycle(np.full((6, 6), 1.0 / 6))
    dec = detect(c)
    assert dec.found and dec.r == 1 and dec.rho.tolist() == [0]
    assert dec.period == 1
    h = invariant_density_from_decomposition(dec)
    assert h.values == pytest.approx(np.ones(6), abs=1e-12)


def test_block_swap_two_cycle():
    c = constant_cocycle(block_cycle_kernel(4, 2))
    dec = detect(c)
    assert dec.found and dec.r == 2
    assert dec.rho.tolist() == [1, 0]
    assert dec.period == 2
    assert dec.residual == 0.0


def test_identity_is_periodic_with_singleton_profiles():
    c = constant_cocycle(np.eye(8))
    dec = detect(c, r_max=8)
    assert dec.found and dec.r == 8
    assert dec.rho.tolist() == list(range(8))
    assert dec.period == 1


def test_component_cap_reports_none_found():
    c = constant_cocycle(np.eye(8))
    dec = detect(c, r_max=4)
    assert not dec.found and dec.r == 8
    assert "r_max" in dec.reason
    with pytest.raises(PreconditionError):
        dec.period  # noqa: B018 - the guard itself is under test
    with pytest.raises(PreconditionError):
        invariant_density_from_decomposition(dec)


def test_permutation_kernel_singletons_and_period():
    space = FiniteMeasureSpace.uniform(4)
    c = constant_cocycle(pf_exact(MapSpec("baker_cyclic", bits=2), space))
    dec = detect(c, r_max=4)
    assert dec.found and dec.r == 4
    assert dec.rho.tolist() == [0, 2, 1, 3]
    assert dec.period == 2
    assert dec.residual == 0.0


def test_slow_kernel_reports_honest_residual():
    lazy = np.array([
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
    ])
    c = constant_cocycle(lazy)
    strict = detect(c, horizon=8, tol=1e-10)
    assert not strict.found
    assert "residual" in strict.reason
    assert 0 < strict.residual < 0.1
    loose = detect(c, horizon=8, tol=0.1)
    assert loose.found and loose.r == 1


def test_detected_profiles_are_fixed_by_period_steps():
    c = constant_cocycle(block_cycle_kernel(12, 3))
    dec = detect(c)
    kernel = c.table[0].kernel
    for i, g in enumerate(dec.densities):
        mass = g.mass
        for _ in range(dec.period):
            mass = mass_apply(mass, kernel)
        assert np.abs(mass - g.mass).sum() <= 1e-12


# -- stability and the invariant mixture ---------------------------------------


def periodicity_vs_exactness(c, horizon, r_max):
    """The decomposition and the exactness report at the base point, on the
    full bases with decay tolerance 1e-8.  ``consistent`` says whether a
    single periodic profile coincides with exactness; None when nothing was
    found."""
    omega = point(c.driving, 0)
    dec = detect_periodicity(c, omega, horizon, r_max, 1e-10)
    rep = exactness_report(c, omega, zero_mean_basis(c.space),
                           indicator_basis(c.space), horizon, 1e-8)
    consistent = (dec.r == 1) == rep.exact_verdict if dec.found else None
    return dec, rep, consistent


def test_stability_doubling_single_profile_iff_exact():
    space = FiniteMeasureSpace.uniform(8)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    dec, rep, consistent = periodicity_vs_exactness(c, horizon=16, r_max=8)
    assert dec.found and dec.r == 1
    assert rep.exact_verdict and consistent


def test_stability_block_swap_consistent_non_exact():
    c = constant_cocycle(block_cycle_kernel(4, 2))
    dec, rep, consistent = periodicity_vs_exactness(c, horizon=16, r_max=8)
    assert dec.r == 2
    assert not rep.exact_verdict
    assert consistent


def test_stability_none_found_is_inconclusive():
    c = constant_cocycle(np.eye(8))
    dec, rep, consistent = periodicity_vs_exactness(c, horizon=16, r_max=4)
    assert not dec.found
    assert consistent is None


def test_invariant_mixture_is_fixed_density():
    c = constant_cocycle(block_cycle_kernel(12, 3))
    dec = detect(c)
    h = invariant_density_from_decomposition(dec)
    pushed = mass_apply(h.mass, c.table[0].kernel)
    assert np.abs(pushed - h.mass).sum() <= 1e-12
    assert h.values == pytest.approx(np.ones(12), abs=1e-12)


# -- restricted powers ----------------------------------------------------------


def test_restricted_square_of_block_swap_is_exact_in_one_step():
    c = constant_cocycle(block_cycle_kernel(4, 2))
    dec = detect(c)
    sub, cells = restricted_power_cocycle(c, dec, 0)
    assert cells.tolist() == [0, 1]
    assert sub.n == 2
    f = zero_mean_basis(sub.space)[:1]
    res = exactness_norms(sub, point(sub.driving, 0), f, horizon=3)
    assert res[0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_restricted_power_uses_cycle_length_per_component():
    c = constant_cocycle(block_cycle_kernel(9, 3))
    dec = detect(c)
    sub, cells = restricted_power_cocycle(c, dec, 1)
    assert cells.tolist() == [3, 4, 5]
    # the cube of the three-cycle holds each block; uniformization is immediate
    f = zero_mean_basis(sub.space)[:1]
    res = exactness_norms(sub, point(sub.driving, 0), f, horizon=2)
    assert res[0].tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("i", [-1, 3])
def test_cycle_length_rejects_a_component_outside_the_range(i):
    # -1 used to walk rho forever: rho only holds 0..r-1
    c = constant_cocycle(block_cycle_kernel(6, 3))
    dec = detect(c)
    with pytest.raises(PreconditionError, match="outside 0..2"):
        dec.cycle_length(i)
    with pytest.raises(PreconditionError, match="outside 0..2"):
        restricted_power_cocycle(c, dec, i)


def test_restricted_power_rejects_leaking_support():
    c = constant_cocycle(np.full((4, 4), 0.25))
    space = c.space
    fake = PeriodicDecomposition(
        found=True, r=2, rho=np.array([1, 0]),
        supports=[np.array([0, 1]), np.array([2, 3])],
        densities=[Density.indicator(space, [0, 1], normalized=True),
                   Density.indicator(space, [2, 3], normalized=True)],
        lambdas=np.array([0.5, 0.5]), burn_in=1, residual=0.0)
    with pytest.raises(PreconditionError, match="not invariant"):
        restricted_power_cocycle(c, fake, 0)


def test_restricted_power_rejects_bernoulli_driving():
    space = FiniteMeasureSpace.uniform(4)
    P = MarkovMatrix(space, block_cycle_kernel(4, 2))
    c = CocycleFamily(driving=bernoulli_shift([0.5, 0.5]),
                      table={0: P, 1: P})
    fake = PeriodicDecomposition(
        found=True, r=2, rho=np.array([1, 0]),
        supports=[np.array([0, 1]), np.array([2, 3])],
        densities=[Density.indicator(space, [0, 1], normalized=True),
                   Density.indicator(space, [2, 3], normalized=True)],
        lambdas=np.array([0.5, 0.5]), burn_in=1, residual=0.0)
    with pytest.raises(PreconditionError, match="finite driving"):
        restricted_power_cocycle(c, fake, 0)


# -- constrictivity probe --------------------------------------------------------


def test_qc_probe_doubling_exact_capture_levels():
    space = FiniteMeasureSpace.uniform(8)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon=8,
                                   eps_values=[0.125, 0.25, 0.5])
    assert rep.deltas.tolist() == [0.875, 0.75, 0.5]
    assert rep.quasi_constrictive
    assert all(wit.n >= 4 for wit in rep.witnesses)


def test_qc_probe_identity_concentrates():
    c = constant_cocycle(np.eye(4))
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon=6,
                                   eps_values=[0.25, 0.5])
    assert rep.deltas.tolist() == [0.0, 0.0]
    assert not rep.quasi_constrictive
    assert len(rep.witnesses[0].cells) == 1


def test_qc_probe_block_swap_keeps_half_escaping():
    c = constant_cocycle(block_cycle_kernel(4, 2))
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon=8,
                                   eps_values=[0.25])
    assert rep.deltas.tolist() == [0.5]
    assert rep.quasi_constrictive
    assert isinstance(rep, QCReport)


def test_qc_probe_rejects_bad_grid():
    c = constant_cocycle(np.eye(4))
    with pytest.raises(PreconditionError):
        quasi_constrictive_probe(c, point(c.driving, 0), 4, [])
    for grid in ([0.0, 0.5], [np.nan], [0.25, np.nan], [0.25, np.inf]):
        with pytest.raises(PreconditionError, match="eps grid"):
            quasi_constrictive_probe(c, point(c.driving, 0), 4, grid)
    with pytest.raises(PreconditionError):
        quasi_constrictive_probe(c, point(c.driving, 0), 0, [0.5])


@pytest.mark.parametrize("horizon, tail_fraction",
                         [(-1, 0.1), (0, 0.1), (1, 1.0), (4, 1.0)])
def test_qc_probe_rejects_a_window_that_starts_at_n_zero(horizon, tail_fraction):
    # step 0 is the identity, where one cell captures each indicator whole
    c = constant_cocycle(np.eye(4))
    with pytest.raises(PreconditionError, match="a window from n >= 1"):
        quasi_constrictive_probe(c, point(c.driving, 0), horizon, [0.5],
                                 tail_fraction)


# -- properties ------------------------------------------------------------------


def test_block_cycle_kernel_validation():
    with pytest.raises(PreconditionError):
        block_cycle_kernel(4, 5)
    with pytest.raises(PreconditionError):
        block_cycle_kernel(4, 0)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
def test_planted_cycles_recovered_for_all_small_sizes(r, block):
    n = r * block
    c = constant_cocycle(block_cycle_kernel(n, r))
    dec = detect(c, horizon=12, r_max=n)
    assert dec.found and dec.r == r
    assert dec.rho.tolist() == [(i + 1) % r for i in range(r)]
    assert dec.residual <= 1e-14
    assert dec.lambdas.tolist() == pytest.approx([1 / r] * r, abs=1e-12)


def merged_row_supports(M, floor):
    """Reference components: merge every row's support with each group it
    touches, one row at a time, then order the groups by smallest cell."""
    groups = []
    for row in M:
        cells = set(np.flatnonzero(row > floor).tolist())
        touching = [g for g in groups if g & cells]
        groups = [g for g in groups if not g & cells] + [cells.union(*touching)]
    return sorted((sorted(g) for g in groups), key=lambda g: g[0])


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(0, 2**20))
def test_components_match_a_merge_loop_on_relabelled_cells(r, block, seed):
    # relabelling the cells makes components non-contiguous, so the
    # smallest-cell ordering is exercised
    n = r * block
    perm = np.random.default_rng(seed).permutation(n)
    c = constant_cocycle(block_cycle_kernel(n, r)[np.ix_(perm, perm)])
    dec = detect(c, horizon=12, r_max=n)
    M = np.asarray(compose(c, point(c.driving, 0), dec.burn_in).kernel)
    assert dec.found and dec.r == r
    assert [s.tolist() for s in dec.supports] == merged_row_supports(
        M, SUPPORT_FLOOR)


def csgraph_labels(reach):
    """Reference labelling: scipy's connected components of the bipartite
    row-cell graph, each reached cell labelled by its component's smallest
    cell, every other cell by itself."""
    n_rows, n = reach.shape
    links = sp.csr_matrix(reach)
    _, comp = connected_components(sp.bmat([[None, links], [links.T, None]]),
                                   directed=False)
    comp = comp[n_rows:]
    label = np.arange(n)
    for cells in (np.flatnonzero(comp == k) for k in np.unique(comp)):
        if reach[:, cells].any():
            label[cells] = cells[0]
    return label


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.sampled_from([0.0, 0.02, 0.08, 0.3]), st.booleans(),
       st.integers(0, 2**20))
def test_cell_labels_match_csgraph(n_rows, n, p, path, seed):
    rng = np.random.default_rng(seed)
    if path:
        # random rows link a shuffled path of cells: long paths take the
        # most rounds
        k = min(n_rows, n - 1)
        rows, cells = rng.permutation(n_rows)[:k], rng.permutation(n)
        reach = np.zeros((n_rows, n), dtype=bool)
        reach[rows, cells[:k]] = reach[rows, cells[1:k + 1]] = True
    else:
        reach = rng.random((n_rows, n)) < p
    # empty rows and empty columns besides the ones chance leaves
    reach[rng.random(n_rows) < 0.2] = False
    reach[:, rng.random(n) < 0.2] = False
    label = cell_labels(reach)
    assert label.tolist() == csgraph_labels(reach).tolist()


def test_cell_labels_join_a_shuffled_1024_cell_chain_quickly():
    # row perm[k] reaches cells perm[k] and perm[k + 1]: one component of
    # diameter about 2N in a random cell order, where plain min-label
    # propagation needs hundreds of rounds (seconds); star hooking a handful
    n = 1024
    perm = np.random.default_rng(7).permutation(n)
    reach = np.zeros((n, n), dtype=bool)
    reach[perm, perm] = True
    reach[perm[:-1], perm[1:]] = True
    start = time.perf_counter()
    label = cell_labels(reach)
    assert time.perf_counter() - start < 1.0
    assert (label == 0).all()


def planted_block_permutation(sizes, n_transient, seed):
    """Cells shuffled into blocks with a random positive profile each, plus
    transient cells that no row reaches; every row of block i is the profile
    of block pi(i), and every transient row that of block pi(0)."""
    rng = np.random.default_rng(seed)
    n_blocks, n = len(sizes), sum(sizes) + n_transient
    cells = rng.permutation(n)
    blocks = np.split(cells[:sum(sizes)], np.cumsum(sizes)[:-1])
    pi = rng.permutation(n_blocks)
    profiles = np.zeros((n_blocks, n))
    for g, block in zip(profiles, blocks):
        g[block] = rng.integers(1, 5, size=block.size)
        g /= g.sum()
    kernel = np.empty((n, n))
    for i, block in enumerate(blocks):
        kernel[block] = profiles[pi[i]]
    kernel[cells[sum(sizes):]] = profiles[pi[0]]
    return kernel, blocks, pi


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=3), st.integers(0, 2**20),
       st.integers(min_value=2, max_value=12))
def test_detector_on_block_permutations_matches_the_csgraph_labelling(
        sizes, n_transient, seed, horizon):
    kernel, blocks, pi = planted_block_permutation(sizes, n_transient, seed)
    c = constant_cocycle(kernel)
    n, n_blocks = kernel.shape[0], len(sizes)
    dec = detect(c, horizon=horizon, r_max=n)
    with mock.patch.object(asymptotic, "cell_labels", csgraph_labels):
        ref = detect(c, horizon=horizon, r_max=n)
    # the planted truth: blocks numbered by their smallest cell, each sent
    # to the block of pi
    order = sorted(range(n_blocks), key=lambda i: blocks[i].min())
    assert dec.found and dec.r == n_blocks
    assert [s.tolist() for s in dec.supports] == [
        sorted(blocks[i].tolist()) for i in order]
    assert dec.rho.tolist() == [order.index(pi[i]) for i in order]
    # the csgraph reference, byte for byte
    assert ref.r == dec.r and ref.burn_in == dec.burn_in
    assert [s.tobytes() for s in dec.supports] == [
        s.tobytes() for s in ref.supports]
    assert dec.rho.tobytes() == ref.rho.tobytes()
    assert [d.values.tobytes() for d in dec.densities] == [
        d.values.tobytes() for d in ref.densities]
    assert dec.lambdas.tobytes() == ref.lambdas.tobytes()
    assert dec.residual == ref.residual


def qc_probe_loop(c, omega, horizon, eps_values, tail_fraction):
    """Reference probe: the greedy pack row by row, eps by eps, cell by
    cell, from the verdict window's start, keeping the first maximum in
    (step, row) order."""
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    w = c.space.weights
    burn = tail_start(horizon + 1, tail_fraction)
    mass = np.eye(c.n)
    best = [None] * eps_values.size
    for step in range(horizon + 1):
        if step >= burn:
            order = np.argsort(-mass, axis=1)
            for j in range(c.n):
                for e_id, eps in enumerate(eps_values):
                    total_w = 0.0
                    captured = 0.0
                    chosen = []
                    for cell in order[j]:
                        if mass[j, cell] <= SUPPORT_FLOOR:
                            break
                        if total_w + w[cell] > eps + 1e-15:
                            continue
                        total_w += w[cell]
                        captured += mass[j, cell]
                        chosen.append(int(cell))
                    if best[e_id] is None or captured > best[e_id][4]:
                        best[e_id] = (float(eps), j, step, tuple(chosen),
                                      captured)
        if step < horizon:
            mass = mass_apply(mass, c.operator_at(omega).kernel)
    return best


@given(st.integers(min_value=2, max_value=9), st.booleans(),
       st.integers(0, 2**20), st.integers(min_value=1, max_value=6),
       st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
       st.sampled_from([0.1, 0.5]))
def test_qc_probe_matches_the_greedy_loop(n, uniform, seed, horizon, eps_ninths,
                                          tail_fraction):
    rng = np.random.default_rng(seed)
    # entries on a coarse grid, with zeros, so sorted masses tie and the
    # support floor cuts rows short
    kernel = rng.integers(0, 4, size=(n, n)).astype(float)
    kernel[np.arange(n), rng.integers(0, n, size=n)] += 1.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    weights = (np.full(n, 1.0 / n) if uniform
               else rng.integers(1, 5, size=n) / 1.0)
    space = FiniteMeasureSpace(weights / weights.sum())
    c = constant_cocycle(MarkovMatrix(space, kernel))
    # eps on multiples of 1/9 meets running weight sums exactly
    eps = [k / 9 for k in eps_ninths]
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon, eps,
                                   tail_fraction)
    ref = qc_probe_loop(c, point(c.driving, 0), horizon, eps, tail_fraction)
    assert rep.deltas.tolist() == [1.0 - b[4] for b in ref]
    assert [(wit.eps, wit.source_cell, wit.n, wit.cells, wit.captured)
            for wit in rep.witnesses] == ref
