"""Tests for asymptotic periodicity detection, stability, restricted powers,
and the constrictivity probe.

Planted oracle: the block-cycle kernel on near-equal contiguous blocks is
asymptotically periodic after a single step, with uniform block profiles,
the cyclic permutation i -> i + 1 (mod r), and zero residual.  On the 8-cell
doubling kernel the composed kernel is exactly uniform by the burn-in, so
capture values of small cell unions are exact multiples of 1/8.
"""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import connected_components

from cocyclelab import asymptotic
from cocyclelab.asymptotic import (
    ESTIMATED_STRUCTURE_TOL,
    EXACT_STRUCTURE_TOL,
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
from cocyclelab.cocycle import CocycleFamily, compose, orbit, push_kernels
from cocyclelab.curves import tail_start
from cocyclelab.driving import advance, bernoulli_shift, finite_rotation, point
from cocyclelab.exactness import exactness_norms, exactness_report
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    dense,
    mass_apply,
    single_blas_thread,
    stored_kernel,
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


def detect(c, horizon=16, r_max=16, f0=None):
    return detect_periodicity(c, point(c.driving, 0), horizon, r_max, f0)


# -- detection -----------------------------------------------------------------


SIX = FiniteMeasureSpace.uniform(6)


@pytest.mark.parametrize("kw", [{"r_max": -1}, {"horizon": -5},
                                {"f0": Density(SIX, np.full(6, np.nan))},
                                {"f0": Density(SIX, np.r_[np.inf, np.ones(5)])}])
def test_detector_rejects_a_bad_cap_horizon_or_f0(kw):
    c = constant_cocycle(block_cycle_kernel(6, 3))
    with pytest.raises(PreconditionError):
        detect(c, **kw)


def test_burn_in_is_the_verdict_window_start():
    # found or not, the detector reads from where the decay verdicts read,
    # the identity at horizon 0 included
    c = constant_cocycle(block_cycle_kernel(6, 3))
    for horizon in (0, 1, 2, 10, 11, 40):
        dec = detect_periodicity(c, point(c.driving, 0), horizon, 8)
        assert dec.burn_in == tail_start(horizon + 1)
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
    # the lazy kernel's rows meet 1/3 as 0.25^n: at burn-in 11 (horizon 12)
    # the residual 3.2e-7 lies between the two structure tolerances, so the
    # same rows are found as a Monte-Carlo estimate and not as exact rows
    lazy = np.array([
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
    ])
    exact, estimated = (MarkovMatrix(FiniteMeasureSpace.uniform(3), lazy,
                                     exact=flag) for flag in (True, False))
    strict = detect(constant_cocycle(exact), horizon=12)
    assert not strict.found and strict.tol == EXACT_STRUCTURE_TOL
    assert "residual" in strict.reason
    assert EXACT_STRUCTURE_TOL < strict.residual < ESTIMATED_STRUCTURE_TOL
    for table in ({0: estimated}, {0: exact, 1: estimated}):
        # one Monte-Carlo operator in the table sets the looser tolerance
        c = CocycleFamily(driving=finite_rotation(len(table)), table=table)
        loose = detect(c, horizon=12)
        assert loose.found and loose.r == 1
        assert loose.tol == ESTIMATED_STRUCTURE_TOL
        assert loose.residual == strict.residual


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
    dec = detect_periodicity(c, omega, horizon, r_max)
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
        lambdas=np.array([0.5, 0.5]), burn_in=1, residual=0.0, tol=1e-10)
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
        lambdas=np.array([0.5, 0.5]), burn_in=1, residual=0.0, tol=1e-10)
    with pytest.raises(PreconditionError, match="finite driving"):
        restricted_power_cocycle(c, fake, 0)


@pytest.mark.parametrize("rho", [[0, 0], [1, 1], [1, 2], [0], None])
def test_found_decomposition_rejects_a_rho_that_is_not_a_permutation(rho):
    # rho = [0, 0] used to build, and its period then looped forever
    space = FiniteMeasureSpace.uniform(4)
    with pytest.raises(PreconditionError, match=r"rho must be a permutation of 0\.\.1"):
        PeriodicDecomposition(
            found=True, r=2, rho=None if rho is None else np.array(rho),
            supports=[np.array([0, 1]), np.array([2, 3])],
            densities=[Density.indicator(space, [0, 1], normalized=True),
                       Density.indicator(space, [2, 3], normalized=True)],
            lambdas=np.array([0.5, 0.5]), burn_in=1, residual=0.0, tol=1e-10)


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


@pytest.mark.parametrize("horizon", [-1, 0])
def test_qc_probe_rejects_a_window_that_starts_at_n_zero(horizon):
    # step 0 is the identity, where one cell captures each indicator whole;
    # only horizon 0 puts it in the window
    c = constant_cocycle(np.eye(4))
    with pytest.raises(PreconditionError,
                       match=rf"horizon must be an integer >= 1, got {horizon}"):
        quasi_constrictive_probe(c, point(c.driving, 0), horizon, [0.5])
    rep = quasi_constrictive_probe(c, point(c.driving, 0), 1, [0.5])
    assert [wit.n for wit in rep.witnesses] == [1]


@pytest.mark.parametrize("horizon", [1, 2, 10, 11, 21, 40])
def test_qc_probe_reads_from_the_verdict_window_start(horizon):
    # the identity captures each indicator whole at every step, so the first
    # maximum in step order is the first step of the window, which holds the
    # last max(1, ceil((horizon + 1) / 10)) steps
    c = constant_cocycle(np.eye(4))
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon, [0.5])
    start = tail_start(horizon + 1)
    assert start == horizon + 1 - max(1, -(-(horizon + 1) // 10))
    assert [(wit.n, wit.captured) for wit in rep.witnesses] == [(start, 1.0)]


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


def qc_probe_loop(c, omega, horizon, eps_values):
    """Reference probe: the greedy pack row by row, eps by eps, cell by
    cell, from the verdict window's start, keeping the first maximum in
    (step, row) order."""
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    w = c.space.weights
    burn = tail_start(horizon + 1)
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
       st.integers(0, 2**20), st.integers(min_value=1, max_value=12),
       st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3))
def test_qc_probe_matches_the_greedy_loop(n, uniform, seed, horizon, eps_ninths):
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
    rep = quasi_constrictive_probe(c, point(c.driving, 0), horizon, eps)
    ref = qc_probe_loop(c, point(c.driving, 0), horizon, eps)
    assert rep.deltas.tolist() == [1.0 - b[4] for b in ref]
    assert [(wit.eps, wit.source_cell, wit.n, wit.cells, wit.captured)
            for wit in rep.witnesses] == ref


# -- the row-block burn-in against the whole stack --------------------------------


@single_blas_thread
def detect_whole_stack(c, omega, horizon, r_max, f0=None):
    """Reference detector: the burn-in as one push of the stored identity
    along the orbit, read as a whole (rows by their largest entry, the
    within-component residual over all of a component's rows at once).  It
    walks the orbit itself, so it does not read ``orbit_kernels``.  On one
    BLAS thread, as the detector: gemm's bits depend on the count."""
    n, tol = c.n, EXACT_STRUCTURE_TOL if c.all_exact else ESTIMATED_STRUCTURE_TOL
    burn = tail_start(horizon + 1)
    *steps, late = orbit(c, omega, burn)
    for product in push_kernels(stored_kernel(np.eye(n)),
                                [c.operator_at(pt).kernel for pt in steps]):
        pass
    M = dense(product)
    reach = M > SUPPORT_FLOOR
    hit = np.flatnonzero(reach.any(axis=0))
    roots, comp = np.unique(cell_labels(reach)[hit], return_inverse=True)
    r = roots.size
    if r > r_max:
        return asymptotic._not_found(
            r, burn, tol, f"{r} components exceed the cap r_max={r_max}")
    supports = [hit[comp == i] for i in range(r)]
    comp_of_cell = np.full(n, -1)
    comp_of_cell[hit] = comp
    profiles, within = [], 0.0
    row_comp = comp_of_cell[np.argmax(M, axis=1)]
    for i in range(r):
        rows = M[row_comp == i]
        if rows.size == 0:
            return asymptotic._not_found(r, burn, tol,
                                         "a component receives no mass", supports)
        profile = rows.mean(axis=0)
        within = max(within, float(np.abs(rows - profile).sum(axis=1).max()))
        profiles.append(profile)
    f0 = Density.uniform(c.space) if f0 is None else f0
    burnt = mass_apply(f0.mass, product)
    lambdas = np.array([float(burnt[s].sum()) for s in supports])
    step_kernel = c.operator_at(late).kernel
    rho, pushed_residual = np.full(r, -1), 0.0
    for i, profile in enumerate(profiles):
        pushed = mass_apply(profile, step_kernel)
        landing = np.unique(comp_of_cell[np.flatnonzero(pushed > SUPPORT_FLOOR)])
        if landing.size != 1 or landing[0] < 0:
            return asymptotic._not_found(r, burn, tol, "pushed profile does not "
                                         "land in a single component", supports)
        rho[i] = landing[0]
        pushed_residual = max(pushed_residual,
                              float(np.abs(pushed - profiles[rho[i]]).sum()))
    if sorted(rho.tolist()) != list(range(r)):
        return asymptotic._not_found(r, burn, tol,
                                     "component map is not a permutation", supports)
    residual = max(within, pushed_residual)
    densities = [Density.from_mass(c.space, p) for p in profiles]
    if residual > tol:
        return asymptotic._not_found(
            r, burn, tol, f"structure residual {residual:.3e} above tolerance",
            supports, densities, residual)
    return PeriodicDecomposition(found=True, r=r, rho=rho, supports=supports,
                                 densities=densities, lambdas=lambdas,
                                 burn_in=burn, residual=residual, tol=tol)


def table_kernel(kind, n, rng):
    """A kernel on n cells: a cell map, a relabelled block cycle (a cyclic
    permutation when r = n), a sparse kernel with 2-5 random weights per row
    or a dense one; from 512 cells on the first three are stored as CSR
    (the block cycle when its blocks hold at most n / 32 cells)."""
    if kind == "cell map":
        return sp.csr_array((np.ones(n), (np.arange(n), rng.integers(0, n, n))),
                            shape=(n, n))
    if kind == "block cycle":
        perm = rng.permutation(n)
        r = int(rng.choice([n, max(n // 16, 1), int(rng.integers(1, n + 1))]))
        return block_cycle_kernel(n, r)[np.ix_(perm, perm)]
    if kind == "sparse":
        per = rng.integers(2, 6, size=n)
        rows = np.repeat(np.arange(n), per)
        weights = rng.integers(1, 8, size=rows.size).astype(float)
        kernel = sp.csr_array((weights, (rows, rng.integers(0, n, rows.size))),
                              shape=(n, n))
        return sp.csr_array(kernel.multiply(1.0 / kernel.sum(axis=1)[:, None]))
    kernel = rng.integers(0, 4, size=(n, n)).astype(float)
    kernel[np.arange(n), rng.integers(0, n, size=n)] += 1.0
    return kernel / kernel.sum(axis=1, keepdims=True)


def same_decomposition(dec, ref):
    """Every field bit for bit, the burn-in masses within 1e-15."""
    assert (dec.found, dec.r, dec.burn_in, dec.tol, dec.reason) == (
        ref.found, ref.r, ref.burn_in, ref.tol, ref.reason)
    assert (dec.rho is None) == (ref.rho is None)
    if dec.rho is not None:
        assert dec.rho.tobytes() == ref.rho.tobytes()
    assert [s.tobytes() for s in dec.supports] == [
        s.tobytes() for s in ref.supports]
    assert [d.values.tobytes() for d in dec.densities] == [
        d.values.tobytes() for d in ref.densities]
    assert np.array_equal(dec.residual, ref.residual, equal_nan=True)
    assert (dec.lambdas is None) == (ref.lambdas is None)
    if dec.lambdas is not None:
        assert np.abs(dec.lambdas - ref.lambdas).max() <= 1e-15


@given(st.sampled_from([127, 128, 129, 511, 512, 513, 639, 640, 641]),
       st.lists(st.sampled_from(["cell map", "block cycle", "sparse", "dense"]),
                min_size=1, max_size=3),
       st.integers(0, 9), st.integers(0, 2**20), st.booleans())
def test_row_block_burn_in_matches_the_whole_stack(n, kinds, horizon, seed,
                                                   cap_at_n):
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace.uniform(n)
    # a dense kernel past 512 cells costs a gemm per step: at most one there
    if n >= 512 and kinds.count("dense") > 1:
        kinds = [k for k in kinds if k != "dense"] + ["dense"]
    c = CocycleFamily(driving=finite_rotation(len(kinds)), table={
        i: MarkovMatrix(space, table_kernel(kind, n, rng))
        for i, kind in enumerate(kinds)})
    omega = point(c.driving, int(rng.integers(len(kinds))))
    f0 = Density.from_mass(space, rng.dirichlet(np.ones(n)))
    r_max = n if cap_at_n else 8
    dec = detect_periodicity(c, omega, horizon, r_max, f0=f0)
    same_decomposition(dec, detect_whole_stack(c, omega, horizon, r_max, f0=f0))


def test_detector_holds_one_dense_product():
    # the (1024, 1024) float product is 8 MB, and cell_labels adds 4 MB of
    # int32 temporaries; a second dense product would lift the peak past 16 MB
    space = FiniteMeasureSpace.uniform(1024)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    tracemalloc.start()
    try:
        dec = detect_periodicity(c, point(c.driving, 0), 40, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.found and dec.r == 1
    assert peak < 16 * 2**20


@single_blas_thread
def restricted_tables_from_identity_slices(c, dec, component):
    """Reference restricted power: each point's cycle-length push of the dense
    identity rows of the component's cells, normalised on those cells, along
    an orbit it steps by ``advance`` itself."""
    k, cells = dec.cycle_length(component), dec.supports[component]
    tables, sigma = [], []
    for p in range(c.driving.n_points):
        walk = [advance(c.driving, point(c.driving, p), t) for t in range(k + 1)]
        for rows in push_kernels(np.eye(c.n)[cells],
                                 [c.operator_at(pt).kernel for pt in walk[:-1]]):
            pass
        sigma.append(walk[-1].index)
        block = rows[:, cells]
        tables.append(block / block.sum(axis=1, keepdims=True))
    return tables, sigma


def planted_block_cocycle(n, kinds, seed):
    """Equal blocks of n / 16 shuffled cells, cycled by one permutation pi at
    every point; per point, rows of block i are a bijection onto block
    pi(i) ("bijection"), random weights on 4 of its cells ("sparse") or on all
    of them ("profile").  From 512 cells on the first two are CSR and the
    third is dense.  Returns the cocycle and its planted decomposition."""
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace.uniform(n)
    blocks = np.split(rng.permutation(n), 16)
    pi = rng.permutation(16)
    table = {}
    for p, kind in enumerate(kinds):
        kernel = np.zeros((n, n))
        for block, target in zip(blocks, (blocks[j] for j in pi)):
            if kind == "bijection":
                kernel[block, rng.permutation(target)] = 1.0
                continue
            for row in block:
                cols = target if kind == "profile" else rng.choice(target, 4, False)
                kernel[row, cols] = rng.integers(1, 8, size=cols.size)
        table[p] = MarkovMatrix(space, kernel / kernel.sum(axis=1, keepdims=True))
    c = CocycleFamily(driving=finite_rotation(len(kinds)), table=table)
    order = sorted(range(16), key=lambda i: blocks[i].min())
    dec = PeriodicDecomposition(
        found=True, r=16, rho=np.array([order.index(pi[i]) for i in order]),
        supports=[np.sort(blocks[i]) for i in order],
        densities=[Density.indicator(space, blocks[i], normalized=True)
                   for i in order],
        lambdas=np.full(16, 1 / 16), burn_in=1, residual=0.0, tol=1e-10)
    return c, dec


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("kinds", [("bijection", "sparse"),
                                   ("sparse", "profile", "bijection"),
                                   ("profile",)])
def test_restricted_power_tables_equal_the_identity_slice_build(n, kinds):
    c, dec = planted_block_cocycle(n, kinds, seed=n + len(kinds))
    for component in range(0, 16, 5):
        sub, cells = restricted_power_cocycle(c, dec, component)
        tables, sigma = restricted_tables_from_identity_slices(c, dec, component)
        assert cells.tobytes() == dec.supports[component].tobytes()
        assert sub.driving.sigma.tolist() == sigma
        assert [sub.table[p].kernel.tobytes() for p in range(len(kinds))] == [
            MarkovMatrix(sub.space, t).kernel.tobytes() for t in tables]
