"""Tests for asymptotic periodicity detection, stability, restricted powers,
and the constrictivity probe.

Planted oracle: the block-cycle kernel on near-equal contiguous blocks is
asymptotically periodic after a single step, with uniform block profiles,
the cyclic permutation i -> i + 1 (mod r), and zero residual.  On the 8-cell
doubling kernel the composed kernel is exactly uniform by the burn-in, so
capture values of small cell unions are exact multiples of 1/8.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cocyclelab.asymptotic import (
    SUPPORT_FLOOR,
    PeriodicDecomposition,
    QCReport,
    block_cycle_kernel,
    burn_in_steps,
    detect_periodicity,
    invariant_density_from_decomposition,
    quasi_constrictive_probe,
    restricted_power_cocycle,
    stability_check,
)
from cocyclelab.cocycle import CocycleFamily, compose
from cocyclelab.driving import bernoulli_shift, finite_rotation, point
from cocyclelab.exactness import exactness_norms
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    PreconditionError,
    mass_apply,
)
from cocyclelab.mixing import zero_mean_basis
from cocyclelab.transfer import MapSpec, pf_exact


def constant_cocycle(kernel_or_P, q=1):
    if isinstance(kernel_or_P, MarkovMatrix):
        P = kernel_or_P
    else:
        kernel = np.asarray(kernel_or_P, dtype=float)
        P = MarkovMatrix(FiniteMeasureSpace.uniform(kernel.shape[0]), kernel)
    return CocycleFamily(driving=finite_rotation(q),
                         table={i: P for i in range(q)})


def detect(c, horizon=16, r_max=16, tol=1e-10):
    return detect_periodicity(c, point(c.driving, 0), horizon, r_max, tol)


# -- detection -----------------------------------------------------------------


def test_burn_in_depth():
    assert burn_in_steps(8, 40) == 6
    assert burn_in_steps(8, 6) == 3
    assert burn_in_steps(2, 40) == 2
    assert burn_in_steps(4, 1) == 1


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


def test_stability_doubling_single_profile_iff_exact():
    space = FiniteMeasureSpace.uniform(8)
    c = constant_cocycle(pf_exact(MapSpec("doubling"), space))
    rep = stability_check(c, point(c.driving, 0), horizon=16, r_max=8)
    assert rep.decomposition.found and rep.decomposition.r == 1
    assert rep.exact_verdict and rep.consistent


def test_stability_block_swap_consistent_non_exact():
    c = constant_cocycle(block_cycle_kernel(4, 2))
    rep = stability_check(c, point(c.driving, 0), horizon=16, r_max=8)
    assert rep.decomposition.r == 2
    assert not rep.exact_verdict
    assert rep.consistent


def test_stability_none_found_is_inconclusive():
    c = constant_cocycle(np.eye(8))
    rep = stability_check(c, point(c.driving, 0), horizon=16, r_max=4)
    assert not rep.decomposition.found
    assert rep.consistent is None


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
    f = zero_mean_basis(sub.space)[0]
    res = exactness_norms(sub, point(sub.driving, 0), [f], horizon=3)
    assert res.values[0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_restricted_power_uses_cycle_length_per_component():
    c = constant_cocycle(block_cycle_kernel(9, 3))
    dec = detect(c)
    sub, cells = restricted_power_cocycle(c, dec, 1)
    assert cells.tolist() == [3, 4, 5]
    # the cube of the three-cycle holds each block; uniformization is immediate
    f = zero_mean_basis(sub.space)[0]
    res = exactness_norms(sub, point(sub.driving, 0), [f], horizon=2)
    assert res.values[0].tolist() == [1.0, 0.0, 0.0]


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
    with pytest.raises(PreconditionError):
        quasi_constrictive_probe(c, point(c.driving, 0), 4, [0.0, 0.5])
    with pytest.raises(PreconditionError):
        quasi_constrictive_probe(c, point(c.driving, 0), 0, [0.5])


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
