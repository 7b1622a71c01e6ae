"""Tests for the exactness routes: norm decay, adjoint-orbit flattening, and
preimage-partition coarsening.

Hand-computed oracles: on the 8-cell dyadic doubling kernel the composed
kernel reaches the rank-one uniform kernel at step 3, so the cell-0 column
spread reads 1, 1/2, 1/4, 0, ... and adjacent-difference norms read
1, 1, 1, 0, ...  The pair-collapse map i -> i // 2 on 8 cells coarsens its
preimage partition as 8, 4, 2, 1.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from cocyclelab.cocycle import CocycleFamily, compose
from cocyclelab.driving import finite_rotation, point
from cocyclelab.exactness import (
    ExactnessReport,
    cell_map_destinations,
    exactness_norms,
    exactness_report,
    lin_dual_flatness,
    tail_partition,
)
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
)
from cocyclelab.mixing import correlation_hom, indicator_basis, zero_mean_basis
from cocyclelab.transfer import MapSpec, pf_exact

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
    res = exactness_norms(c, point(c.driving, 0), [f], horizon=5)
    assert res.values[0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert res.sgn_witness_gap == 0.0


def test_norm_curves_reject_nonzero_mean():
    c = doubling_cocycle(4)
    with pytest.raises(PreconditionError):
        exactness_norms(c, point(c.driving, 0), [Density.uniform(c.space)], 3)


def test_norm_curves_block_swap_oscillate():
    c = constant_cocycle(MarkovMatrix(FiniteMeasureSpace.uniform(4), SWAP4))
    f = Density.from_mass(c.space, [0, 0.5, -0.5, 0])
    res = exactness_norms(c, point(c.driving, 0), [f], horizon=6)
    assert np.all(res.values[0] == 1.0)


# -- dual route ----------------------------------------------------------------


def test_dual_flatness_doubling_frozen():
    c = doubling_cocycle(8)
    g = Observable.indicator(c.space, [0])
    res = lin_dual_flatness(c, point(c.driving, 0), [g], horizon=5)
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
    res = lin_dual_flatness(c, omega, [g], horizon=4)
    for n in range(5):
        v = np.asarray(compose(c, omega, n).kernel @ g.values)
        assert res.flatness[0, n] == pytest.approx(v.max() - v.min(), abs=1e-14)


def test_dual_flatness_sparse_permutation_stays_flat_at_one():
    space = FiniteMeasureSpace.uniform(16)
    P = pf_exact(MapSpec("baker_cyclic", bits=4), space)
    assert sp.issparse(P.kernel)
    c = constant_cocycle(P)
    res = lin_dual_flatness(c, point(c.driving, 0),
                            indicator_basis(space, count=4), horizon=8)
    assert np.all(res.flatness == 1.0)


# -- tail partition route ------------------------------------------------------


def test_cell_map_destinations_and_rejection():
    c = cell_map_cocycle([1, 2, 3, 0])
    P = c.table[0]
    assert cell_map_destinations(P).tolist() == [1, 2, 3, 0]
    swap = MarkovMatrix(FiniteMeasureSpace.uniform(4), SWAP4)
    with pytest.raises(PreconditionError):
        cell_map_destinations(swap)


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
    assert rep.sgn_witness_gap == 0.0


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
    for fit in rep.norm_rates.values():
        assert fit.rate == pytest.approx(0.25, rel=1e-6)


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
    diffs = np.diff(res.values, axis=1)
    assert np.all(diffs <= 1e-12)
    assert res.sgn_witness_gap <= 1e-15


@given(random_cocycle(), st.integers(min_value=1, max_value=5))
def test_flatness_bounded_by_initial_spread_and_sandwich(c, horizon):
    res = lin_dual_flatness(c, point(c.driving, 0),
                            indicator_basis(c.space), horizon)
    assert np.all(res.flatness <= res.flatness[:, [0]] + 1e-12)
    assert np.all(res.mean_distance <= res.flatness + 1e-12)
    assert np.all(res.flatness <= 2.0 * res.mean_distance + 1e-12)


@given(random_cocycle(), st.integers(min_value=0, max_value=5))
def test_correlations_bounded_by_norm_times_sup(c, n):
    f = zero_mean_basis(c.space)[0]
    g = Observable(c.space, np.linspace(-1.0, 1.0, c.n))
    omega = point(c.driving, 0)
    res = exactness_norms(c, omega, [f], horizon=n)
    corr = correlation_hom(c, omega, f, g, n)
    assert abs(corr) <= res.values[0, n] * g.sup_norm + 1e-12
