import hashlib
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab.transfer
from cocyclelab.measure import (
    SPARSE_MIN_CELLS,
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    apply,
    integrate,
    markov_check,
    stored_entries,
    stored_kernel,
)
from cocyclelab.seeding import spawned_words
from cocyclelab.transfer import (
    _TOP,
    MapSpec,
    _cell_edges,
    _locate,
    _pcg64_state,
    bit_shift_permutation,
    duality_residual,
    map_point,
    pf_exact,
    pf_ulam,
)

DOUBLING4 = np.array([
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
    [0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.5],
])

IDENTITY_MAP = MapSpec(kind="piecewise_linear", breakpoints=[0.0, 1.0],
                       slopes=[1.0], intercepts=[0.0])


def tent_kernel_oracle(n):
    """Exact tent kernel from analytic preimages: the preimage of [a, b) is
    [a/2, b/2) union (1 - b/2, 1 - a/2]; intersect with each source cell."""
    def overlap(lo1, hi1, lo2, hi2):
        return max(0.0, min(hi1, hi2) - max(lo1, lo2))

    k = np.zeros((n, n))
    for j in range(n):
        a, b = j / n, (j + 1) / n
        pre = [(a / 2, b / 2), (1 - b / 2, 1 - a / 2)]
        for i in range(n):
            lo, hi = i / n, (i + 1) / n
            k[i, j] = sum(overlap(lo, hi, p, q) for p, q in pre) * n
    return k


def test_map_point_frozen_values():
    assert map_point(MapSpec("doubling"), 0.3) == pytest.approx(0.6)
    assert map_point(MapSpec("doubling"), 0.75) == pytest.approx(0.5)
    assert map_point(MapSpec("tent"), 0.3) == pytest.approx(0.6)
    assert map_point(MapSpec("tent"), 0.75) == pytest.approx(0.5)
    # bits=2: cell 1 ([.25,.5)) shifts to cell 2, offset preserved
    assert map_point(MapSpec("baker_cyclic", bits=2), 0.3) == pytest.approx(0.55)
    x2, y2 = map_point(MapSpec("baker_planar"), 0.3, 0.5)
    assert (x2, y2) == (pytest.approx(0.6), pytest.approx(0.25))
    x2, y2 = map_point(MapSpec("baker_planar"), 0.75, 0.5)
    assert (x2, y2) == (pytest.approx(0.5), pytest.approx(0.75))


def test_bit_shift_permutation_frozen():
    # strings 00,01,10,11 -> 00,10,01,11
    assert bit_shift_permutation(2).tolist() == [0, 2, 1, 3]
    # order of the shift divides the bit count
    perm = bit_shift_permutation(4)
    composed = np.arange(16)
    for _ in range(4):
        composed = perm[composed]
    assert composed.tolist() == list(range(16))


def test_pf_exact_doubling_matches_hand_kernel():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    assert P.exact
    assert np.allclose(P.kernel, DOUBLING4, atol=0)
    # one cell: both halves land on it
    one = pf_exact(MapSpec("doubling"), FiniteMeasureSpace.uniform(1))
    assert np.array_equal(one.kernel, [[1.0]])


def test_pf_exact_baker_is_sparse_permutation():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("baker_cyclic", bits=2), space)
    assert P.is_cell_map()
    expect = np.zeros((4, 4))
    expect[np.arange(4), [0, 2, 1, 3]] = 1.0
    assert np.array_equal(P.kernel, expect)
    # from 512 cells on, the permutation is stored as CSR: one 1 per row
    big = pf_exact(MapSpec("baker_cyclic", bits=10),
                   FiniteMeasureSpace.uniform(1024))
    assert isinstance(big.kernel, sp.csr_array)
    assert big.is_cell_map()
    assert np.array_equal(big.kernel.indptr, np.arange(1025))
    assert np.array_equal(big.kernel.indices, bit_shift_permutation(10))
    assert np.array_equal(big.kernel.data, np.ones(1024))


def test_pf_exact_preconditions():
    with pytest.raises(PreconditionError):
        pf_exact(MapSpec("tent"), FiniteMeasureSpace.uniform(4))
    with pytest.raises(PreconditionError):
        pf_exact(MapSpec("doubling"), FiniteMeasureSpace.uniform(6))
    with pytest.raises(PreconditionError):
        pf_exact(MapSpec("baker_cyclic", bits=2), FiniteMeasureSpace.uniform(8))
    weighted = FiniteMeasureSpace(np.array([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(PreconditionError):
        pf_exact(MapSpec("doubling"), weighted)


def test_mapspec_validation():
    with pytest.raises(ValueError):
        MapSpec("baker_cyclic", bits=3)
    with pytest.raises(ValueError):
        MapSpec("piecewise_linear", breakpoints=[0.0, 0.5],
                slopes=[1.0], intercepts=[0.0])
    with pytest.raises(ValueError):
        MapSpec("no_such_map")


@pytest.mark.parametrize("bad, words", [
    ({"slopes": [np.nan]}, "finite"),
    ({"slopes": [np.inf]}, "finite"),
    ({"intercepts": [np.nan]}, "finite"),
    ({"intercepts": [-np.inf]}, "finite"),
    ({"breakpoints": [0.0, np.nan, 1.0], "slopes": [1.0, 1.0],
      "intercepts": [0.0, 0.5]}, "increase"),
    ({"breakpoints": [0.0, np.inf, 1.0], "slopes": [1.0, 1.0],
      "intercepts": [0.0, 0.5]}, "increase"),
], ids=["slope-nan", "slope-inf", "intercept-nan", "intercept-neg-inf",
        "breakpoint-nan", "breakpoint-inf"])
def test_mapspec_rejects_non_finite_pieces(bad, words):
    # an interior NaN breakpoint has no order, so np.diff(b) <= 0 alone
    # misses it
    one = {"breakpoints": [0.0, 1.0], "slopes": [1.0], "intercepts": [0.0]}
    with pytest.raises(ValueError, match=words):
        MapSpec("piecewise_linear", **{**one, **bad})


@pytest.mark.parametrize("kind, extra, unread", [
    ("doubling", {"bits": 4, "slopes": [2.0]}, ["bits", "slopes"]),
    ("tent", {"intercepts": [0.0]}, ["intercepts"]),
    ("baker_planar", {"bits": 2}, ["bits"]),
    ("baker_cyclic", {"bits": 4, "breakpoints": [0.0, 1.0]}, ["breakpoints"]),
    ("piecewise_linear", {"breakpoints": [0.0, 1.0], "slopes": [1.0],
                          "intercepts": [0.0], "bits": 2}, ["bits"]),
])
def test_mapspec_rejects_fields_its_kind_does_not_read(kind, extra, unread):
    # map_point, pf_exact and pf_ulam would ignore them
    with pytest.raises(ValueError, match=re.escape(
            f"map kind {kind!r} does not read {unread}")):
        MapSpec(kind, **extra)


def test_pf_ulam_identity_map_is_identity_kernel():
    space = FiniteMeasureSpace.uniform(8)
    P = pf_ulam(IDENTITY_MAP, space, samples_per_cell=50, seed=0)
    assert not P.exact
    assert np.array_equal(P.kernel, np.eye(8))


def test_pf_ulam_identity_on_nonuniform_space():
    w = np.array([0.4, 0.1, 0.3, 0.2])
    space = FiniteMeasureSpace(w)
    P = pf_ulam(IDENTITY_MAP, space, samples_per_cell=100, seed=1)
    assert np.array_equal(P.kernel, np.eye(4))


@pytest.mark.parametrize("samples, seed, name", [
    (4, None, "seed"), (4, -1, "seed"), (4, 1.5, "seed"), (4, True, "seed"),
    (4, np.float64(2.0), "seed"), (4, "7", "seed"),
    (2.5, 0, "samples_per_cell"), (True, 0, "samples_per_cell"),
    (0, 0, "samples_per_cell"), (np.int64(-3), 0, "samples_per_cell"),
], ids=["seed-none", "seed-negative", "seed-fraction", "seed-bool",
        "seed-numpy-float", "seed-str", "samples-fraction", "samples-bool",
        "samples-zero", "samples-numpy-negative"])
def test_pf_ulam_rejects_a_seed_or_sample_count_that_is_not_a_count(
        samples, seed, name):
    # seed=None would draw OS entropy, a new kernel on every call
    with pytest.raises(PreconditionError, match=f"^{name} must be an integer"):
        pf_ulam(MapSpec("doubling"), FiniteMeasureSpace.uniform(8), samples,
                seed)


def test_pf_ulam_takes_numpy_integers():
    space = FiniteMeasureSpace.uniform(16)
    P = pf_ulam(MapSpec("tent"), space, np.int32(5), np.uint64(2**40))
    assert P.kernel.tobytes() == pf_ulam(MapSpec("tent"), space, 5,
                                         2**40).kernel.tobytes()


def dense_ulam_reference(spec, space, s, seed):
    """pf_ulam written as one dense row per cell: draw the row's samples
    with its own derived seed, map them, bincount the target cells over all
    N cells and divide by the row sum."""
    n = space.n
    children = np.random.SeedSequence(seed).spawn(n)
    kernel = np.zeros((n, n))
    if spec.dimension == 1:
        edges = np.concatenate([[0.0], np.cumsum(space.weights)])
        for i in range(n):
            rng = np.random.default_rng(children[i])
            x = edges[i] + rng.random(s) * (edges[i + 1] - edges[i])
            j = np.clip(np.searchsorted(edges, map_point(spec, x), side="right")
                        - 1, 0, n - 1)
            kernel[i] = np.bincount(j, minlength=n)
    else:
        g = math.isqrt(n)
        for i in range(n):
            rng = np.random.default_rng(children[i])
            x = (i % g + rng.random(s)) / g
            y = (i // g + rng.random(s)) / g
            x2, y2 = map_point(spec, x, y)
            j = np.minimum((x2 * g).astype(int), g - 1) \
                + g * np.minimum((y2 * g).astype(int), g - 1)
            kernel[i] = np.bincount(j, minlength=n)
    return kernel / kernel.sum(axis=1, keepdims=True)


@st.composite
def ulam_case(draw):
    """A map, a partition on either side of 512 cells, a sample count (from
    17 up, pf_ulam splits 1024 rows into more than one block) and a seed."""
    kind = draw(st.sampled_from(["doubling", "tent", "piecewise_linear",
                                 "baker_planar"]))
    if kind == "baker_planar":
        side = draw(st.sampled_from([4, 16, 22, 23, 32]))
        space = FiniteMeasureSpace.uniform(side * side)
    else:
        n = draw(st.sampled_from([3, 64, 256, 511, 512, 700, 1024]))
        if draw(st.booleans()):
            space = FiniteMeasureSpace.uniform(n)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            w = rng.random(n) + 0.1
            space = FiniteMeasureSpace(w / w.sum())
    if kind == "piecewise_linear":
        pieces = draw(st.integers(1, 4))
        inner = sorted(draw(st.lists(st.floats(0.05, 0.95), unique=True,
                                     min_size=pieces - 1, max_size=pieces - 1)))
        spec = MapSpec(kind, breakpoints=[0.0, *inner, 1.0],
                       slopes=draw(st.lists(st.floats(-6, 6), min_size=pieces,
                                            max_size=pieces)),
                       intercepts=draw(st.lists(st.floats(0, 1, exclude_max=True),
                                                min_size=pieces, max_size=pieces)))
    else:
        spec = MapSpec(kind)
    return (spec, space, draw(st.integers(1, 300)), draw(st.integers(0, 2**160)))


@settings(max_examples=40, deadline=None)
@given(ulam_case())
def test_pf_ulam_matches_dense_row_loop(case):
    spec, space, s, seed = case
    P = pf_ulam(spec, space, s, seed)
    expect = dense_ulam_reference(spec, space, s, seed)
    n = space.n
    assert sp.issparse(P.kernel) == (n >= 512 and 32 * np.count_nonzero(expect)
                                     <= n * n)
    got = P.kernel.toarray() if sp.issparse(P.kernel) else P.kernel
    assert got.tobytes() == expect.tobytes()


# seeds of 1 to 6 uint32 words, on each side of the 4-word pool
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1, 2**160 - 1]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**192 - 1)),
       st.one_of(st.sampled_from([0, 1, 5000]), st.integers(0, 5000)))
def test_spawned_words_match_numpy_seed_sequence(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    one = spawned_words(seed, count, 1)
    assert one.shape == (count, 1) and one.dtype == np.uint64
    assert one[:, 0].tolist() == [int(c.generate_state(1, np.uint64)[0])
                                  for c in children]
    assert [_pcg64_state(*w) for w in spawned_words(seed, count, 4).tolist()] \
        == [np.random.PCG64(c).state for c in children]


def test_pf_ulam_kernel_digest_is_frozen():
    # the bytes that numpy's own SeedSequence children and PCG64 streams
    # give; a numpy that changed either stream fails this one named test
    P = pf_ulam(MapSpec("doubling"), FiniteMeasureSpace.uniform(64), 50, 3)
    assert hashlib.sha256(P.kernel.tobytes()).hexdigest() \
        == "0c458f811b7cfd71c526363381f29bd1aec3b9193fd049b77eec2c27bf19d003"


@st.composite
def cell_edges(draw):
    """Edges of uniform or random cells, the random ones scaled so that the
    last edge may end a few ulps below 1.0 (or above it)."""
    n = draw(st.sampled_from([1, 2, 3, 7, 10, 64, 255, 256, 700, 1024, 4096]))
    if draw(st.booleans()):
        return _cell_edges(FiniteMeasureSpace.uniform(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(n) + draw(st.sampled_from([1e-3, 0.1, 1.0]))
    w = w / w.sum() * (1.0 + draw(st.integers(-8, 2)) * 2.0**-53)
    return _cell_edges(FiniteMeasureSpace(w))


@settings(max_examples=60, deadline=None)
@given(cell_edges(), st.integers(0, 2**32 - 1))
def test_locate_matches_searchsorted(edges, seed):
    points = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, _TOP], np.random.default_rng(seed).random(500)])
    n = edges.size - 1
    expect = np.clip(np.searchsorted(edges, points, side="right") - 1, 0, n - 1)
    got = _locate(edges, points)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)
    assert np.array_equal(_locate(edges, points.reshape(-1, 1)),
                          expect.reshape(-1, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300), max_size=50),
       st.integers(0, 2**32 - 1))
def test_doubling_branch_equals_twice_mod_one(xs, seed):
    # on [0, 1), where every draw lies, and outside it too
    x = np.concatenate([[0.0, -0.0, 0.5, np.nextafter(0.5, 0.0), _TOP, 1.0,
                         -0.3, 1e-300], xs,
                        np.random.default_rng(seed).random(200)])
    expect = np.clip((2.0 * x) % 1.0, 0.0, _TOP)
    assert map_point(MapSpec("doubling"), x).tobytes() == expect.tobytes()
    for v in x[:8]:  # 0-d inputs take the same branch
        got = np.asarray(map_point(MapSpec("doubling"), v))
        assert got.tobytes() == np.clip((2.0 * v) % 1.0, 0.0, _TOP).tobytes()


def test_pf_ulam_doubling_close_to_exact():
    space = FiniteMeasureSpace.uniform(64)
    exact = pf_exact(MapSpec("doubling"), space)
    ulam = pf_ulam(MapSpec("doubling"), space, samples_per_cell=10_000, seed=42)
    assert np.abs(ulam.kernel - exact.kernel).max() < 0.02
    assert markov_check(ulam.kernel).ok


def test_pf_ulam_tent_matches_analytic_oracle():
    n = 8
    space = FiniteMeasureSpace.uniform(n)
    oracle = tent_kernel_oracle(n)
    assert markov_check(oracle).ok
    ulam = pf_ulam(MapSpec("tent"), space, samples_per_cell=20_000, seed=5)
    assert np.abs(ulam.kernel - oracle).max() < 0.02


def test_pf_ulam_planar_baker_rows():
    # 4x4 grid: cell (ix, iy) sends half its mass to each of the two cells
    # (2ix + b*(-4) + {0,1}, iy//2 + 2b) with b = [ix >= 2]
    g = 4
    space = FiniteMeasureSpace.uniform(g * g)
    P = pf_ulam(MapSpec("baker_planar"), space, samples_per_cell=8000, seed=3)
    for iy in range(g):
        for ix in range(g):
            i = ix + g * iy
            b = ix >= 2
            col = 2 * ix - 4 * b
            row = iy // 2 + 2 * b
            j1, j2 = col + g * row, col + 1 + g * row
            row_vals = P.kernel[i]
            assert row_vals[j1] == pytest.approx(0.5, abs=0.05)
            assert row_vals[j2] == pytest.approx(0.5, abs=0.05)
            assert row_vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_duality_residual_exact_doubling():
    space = FiniteMeasureSpace.uniform(16)
    P = pf_exact(MapSpec("doubling"), space)
    f = Density.from_mass(space, np.r_[1.0, -1.0, np.zeros(14)])
    g = Observable(space, Density.indicator(space, [0]).values)
    assert duality_residual(P, MapSpec("doubling"), f, g, refinement=8) <= 1e-12


def test_duality_residual_exact_baker():
    space = FiniteMeasureSpace.uniform(16)
    P = pf_exact(MapSpec("baker_cyclic", bits=4), space)
    rng = np.random.default_rng(0)
    f = Density(space, rng.normal(size=16))
    g = Observable(space, rng.normal(size=16))
    assert duality_residual(P, MapSpec("baker_cyclic", bits=4), f, g) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_duality_residual_is_rounding_where_no_midpoint_maps_to_an_edge(seed):
    # doubling sends the middle sub-point of a cell onto a cell edge at every
    # odd refinement, so only its even refinements read at rounding scale
    space = FiniteMeasureSpace.uniform(16)
    rng = np.random.default_rng(seed)
    f = Density(space, rng.normal(size=16))
    g = Observable(space, rng.normal(size=16))
    for spec in (MapSpec("doubling"), MapSpec("baker_cyclic", bits=4)):
        P = pf_exact(spec, space)
        for r in range(1, 9):
            residual = duality_residual(P, spec, f, g, refinement=r)
            if spec.kind == "doubling" and r % 2:
                assert residual > 1e-3
            else:
                assert residual <= 1e-15


def test_duality_residual_decreases_under_refinement():
    spec = MapSpec("doubling")

    def smooth_residual(n):
        space = FiniteMeasureSpace.uniform(n)
        mid = (np.arange(n) + 0.5) / n
        f = Density(space, 1.0 + 0.5 * np.sin(2 * np.pi * mid))
        g = Observable(space, np.cos(2 * np.pi * mid)
                       + 0.25 * np.sin(6 * np.pi * mid))
        P = pf_ulam(spec, space, samples_per_cell=10_000, seed=42)
        return duality_residual(P, spec, f, g, refinement=8)

    r64, r256 = smooth_residual(64), smooth_residual(256)
    assert r256 < 2.0 * r64  # monotone within a factor of 2
    assert r256 < r64  # measured: strict decrease at the pinned seed


def test_duality_residual_2d_small():
    space = FiniteMeasureSpace.uniform(16)
    spec = MapSpec("baker_planar")
    P = pf_ulam(spec, space, samples_per_cell=8000, seed=3)
    rng = np.random.default_rng(1)
    f = Density(space, rng.uniform(0.5, 1.5, size=16))
    g = Observable(space, rng.normal(size=16))
    assert duality_residual(P, spec, f, g, refinement=4) < 0.02


def test_duality_residual_rejects_bad_refinement():
    space = FiniteMeasureSpace.uniform(4)
    P = pf_exact(MapSpec("doubling"), space)
    with pytest.raises(PreconditionError):
        duality_residual(P, MapSpec("doubling"), Density.uniform(space),
                         Observable.constant(space), refinement=0)


def planar_residual_reference(P, f, g, r):
    """The planar duality residual with each quadrature point's source cell
    counted by integer indices and its target cell by the floor formula."""
    gsz = math.isqrt(f.space.n)
    sub = (np.arange(r) + 0.5) / r
    xs = ((np.arange(gsz)[:, None] + sub[None, :]) / gsz).ravel()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    x2, y2 = map_point(MapSpec("baker_planar"), X.ravel(), Y.ravel())
    j = np.minimum((x2 * gsz).astype(int), gsz - 1) \
        + gsz * np.minimum((y2 * gsz).astype(int), gsz - 1)
    m = gsz * r
    src = np.repeat(np.arange(m) // r, m) + gsz * np.tile(np.arange(m) // r, m)
    rhs = float(np.sum(f.values[src] * g.values[j]) / m**2)
    return abs(integrate(apply(P, f), g) - rhs)


@pytest.mark.parametrize("gsz", [2, 3, 5, 8])
@pytest.mark.parametrize("r", [1, 2, 3, 7])
def test_planar_residual_reads_cells_like_the_index_reference(gsz, r):
    space = FiniteMeasureSpace.uniform(gsz * gsz)
    spec = MapSpec("baker_planar")
    P = pf_ulam(spec, space, samples_per_cell=16, seed=gsz)
    rng = np.random.default_rng(gsz * 10 + r)
    f = Density(space, rng.normal(size=space.n))
    g = Observable(space, rng.normal(size=space.n))
    assert duality_residual(P, spec, f, g, refinement=r) \
        == planar_residual_reference(P, f, g, r)


@pytest.mark.parametrize("n, weights", [(15, None), (16, "skewed")])
def test_planar_ulam_and_residual_name_the_caller_in_a_grid_error(n, weights):
    space = (FiniteMeasureSpace.uniform(n) if weights is None else
             FiniteMeasureSpace(np.r_[2.0, np.ones(n - 1)] / (n + 1)))
    spec = MapSpec("baker_planar")
    want = "needs N = g\\^2" if weights is None else "requires a uniform"
    with pytest.raises(PreconditionError, match=f"^pf_ulam .*{want}"):
        pf_ulam(spec, space, samples_per_cell=4, seed=0)
    P = MarkovMatrix(space, np.eye(n))
    with pytest.raises(PreconditionError,
                       match=f"^duality_residual .*{want}"):
        duality_residual(P, spec, Density.uniform(space),
                         Observable.constant(space))


# -- the dense build below the storage rule ------------------------------------


def csr_then_stored(shape, cells, rows, cols, values):
    """Reference build: COO -> CSR, then the storage rule (as MarkovMatrix
    applies it), for every N."""
    return stored_kernel(sp.csr_array((values, (rows, cols)), shape=shape))


def same_stored_kernel(got, ref):
    assert type(got) is type(ref)
    if sp.issparse(ref):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    else:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


STORAGE_SIZES = [2, 64, 256, 511, 512, 1024]
EXACT_CASES = ([("doubling", None, n) for n in [1] + STORAGE_SIZES if not n & (n - 1)]
               + [("baker_cyclic", bits, 1 << bits) for bits in (2, 6, 8, 10)])


@pytest.mark.parametrize("kind, bits, n", EXACT_CASES)
def test_pf_exact_kernel_bytes_equal_the_csr_build(monkeypatch, kind, bits, n):
    spec, space = MapSpec(kind, bits=bits), FiniteMeasureSpace.uniform(n)
    got = pf_exact(spec, space).kernel
    monkeypatch.setattr(cocyclelab.transfer, "stored_entries",
                        csr_then_stored)
    ref = pf_exact(spec, space).kernel
    assert isinstance(ref, sp.csr_array if n >= SPARSE_MIN_CELLS else np.ndarray)
    same_stored_kernel(got, ref)


@pytest.mark.parametrize("n", STORAGE_SIZES)
@pytest.mark.parametrize("kind, samples", [("doubling", 16), ("tent", 3)])
def test_pf_ulam_kernel_bytes_equal_the_csr_build(monkeypatch, n, kind, samples):
    spec, space = MapSpec(kind), FiniteMeasureSpace.uniform(n)
    got = pf_ulam(spec, space, samples, seed=n)
    monkeypatch.setattr(cocyclelab.transfer, "stored_entries",
                        csr_then_stored)
    same_stored_kernel(got.kernel, pf_ulam(spec, space, samples, seed=n).kernel)


@pytest.mark.parametrize("n", [3, 511, 512])
def test_kernel_from_entries_sums_repeated_positions(n):
    rows = np.array([0, 0, 1, 1, 1] + list(range(2, n)))
    cols = np.array([1, 1, 0, 2, 2] + list(range(2, n)))
    values = np.array([0.25, 0.75, 0.5, 0.25, 0.25] + [1.0] * (n - 2))
    same_stored_kernel(stored_entries((n, n), n, rows, cols, values),
                       csr_then_stored((n, n), n, rows, cols, values))

