import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocyclelab.driving import (
    DrivingError,
    _SymbolStream,
    _zigzag,
    advance,
    bernoulli_shift,
    cylinder_probability,
    feature,
    finite_permutation,
    finite_rotation,
    intersect_constraints,
    point,
    points,
    sample_env,
    shifted_constraints,
)


def test_rotation_returns_to_start_after_q_steps():
    d = finite_rotation(4)
    w = point(d, 0)
    for _ in range(4):
        w = advance(d, w, 1)
    assert w == point(d, 0)


def test_advance_negative_inverts():
    d = finite_permutation([2, 0, 1])
    w = point(d, 1)
    assert advance(d, advance(d, w, 2), -2) == w


def test_invariance_validation_rejects_nonconstant_probs_on_orbit():
    with pytest.raises(DrivingError, match="invariant violation"):
        finite_permutation([1, 0], probs=[0.3, 0.7])
    # constant on each orbit is fine even if orbits differ
    finite_permutation([1, 0, 2], probs=[0.25, 0.25, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probabilities_must_be_finite(bad):
    with pytest.raises(DrivingError, match="probability vector"):
        bernoulli_shift([bad, 1.0])
    with pytest.raises(DrivingError, match="probability vector"):
        finite_rotation(2, probs=[bad, 1.0])


def test_sigma_must_be_permutation():
    with pytest.raises(DrivingError, match="permutation"):
        finite_permutation([0, 0, 1])


def test_feature_finite_is_index():
    d = finite_rotation(3)
    assert feature(d, point(d, 2)) == 2


def test_sample_env_finite_deterministic():
    d = finite_rotation(5)
    a = sample_env(d, 10, seed=42)
    b = sample_env(d, 10, seed=42)
    assert [p.index for p in a] == [p.index for p in b]


def test_bernoulli_sample_deterministic_and_stable():
    d = bernoulli_shift([0.5, 0.5])
    (a,) = sample_env(d, 1, seed=7)
    (b,) = sample_env(d, 1, seed=7)
    near = range(-3, 4)
    assert [a.symbol(k) for k in near] == [b.symbol(k) for k in near]
    # resolving blocks farther out never changes already-resolved symbols
    before = [a.symbol(k) for k in near]
    for k in range(-100, 101):
        a.symbol(k)
    assert [a.symbol(k) for k in near] == before


def test_bernoulli_shift_is_reindexing():
    d = bernoulli_shift([0.5, 0.5])
    (w,) = sample_env(d, 1, seed=3)
    w1 = advance(d, w, 1)
    w2a = advance(d, w1, 1)
    w2b = advance(d, w, 2)
    assert w2a == w2b
    assert w2a.symbol(0) == w.symbol(2)
    assert feature(d, w1) == w.symbol(1)
    back = advance(d, w1, -1)
    assert back == w


def test_bernoulli_symbols_follow_probs():
    d = bernoulli_shift([0.9, 0.1])
    pts = sample_env(d, 500, seed=0)
    frac = np.mean([p.symbol(0) for p in pts])
    assert frac == pytest.approx(0.1, abs=0.05)


def test_cylinder_probability_and_shift():
    d = bernoulli_shift([0.5, 0.5])
    assert cylinder_probability(d, {0: 1, 3: 0}) == pytest.approx(0.25)
    assert shifted_constraints({0: 1}, 5) == {5: 1}
    assert intersect_constraints({0: 1}, {0: 0}) is None
    assert intersect_constraints({0: 1}, {1: 0}) == {0: 1, 1: 0}
    # shift invariance of the product measure on cylinders
    assert cylinder_probability(d, shifted_constraints({0: 1, 2: 0}, 9)) == \
        cylinder_probability(d, {0: 1, 2: 0})


@pytest.mark.parametrize("d", [finite_rotation(3), bernoulli_shift([0.5, 0.5])])
def test_sample_env_rejects_a_negative_count(d):
    with pytest.raises(DrivingError, match="count"):
        sample_env(d, -1, seed=0)


@pytest.mark.parametrize("d", [finite_rotation(3), bernoulli_shift([0.5, 0.5])])
def test_sample_env_rejects_a_negative_seed(d):
    with pytest.raises(DrivingError, match="seed"):
        sample_env(d, 2, -1)


@pytest.mark.parametrize("d", [finite_rotation(3), bernoulli_shift([0.5, 0.5])],
                         ids=["finite", "bernoulli"])
@pytest.mark.parametrize("count, seed, name", [
    (1.5, 0, "count"), (None, 0, "count"), ("3", 0, "count"),
    (True, 0, "count"), (np.float64(2.0), 0, "count"),
    (2, 1.5, "seed"), (2, None, "seed"), (2, "7", "seed"), (2, True, "seed"),
    (2, np.float64(2.0), "seed"),
], ids=["count-fraction", "count-none", "count-str", "count-bool",
        "count-numpy-float", "seed-fraction", "seed-none", "seed-str",
        "seed-bool", "seed-numpy-float"])
def test_sample_env_rejects_a_count_or_seed_that_is_not_an_integer(
        d, count, seed, name):
    # seed=None would draw OS entropy, a new sample on every call
    with pytest.raises(DrivingError, match=f"^{name} must be an integer >= 0"):
        sample_env(d, count, seed)


@pytest.mark.parametrize("d", [finite_rotation(3), bernoulli_shift([0.5, 0.5])],
                         ids=["finite", "bernoulli"])
def test_sample_env_takes_numpy_integers(d):
    assert sample_env(d, np.int32(4), np.uint64(2**40)) \
        == sample_env(d, 4, 2**40)


@given(st.integers(0, 2**160), st.integers(0, 40))
def test_bernoulli_stream_seeds_are_the_spawned_children_words(seed, count):
    pts = sample_env(bernoulli_shift([0.5, 0.5]), count, seed)
    assert [p.stream.seed for p in pts] == [
        int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(seed).spawn(count)]


def philox_symbol(seed, cum, k):
    """Reference: one generator advanced to coordinate k's own block."""
    bg = np.random.Philox(key=seed)
    bg.advance(_zigzag(k))
    u = np.random.Generator(bg).random()
    return int(np.searchsorted(cum, u, side="right"))


# coordinates on both sides of the 64-wide zigzag block edges
BLOCK_EDGES = [-129, -128, -65, -64, -33, -32, -1, 0, 31, 32, 63, 64, 127, 128]


@given(st.integers(0, 2**64 - 1),
       st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.lists(st.one_of(st.integers(-150, 150), st.sampled_from(BLOCK_EDGES),
                          st.integers(-10**9, 10**9)),
                min_size=1, max_size=12))
def test_block_resolution_matches_one_coordinate_generators(seed, weights,
                                                            coords):
    cum = np.cumsum(np.array(weights) / sum(weights))
    stream = _SymbolStream(seed, cum)
    # the list order is the access order, repeats included
    assert [stream.symbol(k) for k in coords] \
        == [philox_symbol(seed, cum, k) for k in coords]
    # symbols resolved ahead of use are the ones each coordinate would get
    ahead = sorted(stream.cache)[::16]
    assert [stream.cache[k] for k in ahead] \
        == [philox_symbol(seed, cum, k) for k in ahead]


def test_points_enumeration():
    d = finite_rotation(3)
    assert [p.index for p in points(d)] == [0, 1, 2]
    with pytest.raises(DrivingError):
        point(d, 5)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(2, 8),
       st.integers(0, 2**20))
def test_prop_advance_additive_finite(a, b, q, seed):
    rng = np.random.default_rng(seed)
    d = finite_permutation(rng.permutation(q))
    w = point(d, int(rng.integers(q)))
    assert advance(d, advance(d, w, a), b) == advance(d, w, a + b)


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(0, 2**20))
def test_prop_advance_additive_bernoulli(a, b, seed):
    d = bernoulli_shift([0.25, 0.75])
    (w,) = sample_env(d, 1, seed=seed)
    assert advance(d, advance(d, w, a), b) == advance(d, w, a + b)
    assert advance(d, w, a).symbol(0) == w.symbol(a)


def test_points_of_another_driving_are_not_equal():
    assert point(finite_rotation(3), 1) != point(finite_rotation(2), 1)
    assert point(finite_rotation(2), 1) != point(finite_rotation(2), 1)
    d = finite_rotation(2)
    assert point(d, 1) == point(d, 1)
    assert hash(point(d, 1)) == hash(point(d, 1))
    # Bernoulli points with one seed and origin: equal only on one driving
    fair, biased = bernoulli_shift([0.5, 0.5]), bernoulli_shift([0.9, 0.1])
    assert sample_env(fair, 1, 5) == sample_env(fair, 1, 5)
    assert sample_env(fair, 1, 5) != sample_env(biased, 1, 5)


def test_advance_rejects_a_point_of_another_driving_of_the_same_kind():
    # a larger rotation's point index is out of range on the smaller one
    with pytest.raises(DrivingError):
        advance(finite_rotation(2), point(finite_rotation(3), 2), 1)
    # a biased Bernoulli point would keep its own symbol thresholds
    fair, biased = bernoulli_shift([0.5, 0.5]), bernoulli_shift([0.9, 0.1])
    (w,) = sample_env(biased, 1, seed=4)
    with pytest.raises(DrivingError):
        advance(fair, w, 1)
    assert advance(biased, w, 1).system is biased
