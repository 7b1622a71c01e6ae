import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cocyclelab.driving import (
    DrivingError,
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
    d = bernoulli_shift([0.5, 0.5], window=3)
    (a,) = sample_env(d, 1, seed=7)
    (b,) = sample_env(d, 1, seed=7)
    assert a.window_symbols(-3, 3) == b.window_symbols(-3, 3)
    # extending the window never changes already-resolved symbols
    before = a.window_symbols(-3, 3)
    a.window_symbols(-10, 10)
    assert a.window_symbols(-3, 3) == before


def test_bernoulli_shift_is_reindexing():
    d = bernoulli_shift([0.5, 0.5], window=2)
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
    d = bernoulli_shift([0.9, 0.1], window=0)
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
    d = bernoulli_shift([0.25, 0.75], window=1)
    (w,) = sample_env(d, 1, seed=seed)
    assert advance(d, advance(d, w, a), b) == advance(d, w, a + b)
    assert advance(d, w, a).symbol(0) == w.symbol(a)
