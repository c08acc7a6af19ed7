"""Seeded random stream: determinism, distribution sanity, derivation."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bnt.rng import Rng


# Frozen outputs pin the stream itself: any change to the generator is a
# compatibility break and must show up here, not in some downstream test.
GOLDEN_UNIFORM_SEED0 = [
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
]
GOLDEN_UNIFORM_SEED12345 = [0.1330796686614273, 0.20481663336165912]
GOLDEN_NORMAL_SEED0 = [-1.8839083333524405, 0.8645068595575148]
GOLDEN_SHUFFLE_SEED7_N8 = [7, 4, 6, 1, 2, 5, 0, 3]


def test_golden_uniforms():
    assert Rng(0).uniform(4).tolist() == GOLDEN_UNIFORM_SEED0
    assert Rng(12345).uniform(2).tolist() == GOLDEN_UNIFORM_SEED12345


def test_golden_normals():
    assert Rng(0).normal(2).tolist() == GOLDEN_NORMAL_SEED0


def test_golden_shuffle():
    assert Rng(7).shuffle(8).tolist() == GOLDEN_SHUFFLE_SEED7_N8


def test_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(50), b.normal(50))


def test_stream_is_position_based():
    # splitting one draw into two must not change what comes out
    split = Rng(9)
    first = split.uniform(3)
    second = split.uniform(2)
    whole = Rng(9).uniform(5)
    assert np.array_equal(np.concatenate([first, second]), whole)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(0, 200),
    st.booleans(),
    st.integers(0, 99),
    st.data(),
)
def test_normal_span_is_a_slice_of_normal(seed, pairs, odd, counter, data):
    n = 2 * pairs + odd
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    rng = Rng(seed)
    rng.counter = counter
    span = rng.normal_span(n, lo, hi)
    assert rng.counter == counter
    assert np.array_equal(span, rng.normal(n)[lo:hi])
    assert rng.counter == counter + 2 * ((n + 1) // 2)


def test_uniform_range_and_moments():
    u = Rng(1).uniform(100_000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    z = Rng(2).normal(100_000)
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_distinct_seeds_differ():
    assert not np.array_equal(Rng(0).uniform(8), Rng(1).uniform(8))


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
def test_shuffle_is_permutation(n, seed):
    perm = Rng(seed).shuffle(n)
    assert sorted(perm.tolist()) == list(range(n))


def test_shuffle_deterministic():
    assert np.array_equal(Rng(3).shuffle(64), Rng(3).shuffle(64))


def test_derive_builds_distinct_streams():
    base = Rng(5)
    child_a = base.derive(1)
    child_b = base.derive(2)
    nested = base.derive(1, 2)
    streams = [base.uniform(6), child_a.uniform(6), child_b.uniform(6), nested.uniform(6)]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])


def test_derive_deterministic_and_pure():
    base = Rng(5)
    first = base.derive(2, 7).uniform(4)
    # deriving must not consume from or disturb the parent stream
    parent_draw = base.uniform(4)
    second = base.derive(2, 7).uniform(4)
    assert np.array_equal(first, second)
    assert np.array_equal(parent_draw, Rng(5).uniform(4))


def test_large_seeds_no_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = Rng(2**63 + 11).derive(2**62, 3)
        r.uniform(100)
        r.normal(100)
        Rng(-1 & (2**64 - 1)).shuffle(10)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_any_seed_valid(seed):
    u = Rng(seed).uniform(3)
    assert (u >= 0.0).all() and (u < 1.0).all()
