"""Dense linear algebra: softmax, orthonormalization, eigen."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnt.linalg import (
    DegenerateBasisError,
    EigenConvergenceError,
    gram_schmidt,
    orthonormal_rows,
    sigmoid,
    softmax_lastaxis,
    sum_lastaxis,
    symmetric_eigendecomposition,
    xavier_uniform,
)
from bnt.rng import Rng

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def _matrix_strategy(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(finite_floats, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(np.array)
        )
    )


def test_softmax_rows_hand_value():
    # softmax([0, ln 3]) = [1/4, 3/4]
    out = softmax_lastaxis(np.array([[0.0, np.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)


@given(_matrix_strategy())
def test_softmax_rows_sum_to_one(m):
    out = softmax_lastaxis(m)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out > 0).all()


def test_softmax_rows_shift_invariant_and_stable():
    m = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
    shifted = softmax_lastaxis(m + 1234.5)
    assert np.allclose(shifted, softmax_lastaxis(m), atol=1e-12)
    huge = softmax_lastaxis(np.array([[1e4, 0.0]]))
    assert np.isfinite(huge).all()


def test_softmax_does_not_mutate_input():
    m = Rng(3).normal(2 * 3 * 5).reshape(2, 3, 5)
    before = m.copy()
    softmax_lastaxis(m)
    assert np.array_equal(m, before)


def test_sigmoid_matches_the_two_branch_form_and_does_not_overflow():
    x = np.concatenate([Rng(4).normal(1000) * 30.0, [0.0, -0.0, 709.0, -745.0, 1e308, -1e308]])
    with np.errstate(over="raise"):
        got = sigmoid(x)
    ax = np.abs(x)
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-ax)), np.exp(-ax) / (1.0 + np.exp(-ax)))
    assert np.array_equal(got, want)
    assert got[-2] == 1.0 and got[-1] == 0.0 and got[-6] == 0.5


def test_xavier_uniform_bound_and_determinism():
    w = xavier_uniform(30, 50, Rng(3))
    bound = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert (np.abs(w) <= bound).all()
    assert np.array_equal(w, xavier_uniform(30, 50, Rng(3)))
    # draws should actually approach the bound
    assert np.abs(w).max() > 0.9 * bound


def test_gram_schmidt_hand_case():
    e = gram_schmidt(np.array([[3.0, 4.0], [1.0, 0.0]]))
    assert np.allclose(e, [[0.6, 0.8], [0.8, -0.6]], atol=1e-15)


@given(st.integers(1, 8), st.integers(0, 10_000))
def test_gram_schmidt_orthonormal_and_span(k, seed):
    v = k + 3
    c = Rng(seed).normal(k * v).reshape(k, v)
    e = gram_schmidt(c)
    assert np.abs(e @ e.T - np.eye(k)).max() < 1e-10
    # span preservation: every input row lies in the span of the output rows
    residual = c - (c @ e.T) @ e
    assert np.abs(residual).max() < 1e-9 * max(1.0, np.abs(c).max())


def test_gram_schmidt_does_not_mutate_input():
    c = np.array([[2.0, 0.0], [1.0, 1.0]])
    snapshot = c.copy()
    gram_schmidt(c)
    assert np.array_equal(c, snapshot)


def test_gram_schmidt_rejects_dependent_rows():
    with pytest.raises(DegenerateBasisError):
        gram_schmidt(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))


def test_gram_schmidt_rejects_wide_input():
    with pytest.raises(ValueError):
        gram_schmidt(np.ones((3, 2)))


def test_eigendecomposition_hand_case():
    vals, vecs = symmetric_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    for column, expected in ((vecs[:, 0], [s, s]), (vecs[:, 1], [s, -s])):
        assert np.allclose(column, expected, atol=1e-12) or np.allclose(
            column, -np.asarray(expected), atol=1e-12
        )


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(deadline=None)
def test_eigendecomposition_reconstructs(n, seed):
    g = Rng(seed).normal(n * n).reshape(n, n)
    m = (g + g.T) / 2.0
    vals, vecs = symmetric_eigendecomposition(m)
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-9)
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-9
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(n - 1))


def test_eigenvalues_match_closed_form():
    # tridiagonal (-1, 2, -1): eigenvalues 2 - 2 cos(k pi / (n + 1)), k = 1..n
    for n in (1, 2, 5, 12):
        m = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        vals, _ = symmetric_eigendecomposition(m)
        k = np.arange(n, 0, -1)
        assert np.allclose(vals, 2.0 - 2.0 * np.cos(k * np.pi / (n + 1)), rtol=0, atol=1e-12), n


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(deadline=None)
def test_eigenvector_sign_convention(n, seed):
    g = Rng(seed).normal(n * n).reshape(n, n)
    _, vecs = symmetric_eigendecomposition(g + g.T)
    mags = np.sort(np.abs(vecs), axis=0)
    assume(n == 1 or (mags[-1] - mags[-2] > 1e-6).all())  # no tie in absolute value
    assert (vecs[np.abs(vecs).argmax(axis=0), np.arange(n)] > 0).all()


def test_eigendecomposition_nonconvergence_is_typed(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        symmetric_eigendecomposition(np.eye(3))


def test_eigendecomposition_rejects_asymmetry():
    with pytest.raises(ValueError):
        symmetric_eigendecomposition(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_orthonormal_rows_shapes_and_identity():
    for k, v in ((3, 5), (4, 16)):
        e = orthonormal_rows(k, v, Rng(0))
        assert e.shape == (k, v)
        assert np.abs(e @ e.T - np.eye(k)).max() < 1e-10


@given(_matrix_strategy())
def test_softmax_in_place_matches_allocating_call(m):
    expected = softmax_lastaxis(m)
    out = softmax_lastaxis(m, out=m)
    assert out is m
    assert np.array_equal(m, expected)


def _softmax_reference(a):
    """The softmax as NumPy's reductions give it."""
    out = a - a.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _rows(n):
    """(rows, n) inputs: scaled normals, rows drawn from +-0, +-inf, NaN and
    a few finite values, and rows of one special value each."""
    rng = Rng(n)
    scaled = rng.normal(64 * n).reshape(64, n) * np.exp(8.0 * rng.normal(64 * n).reshape(64, n))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 1e308, 5e-324])
    mixed = special[(rng.uniform(64 * n) * len(special)).astype(int)].reshape(64, n)
    uniform = np.repeat(special, n).reshape(-1, n)
    return np.vstack([scaled, mixed, uniform, -uniform])


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)  # NaN wherever NumPy gives NaN
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32])
def test_short_row_folds_give_the_bits_of_numpys_reductions(n):
    # NumPy adds a contiguous 8-entry row as a tree but a strided one left
    # to right, so both layouts are checked; 3-D stacks take the same rule
    c = _rows(n)
    for a in (c, np.ascontiguousarray(c.T).T, c.reshape(-1, 2, n), c[::-1]):
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_same_bits(sum_lastaxis(a), a.sum(axis=-1, keepdims=True))
            want = _softmax_reference(a)
            _assert_same_bits(softmax_lastaxis(a), want)
            b = a.copy(order="K")  # keeps the layout
            assert softmax_lastaxis(b, out=b) is b
        _assert_same_bits(b, want)
