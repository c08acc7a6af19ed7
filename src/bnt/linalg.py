"""Dense float64 linear algebra that NumPy does not provide as such.

Inputs are plain numpy float64 arrays.  The module holds a row sum and a
stabilized softmax that keep NumPy's bits but add short rows faster, the
sigmoid, Xavier-uniform initialization drawn from the library's own random
streams, modified Gram-Schmidt with a typed error for dependent rows, and a
wrapper around LAPACK's symmetric eigendecomposition that fixes the
eigenvalue order and eigenvector signs, since both are part of the library
contract.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng

GS_NORM_FLOOR = 1e-12
SYMMETRY_TOL = 1e-9


class DegenerateBasisError(ValueError):
    """Rows passed to gram_schmidt are numerically dependent."""


class EigenConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver failed to converge."""


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def sum_lastaxis(a: np.ndarray) -> np.ndarray:
    """Row sums over the last axis, shape (..., 1): bit for bit
    ``a.sum(axis=-1, keepdims=True)``.  Rows of up to 8 entries are added
    column by column in NumPy's own order (pairwise summation: left to right
    below 8, its 8-accumulator tree at 8, both onto +0.0), which skips
    NumPy's slow short-axis reduce; longer rows, and 8-entry rows whose
    last axis is strided (NumPy adds those left to right), call NumPy."""
    n = a.shape[-1]
    if n > 8 or (n == 8 and a.strides[-1] != a.itemsize):
        return a.sum(axis=-1, keepdims=True)
    c = [a[..., j : j + 1] for j in range(n)]
    if n == 8:
        c = [((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))]
    total = np.zeros(a.shape[:-1] + (1,))
    for column in c:
        total += column
    return total


def softmax_lastaxis(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, stabilized by max subtraction.  The result
    goes to ``out``, else to a new array; ``out=a`` works in place with the
    same bits, and otherwise ``a`` is not written.  Rows of up to 8 entries
    take their max and sum column by column, which changes no bit."""
    n = a.shape[-1]
    if 0 < n <= 8:
        peak = a[..., :1].copy()
        for j in range(1, n):
            np.maximum(peak, a[..., j : j + 1], out=peak)
    else:
        peak = a.max(axis=-1, keepdims=True)
    out = np.subtract(a, peak, out=out)
    np.exp(out, out=out)
    out /= sum_lastaxis(out)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1/(1 + exp(-x)) without overflow; ``exp(-|x|)`` is
    computed once and each sign takes the branch that cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def xavier_uniform(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """rows x cols matrix with i.i.d. uniform entries on +-sqrt(6/(rows+cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    bound = np.sqrt(6.0 / (rows + cols))
    u = rng.uniform(rows * cols)
    return (2.0 * bound * u - bound).reshape(rows, cols)


def gram_schmidt(c) -> np.ndarray:
    """Orthonormalize the rows of c with modified Gram-Schmidt.

    Parameters
    ----------
    c : array, shape (k, v), k <= v
        Rows to orthonormalize, processed in order.

    Returns
    -------
    e : ndarray, shape (k, v)
        Rows form an orthonormal set; for every prefix, the span of the
        first rows of e equals the span of the first rows of c.

    Raises
    ------
    DegenerateBasisError
        If a residual row's norm falls below 1e-12 before
        normalization, i.e. the input rows are numerically dependent.
    """
    c = _as_matrix(c, "c")
    k, v = c.shape
    if k > v:
        raise ValueError(f"need at most as many rows as columns, got {k} > {v}")
    e = c.copy()
    for i in range(k):
        row = e[i]
        # Modified variant: re-measure the projection against each
        # already-orthonormal row on the updated residual.
        for j in range(i):
            row -= (e[j] @ row) * e[j]
        norm = np.sqrt(row @ row)
        if norm < GS_NORM_FLOOR:
            raise DegenerateBasisError(
                f"row {i} is numerically dependent on earlier rows (norm {norm:.3e})"
            )
        row /= norm
    return e


def symmetric_eigendecomposition(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and the matching orthonormal eigenvectors as columns, so
    ``m @ vecs[:, i] == vals[i] * vecs[:, i]``.  Signs are fixed so that
    equal inputs give equal features: in each column the entry of largest
    absolute value is positive, the first such entry on ties.

    Raises ValueError for a non-square input or one that is not symmetric
    within 1e-9, and EigenConvergenceError if LAPACK does not converge.
    """
    m = _as_matrix(m, "m")
    n, n2 = m.shape
    if n != n2:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if n == 0:
        return np.zeros(0), np.eye(0)
    if np.abs(m - m.T).max() > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-9")

    try:
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    vals, vecs = vals[::-1], vecs[:, ::-1]
    peaks = vecs[np.abs(vecs).argmax(axis=0), np.arange(n)]
    return vals, vecs * np.where(peaks < 0, -1.0, 1.0)


def orthonormal_rows(k: int, v: int, rng: Rng, max_retries: int = 8) -> np.ndarray:
    """k orthonormal rows in R^v from Gram-Schmidt on a fresh Xavier draw.

    Redraws on a degenerate input (measure-zero event) up to
    max_retries times before giving up.
    """
    for _ in range(max_retries):
        try:
            return gram_schmidt(xavier_uniform(k, v, rng))
        except DegenerateBasisError:
            continue
    raise DegenerateBasisError(
        f"could not draw {k} independent rows in R^{v} after {max_retries} attempts"
    )
