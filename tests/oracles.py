"""Dense reference implementations that the tridiagonal code is checked against."""

from __future__ import annotations

import numpy as np

from kvwave import SingularMatrixError, TriDiagMatrix


def to_dense(m: TriDiagMatrix) -> np.ndarray:
    """The full n x n array of a symmetric tridiagonal matrix."""
    dense = np.diag(m.diag)
    if m.dim > 1:
        dense += np.diag(m.off, 1) + np.diag(m.off, -1)
    return dense


def dense_solve_oracle(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a dense copy.

    Intentionally independent of the tridiagonal LAPACK path.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("need a square matrix and a matching right-hand side")
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise SingularMatrixError(f"singular matrix (column {k})")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
        b[k + 1 :] -= factors * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x
