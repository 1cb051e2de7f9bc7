"""Dense reference implementations and norms that the package is checked against."""

from __future__ import annotations

import numpy as np

from kvwave.linalg import SingularMatrixError, TriDiagMatrix, band_sum, solve
from kvwave.mesh import FluxCoefficients, Mesh
from kvwave.schemes import SchemeOperators


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


def quadratic_form(m: TriDiagMatrix, x: np.ndarray) -> float:
    """x^T m x through the dense copy."""
    return float(x @ (to_dense(m) @ x))


def dominance_margin(m: TriDiagMatrix) -> float:
    """Smallest row margin |m_ii| - sum_{j != i} |m_ij|; positive means
    strictly diagonally dominant."""
    dense = np.abs(to_dense(m))
    return float(np.min(2.0 * np.diag(dense) - dense.sum(axis=1)))


def discrete_l2_norm(values: np.ndarray, mesh: Mesh) -> float:
    """Width-weighted Euclidean norm of cell values."""
    return float(np.sqrt(mesh.cell_widths @ (values * values)))


def discrete_h1_seminorm(values: np.ndarray, ell: FluxCoefficients) -> float:
    """Flux-weighted norm of the face jumps, zero ghosts at the boundary."""
    jumps = np.diff(values, prepend=0.0, append=0.0)
    return float(np.sqrt(ell.ell @ (jumps * jumps)))


def one_step_layers(ops: SchemeOperators, u0: np.ndarray, u1: np.ndarray,
                    n_steps: int) -> list[np.ndarray]:
    """Layers 0 .. n_steps of a run from its first two, one summed-form step
    at a time: the right-hand side by band_sum, the increment by solve and
    the layer by np.add, each into a new array."""
    layers = [u0, u1]
    d_prev = u1 - u0
    for _ in range(n_steps - 1):
        d = band_sum(ops._stiff_band, layers[-1], 1.0, ops._rhs_prev_band, d_prev,
                     np.empty_like(u0))
        solve(ops.lhs_factor, d)
        layers.append(np.add(layers[-1], d))
        d_prev = d
    return layers


def explicit_bootstrap(u0: np.ndarray, psi: np.ndarray, ops: SchemeOperators) -> np.ndarray:
    """First layer of the explicit scheme as a componentwise division: its
    bootstrap matrix 2 M is diagonal, so u1 = (R2 u0 + 2 dt R1 psi) / (2 M)."""
    rhs = band_sum(ops._rhs_curr_band, u0, 2.0 * ops.dt, ops._rhs_prev_band, psi,
                   np.zeros_like(u0))
    return rhs / (2.0 * ops.mesh.cell_widths)
