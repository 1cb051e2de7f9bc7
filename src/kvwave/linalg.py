"""Symmetric tridiagonal operators and linear solvers for the schemes.

The three scheme matrices are assembled here:

* mass      -- diagonal of cell widths,
* damping   -- half the graph Laplacian of the damped-zone path, zero outside,
* stiffness -- flux-divergence operator, negative diagonal, coupling across
               the interfaces through the interface flux coefficients.

A matrix is factored once and the factors are reused for every right-hand
side.  Every matrix the schemes solve with is positive definite, so it is
factored as L D L^T without pivoting (LAPACK pttrf/pttrs); any other matrix
is rejected.  Products with the right-hand matrices run on their BLAS band
storage (gbmv), so a step costs O(n) time and the operators O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .mesh import FluxCoefficients, Mesh

__all__ = [
    "SingularMatrixError",
    "TriDiagMatrix",
    "LDLFactorization",
    "assemble_mass",
    "assemble_damping",
    "assemble_stiffness",
    "factor",
    "solve",
    "band_storage",
    "band_sum",
]

_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), (np.array([1.0]),))
_gbmv = get_blas_funcs("gbmv", (np.array([1.0]),))


class SingularMatrixError(ValueError):
    """Raised when a factorization meets a pivot it cannot use: a
    non-positive one in L D L^T, an exactly zero one in elimination."""


@dataclass(frozen=True)
class TriDiagMatrix:
    """Symmetric tridiagonal matrix stored as main diagonal and one off-diagonal."""

    dim: int
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        if self.diag.shape != (self.dim,) or self.off.shape != (max(self.dim - 1, 0),):
            raise ValueError("inconsistent tridiagonal storage shapes")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise ValueError("matrix entries must be finite")
        self.diag.setflags(write=False)
        self.off.setflags(write=False)

    def __add__(self, other: "TriDiagMatrix") -> "TriDiagMatrix":
        self._check_same_dim(other)
        return TriDiagMatrix(self.dim, self.diag + other.diag, self.off + other.off)

    def __sub__(self, other: "TriDiagMatrix") -> "TriDiagMatrix":
        self._check_same_dim(other)
        return TriDiagMatrix(self.dim, self.diag - other.diag, self.off - other.off)

    def scaled(self, c: float) -> "TriDiagMatrix":
        return TriDiagMatrix(self.dim, c * self.diag, c * self.off)

    def _check_same_dim(self, other: "TriDiagMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class LDLFactorization:
    """L D L^T factors of a positive definite tridiagonal matrix (pttrf):
    d holds D and e the subdiagonal of the unit lower bidiagonal L."""

    d: np.ndarray
    e: np.ndarray


def assemble_mass(mesh: Mesh) -> TriDiagMatrix:
    """Diagonal mass matrix of cell widths."""
    n = mesh.n_max
    return TriDiagMatrix(n, mesh.cell_widths.copy(), np.zeros(max(n - 1, 0)))


def assemble_damping(mesh: Mesh) -> TriDiagMatrix:
    """Damped-zone coupling matrix: half the path-graph Laplacian.

    Nonzero only on the damped-zone block; its quadratic form is half the sum
    of squared jumps across the interior faces of that zone.
    """
    n = mesh.n_max
    first = mesh.n_alpha
    last = first + mesh.n_damp - 1
    diag = np.zeros(n)
    off = np.zeros(max(n - 1, 0))
    diag[first : last + 1] = 1.0
    diag[first] = 0.5
    diag[last] = 0.5
    off[first:last] = -0.5
    return TriDiagMatrix(n, diag, off)


def assemble_stiffness(mesh: Mesh, ell: FluxCoefficients) -> TriDiagMatrix:
    """Flux-divergence operator with negative diagonal.

    Row i carries -(ell[i] + ell[i+1]) on the diagonal and ell at the
    couplings, with the zero-ghost boundary convention folded into the first
    and last rows.
    """
    values = ell.ell
    n = mesh.n_max
    if values.shape != (n + 1,):
        raise ValueError("flux coefficient vector does not match the mesh")
    diag = -(values[:-1] + values[1:])
    off = values[1:n].copy()
    return TriDiagMatrix(n, diag, off)


def factor(m: TriDiagMatrix) -> LDLFactorization:
    """L D L^T factors of a positive definite m, computed once and reused
    across solves.

    Raises SingularMatrixError when pttrf meets a non-positive pivot, that
    is when m is not positive definite.  The LAPACK wrappers need at least
    three rows; every mesh has four or more.
    """
    if m.dim < 3:
        raise ValueError("factorization needs a matrix of dimension 3 or more")
    d, e, info = _pttrf(m.diag, m.off)
    if info > 0:
        raise SingularMatrixError(f"matrix not positive definite: pivot {info} is not positive")
    if info < 0:
        raise ValueError(f"invalid argument {-info} to tridiagonal factorization")
    return LDLFactorization(d, e)


def solve(f: LDLFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve with previously computed factors, in place: rhs becomes the solution."""
    if rhs.shape != f.d.shape:
        raise ValueError("right-hand side length does not match the factorization")
    x, info = _pttrs(f.d, f.e, rhs, 1)
    if x is not rhs:  # LAPACK solved a copy
        raise ValueError("rhs must be a contiguous float64 vector")
    if info != 0:
        raise SingularMatrixError("tridiagonal solve failed")
    return rhs


def band_storage(m: TriDiagMatrix) -> np.ndarray:
    """The 3 x n BLAS general-band storage of a tridiagonal matrix.

    Column j holds m[j-1, j], m[j, j] and m[j+1, j].  The array is Fortran
    ordered so that gbmv reads it in place instead of copying it per call.
    The BLAS wrapper needs at least three rows; every mesh has four or more.
    """
    if m.dim < 3:
        raise ValueError("band storage needs a matrix of dimension 3 or more")
    band = np.zeros((3, m.dim), order="F")
    band[0, 1:] = m.off
    band[1] = m.diag
    band[2, :-1] = m.off
    return band


def band_sum(
    a: np.ndarray, x: np.ndarray, scale: float, b: np.ndarray, y: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """a x + scale (b y) for two matrices in band storage, written into out.

    out's previous contents are never read (gbmv with beta = 0 overwrites
    them).  The wrapper is called with positional arguments only: parsing
    keywords more than doubled the cost of a call at 68 cells.
    """
    n = a.shape[1]
    # (m, n, kl, ku, alpha, a, x, incx, offx, beta, y, incy, offy, trans, overwrite_y)
    res = _gbmv(n, n, 1, 1, 1.0, a, x, 1, 0, 0.0, out, 1, 0, 0, 1)
    res = _gbmv(n, n, 1, 1, scale, b, y, 1, 0, 1.0, res, 1, 0, 0, 1)
    if res is not out:  # BLAS wrote into a copy
        raise ValueError("out must be a contiguous float64 vector")
    return out
