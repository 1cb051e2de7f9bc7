"""Symmetric tridiagonal operators and linear solvers for the schemes.

The three scheme matrices are assembled here:

* mass      -- diagonal of cell widths,
* damping   -- half the graph Laplacian of the damped-zone path, zero outside,
* stiffness -- flux-divergence operator, negative diagonal, coupling across
               the interfaces through the interface flux coefficients.

A matrix is factored once and the factors are reused for every right-hand
side.  A positive definite matrix, which every matrix the schemes solve with
is, gets an L D L^T factorization without pivoting (LAPACK pttrf/pttrs); any
other nonsingular matrix falls back to a partial-pivoting LU factorization
(gttrf/gttrs).  Products with the right-hand matrices run on their BLAS band
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
    "TriDiagFactorization",
    "LDLFactorization",
    "LUFactorization",
    "assemble_mass",
    "assemble_damping",
    "assemble_stiffness",
    "factor",
    "solve",
    "band_storage",
    "band_sum",
]

_pttrf, _pttrs, _gttrf, _gttrs = get_lapack_funcs(
    ("pttrf", "pttrs", "gttrf", "gttrs"), (np.array([1.0]),)
)
_gbmv = get_blas_funcs("gbmv", (np.array([1.0]),))


class SingularMatrixError(ValueError):
    """Raised when a factorization or elimination meets an exactly zero pivot."""


@dataclass(frozen=True)
class TriDiagMatrix:
    """Symmetric tridiagonal matrix stored as main diagonal and one off-diagonal."""

    dim: int
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        if self.diag.shape != (self.dim,) or self.off.shape != (max(self.dim - 1, 0),):
            raise ValueError("inconsistent tridiagonal storage shapes")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.off))):
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


@dataclass(frozen=True)
class LUFactorization:
    """Partial-pivoting LU factors of a tridiagonal matrix (gttrf)."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray


TriDiagFactorization = LDLFactorization | LUFactorization


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


def factor(m: TriDiagMatrix) -> TriDiagFactorization:
    """Factors of m, computed once and reused across solves.

    L D L^T without pivoting when m is positive definite (pttrf meets no
    non-positive pivot), else a partial-pivoting LU factorization.  The
    LAPACK wrappers need at least three rows; every mesh has four or more.
    """
    if m.dim < 3:
        raise ValueError("factorization needs a matrix of dimension 3 or more")
    d, e, info = _pttrf(m.diag, m.off)
    if info == 0:
        return LDLFactorization(d, e)
    if info < 0:
        raise ValueError(f"invalid argument {-info} to tridiagonal factorization")
    dl, d, du, du2, ipiv, info = _gttrf(m.off.copy(), m.diag.copy(), m.off.copy())
    if info > 0:
        raise SingularMatrixError(f"zero pivot at row {info}")
    if info < 0:
        raise ValueError(f"invalid argument {-info} to tridiagonal factorization")
    return LUFactorization(dl, d, du, du2, ipiv)


def solve(f: TriDiagFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve with previously computed factors, in place: rhs becomes the solution."""
    if rhs.shape != f.d.shape:
        raise ValueError("right-hand side length does not match the factorization")
    if type(f) is LDLFactorization:
        x, info = _pttrs(f.d, f.e, rhs, 1)
    else:
        x, info = _gttrs(f.dl, f.d, f.du, f.du2, f.ipiv, rhs, "N", 1)
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
