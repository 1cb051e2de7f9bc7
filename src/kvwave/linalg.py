"""Symmetric tridiagonal operators and the compiled kernel that factors
and steps with them, evaluates the energies of the layers and formats the
CSV outputs.

The three scheme matrices are assembled here:

* mass      -- diagonal of cell widths,
* damping   -- half the graph Laplacian of the damped-zone path, zero outside,
* stiffness -- flux-divergence operator, negative diagonal, coupling across
               the interfaces through the interface flux coefficients.

A matrix is factored once and the factors are reused for every step.
Every matrix the schemes solve with is positive definite, so it is factored
as L D L^T without pivoting; any other matrix is rejected.  Products with
the right-hand matrices run on their band storage, so a step costs O(n)
time and the operators O(n) memory.  step_block forms a step's band
products and solves with the factors, a whole block of steps per call; the
bootstrap is one such step.

The arithmetic runs in kernel.c, which is compiled on first import into the
package's __pycache__ and loaded with ctypes.  It computes what LAPACK
pttrf/pttrs and BLAS gbmv compute, with every multiply-add of the band
products an explicit correctly rounded fma(), so its results are the same
bits on every machine.  Its energy entry point, kv_energies, is bound by
diagnostics.layer_energies and sums in numpy's order (einsum's buffered
sequential sums, add.reduce's pairwise sum).  Its CSV entry point,
kv_format_csv, is bound by format_csv: it writes each double as
'%.17g' % x does, with integer arithmetic only, so the text depends on
neither the locale nor the C library.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import FluxCoefficients, Mesh

__all__ = [
    "SingularMatrixError",
    "TriDiagMatrix",
    "LDLFactorization",
    "assemble_mass",
    "assemble_damping",
    "assemble_stiffness",
    "factor",
    "band_storage",
    "step_block",
    "format_csv",
]

# Hardware FMA where the CPU has it; no contraction or reassociation beyond
# the source's own fma() calls, so the bits never depend on these flags.
_CFLAGS = ("-O2", "-ffp-contract=off", "-march=native", "-shared", "-fPIC")


def _cpu() -> str:
    """The machine and the CPU model and features that -march=native builds for."""
    try:
        lines = Path("/proc/cpuinfo").read_text().split("\n\n")[0].splitlines()
    except OSError:
        lines = []
    keys = ("model name", "flags", "Features", "CPU implementer", "CPU part")
    return "\n".join([platform.machine(),
                      *(line for line in lines if line.split(":")[0].strip() in keys)])


def _load_kernel() -> ctypes.CDLL:
    """kernel.c as a shared library, built by cc on the first import.

    The library is cached in the package's __pycache__ under a key of the
    source, the flags and the CPU, so later processes load it without a
    compiler.  Each build writes a file of its own and renames it into place,
    so concurrent first imports are safe, and then deletes the libraries of
    other keys.
    """
    source = Path(__file__).with_name("kernel.c")
    key = hashlib.sha256("\0".join([source.read_text(), *_CFLAGS, _cpu()]).encode())
    lib = source.with_name("__pycache__") / f"kernel-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            lib.parent.mkdir(exist_ok=True)
            subprocess.run(["cc", *_CFLAGS, "-o", str(tmp), str(source), "-lm"],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, lib)
        except (OSError, subprocess.CalledProcessError) as err:
            detail = getattr(err, "stderr", None) or err
            raise ImportError(f"kvwave needs a C compiler (cc) to build {lib} from {source}: "
                              f"{detail}") from None
        finally:
            tmp.unlink(missing_ok=True)
        # libraries of other sources, flags or CPUs are stale; a process that
        # has one loaded keeps it valid after the unlink
        for stale in lib.parent.glob("kernel-*.so"):
            if stale != lib:
                with contextlib.suppress(OSError):
                    stale.unlink()
    kernel = ctypes.CDLL(str(lib))
    size = ctypes.c_ssize_t
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    band = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
    block = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
    kernel.kv_factor.argtypes = [size, out, out]
    kernel.kv_factor.restype = size
    kernel.kv_step_block.argtypes = [size, size, size, block, band, band, vector, vector,
                                     out, out]
    kernel.kv_step_block.restype = None
    table = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    # the selection's flags, as bytes, or NULL: layer_energies checks them
    kernel.kv_energies.argtypes = [size, size, table, ctypes.c_char_p, vector, vector,
                                   ctypes.c_double, ctypes.c_int, size, size, ctypes.c_double,
                                   block]
    kernel.kv_energies.restype = None
    text = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    # first may be NULL, which ndpointer does not pass: format_csv checks it
    kernel.kv_format_csv.argtypes = [size, size, table, ctypes.c_void_p, text]
    kernel.kv_format_csv.restype = size
    return kernel


_kernel = _load_kernel()


def _call(function, *args) -> object:
    """A kernel call whose arrays ctypes rejected raises ValueError."""
    try:
        return function(*args)
    except ctypes.ArgumentError as err:
        raise ValueError(f"kernel arrays must be contiguous float64 arrays, writeable where "
                         f"written: {err}") from None


class SingularMatrixError(ValueError):
    """Raised when the L D L^T factorization meets a non-positive pivot."""


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

    def __post_init__(self) -> None:
        # the kernel reads len(d) entries of d and one fewer of e
        if self.d.ndim != 1 or not len(self.d) or self.e.shape != (len(self.d) - 1,):
            raise ValueError("inconsistent factor shapes")


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
    by every step.

    Raises SingularMatrixError when the factorization meets a non-positive
    pivot, that is when m is not positive definite.  Like band_storage, it
    takes matrices of three rows or more; every mesh has four or more.
    """
    if m.dim < 3:
        raise ValueError("factorization needs a matrix of dimension 3 or more")
    d, e = np.array(m.diag, dtype=float), np.array(m.off, dtype=float)
    info = _kernel.kv_factor(m.dim, d, e)
    if info:
        raise SingularMatrixError(f"matrix not positive definite: pivot {info} is not positive")
    d.setflags(write=False)
    e.setflags(write=False)
    return LDLFactorization(d, e)


def band_storage(m: TriDiagMatrix) -> np.ndarray:
    """The 3 x n BLAS general-band storage of a tridiagonal matrix.

    Column j holds m[j-1, j], m[j, j] and m[j+1, j].  The array is Fortran
    ordered, so each column's three entries are adjacent, as the kernel
    reads them.  The steps need at least three rows; every mesh has four or
    more.
    """
    if m.dim < 3:
        raise ValueError("band storage needs a matrix of dimension 3 or more")
    band = np.zeros((3, m.dim), order="F")
    band[0, 1:] = m.off
    band[1] = m.diag
    band[2, :-1] = m.off
    return band


def step_block(
    block: np.ndarray, start: int, stop: int, stiff: np.ndarray, rhs_prev: np.ndarray,
    f: LDLFactorization, d_prev: np.ndarray, d_next: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Summed-form steps into rows start .. stop-1 of a block of layers.

    Each row i gets block[i-1] + d, where L d = stiff block[i-1] + rhs_prev
    d_prev is solved with L's factors f.  d_prev is the increment into row
    i-1, d goes into d_next, whose previous contents are never read, and
    the two vectors then swap.  Returns (d_prev, d_next) as the next call
    takes them.  The increments must not overlap each other or the block.
    Like band_storage, it takes matrices of three rows or more.
    """
    if block.ndim != 2 or not 1 <= start <= stop <= len(block):
        raise ValueError(f"rows {start} .. {stop - 1} do not follow a row of the block")
    n = block.shape[1]
    if n < 3:  # the kernel peels off a step's first and last rows
        raise ValueError("steps need matrices of dimension 3 or more")
    if (any(a.shape != (3, n) for a in (stiff, rhs_prev))
            or any(v.shape != (n,) for v in (f.d, d_prev, d_next))):
        raise ValueError(f"bands must be 3 x {n} arrays and vectors of length {n}")
    _call(_kernel.kv_step_block, n, int(start), int(stop), block, stiff, rhs_prev, f.d, f.e,
          d_prev, d_next)
    return (d_next, d_prev) if (stop - start) % 2 else (d_prev, d_next)


# The widest field format_csv writes, as in -1.2345678901234567e-308 (an
# int64 takes at most 20 bytes), and its separator.
_CSV_FIELD_BYTES = 24 + 1


def format_csv(table: np.ndarray, first: np.ndarray | None = None) -> bytes:
    """CSV lines of a C-ordered float64 table, one per row, each value
    written exactly as '%.17g' % value writes it, whatever the locale.
    first, an int64 vector with an entry per row, leads each line."""
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError("the table must be two-dimensional with one column or more")
    rows, cols = table.shape
    if first is not None and (first.dtype != np.int64 or first.shape != (rows,)
                              or not first.flags.c_contiguous):
        raise ValueError(f"first must be a contiguous int64 vector of length {rows}")
    out = np.empty(rows * (cols + (first is not None)) * _CSV_FIELD_BYTES, np.uint8)
    size = _call(_kernel.kv_format_csv, rows, cols, table,
                 None if first is None else first.ctypes.data, out)
    return out[:size].tobytes()
