"""Symmetric tridiagonal operators and the compiled kernel that factors
and steps with them, evaluates the energies of the layers and formats the
CSV outputs.

The three scheme matrices are assembled here:

* mass      -- diagonal of cell widths,
* damping   -- half the graph Laplacian of the damped-zone path, zero outside,
* stiffness -- flux-divergence operator, negative diagonal, coupling across
               the interfaces through the interface flux coefficients.

Every matrix the schemes solve with is positive definite, so it is factored
once as L D L^T without pivoting; any other matrix is rejected.  A step
reads the diagonal and off-diagonal that every TriDiagMatrix holds, in O(n)
time and memory.  step_block takes many steps per call through a ring of
layers and checks each layer against a divergence limit as it writes it;
the bootstrap is one such step.  A run's calls also evaluate, as they write
the layers, the energies of the steps it keeps or verifies: the kernel
alone applies that rule, writes the kept steps' rows into the run's energy
trace and folds every evaluated step into the run's three maxima.

The arithmetic runs in kernel.c, compiled on first import into the
package's __pycache__, loaded with ctypes and called from this module only.
Each array reaches it as a bare address, formed inside the call that passes
it by _address, the one check of an array at this boundary: its exact
shape, dtype and C order, and that it is writeable where the kernel writes.
Each integer passes _indices, which refuses one outside ptrdiff_t.  The
kernel computes what LAPACK pttrf/pttrs and BLAS gbmv compute, every
multiply-add an explicit correctly rounded fma(), so its results are the
same bits on every machine.  Where the factor's off-diagonal is zero, as
outside the explicit scheme's damped zone, it takes the uncoupled cells in
vectorized passes with the same operations on each; the backward sweep of
the coupled cells between them takes those passes along, which fills the
wait of each coupled cell for the one before.  Meshes of 1024 cells or
more (kernel.c's WIDE_CELLS) step in 512-bit vectors where the CPU has
them.  Neither moves a bit: each cell, and each lane of a sum, keeps its
own operations in its own order, whatever the order of the cells or the
width of the vectors.  The energies, which step_block evaluates and no
other call, add each sum's terms in eight lanes in a fixed order.
kv_format_csv (format_csv) writes each double as '%.17g' % x does, with
integer arithmetic only, so the text depends on neither the locale nor the
C library, into the buffer that holds the file's header.
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
    "INDEX_MAX",
    "SingularMatrixError",
    "TriDiagMatrix",
    "LDLFactorization",
    "assemble_mass",
    "assemble_damping",
    "assemble_stiffness",
    "factor",
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
    size, address = ctypes.c_ssize_t, ctypes.c_void_p
    kernel.kv_factor.argtypes = [size, address, address]
    kernel.kv_factor.restype = size
    # after the increments: the kept-step rule, the energy arguments, the trace and maxima
    kernel.kv_step_block.argtypes = [size, size, size, size, ctypes.c_double, *[address] * 8,
                                     size, size, ctypes.c_int, address, address, ctypes.c_double,
                                     ctypes.c_int, size, size, ctypes.c_double, address, address]
    kernel.kv_step_block.restype = size
    kernel.kv_format_csv.argtypes = [size, size, address, address, address]
    kernel.kv_format_csv.restype = size
    return kernel


_kernel = _load_kernel()


# The largest value of the kernel's ptrdiff_t, into which ctypes would wrap
# a larger int silently
INDEX_MAX = 2 ** (8 * ctypes.sizeof(ctypes.c_ssize_t) - 1) - 1


def _indices(**values: int) -> list[int]:
    """The values as the kernel's ptrdiff_t arguments, in order.  Raises
    ValueError, naming the first, unless each lies within ptrdiff_t."""
    for name, value in values.items():
        if not -INDEX_MAX - 1 <= value <= INDEX_MAX:
            raise ValueError(f"{name} = {value} lies outside the kernel's index range, "
                             f"{-INDEX_MAX - 1} .. {INDEX_MAX}")
    return [int(value) for value in values.values()]


def _address(name: str, a: np.ndarray | None, shape: tuple[int, ...], dtype=np.float64,
             written: bool = False) -> int | None:
    """The address a kernel call passes for the array a, or None (NULL) for
    no array.  Raises ValueError, naming the argument, unless a has exactly
    this shape and dtype, is C-contiguous and, if the kernel writes it,
    writeable.  ctypes keeps no reference to a, so the caller holds one by
    a name bound before the call: an array built in the call's arguments
    could be freed before the kernel reads it."""
    if a is None:
        return None
    if (a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous
            or written and not a.flags.writeable):
        raise ValueError(f"{name} must be a {'writeable ' if written else ''}C-contiguous "
                         f"{np.dtype(dtype)} array with dimension lengths {shape}")
    return a.ctypes.data


class SingularMatrixError(ValueError):
    """Raised when the L D L^T factorization meets a non-positive pivot."""


@dataclass(frozen=True)
class TriDiagMatrix:
    """Symmetric tridiagonal matrix stored as main diagonal and one off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        if self.diag.ndim != 1 or self.off.shape != (max(len(self.diag) - 1, 0),):
            raise ValueError("inconsistent tridiagonal storage shapes")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise ValueError("matrix entries must be finite")
        self.diag.setflags(write=False)
        self.off.setflags(write=False)

    def __add__(self, other: "TriDiagMatrix") -> "TriDiagMatrix":
        self._check_same_dim(other)
        return TriDiagMatrix(self.diag + other.diag, self.off + other.off)

    def __sub__(self, other: "TriDiagMatrix") -> "TriDiagMatrix":
        self._check_same_dim(other)
        return TriDiagMatrix(self.diag - other.diag, self.off - other.off)

    def scaled(self, c: float) -> "TriDiagMatrix":
        return TriDiagMatrix(c * self.diag, c * self.off)

    def _check_same_dim(self, other: "TriDiagMatrix") -> None:
        if len(self.diag) != len(other.diag):
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class LDLFactorization:
    """L D L^T factors of a positive definite tridiagonal matrix (pttrf):
    d holds D and e the subdiagonal of the unit lower bidiagonal L."""

    d: np.ndarray
    e: np.ndarray


def assemble_mass(mesh: Mesh) -> TriDiagMatrix:
    """Diagonal mass matrix of cell widths."""
    return TriDiagMatrix(mesh.cell_widths.copy(), np.zeros(max(mesh.n_max - 1, 0)))


def assemble_damping(mesh: Mesh) -> TriDiagMatrix:
    """Damped-zone coupling matrix: half the path-graph Laplacian.

    Nonzero only on the block of the cells on either side of the damped
    zone's interior faces, the faces the dissipation sums over; its
    quadratic form is half the sum of squared jumps across those faces.
    """
    faces = mesh.damping_interior_faces  # face f lies between the cells f - 1 and f
    first, last = faces.start - 1, faces.stop - 1
    diag = np.zeros(mesh.n_max)
    off = np.zeros(max(mesh.n_max - 1, 0))
    diag[first : last + 1] = 1.0
    diag[first] = 0.5
    diag[last] = 0.5
    off[first:last] = -0.5
    return TriDiagMatrix(diag, off)


def assemble_stiffness(ell: FluxCoefficients) -> TriDiagMatrix:
    """Flux-divergence operator with negative diagonal, one row per cell
    between the n + 1 faces of ell.

    Row i carries -(ell[i] + ell[i+1]) on the diagonal and ell at the
    couplings, with the zero-ghost boundary convention folded into the first
    and last rows.
    """
    values = ell.ell
    return TriDiagMatrix(-(values[:-1] + values[1:]), values[1:-1].copy())


def factor(m: TriDiagMatrix) -> LDLFactorization:
    """L D L^T factors of a positive definite m, computed once and reused
    by every step.

    Raises SingularMatrixError when the factorization meets a non-positive
    pivot, that is when m is not positive definite.  Like step_block, it
    takes matrices of three rows or more; every mesh has four or more.
    """
    n = len(m.diag)
    if n < 3:
        raise ValueError("factorization needs a matrix of dimension 3 or more")
    d, e = np.array(m.diag, dtype=float), np.array(m.off, dtype=float)
    info = _kernel.kv_factor(n, _address("d", d, (n,), written=True),
                             _address("e", e, (n - 1,), written=True))
    if info:
        raise SingularMatrixError(f"matrix not positive definite: pivot {info} is not positive")
    d.setflags(write=False)
    e.setflags(write=False)
    return LDLFactorization(d, e)


def step_block(
    block: np.ndarray, start: int, stop: int, stiff: TriDiagMatrix, rhs_prev: TriDiagMatrix,
    f: LDLFactorization, incr: np.ndarray, limit: float, energies: tuple | None = None,
) -> int:
    """Summed-form steps of the layers start .. stop-1, up to the first
    layer past limit, through a ring: layer i lives in row i % len(block).

    Each layer i gets layer i-1 plus d, where L d = stiff layer[i-1] +
    rhs_prev d_prev is solved with L's factors f and d_prev is the
    increment into layer i-1.  incr is a (2, n) array: incr[0] holds the
    increment into layer start-1 and, after the call, the one into the last
    layer written; incr[1] is scratch.  The kernel checks each layer as it
    writes it and returns the first with a value x that fails abs(x) <=
    limit, a NaN among them, stepping no layer after it; else stop.

    energies, (every, last, verify, trace, maxima, args) with args a
    SchemeOperators' energy_args, also evaluates the step i-1 as the layer
    i passes its check, as kernel.c's struct energies defines it.  The step
    s >= 1 is kept when every divides it or it is last, the run's last
    step, and selected when it is kept or verify is true.  Each kept step's
    kinetic, potential and total energy, dissipation and identity residual
    go to the row ceil(s / every) of trace, a (ceil(last / every) + 1, 5)
    array, and each selected step raises, where it is larger, the run's
    identity residual, drift and rise maxima in maxima, 3 doubles that
    start at 0, 0 and -inf; a NaN value makes its maximum NaN for good.  A
    call from start = 2, a run's first, writes row 0 before any step: the
    energies of layers 0 and 1 with dissipation and residual +0.0, its
    total E0 the drift's reference.  An evaluated entry depends only on its
    layers, never on the call.  Energies need start >= 2, three rows and
    stop - 2 <= last.

    The matrices' diagonals and off-diagonals are read as they are.  The
    rows the call writes, incr, trace and maxima must not overlap each
    other or any other argument: an overlap raises ValueError, and so does
    an integer that the kernel's ptrdiff_t cannot hold.
    """
    rows, before = len(block) if block.ndim == 2 else 0, 2 if energies else 1
    if not before <= start <= stop or rows <= before:
        raise ValueError(f"layers {start} .. {stop - 1}, after {before} given ones, do not fit "
                         f"a ring of {rows} rows")
    n = block.shape[1]
    if n < 3:  # the kernel peels off a step's first and last rows
        raise ValueError("steps need matrices of dimension 3 or more")
    every, last, verify, trace, maxima, args = energies or (
        1, 0, False, None, None, (None, None, 0.0, 0, 0, 0, 0.0))
    if energies and not (every >= 1 and stop - 2 <= last):
        raise ValueError(f"every = {every} must be >= 1 and last = {last} >= stop - 2 = "
                         f"{stop - 2}")
    widths, ell, dt, implicit, face_lo, face_hi, coef = args
    row = _kernel.kv_step_block(
        *_indices(n=n, rows=rows, start=start, stop=stop), limit,
        _address("block", block, block.shape, written=True),
        _address("stiff.diag", stiff.diag, (n,)), _address("stiff.off", stiff.off, (n - 1,)),
        _address("rhs_prev.diag", rhs_prev.diag, (n,)),
        _address("rhs_prev.off", rhs_prev.off, (n - 1,)),
        _address("f.d", f.d, (n,)), _address("f.e", f.e, (n - 1,)),
        _address("incr", incr, (2, n), written=True), *_indices(every=every, last=last), verify,
        _address("the mesh's cell widths", widths, (n,)),
        _address("the flux coefficients", ell, (n + 1,)), dt, implicit,
        *_indices(face_lo=face_lo, face_hi=face_hi), coef,
        _address("trace", trace, (-(-last // every) + 1, 5), written=True),
        _address("maxima", maxima, (3,), written=True))
    if row < 0:
        raise ValueError("the rows a step reads and writes, the increments, the trace and the "
                         "maxima must not overlap each other or any other argument")
    return row


# The widest field format_csv writes, as in -1.2345678901234567e-308 (an
# int64 takes at most 20 bytes), and its separator.
_CSV_FIELD_BYTES = 24 + 1


def format_csv(table: np.ndarray, first: np.ndarray | None = None,
               header: bytes = b"") -> memoryview:
    """header, then CSV lines of a C-ordered float64 table, one per row,
    each value written exactly as '%.17g' % value writes it, whatever the
    locale.  first, an int64 vector with an entry per row, leads each line.
    The kernel writes the lines into the buffer that holds the header, and
    the view of the text that this returns is that buffer: the text is
    never copied."""
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError("the table must be two-dimensional with one column or more")
    rows, cols = table.shape
    out = np.empty(len(header) + rows * (cols + (first is not None)) * _CSV_FIELD_BYTES, np.uint8)
    out[:len(header)] = np.frombuffer(header, np.uint8)
    lines = out[len(header):]
    size = _kernel.kv_format_csv(rows, cols, _address("table", table, table.shape),
                                 _address("first", first, (rows,), np.int64),
                                 _address("out", lines, lines.shape, np.uint8, written=True))
    return memoryview(out)[:len(header) + size]
