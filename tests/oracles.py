"""Dense reference implementations and norms that the package is checked against."""

from __future__ import annotations

import numpy as np

from kvwave.linalg import SingularMatrixError, TriDiagMatrix
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


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as C99 fma(): float(Fraction(a) * Fraction(b)
    + Fraction(c)).  It is computed from the floats' integer ratios, whose
    denominators are powers of two, because int / int rounds correctly and
    is several times faster than Fraction."""
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def band_products(a: np.ndarray, x: np.ndarray, scale: float, b: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """a x + scale (b y) for two 3 x n band arrays, rounded as the kernel
    rounds it: each row adds its products over the columns in order, one
    fma each, a x first, starting from +0; scale multiplies y first."""
    n = len(x)
    terms = ((a.tolist(), x.tolist()), (b.tolist(), [scale * v for v in y.tolist()]))
    out = np.empty(n)
    for j in range(n):
        s = 0.0
        for band, v in terms:
            for i in range(max(j - 1, 0), min(j + 2, n)):
                s = fma(v[i], band[j - i + 1][i], s)
        out[j] = s
    return out


def ldl_factor(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LAPACK dpttrf in plain floats: (D, subdiagonal of L, info), info the
    1-based index of the first non-positive pivot or 0."""
    d, e = diag.tolist(), off.tolist()
    n = len(d)
    for i in range(n - 1):
        if d[i] <= 0.0:
            return np.array(d), np.array(e), i + 1
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    return np.array(d), np.array(e), n if d[-1] <= 0.0 else 0


def ldl_solve(d: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK dptts2 in plain floats: the two sweeps of L D L^T x = rhs."""
    d, e, b = d.tolist(), e.tolist(), rhs.tolist()
    n = len(b)
    for i in range(1, n):
        b[i] = b[i] - b[i - 1] * e[i - 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = b[i] / d[i] - b[i + 1] * e[i]
    return np.array(b)


def one_step_layers(ops: SchemeOperators, u0: np.ndarray, u1: np.ndarray,
                    n_steps: int) -> list[np.ndarray]:
    """Layers 0 .. n_steps of a run from its first two, one summed-form step
    at a time in Python floats: the right-hand side by band_products, the
    increment by ldl_solve with the operators' factors and the layer by
    np.add, so the bits depend on no BLAS."""
    layers = [u0, u1]
    d_prev = u1 - u0
    f = ops.lhs_factor
    for _ in range(n_steps - 1):
        rhs = band_products(ops._stiff_band, layers[-1], 1.0, ops._rhs_prev_band, d_prev)
        d_prev = ldl_solve(f.d, f.e, rhs)
        layers.append(np.add(layers[-1], d_prev))
    return layers


def explicit_bootstrap(u0: np.ndarray, psi: np.ndarray, ops: SchemeOperators) -> np.ndarray:
    """First layer of the explicit scheme as a componentwise division: its
    bootstrap matrix 2 M is diagonal, so u1 = (R2 u0 + 2 dt R1 psi) / (2 M)."""
    rhs = band_products(ops._rhs_curr_band, u0, 2.0 * ops.dt, ops._rhs_prev_band, psi)
    return rhs / (2.0 * ops.mesh.cell_widths)


def einsum_sum(terms: list[float]) -> float:
    """A row's sum as numpy's einsum reduces it: in buffers of 8192 terms,
    each added in order from +0, then added to the row's total."""
    total = 0.0
    for start in range(0, len(terms), 8192):
        acc = 0.0
        for term in terms[start : start + 8192]:
            acc += term
        total += acc
    return total


def pairwise_sum(terms: list[float]) -> float:
    """numpy's pairwise add.reduce of a row: in order from -0.0 below 8
    terms, 8 interleaved sums up to 128, otherwise the sums of the two
    halves, split at a multiple of 8."""
    n = len(terms)
    if n < 8:
        total = -0.0
        for term in terms:
            total += term
        return total
    if n <= 128:
        r = terms[:8]
        i = 8
        while i < n - n % 8:
            for k in range(8):
                r[k] += terms[i + k]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[i:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def block_energies(layers: np.ndarray, widths: np.ndarray, ell: np.ndarray, dt: float,
                   variant: str, faces: slice, coef: float) -> tuple[list[float], ...]:
    """(e_kinetic, e_potential, e_total, dissipation, residual) of one m x n
    block of layers in Python floats, in the order of numpy's einsum and
    add.reduce that the kernel follows: products (a b) c, einsum_sum for the
    energies and pairwise_sum for the dissipation's faces, whose jumps take
    zero ghosts at both ends."""
    rows = layers.tolist()
    w, c = widths.tolist(), ell.tolist()
    n = len(w)
    jumps = [[u[0]] + [u[f] - u[f - 1] for f in range(1, n)] + [0.0 - u[n - 1]] for u in rows]
    e_k = []
    for u, v in zip(rows, rows[1:]):
        rates = [(b - a) / dt for a, b in zip(u, v)]
        e_k.append(0.5 * einsum_sum([(r * r) * x for r, x in zip(rates, w)]))
    if variant == "explicit":
        e_p = [0.5 * einsum_sum([(b * a) * x for a, b, x in zip(ju, jv, c)])
               for ju, jv in zip(jumps, jumps[1:])]
    else:
        sq = [einsum_sum([(a * a) * x for a, x in zip(ju, c)]) for ju in jumps]
        e_p = [0.25 * (s1 + s0) for s0, s1 in zip(sq, sq[1:])]
    e_total = [k + p for k, p in zip(e_k, e_p)]
    dissipation = []
    for ju, jw in zip(jumps, jumps[2:]):
        changes = [b - a for a, b in zip(ju[faces], jw[faces])]
        dissipation.append(0.0 - coef * (0.0 + pairwise_sum([d * d for d in changes])))
    residual = [(e1 - e0) - d for e0, e1, d in zip(e_total, e_total[1:], dissipation)]
    return e_k, e_p, e_total, dissipation, residual
