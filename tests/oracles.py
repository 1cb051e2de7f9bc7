"""Dense reference implementations and norms that the package is checked against."""

from __future__ import annotations

import math

import numpy as np

from kvwave.linalg import (LDLFactorization, SingularMatrixError, TriDiagMatrix, assemble_damping,
                           assemble_mass, assemble_stiffness, step_block)
from kvwave.mesh import FluxCoefficients, Mesh, Parameters, flux_coefficients
from kvwave.schemes import SchemeOperators


def to_dense(m: TriDiagMatrix) -> np.ndarray:
    """The full n x n array of a symmetric tridiagonal matrix."""
    dense = np.diag(m.diag)
    if len(m.diag) > 1:
        dense += np.diag(m.off, 1) + np.diag(m.off, -1)
    return dense


def factored(f: LDLFactorization) -> np.ndarray:
    """The full n x n array L D L^T of the factors f."""
    lower = np.eye(len(f.d)) + np.diag(f.e, -1)
    return lower @ np.diag(f.d) @ lower.T


def left_matrices(mesh: Mesh, params: Parameters, dt: float,
                  scheme: str) -> tuple[TriDiagMatrix, TriDiagMatrix]:
    """L and the bootstrap's matrix of the scheme, which build_operators
    factors but does not keep, assembled again from build_operators'
    arguments as it assembles them: explicit L = M + c D and 2 M,
    flux-averaged L = M - (dt^2 / 2) S + c D and 2 M - dt^2 S, with
    c = delta dt / h."""
    mass = assemble_mass(mesh)
    damping = assemble_damping(mesh).scaled(params.delta * dt / mesh.h)
    if scheme == "explicit":
        return mass + damping, mass.scaled(2.0)
    stiffness = assemble_stiffness(flux_coefficients(mesh, params))
    half_stiff = stiffness.scaled(0.5 * dt * dt)
    return mass - half_stiff + damping, mass.scaled(2.0) - stiffness.scaled(dt * dt)


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
    is several times faster than Fraction.  An infinite or NaN c absorbs
    any finite product, and a product with an infinite or NaN factor is
    ±inf or NaN exactly, so those cases need no exact arithmetic."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def band_products(a: TriDiagMatrix, x: np.ndarray, scale: float, b: TriDiagMatrix,
                  y: np.ndarray) -> np.ndarray:
    """a x + scale (b y) for two tridiagonal matrices, rounded as the kernel
    rounds it: each row adds its products over the columns in order, one
    fma each, a x first, starting from +0; scale multiplies y first."""
    n = len(x)
    terms = ((a.diag.tolist(), a.off.tolist(), x.tolist()),
             (b.diag.tolist(), b.off.tolist(), [scale * v for v in y.tolist()]))
    out = np.empty(n)
    for j in range(n):
        s = 0.0
        for diag, off, v in terms:
            for i in range(max(j - 1, 0), min(j + 2, n)):
                s = fma(v[i], diag[j] if i == j else off[min(i, j)], s)
        out[j] = s
    return out


def solve(f: LDLFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors f in place, as every step solves: one
    linalg.step_block step with a zero stiffness and an identity R1, from
    rhs as the previous increment, which leaves the next one, the solution,
    in row 0 of the increments.  rhs becomes the solution; a -0.0 entry of
    it counts as +0.0."""
    n = len(f.d)
    zero = TriDiagMatrix(np.zeros(n), np.zeros(n - 1))
    identity = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
    incr = np.stack((rhs, rhs))
    step_block(np.zeros((2, n)), 1, 2, zero, identity, f, incr, math.inf)
    rhs[:] = incr[0]
    return rhs


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


def summed_form_steps(stiff: TriDiagMatrix, rhs_prev: TriDiagMatrix, f: LDLFactorization,
                      u: np.ndarray, d: np.ndarray,
                      count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """count summed-form steps from the layer u and the increment d into it,
    one at a time in Python floats: the right-hand side by band_products,
    the increment by ldl_solve with the factors f and the layer by np.add,
    so the bits depend on no BLAS.  Returns the new layers and the
    increments into them."""
    layers, increments = [], []
    for _ in range(count):
        d = ldl_solve(f.d, f.e, band_products(stiff, u, 1.0, rhs_prev, d))
        u = np.add(u, d)
        layers.append(u)
        increments.append(d)
    return layers, increments


def one_step_layers(ops: SchemeOperators, u0: np.ndarray, u1: np.ndarray,
                    n_steps: int) -> list[np.ndarray]:
    """Layers 0 .. n_steps of a run from its first two, by summed_form_steps
    with the operators' matrices and factors."""
    layers, _ = summed_form_steps(ops.stiff, ops.rhs_prev, ops.lhs_factor, u1, u1 - u0,
                                  n_steps - 1)
    return [u0, u1, *layers]


def explicit_bootstrap(u0: np.ndarray, psi: np.ndarray, ops: SchemeOperators,
                       mesh: Mesh) -> np.ndarray:
    """First layer of the explicit scheme on mesh as a componentwise
    division: its bootstrap matrix 2 M is diagonal, so
    u1 = (R2 u0 + 2 dt R1 psi) / (2 M)."""
    rhs = band_products(ops.rhs_curr, u0, 2.0 * ops.dt, ops.rhs_prev, psi)
    return rhs / (2.0 * mesh.cell_widths)


def lane_sum(terms: list[float]) -> float:
    """A sum as the kernel adds it: term i goes to lane i mod 8, each lane
    adds its terms in order from +0, and the lanes are folded in halves,
    lane k += lane k + 4, then k + 2, then k + 1."""
    lanes = [0.0] * 8
    for i, term in enumerate(terms):
        lanes[i % 8] += term
    for half in (4, 2, 1):
        for k in range(half):
            lanes[k] += lanes[k + half]
    return lanes[0]


def block_energies(layers: np.ndarray, mesh: Mesh, ell: FluxCoefficients, params: Parameters,
                   dt: float, variant: str) -> tuple[np.ndarray, ...]:
    """(e_kinetic, e_potential, e_total, dissipation, residual) of one m x n
    block of layers in Python floats, in the kernel's order: products
    (a b) c, lane_sum for the kinetic sum and for the dissipation's faces,
    and for a potential sum the boundary faces' terms around the lane_sum
    of the interior faces', ((0.0 + t_0) + lanes) + t_n, whose jumps take
    zero ghosts at both ends.  The energies have an entry per layer pair,
    m - 1, and the dissipation and residual one per step, m - 2."""
    rows = layers.tolist()
    w, c = mesh.cell_widths.tolist(), ell.ell.tolist()
    faces, coef = mesh.damping_interior_faces, params.delta / (4.0 * dt * mesh.h)
    n = len(w)
    jumps = [[u[0]] + [u[f] - u[f - 1] for f in range(1, n)] + [0.0 - u[n - 1]] for u in rows]

    def potential_sum(terms: list[float]) -> float:
        return ((0.0 + terms[0]) + lane_sum(terms[1:-1])) + terms[-1]

    e_k = []
    for u, v in zip(rows, rows[1:]):
        rates = [(b - a) / dt for a, b in zip(u, v)]
        e_k.append(0.5 * lane_sum([(r * r) * x for r, x in zip(rates, w)]))
    if variant == "explicit":
        e_p = [0.5 * potential_sum([(b * a) * x for a, b, x in zip(ju, jv, c)])
               for ju, jv in zip(jumps, jumps[1:])]
    else:
        sq = [potential_sum([(a * a) * x for a, x in zip(ju, c)]) for ju in jumps]
        e_p = [0.25 * (s1 + s0) for s0, s1 in zip(sq, sq[1:])]
    e_total = [k + p for k, p in zip(e_k, e_p)]
    dissipation = []
    for ju, jw in zip(jumps, jumps[2:]):
        changes = [b - a for a, b in zip(ju[faces], jw[faces])]
        dissipation.append(0.0 - coef * lane_sum([d * d for d in changes]))
    residual = [(e1 - e0) - d for e0, e1, d in zip(e_total, e_total[1:], dissipation)]
    return tuple(np.array(column, dtype=float)
                 for column in (e_k, e_p, e_total, dissipation, residual))


def step_energies(args: tuple, u: np.ndarray, v: np.ndarray, d: np.ndarray | None = None,
                  steps: int = 0) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The energies that a run's first step_block call evaluates of the
    layers u, v and `steps` more, each the one before plus the increment d,
    when it keeps every step: steps with a zero stiffness and an identity
    R1 and factors, through a ring that keeps every layer, with every = 1
    and last = steps.  steps = 0 is a call of no steps, which evaluates the
    first pair alone.  args as step_block takes them.

    Returns the m = steps + 2 layers that the ring holds after the call,
    to which the energies belong (a step turns a -0.0 of d into +0.0), and
    (e_kinetic, e_potential, e_total, dissipation, residual) as
    block_energies lays them out: the trace's columns, without row 0's
    dissipation and residual.  The call must step every layer: d and the
    layers from v on must be finite, as a zero stiffness or a zero
    off-diagonal turns an infinite entry into NaN, which no limit passes."""
    n, m = len(u), steps + 2
    trace, maxima = np.empty((m - 1, 5)), np.array([0.0, 0.0, -math.inf])
    zero, identity = (TriDiagMatrix(np.full(n, x), np.zeros(n - 1)) for x in (0.0, 1.0))
    ring = np.empty((max(m, 3), n))
    ring[0], ring[1] = u, v
    incr = np.zeros((2, n)) if d is None else np.stack((d, d))
    end = step_block(ring, 2, m, zero, identity, LDLFactorization(np.ones(n), np.zeros(n - 1)),
                     incr, math.inf, (1, steps, False, trace, maxima, args))
    assert end == m, f"the call stopped at the layer {end} that holds a NaN"
    e_k, e_p, e_tot, diss, res = trace.T
    return ring[:m], (e_k, e_p, e_tot, diss[1:], res[1:])


def record(energies: tuple[np.ndarray, ...], start: int, end: int, every: int, last: int,
           verify: bool, trace: np.ndarray, maxima: np.ndarray) -> None:
    """What the step_block call of a run from the layer start, which
    returned end, writes into trace and maxima, in numpy, from the
    block_energies of its layers start-2 .. end-1: the call evaluates the
    steps start-1 .. end-2, the step s from the pairs s-1 and s, which are
    the block's pairs s-start+1 and s-start+2.  A step is kept when every
    divides it or it is last, and selected when kept or verify; each kept
    step's row goes to trace[ceil(s / every)], and the identity residual,
    drift and rise maxima over the selected steps raise maxima where they
    are larger, and a NaN among them, or already in maxima, leaves np.nan
    (the bits of C's NAN) there.  The run's first call,
    start = 2, writes row 0 from the pair 0, with dissipation and residual
    +0.0; its total, trace[0, 2], is E0."""
    e_k, e_p, e_tot, diss, res = energies
    if start == 2:
        trace[0] = e_k[0], e_p[0], e_tot[0], 0.0, 0.0
    steps = np.arange(start - 1, end - 1)
    kept = (steps % every == 0) | (steps == last)
    j = np.nonzero(kept | verify)[0]
    before, after = e_tot[j], e_tot[j + 1]
    with np.errstate(invalid="ignore"):  # inf - inf
        for k, values in enumerate((np.abs(res[j]), np.abs(after - trace[0, 2]), after - before)):
            nan = np.isnan(maxima[k]) or np.isnan(values).any()
            maxima[k] = np.nan if nan else np.fmax.reduce(values, initial=maxima[k])
    j = np.nonzero(kept)[0]
    trace[-(-steps[j] // every)] = np.column_stack((e_k[j + 1], e_p[j + 1], e_tot[j + 1], diss[j],
                                                    res[j]))
