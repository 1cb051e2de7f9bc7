import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvwave.linalg import (
    LDLFactorization,
    SingularMatrixError,
    TriDiagMatrix,
    assemble_damping,
    assemble_mass,
    assemble_stiffness,
    factor,
    format_csv,
    step_block,
)
from kvwave.mesh import FluxCoefficients, Mesh, Parameters, build_mesh
from oracles import (
    band_products,
    dense_solve_oracle,
    dominance_margin,
    fma,
    ldl_factor,
    ldl_solve,
    quadratic_form,
    solve,
    summed_form_steps,
    to_dense,
)


def damping_form_oracle(mesh, x):
    """Half the sum of squared jumps across interior faces of the damped zone."""
    total = 0.0
    first = mesh.n_alpha
    last = first + mesh.n_damp - 1
    for i in range(first, last):
        total += 0.5 * (x[i + 1] - x[i]) ** 2
    return total


def stiffness_form_oracle(ell, x):
    """-sum of ell * squared face jumps with zero ghost values."""
    padded = np.concatenate([[0.0], x, [0.0]])
    total = 0.0
    for i in range(len(ell)):
        total -= ell[i] * (padded[i + 1] - padded[i]) ** 2
    return total


def random_dd_tridiag(rng, n):
    """Symmetric, strictly diagonally dominant, diagonal of random sign."""
    off = rng.uniform(-1.0, 1.0, size=n - 1)
    row_off = np.zeros(n)
    row_off[:-1] += np.abs(off)
    row_off[1:] += np.abs(off)
    diag = (row_off + rng.uniform(0.1, 2.0, size=n)) * rng.choice([-1.0, 1.0], size=n)
    return TriDiagMatrix(diag, off)


def random_spd_tridiag(rng, n):
    """Symmetric, strictly diagonally dominant, positive diagonal."""
    m = random_dd_tridiag(rng, n)
    return TriDiagMatrix(np.abs(m.diag), m.off)


class TestAssembleMass:
    def test_base_grid(self, base_mesh):
        m = assemble_mass(base_mesh)
        expected = np.concatenate([np.full(20, 0.05), np.full(10, 0.1), np.full(20, 0.05)])
        np.testing.assert_allclose(m.diag, expected, rtol=1e-12)
        assert np.all(m.off == 0.0)

    def test_uniform_mesh_is_scaled_identity(self):
        p = Parameters(1, 1, 1, 0.0, 1.0, 2.0, 3.0, 1.0)
        mesh = build_mesh(p, 10, 10, 10)
        m = assemble_mass(mesh)
        np.testing.assert_allclose(to_dense(m), 0.1 * np.eye(30), atol=1e-15)

    def test_diagonal_sums_to_length(self, base_mesh):
        m = assemble_mass(base_mesh)
        assert float(m.diag.sum()) == pytest.approx(3.0, abs=3e-14)


class TestAssembleDamping:
    def test_three_cell_block(self):
        p = Parameters(1, 1, 1, 1.0, 1.0, 2.0, 3.0, 1.0)
        mesh = build_mesh(p, 1, 3, 1)
        a = to_dense(assemble_damping(mesh))
        block = a[1:4, 1:4]
        np.testing.assert_array_equal(
            block, [[0.5, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 0.5]]
        )
        assert np.all(a[0] == 0.0) and np.all(a[:, 0] == 0.0)
        assert np.all(a[4] == 0.0) and np.all(a[:, 4] == 0.0)

    def test_smallest_block(self):
        p = Parameters(1, 1, 1, 1.0, 1.0, 2.0, 3.0, 1.0)
        mesh = build_mesh(p, 1, 2, 1)
        block = to_dense(assemble_damping(mesh))[1:3, 1:3]
        np.testing.assert_array_equal(block, [[0.5, -0.5], [-0.5, 0.5]])

    def test_quadratic_form_matches_face_sum(self, rng):
        # on the smallest zones and random splits; its couplings, the nonzero
        # off-diagonal entries, sit exactly on the faces that the kernel's
        # dissipation sums over (entry i couples the cells of face i + 1)
        p = Parameters(1, 1, 1, 1.0, 1.0, 2.0, 3.0, 1.0)
        splits = [(1, 2, 1), (1, 5, 7), (6, 2, 4), (3, 4, 1), (20, 10, 20)]
        splits += [tuple(rng.integers([1, 2, 1], 40).tolist()) for _ in range(10)]
        for counts in splits:
            mesh = build_mesh(p, *counts)
            a = assemble_damping(mesh)
            faces = mesh.damping_interior_faces
            assert (np.flatnonzero(a.off) + 1).tolist() == list(range(faces.start, faces.stop))
            for _ in range(20):
                x = rng.standard_normal(mesh.n_max)
                expected = damping_form_oracle(mesh, x)
                assert quadratic_form(a, x) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_positive_semidefinite(self, base_mesh, rng):
        a = assemble_damping(base_mesh)
        for _ in range(50):
            x = rng.standard_normal(base_mesh.n_max)
            assert quadratic_form(a, x) >= -1e-14 * float(x @ x)


class TestAssembleStiffness:
    def test_quadratic_form_matches_face_sum(self, base_mesh, base_ell, rng):
        b = assemble_stiffness(base_ell)
        for _ in range(20):
            x = rng.standard_normal(base_mesh.n_max)
            expected = stiffness_form_oracle(base_ell.ell, x)
            assert quadratic_form(b, x) == pytest.approx(expected, rel=1e-12)

    def test_constant_vector_telescopes(self, base_mesh, base_ell):
        b = assemble_stiffness(base_ell)
        y = to_dense(b) @ np.ones(base_mesh.n_max)
        scale = float(np.abs(base_ell.ell).max())
        # interior rows see equal and opposite fluxes
        np.testing.assert_allclose(y[1:-1], 0.0, atol=1e-12 * scale)

    def test_three_cell_hand_assembly(self):
        # three unit cells with unit speed; boundary faces use half spacing
        mesh = Mesh(
            n_alpha=1, n_damp=1, n_beta=1,
            h_alpha=1.0, h=1.0, h_beta=1.0,
            faces=np.array([0.0, 1.0, 2.0, 3.0]),
            centers=np.array([0.5, 1.5, 2.5]),
            cell_widths=np.ones(3),
            face_spacings=np.array([0.5, 1.0, 1.0, 0.5]),
        )
        ell = FluxCoefficients(ell=np.array([2.0, 1.0, 1.0, 2.0]))
        b = assemble_stiffness(ell)
        np.testing.assert_array_equal(b.diag, [-3.0, -2.0, -3.0])
        np.testing.assert_array_equal(b.off, [1.0, 1.0])

    def test_negative_definite(self, base_mesh, base_ell, rng):
        b = assemble_stiffness(base_ell)
        assert quadratic_form(b, np.zeros(base_mesh.n_max)) == 0.0
        for _ in range(50):
            x = rng.standard_normal(base_mesh.n_max)
            assert quadratic_form(b, x) < 0.0


class TestFactorSolve:
    def test_identity(self):
        m = TriDiagMatrix(np.ones(5), np.zeros(4))
        rhs = np.arange(5.0)
        np.testing.assert_array_equal(solve(factor(m), rhs.copy()), rhs)

    def test_against_dense_oracle(self, rng):
        for n in (3, 17, 200):
            m = random_spd_tridiag(rng, n)
            rhs = rng.standard_normal(n)
            b = rhs.copy()
            x = solve(factor(m), b)
            assert x is b  # solved in place
            x_ref = dense_solve_oracle(to_dense(m), rhs)
            np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-13)

    def test_scheme_matrix_residual(self, base_mesh):
        mass = assemble_mass(base_mesh)
        a = assemble_damping(base_mesh)
        lhs = mass + a.scaled(1.0 * 0.025 / base_mesh.h)
        rhs = to_dense(mass) @ np.ones(base_mesh.n_max)
        x = solve(factor(lhs), rhs.copy())
        residual = float(np.abs(to_dense(lhs) @ x - rhs).max())
        row_sums = np.abs(lhs.diag)
        row_sums[:-1] += np.abs(lhs.off)
        row_sums[1:] += np.abs(lhs.off)
        inf_norm = float(row_sums.max())
        bound = 1e-12 * (inf_norm * float(np.abs(x).max()) + float(np.abs(rhs).max()))
        assert residual <= bound

    def test_factorization_reusable(self, rng):
        m = random_spd_tridiag(rng, 40)
        f = factor(m)
        for _ in range(4):
            rhs = rng.standard_normal(40)
            np.testing.assert_allclose(
                solve(f, rhs.copy()), dense_solve_oracle(to_dense(m), rhs), rtol=1e-12, atol=1e-13
            )

    def test_singular_matrix_raises(self):
        m = TriDiagMatrix(np.zeros(3), np.zeros(2))
        with pytest.raises(SingularMatrixError):
            factor(m)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_small_rejected(self, rng, n):
        with pytest.raises(ValueError, match="dimension 3"):
            factor(random_dd_tridiag(rng, n))

    def test_length_mismatch(self, rng):
        f = factor(random_spd_tridiag(rng, 6))
        with pytest.raises(ValueError):
            solve(f, np.ones(5))

    def test_strided_rhs_rejected(self, rng):
        # a step solves in its increments, rhs in row 0: a strided array of
        # them is rejected before it is read or written
        f = factor(random_spd_tridiag(rng, 12))
        m = TriDiagMatrix(np.ones(12), np.zeros(11))
        incr = rng.standard_normal((2, 12, 2))[:, :, 1]
        saved = incr.copy()
        with pytest.raises(ValueError, match="contiguous"):
            step_block(np.zeros((2, 12)), 1, 2, m, m, f, incr, math.inf)
        assert incr.tobytes() == saved.tobytes()


class TestLDLFactorization:
    def test_spd_systems_match_dense_oracle(self):
        rng = np.random.default_rng(14142136)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(3, 201))
            m = random_spd_tridiag(rng, n)
            f = factor(m)
            assert type(f) is LDLFactorization
            rhs = rng.standard_normal(n)
            x = solve(f, rhs.copy())
            x_ref = dense_solve_oracle(to_dense(m), rhs)
            worst = max(worst, float(np.abs(x - x_ref).max() / np.abs(x_ref).max()))
        assert worst <= 1e-12

    def test_indefinite_matrix_rejected(self, rng):
        m = random_spd_tridiag(rng, 30)
        diag = m.diag.copy()
        diag[17] = -diag[17]  # still nonsingular, no longer positive definite
        with pytest.raises(SingularMatrixError, match="pivot 18 is not positive"):
            factor(TriDiagMatrix(diag, m.off))
        for m in (random_dd_tridiag(rng, 30), random_spd_tridiag(rng, 30).scaled(-1.0)):
            with pytest.raises(SingularMatrixError):
                factor(m)


def band_sum(a, x, b, y, scratch):
    """a x + b y by one block step from x with identity factors: the step's
    increment, which it leaves in row 0 of the increments, from y there and
    scratch in their row 1."""
    n = len(x)
    identity = LDLFactorization(np.ones(n), np.zeros(n - 1))
    incr = np.stack((y, scratch))
    assert step_block(np.stack((x, x)), 1, 2, a, b, identity, incr, math.inf) == 2
    return incr[0]


class TestBandSum:
    """The band sum a block step forms, stiff x + rhs_prev y, from the
    matrices' diagonals and off-diagonals."""

    @pytest.mark.parametrize("n", [3, 4, 17, 200])
    def test_matches_tridiagonal_matvec(self, rng, n):
        a, b = random_dd_tridiag(rng, n), random_dd_tridiag(rng, n)
        x, y = rng.standard_normal((2, n))
        scale = float(rng.uniform(-2.0, 2.0))  # the bootstrap's 2 dt
        got = band_sum(a, x, b, scale * y, np.empty(n))
        expected = to_dense(a) @ x + scale * (to_dense(b) @ y)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -0.0, 1e308])
    def test_writes_into_out_whatever_it_held(self, rng, fill):
        # a step never reads the scratch row of the increments: the same
        # bits whatever it held, with real factors as well as identity ones
        n = 17
        a, b = random_dd_tridiag(rng, n), random_dd_tridiag(rng, n)
        x, y = rng.standard_normal((2, n))
        x[4:9] = y[4:9] = -0.0  # rows 5-7 sum signed zeros only
        reference = band_sum(a, x, b, y, np.zeros(n))
        assert band_sum(a, x, b, y, np.full(n, fill)).tobytes() == reference.tobytes()
        f = factor(random_spd_tridiag(rng, n))
        blocks = np.stack((x, x)), np.stack((x, x))
        incrs = np.stack((y, np.zeros(n))), np.stack((y, np.full(n, fill)))
        for block, incr in zip(blocks, incrs):
            step_block(block, 1, 2, a, b, f, incr, math.inf)
        assert incrs[1][0].tobytes() == incrs[0][0].tobytes()
        assert blocks[1].tobytes() == blocks[0].tobytes()

    def test_strided_out_rejected(self, rng):
        n = 9
        a, b = random_dd_tridiag(rng, n), random_dd_tridiag(rng, n)
        x, y = rng.standard_normal((2, n))
        block = np.stack((x, y))
        saved = block.copy()
        with pytest.raises(ValueError, match="contiguous"):
            step_block(block, 1, 2, a, b, factor(random_spd_tridiag(rng, n)),
                       np.zeros((2, n, 2))[:, :, 0], math.inf)
        assert block.tobytes() == saved.tobytes()


def pivot_of(err: SingularMatrixError) -> int:
    return int(str(err).split("pivot ")[1].split()[0])


def random_band(rng, n):
    """A random tridiagonal matrix whose entries span many binades, so that
    products and sums round."""
    return random_dd_tridiag(rng, n).scaled(float(10.0 ** rng.uniform(-3, 3)))


class TestKernelBits:
    """The kernel against the Python oracles of its arithmetic: the same bits
    on any machine, with no BLAS or LAPACK involved."""

    def test_fma_oracle_rounds_once(self, rng):
        edge = [(0.1, 0.1, -0.01), (1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0), (3.0, 1 / 3, -1.0),
                (1e200, 1e100, -1e300), (2.0**-600, 2.0**-500, 0.0)]
        draws = [tuple(float(v) for v in rng.standard_normal(3) * 10.0 ** rng.uniform(-20, 20, 3))
                 for _ in range(2000)]
        for a, b, c in edge + draws:
            assert fma(a, b, c) == float(Fraction(a) * Fraction(b) + Fraction(c))
        assert fma(0.1, 0.1, -0.01) != 0.1 * 0.1 - 0.01  # one rounding, not two

    @pytest.mark.parametrize("n", [3, 4, 5, 17, 200])
    def test_band_sum_matches_oracle(self, rng, n):
        # the bootstrap's step: a previous increment scaled by 2 dt in numpy
        # is the oracle's scale y, and the increment is the band sum solved
        for _ in range(20):
            a, b = random_band(rng, n), random_band(rng, n)
            x, y = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-5, 5, (2, n))
            scale = float(rng.uniform(-2.0, 2.0))
            got = band_sum(a, x, b, scale * y, np.empty(n))
            assert got.tobytes() == band_products(a, x, scale, b, y).tobytes()
            f = factor(random_spd_tridiag(rng, n).scaled(float(10.0 ** rng.uniform(-3, 3))))
            incr = np.stack((scale * y, y))
            step_block(np.stack((x, x)), 1, 2, a, b, f, incr, math.inf)
            expected = ldl_solve(f.d, f.e, band_products(a, x, scale, b, y))
            assert incr[0].tobytes() == expected.tobytes()

    def test_factor_and_solve_match_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 120))
            m = random_spd_tridiag(rng, n).scaled(float(10.0 ** rng.uniform(-3, 3)))
            f = factor(m)
            d, e, info = ldl_factor(m.diag, m.off)
            assert info == 0
            assert f.d.tobytes() == d.tobytes() and f.e.tobytes() == e.tobytes()
            rhs = rng.standard_normal(n)
            assert solve(f, rhs.copy()).tobytes() == ldl_solve(d, e, rhs).tobytes()

    def test_factor_of_uncoupled_rows_matches_oracle(self, rng):
        # off-diagonals with runs of +0 and -0, as outside the damped zone of
        # the explicit scheme's L and in the bootstrap's 2M: the kernel skips
        # those rows' pivot updates, which the oracle makes, with the same
        # bits, each zero's sign included, and the same first bad pivot
        for _ in range(300):
            n = int(rng.integers(3, 120))
            m = random_dd_tridiag(rng, n)
            off = np.where(rng.random(n - 1) < rng.uniform(0.2, 1.0), 0.0, m.off)
            off = np.where(off == 0.0, rng.choice([0.0, -0.0], n - 1), off)
            for diag in (np.abs(m.diag), m.diag):
                d, e, info = ldl_factor(diag, off)
                if info:
                    with pytest.raises(SingularMatrixError) as err:
                        factor(TriDiagMatrix(diag, off))
                    assert pivot_of(err.value) == info
                    continue
                f = factor(TriDiagMatrix(diag, off))
                assert f.d.tobytes() == d.tobytes() and f.e.tobytes() == e.tobytes()

    def test_factor_rejects_at_oracle_pivot(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 60))
            m = random_dd_tridiag(rng, n)
            _, _, info = ldl_factor(m.diag, m.off)
            if not info:  # every diagonal sign came out positive
                factor(m)
                continue
            with pytest.raises(SingularMatrixError) as err:
                factor(m)
            assert pivot_of(err.value) == info

    @pytest.mark.parametrize("rows", [3, 4, 9])
    def test_step_block_matches_oracle(self, rng, rows):
        self.check_step_block(rng, rows, 11)

    @pytest.mark.parametrize("n", [3, 4])
    def test_step_block_smallest_matrices_match_oracle(self, rng, n):
        # the kernel peels the first and last row of each step: with n = 3
        # one row is left between them, with n = 4 two
        self.check_step_block(rng, 9, n)

    def test_step_block_rejects_fewer_than_three_cells(self):
        m = TriDiagMatrix(np.zeros(2), np.zeros(1))
        f = LDLFactorization(np.ones(2), np.zeros(1))
        with pytest.raises(ValueError, match="3 or more"):
            step_block(np.zeros((3, 2)), 1, 3, m, m, f, np.zeros((2, 2)), math.inf)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    def test_step_block_through_a_ring(self, rng, rows):
        # layer i in row i % rows, over one call and over two: the ring
        # keeps the oracle's last `rows` layers, and incr[0] the increment
        n = 11
        stiff, rhs_prev = random_band(rng, n), random_band(rng, n)
        f = factor(random_spd_tridiag(rng, n))
        u0, d0 = rng.standard_normal((2, n))
        layers, increments = summed_form_steps(stiff, rhs_prev, f, u0, d0, 12)
        for first in range(rows + 1):  # the layer of u0
            for split in (first + 13, first + 6):
                ring = np.full((rows, n), np.nan)
                ring[first % rows] = u0
                incr = np.stack((d0, np.full(n, np.nan)))
                for start, stop in ((first + 1, split), (split, first + 13)):
                    assert step_block(ring, start, stop, stiff, rhs_prev, f, incr,
                                      math.inf) == stop
                for i in range(13 - rows, 13):
                    assert ring[(first + i) % rows].tobytes() == layers[i - 1].tobytes()
                assert incr[0].tobytes() == increments[-1].tobytes()

    @staticmethod
    def check_step_block(rng, rows, n):
        # with no limit, and with each row's sup norm and the float below it
        # as the limit: the call stops at the first row past the limit after
        # 1 .. rows-1 steps, and leaves the increment into the last row it
        # wrote in row 0 of the increments, after odd and even step counts
        stiff, rhs_prev = random_band(rng, n), random_band(rng, n)
        f = factor(random_spd_tridiag(rng, n))
        u0, d0 = rng.standard_normal((2, n))
        layers, increments = summed_form_steps(stiff, rhs_prev, f, u0, d0, rows - 1)
        sups = [float(np.abs(layer).max()) for layer in layers]
        for limit in (math.inf, *sups, *np.nextafter(sups, 0.0)):
            stop = next((i for i, sup in enumerate(sups, 1) if not sup <= limit), rows)
            last = min(stop, rows - 1)  # the last row written
            block = np.full((rows, n), 0.5)
            block[0] = u0
            incr = np.stack((d0, np.full(n, np.nan)))
            assert step_block(block, 1, rows, stiff, rhs_prev, f, incr, limit) == stop
            for i in range(1, last + 1):
                assert block[i].tobytes() == layers[i - 1].tobytes(), (limit, i)
            assert (block[last + 1:] == 0.5).all()  # no row stepped past it
            assert incr[0].tobytes() == increments[last - 1].tobytes()

    # Each step adds the same increment when the stiffness is zero and R1 and
    # the factors are identities, so cell 5 ramps by `step`, exactly, to
    # `value` at the first, middle or last row of a 5-row call, or at the
    # row of a 1-row call, within the limit before it.  +-2 and the floats
    # past them ramp by 0.25 towards a limit of 2; +-inf, the next float
    # past a limit of MAX, is MAX + MAX / 2; NaN is what a zero stiffness
    # makes of the inf the row before it ramped to, within an infinite
    # limit.  Cell n - 3 is -0 in every row: its pivot of -1 turns the +0 of
    # its band sum into a -0 increment.
    MAX = float(np.finfo(float).max)
    PAST = float(np.nextafter(2.0, 3.0))
    VERDICT_CASES = [  # value, limit, step, and the value and lag of the ramp's anchor
        (2.0, 2.0, 0.25, 2.0, 0), (-2.0, 2.0, -0.25, -2.0, 0),
        (PAST, 2.0, 0.25, PAST, 0), (-PAST, 2.0, -0.25, -PAST, 0),
        (np.inf, MAX, MAX / 2, MAX, 1), (-np.inf, MAX, -MAX / 2, -MAX, 1),
        (np.nan, np.inf, MAX / 2, MAX, 2),
    ]

    # 12 cells: no chunk of the check; 32 cells: two chunks and nothing past
    # them; 40 cells: two chunks and the -0 cell past them
    @pytest.mark.parametrize("n", [12, 32, 40])
    def test_step_block_returns_the_first_row_past_the_limit(self, n):
        zero = TriDiagMatrix(np.zeros(n), np.zeros(n - 1))
        identity = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
        pivots = np.ones(n)
        pivots[n - 3] = -1.0
        f = LDLFactorization(pivots, np.zeros(n - 1))
        for value, limit, step, anchor, lag in self.VERDICT_CASES:
            for rows, k in ((1, 1), (5, 1), (5, 3), (5, 5)):
                start = anchor  # cell 5 of row 0, from anchor at row k - lag
                for _ in range(k - lag):
                    start -= step
                for _ in range(lag - k):
                    start += step
                block = np.full((rows + 1, n), 0.5)
                block[0] = 0.0
                block[0, 5], block[0, n - 3] = start, -0.0
                incr = np.zeros((2, n))
                incr[0, 5] = step
                row = step_block(block, 1, rows + 1, zero, identity, f, incr, limit)
                case = (value, rows, k)
                assert np.array_equal(block[k, 5], value, equal_nan=True), case
                within = np.abs(block[1:row + 1]).max(axis=1) <= limit
                assert row == (1 + int(within.argmin()) if not within.all() else rows + 1), case
                assert row == k if not abs(value) <= limit else row > k, case
                assert (block[row + 1:] == 0.5).all(), case  # no row stepped past it
                zeros = block[1:row, n - 3]
                assert all(np.signbit(zeros)) and not zeros.any(), case

    def test_step_block_rejects_bad_arguments(self, rng):
        # the kernel reads each matrix's diagonal and off-diagonal as they
        # are: a matrix of another dimension, or one whose vectors are not
        # contiguous float64, is rejected before a step
        n = 7
        stiff = random_dd_tridiag(rng, n)
        f = factor(random_spd_tridiag(rng, n))
        block = rng.standard_normal((4, n))
        saved = block.copy()
        incr = np.stack((np.ones(n), np.zeros(n)))
        # a first layer after a given one, in a ring with a row for each
        for rows, start, stop in ((4, 0, 2), (4, 3, 2), (1, 1, 2)):
            with pytest.raises(ValueError, match="rows"):
                step_block(block[:rows], start, stop, stiff, stiff, f, incr, math.inf)
        for shape in ((2, n + 1), (n,), (3, n)):
            with pytest.raises(ValueError, match="length"):
                step_block(block, 1, 4, stiff, stiff, f, np.zeros(shape), math.inf)
        with pytest.raises(ValueError, match="contiguous"):
            step_block(block, 1, 4, stiff, stiff, f, np.zeros((2, n, 2))[:, :, 0], math.inf)
        with pytest.raises(ValueError, match="contiguous"):
            step_block(block[:, ::-1], 1, 4, stiff, stiff, f, incr, math.inf)
        diag, off = stiff.diag, stiff.off
        bad = [
            (random_dd_tridiag(rng, n + 1), "dimension"),
            (random_dd_tridiag(rng, n - 1), "dimension"),
            (TriDiagMatrix(diag.astype(np.float32), off), "contiguous float64"),
            (TriDiagMatrix(diag, off.astype(np.float32)), "contiguous float64"),
            (TriDiagMatrix(np.repeat(diag, 2)[::2], off), "contiguous float64"),
            (TriDiagMatrix(diag, np.repeat(off, 2)[::2]), "contiguous float64"),
        ]
        for m, reason in bad:
            for matrices in ((m, stiff), (stiff, m)):
                with pytest.raises(ValueError, match=reason):
                    step_block(block, 1, 4, *matrices, f, incr, math.inf)
        # a read-only view of an array the kernel writes
        for i in range(2):
            written = [block, incr]
            written[i] = written[i].view()
            written[i].setflags(write=False)
            with pytest.raises(ValueError, match="writeable"):
                step_block(written[0], 1, 4, stiff, stiff, f, written[1], math.inf)
        assert block.tobytes() == saved.tobytes()
        assert (incr[0] == 1.0).all() and not incr[1].any()

    def test_step_block_rejects_integers_beyond_the_kernel_index(self, rng):
        # ctypes wraps an int beyond ptrdiff_t into its range without a
        # word: a stop of 2**64 + 5 reached the kernel as 5, which then
        # returned 5, as if layer 5 had failed its check.  Each integer is
        # checked, and its name and value reported, before any step.
        n = 7
        m = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
        f = LDLFactorization(np.ones(n), np.zeros(n - 1))
        ring = rng.standard_normal((3, n))
        saved = ring.copy()
        incr = np.zeros((2, n))
        for start, stop, name in ((2, 2**64 + 5, "stop"), (2, 2**63, "stop"),
                                  (2**63, 2**63 + 1, "start")):
            with pytest.raises(ValueError, match=f"{name} = {stop if name == 'stop' else start} "
                                                 f"lies outside the kernel's index range"):
                step_block(ring, start, stop, m, m, f, incr, math.inf)

        def energies(every=1, last=9, face_hi=3):
            args = (np.ones(n), np.ones(n + 1), 1.0, False, 2, face_hi, 1.0)
            return every, last, False, np.zeros((10, 5)), np.zeros(3), args

        for bad, name in ((energies(every=2**64 + 1), "every"), (energies(last=2**63), "last"),
                          (energies(face_hi=2**64 + 3), "face_hi")):
            with pytest.raises(ValueError, match=f"{name} = .* lies outside"):
                step_block(ring, 2, 4, m, m, f, incr, math.inf, bad)
        assert ring.tobytes() == saved.tobytes() and not incr.any()
        assert step_block(ring, 2, 4, m, m, f, incr, math.inf, energies()) == 4

    def test_step_block_rejects_overlapping_arrays(self, rng):
        # the kernel writes the block's rows 0 .. 3 and both rows of the
        # increments: these may not overlap each other or another argument,
        # while the arrays it only reads, and rows it never touches, may
        n = 7
        stiff = random_dd_tridiag(rng, n)
        buffer = np.ones(4 * n)
        f = LDLFactorization(buffer[n : 2 * n], buffer[2 * n : 3 * n - 1])  # after a spare row
        block = np.ones((6, n))
        for incr in (block[:2], block[3:5], buffer[: 2 * n], buffer[2 * n :]):
            with pytest.raises(ValueError, match="overlap"):
                step_block(block, 1, 4, stiff, stiff, f, incr.reshape(2, n), math.inf)
        # a matrix whose diagonal and off-diagonal are views of one buffer,
        # the diagonal then the off-diagonal after a spare entry
        tri = np.ones(4 * n)
        m = TriDiagMatrix(tri[:n], tri[n + 1 : 2 * n])
        for incr in (tri[: 2 * n], tri[2 * n - 2 : 4 * n - 2]):
            for matrices in ((m, stiff), (stiff, m)):
                with pytest.raises(ValueError, match="overlap"):
                    step_block(block, 1, 4, *matrices, f, incr.reshape(2, n), math.inf)
        assert (block == 1.0).all() and (buffer == 1.0).all() and (tri == 1.0).all()
        spare = np.zeros((2, n))
        step_block(block, 1, 4, stiff, stiff, f, spare, math.inf)  # stiff as both matrices
        step_block(block, 1, 4, m, m, f, spare, math.inf)
        step_block(block, 1, 4, m, m, f, block[4:], math.inf)


def assert_same_bits(got, expected):
    """The same bits, except that any NaN stands for any other: which of two
    NaN operands an operation passes on depends on the instructions the
    compiler picks, here and in Python."""
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def coupled_faces(n, pattern):
    """Which of the n - 1 faces of a factor have e != 0."""
    faces = np.zeros(n - 1, bool)
    quarter = max((n - 1) // 4, 1)
    if pattern == "all":
        faces[:] = True
    elif pattern == "zeros first":
        faces[quarter:] = True
    elif pattern == "zeros in the middle":
        faces[:quarter] = faces[n - 1 - quarter:] = True
    elif pattern == "zeros last":
        faces[:n - 1 - quarter] = True
    elif pattern == "one face":
        faces[(n - 1) // 2] = True
    elif pattern == "first and last faces":
        faces[0] = faces[-1] = True
    return faces  # "none": every face decoupled, as with no damping


class TestDecoupledStep:
    """The step takes runs of cells whose faces have e = 0 in vectorized
    chunks and the others in the serial sweeps; either way every row and
    increment has the bits of the sweeps over the whole row."""

    PATTERNS = ["none", "all", "zeros first", "zeros in the middle", "zeros last", "one face",
                "first and last faces"]

    @staticmethod
    def case(rng, n, faces, negative_zeros=False):
        """Random bands spanning many binades, u0 and d0, and factors whose
        e is nonzero on the given faces and +0 (or -0) on the others."""
        stiff, rhs_prev = random_band(rng, n), random_band(rng, n)
        e = np.where(faces, rng.uniform(-0.9, 0.9, n - 1), 0.0)
        if negative_zeros:
            e[~faces & (rng.random(n - 1) < 0.5)] = -0.0
        f = LDLFactorization(rng.uniform(0.5, 2.0, n), e)
        u0, d0 = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-5, 5, (2, n))
        return stiff, rhs_prev, f, u0, d0

    @staticmethod
    def check(stiff, rhs_prev, f, u0, d0, rows=4):
        """Steps rows 1 .. rows-1 in one call, which stops at the first row
        holding a NaN, and each in a call of its own, against the oracle:
        every row, and every increment."""
        n = len(u0)
        layers, increments = summed_form_steps(stiff, rhs_prev, f, u0, d0, rows - 1)
        stop = next((i for i, layer in enumerate(layers, 1) if np.isnan(layer).any()), rows)
        last = min(stop, rows - 1)  # the last row written
        block = np.zeros((rows, n))
        block[0] = u0
        incr = np.stack((d0, np.full(n, np.nan)))
        assert step_block(block, 1, rows, stiff, rhs_prev, f, incr, math.inf) == stop
        assert block[0].tobytes() == u0.tobytes()
        for i in range(1, last + 1):
            assert_same_bits(block[i], layers[i - 1])
        assert not block[last + 1:].any()
        assert_same_bits(incr[0], increments[last - 1])
        block[1:] = np.nan
        incr = np.stack((d0, np.full(n, np.nan)))
        for i in range(1, rows):
            step_block(block, i, i + 1, stiff, rhs_prev, f, incr, math.inf)
            assert_same_bits(incr[0], increments[i - 1])
            assert_same_bits(block[i], layers[i - 1])

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 18, 19, 34, 50, 71])
    def test_zero_faces_anywhere(self, rng, n, pattern):
        # runs of decoupled cells shorter than, as long as and longer than a
        # chunk, at the start of the row, in its middle and at its end
        for _ in range(3):
            self.check(*self.case(rng, n, coupled_faces(n, pattern)))

    @pytest.mark.parametrize("n", [18, 40, 120])
    def test_negative_zero_e_is_a_decoupled_face(self, rng, n):
        for pattern in self.PATTERNS:
            self.check(*self.case(rng, n, coupled_faces(n, pattern), negative_zeros=True))

    def test_random_runs_of_zero_faces(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 90))
            runs = rng.integers(1, 40, n)  # alternate runs of zero and nonzero faces
            faces = np.repeat(np.arange(n) % 2 == 1, runs)[: n - 1]
            self.check(*self.case(rng, n, faces ^ (rng.random() < 0.5)), rows=3)

    @staticmethod
    def underflow_case(rng, n, j, where):
        """A step whose row j is -0 and whose neighbour on the side the
        sweeps read is negative, so that the sweeps turn the -0 into +0, in
        a row where no face is coupled.  where = "band": band_row(j) is a
        product that underflows to -0; where = "division": band_row(j) is
        tiny and negative and its division by d[j] underflows to -0."""
        stiff, rhs_prev, f, u0, d0 = TestDecoupledStep.case(rng, n, np.zeros(n - 1, bool))
        diag, off = rhs_prev.diag.copy(), rhs_prev.off.copy()
        u0[max(j - 2, 0) : j + 3] = 0.0
        d0[max(j - 2, 0) : j + 3] = 0.0
        if where == "band":
            # only the last product of row j is not +0, and it rounds to -0:
            # with column j + 1 when there is one, else with column j
            last = min(j + 1, n - 1)
            d0[last] = -1e-200
            (off if last > j else diag)[j] = 1e-200
            # row j-1 is -1: the forward sweep reads it
            d0[j - 2], off[j - 2] = -1.0, 1.0
        else:
            d0[j + 1], off[j], f.d[j] = -1e-300, 1.0, 1e300
            # row j+1 is -1e-300 over a d of 1: the backward sweep reads it
            diag[j + 1], f.d[j + 1] = 1.0, 1.0
        return stiff, TriDiagMatrix(diag, off), f, u0, d0

    # With 50 cells the chunks are cells 1-16, 17-32 and 33-48, and the
    # first and last cells are stepped serially; with 34 cells the chunks
    # are 1-16 and 17-32, next to the serial last cell.
    @pytest.mark.parametrize("n, j, where", [
        *((50, j, where) for j in (16, 17, 24, 32) for where in ("band", "division")),
        (50, 0, "division"), (34, 33, "band"),
    ])
    def test_underflow_to_negative_zero_next_to_a_negative_row(self, rng, n, j, where):
        stiff, rhs_prev, f, u0, d0 = self.underflow_case(rng, n, j, where)
        rhs = band_products(stiff, u0, 1.0, rhs_prev, d0)
        quotient = (rhs / f.d)[j]
        assert quotient == 0.0 and np.signbit(quotient)  # the case is what it claims
        _, (d,) = summed_form_steps(stiff, rhs_prev, f, u0, d0, 1)
        assert d[j] == 0.0 and not np.signbit(d[j])
        self.check(stiff, rhs_prev, f, u0, d0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("pattern", ["none", "zeros in the middle", "all"])
    def test_non_finite_previous_increment(self, rng, value, pattern):
        n = 60
        for j in (0, 1, 20, 30, 45, n - 1):
            stiff, rhs_prev, f, u0, d0 = self.case(rng, n, coupled_faces(n, pattern))
            d0[j] = value
            self.check(stiff, rhs_prev, f, u0, d0, rows=3)


def percent_lines(values) -> bytes:
    """The reference: each value as '%.17g' % value, one per line."""
    return "".join("%.17g\n" % v for v in values).encode("ascii")


def format_column(values) -> bytes:
    return format_csv(np.array(values, dtype=np.float64).reshape(-1, 1))


def with_neighbours(values: np.ndarray) -> np.ndarray:
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values])


class TestFormatCsv:
    """The kernel's CSV text against Python's '%.17g' %, byte for byte."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float_matches_percent_format(self, values):
        assert format_column(values) == percent_lines(values)

    def test_random_bit_patterns_match_percent_format(self, rng):
        for _ in range(4):
            values = rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64)
            assert format_column(values) == percent_lines(values.tolist())

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = with_neighbours(np.concatenate([twos, tens]))
        assert format_column(values) == percent_lines(values.tolist())

    def test_exact_ties_round_half_to_even(self, rng):
        # x = m / 2^j with m odd has the decimal digits of m 5^j; with 18 of
        # them, the last a 5, x lies halfway between two 17-digit decimals.
        # Such doubles (m < 2^53) exist for j = 2 .. 25 and for no other j.
        ties = []
        for j in range(1, 27):
            lo, hi = -(-10**17 // 5**j) | 1, min((10**18 - 1) // 5**j + 1, 2**53)
            odd = range(lo, hi, 2)
            picks = [*odd[:20], *odd[-20:]]
            picks += [odd[int(i)] for i in rng.integers(0, len(odd), 200)] if odd else []
            assert bool(picks) == (2 <= j <= 25), j
            ties += [m / 2**j for m in picks]
        for x in ties:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        # ties whose 17th digit is even (they round down) and odd (up) both occur
        assert {Decimal(x).as_tuple().digits[-2] % 2 for x in ties} == {0, 1}
        values = ties + [-x for x in ties]
        assert format_column(values) == percent_lines(values)

    def test_notation_and_exponent_edges(self):
        pinned = [
            (0.0, "0"), (-0.0, "-0"), (float("nan"), "nan"), (-float("nan"), "nan"),
            (float("inf"), "inf"), (-float("inf"), "-inf"), (1.0, "1"), (0.5, "0.5"),
            (1e-4, "0.0001"), (1.5e-4, "0.00014999999999999999"), (1e-5, "1.0000000000000001e-05"),
            (2.0**-17, "7.62939453125e-06"), (1e16, "10000000000000000"), (1e17, "1e+17"),
            (2.0**56, "72057594037927936"), (2.0**57, "1.4411518807585587e+17"),
            (1e-10, "1e-10"), (1e99, "9.9999999999999997e+98"), (1e100, "1e+100"),
            (1e-99, "1e-99"), (1e-100, "1e-100"),
            (5e-324, "4.9406564584124654e-324"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
        ]
        values, texts = zip(*pinned)
        assert format_column(values) == "".join(t + "\n" for t in texts).encode()
        assert percent_lines(values) == "".join(t + "\n" for t in texts).encode()
        edges = with_neighbours(np.array([1e-5, 1e-4, 1e-1, 1.0, 10.0, 1e15, 1e16, 1e17, 1e18,
                                          1e-9, 1e-10, 1e-99, 1e-100, 1e99, 1e100, 1e300]))
        assert format_column(edges) == percent_lines(edges.tolist())

    def test_many_columns(self, rng):
        table = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-30, 30, (50, 6))
        lines = [",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()]
        assert format_csv(table) == "".join(lines).encode()
        assert format_csv(np.zeros((0, 6))) == b""

    def test_widest_fields_fill_the_output_bound(self):
        # 24 bytes a value plus its separator is the bound the output buffer
        # is sized by; rows of such values fill it exactly
        widest = -1.2345678901234567e-300
        assert len("%.17g" % widest) == 24
        for rows, cols in ((1, 1), (3, 7), (100, 2)):
            text = format_csv(np.full((rows, cols), widest))
            assert len(text) == rows * cols * 25
            assert text == (",".join(["%.17g" % widest] * cols) + "\n").encode() * rows

    def test_rejects_what_the_kernel_would_misread(self):
        for bad in (np.zeros(3), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="two-dimensional"):
                format_csv(bad)
        for bad in (np.zeros((3, 2), np.float32), np.zeros((3, 2), order="F"),
                    np.zeros((3, 4))[:, ::2]):
            with pytest.raises(ValueError, match="contiguous float64"):
                format_csv(bad)
        # the kernel only reads the table
        table = np.arange(6.0).reshape(3, 2)
        expected = format_csv(table)
        table.setflags(write=False)
        assert format_csv(table) == expected == b"0,1\n2,3\n4,5\n"


class TestAgainstLapack:
    """factor against LAPACK pttrf itself, where scipy is installed."""

    @pytest.mark.parametrize("n", range(3, 10))  # every remainder of pttrf's 4-way unroll
    def test_factor_matches_pttrf(self, rng, n):
        linalg = pytest.importorskip("scipy.linalg")
        pttrf = linalg.get_lapack_funcs("pttrf", (np.array([1.0]),))
        for _ in range(200):
            m = random_spd_tridiag(rng, n).scaled(float(10.0 ** rng.uniform(-3, 3)))
            d, e, info = pttrf(m.diag, m.off)
            f = factor(m)
            assert info == 0
            assert f.d.tobytes() == d.tobytes() and f.e.tobytes() == e.tobytes()

    @pytest.mark.parametrize("n", range(3, 10))
    def test_rejected_at_pttrf_pivot(self, rng, n):
        linalg = pytest.importorskip("scipy.linalg")
        pttrf = linalg.get_lapack_funcs("pttrf", (np.array([1.0]),))
        for _ in range(200):
            m = random_dd_tridiag(rng, n)
            _, _, info = pttrf(m.diag, m.off)
            if not info:  # every diagonal sign came out positive
                factor(m)
                continue
            with pytest.raises(SingularMatrixError) as err:
                factor(m)
            assert pivot_of(err.value) == info


class TestDenseOracle:
    def test_one_by_one(self):
        np.testing.assert_array_equal(
            dense_solve_oracle(np.array([[2.0]]), np.array([4.0])), [2.0]
        )

    def test_symmetric_two_by_two(self):
        x = dense_solve_oracle(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dense_solve_oracle(a, np.array([2.0, 3.0])), [3.0, 2.0])

    def test_against_tridiagonal_restriction(self, rng):
        full = rng.standard_normal((50, 50))
        diag = np.diag(full).copy() + 25.0  # make the restriction well conditioned
        off = np.diag(full, 1).copy()
        m = TriDiagMatrix(diag, off)
        rhs = rng.standard_normal(50)
        np.testing.assert_allclose(
            dense_solve_oracle(to_dense(m), rhs), solve(factor(m), rhs),
            rtol=1e-12, atol=1e-14,
        )

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            dense_solve_oracle(a, np.array([1.0, 2.0]))


class TestTriDiagMatrix:
    def test_arithmetic(self, rng):
        a = random_dd_tridiag(rng, 8)
        b = random_dd_tridiag(rng, 8)
        np.testing.assert_allclose(
            to_dense(a + b), to_dense(a) + to_dense(b), rtol=1e-14
        )
        np.testing.assert_allclose(
            to_dense(a - b), to_dense(a) - to_dense(b), rtol=1e-14
        )
        np.testing.assert_allclose(to_dense(a.scaled(2.5)), 2.5 * to_dense(a), rtol=1e-14)

    def test_dominance_margin(self):
        strict = TriDiagMatrix(np.array([3.0, 3.0, 3.0]), np.array([-1.0, 1.0]))
        assert dominance_margin(strict) == pytest.approx(1.0)
        weak = TriDiagMatrix(np.array([1.0, 1.0]), np.array([1.0]))
        assert dominance_margin(weak) == pytest.approx(0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TriDiagMatrix(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            TriDiagMatrix(np.array([1.0, np.nan, 1.0]), np.zeros(2))
