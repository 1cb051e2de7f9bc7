from fractions import Fraction

import numpy as np
import pytest

from kvwave.linalg import (
    LDLFactorization,
    SingularMatrixError,
    TriDiagMatrix,
    assemble_damping,
    assemble_mass,
    assemble_stiffness,
    band_storage,
    band_sum,
    factor,
    solve,
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
    return TriDiagMatrix(n, diag, off)


def random_spd_tridiag(rng, n):
    """Symmetric, strictly diagonally dominant, positive diagonal."""
    m = random_dd_tridiag(rng, n)
    return TriDiagMatrix(n, np.abs(m.diag), m.off)


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

    def test_quadratic_form_matches_face_sum(self, base_mesh, rng):
        a = assemble_damping(base_mesh)
        for _ in range(20):
            x = rng.standard_normal(base_mesh.n_max)
            expected = damping_form_oracle(base_mesh, x)
            assert quadratic_form(a, x) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_positive_semidefinite(self, base_mesh, rng):
        a = assemble_damping(base_mesh)
        for _ in range(50):
            x = rng.standard_normal(base_mesh.n_max)
            assert quadratic_form(a, x) >= -1e-14 * float(x @ x)


class TestAssembleStiffness:
    def test_quadratic_form_matches_face_sum(self, base_mesh, base_ell, rng):
        b = assemble_stiffness(base_mesh, base_ell)
        for _ in range(20):
            x = rng.standard_normal(base_mesh.n_max)
            expected = stiffness_form_oracle(base_ell.ell, x)
            assert quadratic_form(b, x) == pytest.approx(expected, rel=1e-12)

    def test_constant_vector_telescopes(self, base_mesh, base_ell):
        b = assemble_stiffness(base_mesh, base_ell)
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
        b = assemble_stiffness(mesh, ell)
        np.testing.assert_array_equal(b.diag, [-3.0, -2.0, -3.0])
        np.testing.assert_array_equal(b.off, [1.0, 1.0])

    def test_negative_definite(self, base_mesh, base_ell, rng):
        b = assemble_stiffness(base_mesh, base_ell)
        assert quadratic_form(b, np.zeros(base_mesh.n_max)) == 0.0
        for _ in range(50):
            x = rng.standard_normal(base_mesh.n_max)
            assert quadratic_form(b, x) < 0.0


class TestFactorSolve:
    def test_identity(self):
        m = TriDiagMatrix(5, np.ones(5), np.zeros(4))
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
        m = TriDiagMatrix(3, np.zeros(3), np.zeros(2))
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
        f = factor(random_spd_tridiag(rng, 12))
        rhs = rng.standard_normal((12, 2))[:, 1]
        saved = rhs.copy()
        with pytest.raises(ValueError, match="contiguous"):
            solve(f, rhs)
        assert rhs.tobytes() == saved.tobytes()


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
            factor(TriDiagMatrix(30, diag, m.off))
        for m in (random_dd_tridiag(rng, 30), random_spd_tridiag(rng, 30).scaled(-1.0)):
            with pytest.raises(SingularMatrixError):
                factor(m)


class TestBandSum:
    @pytest.mark.parametrize("n", [3, 4, 17, 200])
    def test_matches_tridiagonal_matvec(self, rng, n):
        a, b = random_dd_tridiag(rng, n), random_dd_tridiag(rng, n)
        x, y = rng.standard_normal((2, n))
        scale = float(rng.uniform(-2.0, 2.0))
        got = band_sum(band_storage(a), x, scale, band_storage(b), y, np.empty(n))
        expected = to_dense(a) @ x + scale * (to_dense(b) @ y)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -0.0, 1e308])
    def test_writes_into_out_whatever_it_held(self, rng, fill):
        n = 17
        a, b = band_storage(random_dd_tridiag(rng, n)), band_storage(random_dd_tridiag(rng, n))
        x, y = rng.standard_normal((2, n))
        x[4:9] = y[4:9] = -0.0  # rows 5-7 sum signed zeros only
        reference = band_sum(a, x, -1.0, b, y, np.zeros(n))
        out = np.full(n, fill)
        assert band_sum(a, x, -1.0, b, y, out) is out
        assert out.tobytes() == reference.tobytes()

    def test_strided_out_rejected(self, rng):
        n = 9
        a, b = band_storage(random_dd_tridiag(rng, n)), band_storage(random_dd_tridiag(rng, n))
        x, y = rng.standard_normal((2, n))
        with pytest.raises(ValueError, match="contiguous"):
            band_sum(a, x, 0.5, b, y, np.zeros((n, 2))[:, 0])

    def test_storage_is_three_rows(self, rng):
        m = random_dd_tridiag(rng, 9)
        band = band_storage(m)
        assert band.shape == (3, 9) and band.flags.f_contiguous
        np.testing.assert_array_equal(band[1], m.diag)
        np.testing.assert_array_equal(band[0, 1:], m.off)
        np.testing.assert_array_equal(band[2, :-1], m.off)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_small_rejected(self, rng, n):
        with pytest.raises(ValueError):
            band_storage(random_dd_tridiag(rng, n))


def pivot_of(err: SingularMatrixError) -> int:
    return int(str(err).split("pivot ")[1].split()[0])


def random_band(rng, n):
    """Band storage of a random tridiagonal matrix whose entries span many
    binades, so that products and sums round."""
    m = random_dd_tridiag(rng, n)
    return band_storage(m.scaled(float(10.0 ** rng.uniform(-3, 3))))


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
        for _ in range(20):
            a, b = random_band(rng, n), random_band(rng, n)
            x, y = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-5, 5, (2, n))
            scale = float(rng.uniform(-2.0, 2.0))
            got = band_sum(a, x, scale, b, y, np.empty(n))
            assert got.tobytes() == band_products(a, x, scale, b, y).tobytes()

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
        band = np.zeros((3, 2), order="F")
        f = LDLFactorization(np.ones(2), np.zeros(1))
        with pytest.raises(ValueError, match="3 or more"):
            step_block(np.zeros((3, 2)), 1, 3, band, band, f, np.zeros(2), np.zeros(2))

    @staticmethod
    def check_step_block(rng, rows, n):
        stiff, rhs_prev = random_band(rng, n), random_band(rng, n)
        f = factor(random_spd_tridiag(rng, n))
        block = np.zeros((rows, n))
        block[0] = rng.standard_normal(n)
        d0 = rng.standard_normal(n)
        d_prev, d_next = d0.copy(), np.empty(n)
        out = step_block(block, 1, rows, stiff, rhs_prev, f, d_prev, d_next)
        d = d0
        for i in range(1, rows):
            d = ldl_solve(f.d, f.e, band_products(stiff, block[i - 1], 1.0, rhs_prev, d))
            assert block[i].tobytes() == np.add(block[i - 1], d).tobytes(), i
        assert out[0].tobytes() == d.tobytes()
        assert out == ((d_next, d_prev) if (rows - 1) % 2 else (d_prev, d_next))

    def test_step_block_rejects_bad_arguments(self, rng):
        n = 7
        stiff = band_storage(random_dd_tridiag(rng, n))
        f = factor(random_spd_tridiag(rng, n))
        block = np.zeros((4, n))
        d_prev, d_next = np.zeros(n), np.zeros(n)
        for start, stop in ((0, 2), (2, 5), (3, 2)):
            with pytest.raises(ValueError, match="rows"):
                step_block(block, start, stop, stiff, stiff, f, d_prev, d_next)
        with pytest.raises(ValueError, match="length"):
            step_block(block, 1, 4, stiff, stiff, f, np.zeros(n + 1), d_next)
        with pytest.raises(ValueError, match="contiguous"):
            step_block(block, 1, 4, stiff, stiff, f, np.zeros((n, 2))[:, 0], d_next)
        with pytest.raises(ValueError, match="contiguous"):
            step_block(block[:, ::-1], 1, 4, stiff, stiff, f, d_prev, d_next)
        assert not block.any()


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
        m = TriDiagMatrix(50, diag, off)
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
        strict = TriDiagMatrix(3, np.array([3.0, 3.0, 3.0]), np.array([-1.0, 1.0]))
        assert dominance_margin(strict) == pytest.approx(1.0)
        weak = TriDiagMatrix(2, np.array([1.0, 1.0]), np.array([1.0]))
        assert dominance_margin(weak) == pytest.approx(0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TriDiagMatrix(3, np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            TriDiagMatrix(3, np.array([1.0, np.nan, 1.0]), np.zeros(2))
