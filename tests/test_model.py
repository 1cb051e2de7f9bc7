import numpy as np
import pytest

from kvwave.mesh import Parameters, build_mesh
from kvwave.model import (
    InitialData,
    cfl_max_dt,
    default_initial_data,
    sample_cell_averages,
    validate_run,
)


class TestSampleCellAverages:
    def test_constant_profile(self, base_mesh):
        avg = sample_cell_averages(lambda x: np.ones_like(x), base_mesh)
        np.testing.assert_array_equal(avg, 1.0)

    def test_linear_profile_first_cell(self, base_mesh):
        avg = sample_cell_averages(lambda x: x, base_mesh)
        # mean of x over (0, 0.05) is the midpoint
        assert avg[0] == pytest.approx(0.025, rel=1e-14)

    def test_quadratic_profile_matches_antiderivative(self, base_mesh):
        length = 3.0
        profile = lambda x: (4.0 / length**2) * x * (length - x)
        avg = sample_cell_averages(profile, base_mesh)
        a, b = base_mesh.faces[:-1], base_mesh.faces[1:]
        # exact cell mean of the parabola, written without cancellation:
        # (1/h) int x(L-x) dx over (a, b) = L (a+b)/2 - (a^2 + a b + b^2)/3
        exact = (4.0 / length**2) * (length * (a + b) / 2 - (a * a + a * b + b * b) / 3)
        np.testing.assert_allclose(avg, exact, rtol=1e-13)

    def test_linearity(self, base_mesh, rng):
        f = lambda x: np.sin(x) + 0.5
        g = lambda x: x**2 - x
        a, b = rng.uniform(-3, 3, size=2)
        combo = sample_cell_averages(lambda x: a * f(x) + b * g(x), base_mesh)
        split = a * sample_cell_averages(f, base_mesh) + b * sample_cell_averages(g, base_mesh)
        np.testing.assert_allclose(combo, split, rtol=1e-12, atol=1e-14)

    def test_cubic_quadrature_exactness(self, base_mesh):
        profile = lambda x: x**3 - 2.0 * x**2 + x - 0.25
        antideriv = lambda x: x**4 / 4 - 2.0 * x**3 / 3 + x**2 / 2 - 0.25 * x
        avg = sample_cell_averages(profile, base_mesh)
        total = float(base_mesh.cell_widths @ avg)
        exact = antideriv(3.0) - antideriv(0.0)
        assert total == pytest.approx(exact, rel=1e-13)

    def test_scalar_only_profile_supported(self, base_mesh):
        def pointwise(x):
            return float(x) ** 2  # rejects arrays

        avg = sample_cell_averages(pointwise, base_mesh)
        vector = sample_cell_averages(lambda x: x**2, base_mesh)
        np.testing.assert_allclose(avg, vector, rtol=1e-14)

    def test_non_finite_profile_rejected(self, base_mesh):
        with pytest.raises(ValueError):
            sample_cell_averages(lambda x: np.full_like(x, np.nan), base_mesh)


class TestInitialData:
    def test_default_data_vanishes_at_ends(self):
        data = default_initial_data(3.0)
        assert data.phi(np.array(0.0)) == 0.0
        assert data.phi(np.array(3.0)) == 0.0
        assert data.phi(np.array(1.5)) == pytest.approx(1.0)
        assert data.psi(np.array(1.5)) == pytest.approx(-1.0)

    def test_nonvanishing_displacement_rejected(self):
        with pytest.raises(ValueError):
            InitialData(phi=lambda x: x + 1.0, psi=lambda x: 0.0 * x, length=3.0)

    def test_sine_profile_accepted(self):
        InitialData(
            phi=lambda x: np.sin(np.pi * x / 3.0),
            psi=lambda x: 0.0 * x,
            length=3.0,
        )


class TestCfl:
    def test_equal_speeds(self, base_params, base_mesh):
        assert cfl_max_dt(base_params, base_mesh) == pytest.approx(0.05, rel=1e-15)

    def test_fast_first_zone(self, base_mesh):
        p = Parameters(
            c1_sq=9.0, c2_sq=1.0, c3_sq=4.0, delta=1.0,
            alpha=1.0, beta=2.0, length=3.0, t_final=10.0,
        )
        assert cfl_max_dt(p, base_mesh) == pytest.approx(0.05 / 3.0, rel=1e-14)

    def test_bound_scales_linearly_with_width(self, base_params):
        coarse = build_mesh(base_params, 20, 10, 20)
        fine = build_mesh(base_params, 40, 20, 40)
        assert cfl_max_dt(base_params, fine) == pytest.approx(
            cfl_max_dt(base_params, coarse) / 2, rel=1e-14
        )


class TestValidateRun:
    def test_explicit_stable_at_preset_step(self, base_params, base_mesh):
        verdict = validate_run(base_params, base_mesh, 0.025, "explicit")
        assert verdict.stable and not verdict.accuracy_warning

    def test_explicit_equality_is_stable(self, base_params, base_mesh):
        verdict = validate_run(base_params, base_mesh, 0.05, "explicit")
        assert verdict.stable

    def test_explicit_unstable_with_fast_zone(self, base_mesh):
        p = Parameters(
            c1_sq=9.0, c2_sq=1.0, c3_sq=4.0, delta=1.0,
            alpha=1.0, beta=2.0, length=3.0, t_final=10.0,
        )
        verdict = validate_run(p, base_mesh, 0.025, "explicit")
        assert not verdict.stable
        assert verdict.dt_bound == pytest.approx(0.05 / 3.0, rel=1e-14)

    def test_implicit_always_stable_with_warning(self, base_params, base_mesh):
        verdict = validate_run(base_params, base_mesh, 0.25, "implicit")
        assert verdict.stable and verdict.accuracy_warning
        calm = validate_run(base_params, base_mesh, 0.025, "implicit")
        assert calm.stable and not calm.accuracy_warning

    def test_degenerate_dt_rejected(self, base_params, base_mesh):
        for scheme in ("explicit", "implicit"):
            with pytest.raises(ValueError):
                validate_run(base_params, base_mesh, 0.0, scheme)

    def test_unknown_scheme_rejected(self, base_params, base_mesh):
        with pytest.raises(ValueError):
            validate_run(base_params, base_mesh, 0.025, "leapfrog")
