import numpy as np
import pytest

from kvwave.mesh import Parameters, _check_face_bounds, build_mesh, flux_coefficients


def params_for(c1=1.0, c2=1.0, c3=1.0, alpha=1.0, beta=2.0, length=3.0):
    return Parameters(
        c1_sq=c1, c2_sq=c2, c3_sq=c3, delta=1.0,
        alpha=alpha, beta=beta, length=length, t_final=10.0,
    )


class TestParameters:
    def test_valid(self, base_params):
        assert base_params.zone_speeds_sq == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c1_sq=0.0),
            dict(c2_sq=-1.0),
            dict(alpha=2.0, beta=1.0),
            dict(alpha=0.0),
            dict(beta=3.0),
            dict(length=-1.0),
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(
            c1_sq=1.0, c2_sq=1.0, c3_sq=1.0, delta=0.0,
            alpha=1.0, beta=2.0, length=3.0, t_final=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Parameters(**base)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            params_for().__class__(
                c1_sq=1.0, c2_sq=1.0, c3_sq=1.0, delta=-0.5,
                alpha=1.0, beta=2.0, length=3.0, t_final=1.0,
            )


class TestBuildMesh:
    def test_base_grid_widths(self, base_mesh):
        m = base_mesh
        assert (m.n_alpha, m.n_damp, m.n_beta) == (20, 10, 20)
        assert m.n_max == 50
        assert m.h_alpha == pytest.approx(0.05, rel=1e-15)
        assert m.h == pytest.approx(0.1, rel=1e-15)
        assert m.h_beta == pytest.approx(0.05, rel=1e-15)

    def test_wide_damping_grid(self):
        p = params_for(alpha=0.1, beta=2.9)
        m = build_mesh(p, 4, 100, 4)
        assert m.h_alpha == pytest.approx(0.025, rel=1e-15)
        assert m.h_beta == pytest.approx(0.025, rel=1e-15)
        assert m.h == pytest.approx(0.028, rel=1e-15)

    def test_uniform_thirds(self):
        p = params_for(alpha=1.0 / 3.0, beta=2.0 / 3.0, length=1.0)
        m = build_mesh(p, 1, 2, 1)
        np.testing.assert_allclose(m.faces, [0.0, 1 / 3, 1 / 2, 2 / 3, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.centers, [1 / 6, 5 / 12, 7 / 12, 5 / 6], atol=1e-15)

    def test_interfaces_on_faces_exactly(self, base_mesh, base_params):
        assert base_mesh.faces[base_mesh.n_alpha] == base_params.alpha
        assert base_mesh.faces[base_mesh.n_alpha + base_mesh.n_damp] == base_params.beta
        assert base_mesh.faces[0] == 0.0
        assert base_mesh.faces[-1] == base_params.length

    def test_faces_strictly_increasing(self, base_mesh):
        assert np.all(np.diff(base_mesh.faces) > 0)

    def test_centers_are_midpoints(self, base_mesh):
        mid = 0.5 * (base_mesh.faces[:-1] + base_mesh.faces[1:])
        np.testing.assert_array_equal(base_mesh.centers, mid)

    def test_widths_partition_domain(self, base_mesh, base_params):
        total = float(base_mesh.cell_widths.sum())
        assert abs(total - base_params.length) <= 1e-14 * base_params.length

    def test_size_is_max_zone_width(self, base_mesh):
        assert base_mesh.cell_widths.max() == pytest.approx(
            max(base_mesh.h_alpha, base_mesh.h, base_mesh.h_beta), rel=1e-12
        )

    def test_boundary_half_spacings(self, base_mesh):
        assert base_mesh.face_spacings[0] == pytest.approx(base_mesh.h_alpha / 2, rel=1e-12)
        assert base_mesh.face_spacings[-1] == pytest.approx(base_mesh.h_beta / 2, rel=1e-12)

    @pytest.mark.parametrize("counts", [(0, 10, 20), (20, 10, -1), (20, 1, 20)])
    def test_bad_counts(self, base_params, counts):
        with pytest.raises(ValueError):
            build_mesh(base_params, *counts)

    def test_mesh_is_read_only(self, base_mesh):
        with pytest.raises(ValueError):
            base_mesh.faces[0] = 1.0


class TestFluxCoefficients:
    def test_interior_damping_face_equal_speeds(self, base_mesh, base_params):
        ell = flux_coefficients(base_mesh, base_params).ell
        # faces strictly inside the damped zone have spacing h = 0.1
        inner = ell[base_mesh.damping_interior_faces]
        np.testing.assert_allclose(inner, 10.0, rtol=1e-12)

    def test_interface_value_mismatched_speeds(self):
        p = params_for(c1=9.0, c2=1.0, c3=4.0)
        m = build_mesh(p, 20, 10, 20)
        ell = flux_coefficients(m, p).ell
        expected = 2.0 * 9.0 * 1.0 / (9.0 * 0.1 + 1.0 * 0.05)  # = 18 / 0.95
        assert ell[m.n_alpha] == pytest.approx(expected, rel=1e-14)
        assert ell[m.n_alpha] == pytest.approx(18.947368421052632, rel=1e-9)

    def test_interface_equal_speeds_reduces(self, base_mesh, base_params):
        ell = flux_coefficients(base_mesh, base_params).ell
        assert ell[base_mesh.n_alpha] == pytest.approx(2.0 / 0.15, rel=1e-13)

    def test_boundary_faces_use_half_spacing(self, base_mesh, base_params):
        ell = flux_coefficients(base_mesh, base_params).ell
        assert ell[0] == pytest.approx(1.0 / (base_mesh.h_alpha / 2), rel=1e-12)
        assert ell[-1] == pytest.approx(1.0 / (base_mesh.h_beta / 2), rel=1e-12)

    def test_face_product_within_speed_bounds(self, rng):
        for _ in range(25):
            c1, c2, c3 = rng.uniform(0.1, 10.0, size=3)
            counts = rng.integers(1, 15, size=3)
            counts[1] = max(counts[1], 2)
            p = params_for(c1=c1, c2=c2, c3=c3)
            m = build_mesh(p, *map(int, counts))
            ell = flux_coefficients(m, p).ell
            assert np.all(ell > 0)
            product = ell * m.face_spacings
            lo, hi = min(c1, c2, c3), max(c1, c2, c3)
            assert np.all(product >= lo * (1 - 1e-12))
            assert np.all(product <= hi * (1 + 1e-12))

    def test_interface_product_between_adjacent_speeds(self):
        p = params_for(c1=9.0, c2=1.0, c3=4.0)
        m = build_mesh(p, 20, 10, 20)
        ell = flux_coefficients(m, p).ell
        at_alpha = ell[m.n_alpha] * m.face_spacings[m.n_alpha]
        at_beta = ell[m.n_alpha + m.n_damp] * m.face_spacings[m.n_alpha + m.n_damp]
        assert 1.0 <= at_alpha <= 9.0
        assert 1.0 <= at_beta <= 4.0

    def test_refinement_halves_widths_doubles_ell(self, base_params):
        coarse = build_mesh(base_params, 20, 10, 20)
        fine = build_mesh(base_params, 40, 20, 40)
        ell_c = flux_coefficients(coarse, base_params).ell
        ell_f = flux_coefficients(fine, base_params).ell
        assert fine.h_alpha == pytest.approx(coarse.h_alpha / 2, rel=1e-15)
        assert fine.h == pytest.approx(coarse.h / 2, rel=1e-15)
        assert fine.cell_widths.max() == pytest.approx(coarse.cell_widths.max() / 2, rel=1e-12)
        # interior face of the damped zone doubles
        mid_c = ell_c[coarse.n_alpha + 2]
        mid_f = ell_f[fine.n_alpha + 3]
        assert mid_f == pytest.approx(2 * mid_c, rel=1e-12)

    @pytest.mark.parametrize(
        "counts", [(4000, 2000, 4000), (20000, 10000, 20000), (40000, 20000, 40000)]
    )
    def test_large_equal_damped_meshes_accepted(self, base_params, counts):
        mesh = build_mesh(base_params, *counts)
        ell = flux_coefficients(mesh, base_params).ell
        assert ell.shape == (mesh.n_max + 1,)

    @pytest.mark.parametrize("interface", ["alpha", "beta"])
    def test_perturbed_interface_coefficient_rejected(self, base_params, interface):
        # the largest mesh above has the loosest rounding tolerance
        mesh = build_mesh(base_params, 40000, 20000, 40000)
        ell = flux_coefficients(mesh, base_params).ell.copy()
        face = mesh.n_alpha if interface == "alpha" else mesh.n_alpha + mesh.n_damp
        ell[face] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="zone speed bounds"):
            _check_face_bounds(ell, mesh, base_params)
