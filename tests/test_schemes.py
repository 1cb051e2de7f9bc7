from dataclasses import fields

import numpy as np
import pytest

from kvwave import diagnostics, linalg
from kvwave.cli import PRESET_NAMES
from kvwave.diagnostics import EnergyTrace, layer_energies
from kvwave.linalg import assemble_damping, assemble_mass
from kvwave.mesh import Parameters, build_mesh
from kvwave.model import ConfigError, cfl_max_dt, default_initial_data, sample_cell_averages
from kvwave.schemes import bootstrap, build_operators, run, scheme_matrices
from oracles import (
    dense_solve_oracle,
    discrete_h1_seminorm,
    discrete_l2_norm,
    dominance_margin,
    explicit_bootstrap,
    to_dense,
)
from spectral import preset_operators

DT = 0.025
ORACLE_MESHES = [(1, 2, 1), (20, 10, 20), (200, 100, 200)]


def undamped_params():
    return Parameters(1, 1, 1, 0.0, 1.0, 2.0, 3.0, 10000.0)


def sampled_initial(mesh, length=3.0):
    data = default_initial_data(length)
    u0 = sample_cell_averages(data.phi, mesh)
    psi = sample_cell_averages(data.psi, mesh)
    return u0, psi


def next_layer(ops, u_prev, u_curr):
    """The layer after u_prev, u_curr, through one summed-form step: step_block
    on a three-row block."""
    block = np.stack([u_prev, u_curr, np.zeros_like(u_curr)])
    ops.step_block(block, 2, 3, u_curr - u_prev, np.empty_like(u_curr))
    return block[2]


class TestBuildOperators:
    def test_explicit_lhs_reduces_to_mass_when_undamped(self, base_mesh):
        m = scheme_matrices(base_mesh, undamped_params(), DT, "explicit")
        np.testing.assert_array_equal(m.lhs.diag, assemble_mass(base_mesh).diag)
        assert np.all(m.lhs.off == 0.0)

    def test_matrix_combinations(self, base_mesh, base_params):
        m = scheme_matrices(base_mesh, base_params, DT, "explicit")
        mass, damping = to_dense(assemble_mass(base_mesh)), to_dense(assemble_damping(base_mesh))
        s = base_params.delta * DT / base_mesh.h
        np.testing.assert_allclose(to_dense(m.lhs), mass + s * damping, rtol=1e-14)
        np.testing.assert_allclose(
            to_dense(m.rhs_curr),
            2.0 * mass + DT**2 * to_dense(m.stiffness),
            rtol=1e-14,
        )
        np.testing.assert_allclose(to_dense(m.rhs_prev), mass - s * damping, rtol=1e-14)
        np.testing.assert_array_equal(to_dense(m.boot_lhs), 2.0 * mass)

    def test_implicit_matrices_put_flux_average_on_outer_layers(self, base_mesh, base_params):
        m = scheme_matrices(base_mesh, base_params, DT, "implicit")
        mass, damping = to_dense(assemble_mass(base_mesh)), to_dense(assemble_damping(base_mesh))
        s = base_params.delta * DT / base_mesh.h
        half = 0.5 * DT**2
        np.testing.assert_allclose(
            to_dense(m.lhs),
            mass - half * to_dense(m.stiffness) + s * damping,
            rtol=1e-14,
        )
        np.testing.assert_allclose(to_dense(m.rhs_curr), 2.0 * mass, rtol=1e-14)
        np.testing.assert_allclose(
            to_dense(m.boot_lhs),
            2.0 * mass - DT**2 * to_dense(m.stiffness),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_left_matrices_strictly_diagonally_dominant(self, base_mesh, base_params, scheme):
        m = scheme_matrices(base_mesh, base_params, DT, scheme)
        assert dominance_margin(m.lhs) > 0.0
        assert dominance_margin(m.boot_lhs) > 0.0

    def test_bad_scheme_rejected(self, base_mesh, base_params):
        with pytest.raises(ValueError):
            build_operators(base_mesh, base_params, DT, "midpoint")
        with pytest.raises(ValueError):
            build_operators(base_mesh, base_params, 0.0, "explicit")


class TestBootstrap:
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_zero_data(self, base_mesh, base_params, scheme):
        ops = build_operators(base_mesh, base_params, DT, scheme)
        z = np.zeros(base_mesh.n_max)
        np.testing.assert_array_equal(bootstrap(z, z, ops), z)

    def test_explicit_zero_velocity_drops_damping(self, base_mesh, base_params):
        # with zero initial velocity: u1 = u0 + (dt^2 / 2) M^{-1} B u0
        ops = build_operators(base_mesh, base_params, DT, "explicit")
        u0, _ = sampled_initial(base_mesh)
        zero = np.zeros_like(u0)
        u1 = bootstrap(u0, zero, ops)
        stiffness = scheme_matrices(base_mesh, base_params, DT, "explicit").stiffness
        expected = u0 + 0.5 * DT**2 * (to_dense(stiffness) @ u0) / base_mesh.cell_widths
        np.testing.assert_allclose(u1, expected, rtol=1e-12, atol=1e-15)

    def test_explicit_first_layer_close_to_initial(self, base_mesh, base_params):
        ops = build_operators(base_mesh, base_params, DT, "explicit")
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)
        assert np.all(np.isfinite(u1))
        gap = float(np.abs(u1 - u0).max())
        assert 0.0 < gap <= 3.0 * DT * float(np.abs(psi).max())

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_taylor_consistency(self, scheme):
        # coarse cells keep the second-order correction below the tolerance
        p = Parameters(1, 1, 1, 1.0, 1.0, 2.0, 3.0, 10.0)
        mesh = build_mesh(p, 2, 2, 2)
        dt = 1e-4
        ops = build_operators(mesh, p, dt, scheme)
        u0, psi = sampled_initial(mesh)
        u1 = bootstrap(u0, psi, ops)
        np.testing.assert_allclose(u1, u0 + dt * psi, atol=1e-7)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_bootstrap_residual(self, base_mesh, base_params, scheme):
        ops = build_operators(base_mesh, base_params, DT, scheme)
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)
        m = scheme_matrices(base_mesh, base_params, DT, scheme)
        rhs = to_dense(m.rhs_curr) @ u0 + 2.0 * DT * (to_dense(m.rhs_prev) @ psi)
        residual = float(np.abs(to_dense(m.boot_lhs) @ u1 - rhs).max())
        assert residual <= 1e-12 * max(1.0, float(np.abs(rhs).max()))

    @pytest.mark.parametrize("counts", ORACLE_MESHES, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_bootstrap_matches_dense_oracle(self, scheme, counts, rng):
        p = Parameters(2.0, 1.0, 0.5, 1.0, 1.0, 2.0, 3.0, 10.0)
        mesh = build_mesh(p, *counts)
        dt = 0.01
        ops = build_operators(mesh, p, dt, scheme)
        m = scheme_matrices(mesh, p, dt, scheme)
        u0, psi = rng.standard_normal((2, mesh.n_max))
        u1 = bootstrap(u0, psi, ops)
        rhs = to_dense(m.rhs_curr) @ u0 + 2.0 * dt * (to_dense(m.rhs_prev) @ psi)
        expected = dense_solve_oracle(to_dense(m.boot_lhs), rhs)
        np.testing.assert_allclose(u1, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_explicit_bootstrap_is_the_division_by_2m(self, name):
        # the solve with the factors of the diagonal 2 M gives the bits of
        # the componentwise division, so explicit runs keep their outputs
        ops = preset_operators(name, "explicit")
        u0, psi = sampled_initial(ops.mesh, ops.params.length)
        assert bootstrap(u0, psi, ops).tobytes() == explicit_bootstrap(u0, psi, ops).tobytes()


class TestSteps:
    def test_zero_state_stays_zero(self, base_mesh, base_params):
        for scheme in ("explicit", "implicit"):
            ops = build_operators(base_mesh, base_params, DT, scheme)
            z = np.zeros(base_mesh.n_max)
            np.testing.assert_allclose(next_layer(ops, z, z.copy()), z, atol=1e-18)

    @pytest.mark.parametrize("counts", ORACLE_MESHES, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_step_matches_dense_oracle_on_toy_mesh(self, scheme, counts, rng):
        p = Parameters(2.0, 1.0, 0.5, 1.0, 1.0, 2.0, 3.0, 10.0)
        mesh = build_mesh(p, *counts)
        ops = build_operators(mesh, p, 0.01, scheme)
        m = scheme_matrices(mesh, p, 0.01, scheme)
        u_prev, u_curr = rng.standard_normal((2, mesh.n_max))
        u_next = next_layer(ops, u_prev, u_curr)
        rhs = to_dense(m.rhs_curr) @ u_curr - to_dense(m.rhs_prev) @ u_prev
        expected = dense_solve_oracle(to_dense(m.lhs), rhs)
        np.testing.assert_allclose(u_next, expected, rtol=1e-12, atol=1e-14)

    def test_undamped_explicit_step_conserves_energy(self, base_mesh):
        p = undamped_params()
        ops = build_operators(base_mesh, p, DT, "explicit")
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)
        u2 = next_layer(ops, u0, u1)
        _, _, e_tot, _, _ = layer_energies(
            np.stack((u0, u1, u2)), base_mesh, ops.ell, p, DT, "explicit"
        )
        before, after = e_tot
        assert after == pytest.approx(before, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_undamped_schemes_are_time_reversible(self, base_mesh, scheme):
        p = undamped_params()
        ops = build_operators(base_mesh, p, DT, scheme)
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)
        n = 1000
        prev, curr = u0, u1
        for _ in range(n):
            prev, curr = curr, next_layer(ops, prev, curr)
        # swap the last two layers and march back
        prev, curr = curr, prev
        for _ in range(n):
            prev, curr = curr, next_layer(ops, prev, curr)
        scale = float(np.abs(u0).max())
        assert float(np.abs(curr - u0).max()) <= 1e-8 * scale


class TestRun:
    def test_single_step_returns_bootstrap(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        result = run(base_params, base_mesh, data, DT, 1, scheme="explicit")
        ops = build_operators(base_mesh, base_params, DT, "explicit")
        u0, psi = sampled_initial(base_mesh)
        np.testing.assert_array_equal(result.u_curr, bootstrap(u0, psi, ops))
        np.testing.assert_array_equal(result.u_prev, u0)
        assert result.steps_completed == 1
        assert len(result.trace) == 1
        assert result.trace.step[0] == 0

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_identity_residual_small(self, base_mesh, base_params, scheme):
        data = default_initial_data(3.0)
        result = run(
            base_params, base_mesh, data, DT, 2000, scheme=scheme, verify_identity=True
        )
        assert result.verified_steps == 1999
        assert result.identity_residual_max <= 1e-11 * max(result.energy_initial, 1.0)

    def test_verify_mode_does_not_change_the_solution(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        plain = run(base_params, base_mesh, data, DT, 500, scheme="implicit")
        verified = run(
            base_params, base_mesh, data, DT, 500, scheme="implicit", verify_identity=True
        )
        np.testing.assert_array_equal(plain.u_curr, verified.u_curr)
        # recorded rows are the same bits in every column
        for column in fields(EnergyTrace):
            np.testing.assert_array_equal(
                getattr(plain.trace, column.name), getattr(verified.trace, column.name)
            )

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_recording_every_step_evaluates_what_verifying_does(self, base_mesh, base_params,
                                                                 monkeypatch, scheme):
        # an unverified run that keeps every step makes the verified run's
        # layer_energies calls: the initial pair, then each block itself with
        # every step selected, and no other evaluation
        original = diagnostics.layer_energies

        def calls(verify):
            seen = []

            def spy(layers, *args):
                selected = args[5] if len(args) > 5 else None
                seen.append((layers.copy(), None if selected is None else selected.copy()))
                return original(layers, *args)

            monkeypatch.setattr(diagnostics, "layer_energies", spy)
            run(base_params, base_mesh, default_initial_data(3.0), DT, 2500, scheme=scheme,
                observe_every=1, verify_identity=verify)
            return seen

        plain, verified = calls(False), calls(True)
        assert [len(layers) for layers, _ in verified] == [2, 1026, 1026, 453]
        assert len(plain) == len(verified)
        for (layers, selected), (layers_v, selected_v) in zip(plain, verified):
            assert layers.tobytes() == layers_v.tobytes()
            if selected_v is None:
                assert selected is None
            else:
                assert selected.all() and selected.tobytes() == selected_v.tobytes()

    def test_trace_records_cadence_and_final_step(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        result = run(base_params, base_mesh, data, DT, 250, observe_every=100)
        assert list(result.trace.step) == [0, 100, 200, 249]

    def test_snapshots(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        result = run(
            base_params, base_mesh, data, DT, 300,
            observe_every=100,
            snapshot_steps=(0, 150, 300),
        )
        assert [s.step for s in result.snapshots] == [0, 150, 300]
        assert result.snapshots[1].t == pytest.approx(150 * DT)
        np.testing.assert_array_equal(result.snapshots[2].values, result.u_curr)

    def test_divergence_detected_above_cfl(self, base_mesh):
        p = undamped_params()
        data = default_initial_data(3.0)
        result = run(p, base_mesh, data, 1.05 * 0.05, 5000, scheme="explicit",
                     verify_identity=True)
        assert result.diverged
        assert result.divergence_step is not None and result.divergence_step <= 5000
        assert len(result.trace) >= 1  # partial trace preserved
        assert result.steps_completed < 5000

    def test_damped_energy_decreases(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        result = run(base_params, base_mesh, data, DT, 5000, verify_identity=True)
        e = result.trace.e_total
        assert np.all(np.diff(e) < 0.0)
        tol = 1e-11 * max(result.energy_initial, 1.0)
        assert result.energy_rise_max <= tol

    def test_stability_quantity_stays_bounded(self, base_mesh, base_params):
        # velocity + value + gradient norms stay within a fixed multiple of
        # their first-step value along an implicit run
        ops = build_operators(base_mesh, base_params, DT, "implicit")
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)

        def quantity(prev, curr):
            d1 = (curr - prev) / DT
            return (
                discrete_l2_norm(d1, base_mesh) ** 2
                + discrete_l2_norm(curr, base_mesh) ** 2
                + discrete_h1_seminorm(curr, ops.ell) ** 2
            )

        s1 = quantity(u0, u1)
        prev, curr = u0, u1
        worst = s1
        for _ in range(20000):
            prev, curr = curr, next_layer(ops, prev, curr)
            worst = max(worst, quantity(prev, curr))
        assert worst <= 4.0 * s1

    @pytest.mark.parametrize("delta", [0.0, 1.0], ids=["undamped", "damped"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_stored_layers_satisfy_three_layer_recurrence(self, scheme, delta):
        # The run steps in summed form; the layers it stores still satisfy
        # L u_{n+1} = R2 u_n - R1 u_{n-1} to a few ulps of the terms' size.
        p = Parameters(9.0, 1.0, 4.0, delta, 1.0, 2.0, 3.0, 10000.0)
        mesh = build_mesh(p, 20, 10, 20)
        dt = 0.9 * cfl_max_dt(p, mesh)
        n_steps = 300
        result = run(p, mesh, default_initial_data(3.0), dt, n_steps, scheme=scheme,
                     snapshot_steps=range(n_steps + 1))
        u = np.array([s.values for s in result.snapshots])
        m = scheme_matrices(mesh, p, dt, scheme)
        lhs, r2, r1 = (to_dense(a) for a in (m.lhs, m.rhs_curr, m.rhs_prev))
        residual = u[2:] @ lhs.T - u[1:-1] @ r2.T + u[:-2] @ r1.T
        size = np.abs(u[2:]) @ np.abs(lhs).T + np.abs(u[1:-1]) @ np.abs(r2).T
        size += np.abs(u[:-2]) @ np.abs(r1).T
        assert len(u) == n_steps + 1
        assert np.all(np.abs(residual) <= 4.0 * np.finfo(float).eps * size)

    @pytest.mark.parametrize("every", [2**63, 10**30], ids=["2**63", "10**30"])
    def test_observe_every_beyond_int64_keeps_what_n_steps_keeps(self, base_mesh, base_params,
                                                                  every):
        data = default_initial_data(3.0)
        for verify in (False, True):
            huge, plain = (run(base_params, base_mesh, data, DT, 250, observe_every=e,
                               verify_identity=verify) for e in (every, 250))
            assert list(huge.trace.step) == [0, 249]
            for column in fields(EnergyTrace):
                assert (getattr(huge.trace, column.name).tobytes()
                        == getattr(plain.trace, column.name).tobytes())
            for name in ("identity_residual_max", "energy_drift_max", "energy_rise_max",
                         "verified_steps"):
                assert getattr(huge, name) == getattr(plain, name)

    def test_bad_arguments(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        with pytest.raises(ValueError):
            run(base_params, base_mesh, data, DT, 0)
        with pytest.raises(ValueError):
            run(base_params, base_mesh, data, DT, 10, observe_every=0)

    def test_operators_out_of_memory_are_a_config_error(self, base_mesh, base_params,
                                                         monkeypatch):
        def no_memory(matrix):
            raise MemoryError("Unable to allocate the factors")

        monkeypatch.setattr(linalg, "factor", no_memory)
        with pytest.raises(ConfigError, match="cannot set up the explicit operators.*allocate"):
            run(base_params, base_mesh, default_initial_data(3.0), DT, 10)
