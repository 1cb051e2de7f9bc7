import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from kvwave import linalg, schemes
from kvwave.cli import PRESET_NAMES
from kvwave.diagnostics import EnergyTrace
from kvwave.linalg import assemble_damping, assemble_mass, assemble_stiffness
from kvwave.mesh import Parameters, build_mesh, flux_coefficients
from kvwave.model import ConfigError, cfl_max_dt, default_initial_data, sample_cell_averages
from kvwave.schemes import bootstrap, build_operators, run
from oracles import (
    block_energies,
    dense_solve_oracle,
    discrete_h1_seminorm,
    discrete_l2_norm,
    dominance_margin,
    explicit_bootstrap,
    factored,
    left_matrices,
    to_dense,
)
from spectral import preset_setup

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
    on a three-row block, with no limit."""
    block = np.stack([u_prev, u_curr, np.zeros_like(u_curr)])
    incr = np.stack((u_curr - u_prev, u_curr))
    linalg.step_block(block, 2, 3, ops.stiff, ops.rhs_prev, ops.lhs_factor, incr, math.inf)
    return block[2]


class TestBuildOperators:
    def test_explicit_lhs_reduces_to_mass_when_undamped(self, base_mesh):
        # the factors of a diagonal L are its diagonal and no coupling
        m = build_operators(base_mesh, undamped_params(), DT, "explicit")
        np.testing.assert_array_equal(m.lhs_factor.d, assemble_mass(base_mesh).diag)
        assert np.all(m.lhs_factor.e == 0.0)

    def test_matrix_combinations(self, base_mesh, base_params, base_ell):
        m = build_operators(base_mesh, base_params, DT, "explicit")
        mass, damping = to_dense(assemble_mass(base_mesh)), to_dense(assemble_damping(base_mesh))
        s = base_params.delta * DT / base_mesh.h
        np.testing.assert_allclose(factored(m.lhs_factor), mass + s * damping, rtol=1e-14)
        np.testing.assert_allclose(
            to_dense(m.rhs_curr),
            2.0 * mass + DT**2 * to_dense(assemble_stiffness(base_ell)),
            rtol=1e-14,
        )
        np.testing.assert_allclose(to_dense(m.rhs_prev), mass - s * damping, rtol=1e-14)
        np.testing.assert_array_equal(factored(m.boot_factor), 2.0 * mass)

    def test_implicit_matrices_put_flux_average_on_outer_layers(self, base_mesh, base_params,
                                                                base_ell):
        m = build_operators(base_mesh, base_params, DT, "implicit")
        mass, damping = to_dense(assemble_mass(base_mesh)), to_dense(assemble_damping(base_mesh))
        s = base_params.delta * DT / base_mesh.h
        half = 0.5 * DT**2
        np.testing.assert_allclose(
            factored(m.lhs_factor),
            mass - half * to_dense(assemble_stiffness(base_ell)) + s * damping,
            rtol=1e-14,
        )
        np.testing.assert_allclose(to_dense(m.rhs_curr), 2.0 * mass, rtol=1e-14)
        np.testing.assert_allclose(
            factored(m.boot_factor),
            2.0 * mass - DT**2 * to_dense(assemble_stiffness(base_ell)),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_left_matrices_strictly_diagonally_dominant(self, base_mesh, base_params, scheme):
        # the oracles' L and bootstrap matrix are the ones build_operators factors
        m = build_operators(base_mesh, base_params, DT, scheme)
        for matrix, f in zip(left_matrices(base_mesh, base_params, DT, scheme),
                             (m.lhs_factor, m.boot_factor)):
            assert dominance_margin(matrix) > 0.0
            rebuilt = linalg.factor(matrix)
            assert (rebuilt.d.tobytes(), rebuilt.e.tobytes()) == (f.d.tobytes(), f.e.tobytes())

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    @pytest.mark.parametrize("counts", [(1, 2, 1), (20, 10, 20), (1, 2, 30), (30, 2, 1),
                                        (2000, 1000, 2000)])
    def test_factor_is_positive_zero_off_the_damped_faces(self, counts, delta):
        # The step decouples the cells at a face whose e is +-0.  The
        # explicit factor's e is nonzero exactly on the damped zone's
        # interior faces when damped, and +0, never -0, everywhere else;
        # the implicit factor's e is nonzero on every face.
        params = Parameters(9.0, 1.0, 4.0, delta, 1.0, 2.0, 3.0, 10.0)
        mesh = build_mesh(params, *counts)
        dt = 0.9 * cfl_max_dt(params, mesh)
        e = build_operators(mesh, params, dt, "explicit").lhs_factor.e
        damped = np.zeros(len(e), bool)
        damped[mesh.n_alpha : mesh.n_alpha + mesh.n_damp - 1] = delta > 0.0
        assert (e[damped] != 0.0).all()
        assert e[~damped].tobytes() == bytes(8 * int((~damped).sum()))
        assert (build_operators(mesh, params, dt, "implicit").lhs_factor.e != 0.0).all()

    def test_operators_hold_only_what_the_kernel_reads(self):
        assert [f.name for f in fields(schemes.SchemeOperators)] == [
            "dt", "rhs_curr", "rhs_prev", "stiff", "lhs_factor", "boot_factor", "energy_args"]

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_energy_args_sum_over_the_damped_faces(self, name, scheme):
        # the dissipation's faces and coefficient are the damping matrix's:
        # the damped zone's interior faces and delta / (4 dt h)
        mesh, params, dt, _ = preset_setup(name, scheme)
        args = build_operators(mesh, params, dt, scheme).energy_args
        widths, ell, args_dt, implicit, face_lo, face_hi, coef = args
        assert widths is mesh.cell_widths
        assert ell.tobytes() == flux_coefficients(mesh, params).ell.tobytes()
        assert (args_dt, implicit) == (dt, scheme == "implicit")
        assert slice(face_lo, face_hi) == mesh.damping_interior_faces
        assert coef == params.delta / (4.0 * dt * mesh.h)

    def test_damped_faces_outside_the_mesh_rejected(self, base_mesh, base_params):
        # hand-built meshes that build_mesh would refuse, whose damped zone's
        # interior faces start before face 1, end before they start or end
        # past the last cell: the kernel indexes with them
        for counts in ((-1, 11, 40), (20, 0, 30), (20, 31, -1)):
            mesh = replace(base_mesh, **dict(zip(("n_alpha", "n_damp", "n_beta"), counts)))
            assert mesh.n_max == base_mesh.n_max
            with pytest.raises(ValueError, match="faces"):
                build_operators(mesh, base_params, DT, "explicit")

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

    def test_explicit_zero_velocity_drops_damping(self, base_mesh, base_params, base_ell):
        # with zero initial velocity: u1 = u0 + (dt^2 / 2) M^{-1} B u0
        ops = build_operators(base_mesh, base_params, DT, "explicit")
        u0, _ = sampled_initial(base_mesh)
        zero = np.zeros_like(u0)
        u1 = bootstrap(u0, zero, ops)
        stiffness = to_dense(assemble_stiffness(base_ell))
        expected = u0 + 0.5 * DT**2 * (stiffness @ u0) / base_mesh.cell_widths
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
        rhs = to_dense(ops.rhs_curr) @ u0 + 2.0 * DT * (to_dense(ops.rhs_prev) @ psi)
        boot = left_matrices(base_mesh, base_params, DT, scheme)[1]
        residual = float(np.abs(to_dense(boot) @ u1 - rhs).max())
        assert residual <= 1e-12 * max(1.0, float(np.abs(rhs).max()))

    @pytest.mark.parametrize("counts", ORACLE_MESHES, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_bootstrap_matches_dense_oracle(self, scheme, counts, rng):
        p = Parameters(2.0, 1.0, 0.5, 1.0, 1.0, 2.0, 3.0, 10.0)
        mesh = build_mesh(p, *counts)
        dt = 0.01
        ops = build_operators(mesh, p, dt, scheme)
        u0, psi = rng.standard_normal((2, mesh.n_max))
        u1 = bootstrap(u0, psi, ops)
        rhs = to_dense(ops.rhs_curr) @ u0 + 2.0 * dt * (to_dense(ops.rhs_prev) @ psi)
        expected = dense_solve_oracle(to_dense(left_matrices(mesh, p, dt, scheme)[1]), rhs)
        np.testing.assert_allclose(u1, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_explicit_bootstrap_is_the_division_by_2m(self, name):
        # the solve with the factors of the diagonal 2 M gives the bits of
        # the componentwise division, so explicit runs keep their outputs
        mesh, params, dt, scheme = preset_setup(name, "explicit")
        ops = build_operators(mesh, params, dt, scheme)
        u0, psi = sampled_initial(mesh, params.length)
        assert (bootstrap(u0, psi, ops).tobytes()
                == explicit_bootstrap(u0, psi, ops, mesh).tobytes())


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
        u_prev, u_curr = rng.standard_normal((2, mesh.n_max))
        u_next = next_layer(ops, u_prev, u_curr)
        rhs = to_dense(ops.rhs_curr) @ u_curr - to_dense(ops.rhs_prev) @ u_prev
        expected = dense_solve_oracle(to_dense(left_matrices(mesh, p, 0.01, scheme)[0]), rhs)
        np.testing.assert_allclose(u_next, expected, rtol=1e-12, atol=1e-14)

    def test_undamped_explicit_step_conserves_energy(self, base_mesh):
        p = undamped_params()
        ops = build_operators(base_mesh, p, DT, "explicit")
        u0, psi = sampled_initial(base_mesh)
        u1 = bootstrap(u0, psi, ops)
        u2 = next_layer(ops, u0, u1)
        _, _, e_tot, _, _ = block_energies(
            np.stack((u0, u1, u2)), base_mesh, flux_coefficients(base_mesh, p), p, DT, "explicit"
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
    def test_single_step_returns_bootstrap(self, base_mesh, base_params, base_ell):
        # a one-step run's step call after the bootstrap steps no layer:
        # its one trace row and initial energy are what that call, a run's
        # first, evaluates of layers 0 and 1, the bits of the oracle
        data = default_initial_data(3.0)
        u0, psi = sampled_initial(base_mesh)
        for scheme in ("explicit", "implicit"):
            result = run(base_params, base_mesh, data, DT, 1, scheme=scheme)
            ops = build_operators(base_mesh, base_params, DT, scheme)
            u1 = bootstrap(u0, psi, ops)
            np.testing.assert_array_equal(result.u_curr, u1)
            np.testing.assert_array_equal(result.u_prev, u0)
            assert result.steps_completed == 1
            assert len(result.trace) == 1
            assert result.trace.step[0] == 0
            e_k, e_p, e_tot, _, _ = block_energies(np.stack((u0, u1)), base_mesh, base_ell,
                                                   base_params, DT, scheme)
            trace = result.trace
            row = (trace.e_kinetic, trace.e_potential, trace.e_total, trace.dissipation,
                   trace.residual)
            assert [c.tobytes() for c in row] == [c.tobytes() for c in (e_k, e_p, e_tot,
                                                                         np.zeros(1), np.zeros(1))]
            assert np.float64(result.energy_initial).tobytes() == e_tot.tobytes()

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
        # step calls, one per snapshot interval, and each leaves the same
        # trace and maxima
        step_block = linalg.step_block

        def calls(verify):
            seen = []

            def step_spy(*args):
                end = step_block(*args)
                if len(args) > 8:  # not the bootstrap's step
                    every, last, verified, trace, maxima, _ = args[8]
                    assert (every, last, verified) == (1, 2499, verify)
                    # the rows of the steps 0 .. end-2, written by now
                    seen.append((args[1], args[2], end, trace[:end - 1].tobytes(),
                                 maxima.tobytes()))
                return end

            monkeypatch.setattr(linalg, "step_block", step_spy)
            run(base_params, base_mesh, default_initial_data(3.0), DT, 2500, scheme=scheme,
                observe_every=1, verify_identity=verify, snapshot_steps=(0, 1, 1024, 2048, 2500))
            return seen

        plain, verified = calls(False), calls(True)
        assert [call[:3] for call in verified] == [(2, 1025, 1025), (1025, 2049, 2049),
                                                   (2049, 2501, 2501)]
        assert plain == verified

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

    def test_stability_quantity_stays_bounded(self, base_mesh, base_params, base_ell):
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
                + discrete_h1_seminorm(curr, base_ell) ** 2
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
        ops = build_operators(mesh, p, dt, scheme)
        lhs, r2, r1 = (to_dense(a) for a in (left_matrices(mesh, p, dt, scheme)[0], ops.rhs_curr,
                                             ops.rhs_prev))
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

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_five_thousand_cell_verified_run_peaks_below_one_mib(self, scheme):
        # The operators keep the three matrices and two factors the kernel
        # reads, and the bootstrap pins no increments: about 0.93 MiB of
        # traced memory at 5000 cells, 25 vectors; keeping L, the bootstrap
        # matrix and the bootstrap's increments as well took 1.125 MiB.
        params = Parameters(1, 1, 1, 1, 1, 2, 3, 10000.0)
        mesh = build_mesh(params, 2000, 1000, 2000)
        dt = 0.9 * cfl_max_dt(params, mesh)
        args = (params, mesh, default_initial_data(3.0), dt, 300, scheme, 100, True, (0, 150, 300))
        run(*args)  # warm-up: caches filled on a first run are not the run's
        tracemalloc.start()
        try:
            result = run(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verified_steps == 299 and not result.diverged
        assert peak < 2**20

    def test_bad_arguments(self, base_mesh, base_params):
        data = default_initial_data(3.0)
        with pytest.raises(ValueError):
            run(base_params, base_mesh, data, DT, 0)
        with pytest.raises(ValueError):
            run(base_params, base_mesh, data, DT, 10, observe_every=0)
        # the kernel's stop, n_steps + 1, must fit its ptrdiff_t
        with pytest.raises(ValueError, match="whose last layer the kernel can index"):
            run(base_params, base_mesh, data, DT, linalg.INDEX_MAX)

    def test_operators_out_of_memory_are_a_config_error(self, base_mesh, base_params,
                                                         monkeypatch):
        def no_memory(matrix):
            raise MemoryError("Unable to allocate the factors")

        monkeypatch.setattr(linalg, "factor", no_memory)
        with pytest.raises(ConfigError, match="cannot set up the explicit run at dt = .*: the operators: .*allocate"):
            run(base_params, base_mesh, default_initial_data(3.0), DT, 10)

    def test_step_fault_is_not_a_config_error(self, base_mesh, base_params, monkeypatch):
        # only the program can make the kernel reject its arguments: here
        # the run's first block step, after the bootstrap's has passed
        step_block = linalg.step_block

        def overlapping(block, start, stop, stiff, rhs_prev, f, incr, limit, energies=None):
            if limit == math.inf:  # the bootstrap's step
                return step_block(block, start, stop, stiff, rhs_prev, f, incr, limit)
            raise ValueError("overlap")

        monkeypatch.setattr(linalg, "step_block", overlapping)
        with pytest.raises(ValueError, match="overlap") as raised:
            run(base_params, base_mesh, default_initial_data(3.0), DT, 10)
        assert not isinstance(raised.value, ConfigError)
