from dataclasses import replace

import numpy as np
import pytest

from kvwave.diagnostics import fit_exponential, fit_polynomial, layer_energies
from kvwave.mesh import Parameters, build_mesh, flux_coefficients
from kvwave.model import sample_cell_averages
from oracles import block_energies, discrete_h1_seminorm, discrete_l2_norm

DT = 0.025


def kinetic_oracle(u_curr, u_next, widths, dt):
    total = 0.0
    for i in range(len(widths)):
        total += 0.5 * widths[i] * ((u_next[i] - u_curr[i]) / dt) ** 2
    return total


def potential_explicit_oracle(u_curr, u_next, ell):
    uc = np.concatenate([[0.0], u_curr, [0.0]])
    un = np.concatenate([[0.0], u_next, [0.0]])
    total = 0.0
    for i in range(len(ell)):
        total += 0.5 * ell[i] * (un[i + 1] - un[i]) * (uc[i + 1] - uc[i])
    return total


def potential_implicit_oracle(u_curr, u_next, ell):
    uc = np.concatenate([[0.0], u_curr, [0.0]])
    un = np.concatenate([[0.0], u_next, [0.0]])
    total = 0.0
    for i in range(len(ell)):
        total += 0.25 * ell[i] * (un[i + 1] - un[i]) ** 2
        total += 0.25 * ell[i] * (uc[i + 1] - uc[i]) ** 2
    return total


def dissipation_oracle(u_prev, u_next, mesh, delta, dt):
    up = np.concatenate([[0.0], u_prev, [0.0]])
    un = np.concatenate([[0.0], u_next, [0.0]])
    h = mesh.h
    total = 0.0
    for i in range(mesh.n_alpha + 1, mesh.n_alpha + mesh.n_damp):
        jump_next = un[i + 1] - un[i]
        jump_prev = up[i + 1] - up[i]
        total -= delta * dt * h * ((jump_next - jump_prev) / (2.0 * dt * h)) ** 2
    return total


def pair_energies(u_curr, u_next, mesh, ell, params, variant):
    """(kinetic, potential, total) of one layer pair, from a 2-row block."""
    e_k, e_p, e_tot, diss, res = layer_energies(
        np.stack((u_curr, u_next)), mesh, ell, params, DT, variant
    )
    assert len(e_k) == 1 and len(diss) == 0 and len(res) == 0
    return float(e_k[0]), float(e_p[0]), float(e_tot[0])


def step_identity(u_prev, u_curr, u_next, mesh, ell, params, variant):
    """(dissipation, residual) of the step at u_curr, from a 3-row block."""
    _, _, _, diss, res = layer_energies(
        np.stack((u_prev, u_curr, u_next)), mesh, ell, params, DT, variant
    )
    return float(diss[0]), float(res[0])


def allocating_layer_energies(layers, mesh, ell, params, dt, variant):
    """The numpy formulation of layer_energies that the kernel reproduces:
    einsum for the energies, add.reduce for the dissipation's faces."""
    rates = (layers[..., 1:, :] - layers[..., :-1, :]) / dt
    e_k = 0.5 * np.einsum("...ij,...ij,j->...i", rates, rates, mesh.cell_widths)
    jumps = np.diff(layers, axis=-1, prepend=0.0, append=0.0)
    if variant == "explicit":
        e_p = 0.5 * np.einsum(
            "...ij,...ij,j->...i", jumps[..., 1:, :], jumps[..., :-1, :], ell.ell
        )
    else:
        sq = np.einsum("...ij,...ij,j->...i", jumps, jumps, ell.ell)
        e_p = 0.25 * (sq[..., 1:] + sq[..., :-1])
    e_total = e_k + e_p
    faces = mesh.damping_interior_faces
    diff = jumps[..., 2:, faces] - jumps[..., :-2, faces]
    dissipation = 0.0 - (params.delta / (4.0 * dt * mesh.h)) * (diff * diff).sum(axis=-1)
    residual = (e_total[..., 1:] - e_total[..., :-1]) - dissipation
    return e_k, e_p, e_total, dissipation, residual


def loop_layer_energies(layers, mesh, ell, params, dt, variant):
    """oracles.block_energies of a block, as arrays."""
    coef = params.delta / (4.0 * dt * mesh.h)
    return tuple(np.array(column) for column in block_energies(
        layers, mesh.cell_widths, ell.ell, dt, variant, mesh.damping_interior_faces, coef))


def assert_same_bits(a, b):
    # which NaN an operation on NaN operands returns is fixed neither by
    # IEEE 754 nor by C compilers, so every NaN compares as the same NaN
    assert len(a) == len(b)
    for x, y in zip(a, b):
        x, y = (np.where(np.isnan(v), np.nan, v) for v in (np.asarray(x), np.asarray(y)))
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def undamped_params():
    return Parameters(1, 1, 1, 0.0, 1.0, 2.0, 3.0, 10.0)


class TestKineticEnergy:
    def test_equal_layers(self, base_mesh, base_ell, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        for variant in ("explicit", "implicit"):
            e_k, _, _ = pair_energies(u, u.copy(), base_mesh, base_ell, base_params, variant)
            assert e_k == 0.0

    def test_unit_rate_gives_half_length(self, base_mesh, base_ell, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        e_k, _, _ = pair_energies(u, u + DT, base_mesh, base_ell, base_params, "explicit")
        assert e_k == pytest.approx(1.5, rel=1e-12)

    def test_matches_brute_force(self, base_mesh, base_ell, base_params, rng):
        u, v = rng.standard_normal((2, base_mesh.n_max))
        expected = kinetic_oracle(u, v, base_mesh.cell_widths, DT)
        for variant in ("explicit", "implicit"):
            e_k, _, _ = pair_energies(u, v, base_mesh, base_ell, base_params, variant)
            assert e_k == pytest.approx(expected, rel=1e-13)


class TestPotentialEnergy:
    def test_zero_layers(self, base_mesh, base_ell, base_params):
        z = np.zeros(base_mesh.n_max)
        for variant in ("explicit", "implicit"):
            _, e_p, _ = pair_energies(z, z, base_mesh, base_ell, base_params, variant)
            assert e_p == 0.0

    def test_equal_layers_give_half_squared_seminorm(self, base_mesh, base_ell, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        half_sq = 0.5 * discrete_h1_seminorm(u, base_ell) ** 2
        for variant in ("explicit", "implicit"):
            _, e_p, _ = pair_energies(u, u, base_mesh, base_ell, base_params, variant)
            assert e_p == pytest.approx(half_sq, rel=1e-13)

    def test_matches_brute_force(self, base_mesh, base_ell, base_params, rng):
        u, v = rng.standard_normal((2, base_mesh.n_max))
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            _, e_p, e_tot = pair_energies(u, v, base_mesh, base_ell, base_params, variant)
            assert e_p == pytest.approx(oracle(u, v, base_ell.ell), rel=1e-12)
            e_k = kinetic_oracle(u, v, base_mesh.cell_widths, DT)
            assert e_tot == pytest.approx(e_k + oracle(u, v, base_ell.ell), rel=1e-12)

    def test_implicit_nonnegative(self, base_mesh, base_ell, base_params, rng):
        for _ in range(25):
            u, v = rng.standard_normal((2, base_mesh.n_max))
            _, e_p, _ = pair_energies(u, v, base_mesh, base_ell, base_params, "implicit")
            assert e_p >= 0.0


class TestDissipation:
    def test_undamped_is_zero(self, base_mesh, base_ell, rng):
        u, w, v = rng.standard_normal((3, base_mesh.n_max))
        diss, _ = step_identity(u, w, v, base_mesh, base_ell, undamped_params(), "explicit")
        assert diss == 0.0
        assert not np.signbit(diss)  # written as 0, not -0

    def test_equal_outer_layers_cancel(self, base_mesh, base_ell, base_params, rng):
        u, w = rng.standard_normal((2, base_mesh.n_max))
        diss, _ = step_identity(u, w, u.copy(), base_mesh, base_ell, base_params, "explicit")
        assert diss == 0.0

    def test_matches_brute_force(self, base_mesh, base_ell, base_params, rng):
        u, w, v = rng.standard_normal((3, base_mesh.n_max))
        expected = dissipation_oracle(u, v, base_mesh, base_params.delta, DT)
        for variant in ("explicit", "implicit"):
            diss, _ = step_identity(u, w, v, base_mesh, base_ell, base_params, variant)
            assert diss == pytest.approx(expected, rel=1e-12)
            assert diss <= 0.0


class TestIdentityResidual:
    def test_value(self, base_mesh, base_ell, base_params, rng):
        u, w, v = rng.standard_normal((3, base_mesh.n_max))
        widths, ell = base_mesh.cell_widths, base_ell.ell
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            before = kinetic_oracle(u, w, widths, DT) + oracle(u, w, ell)
            after = kinetic_oracle(w, v, widths, DT) + oracle(w, v, ell)
            expected = (after - before) - dissipation_oracle(u, v, base_mesh, base_params.delta, DT)
            _, res = step_identity(u, w, v, base_mesh, base_ell, base_params, variant)
            assert res == pytest.approx(expected, rel=1e-10, abs=1e-12 * abs(before))


class TestNorms:
    def test_constant_l2(self, base_mesh):
        ones = np.ones(base_mesh.n_max)
        assert discrete_l2_norm(ones, base_mesh) == pytest.approx(np.sqrt(3.0), rel=1e-13)

    def test_zero_vector(self, base_mesh, base_ell):
        z = np.zeros(base_mesh.n_max)
        assert discrete_l2_norm(z, base_mesh) == 0.0
        assert discrete_h1_seminorm(z, base_ell) == 0.0

    def test_sine_against_continuous_values(self, base_mesh, base_ell):
        length = 3.0
        samples = sample_cell_averages(lambda x: np.sin(np.pi * x / length), base_mesh)
        l2 = discrete_l2_norm(samples, base_mesh)
        assert abs(l2 - np.sqrt(length / 2.0)) / np.sqrt(length / 2.0) < 0.01
        seminorm = discrete_h1_seminorm(samples, base_ell)
        continuous = np.sqrt(np.pi**2 / (2.0 * length))  # unit speeds
        assert abs(seminorm - continuous) / continuous < 0.02

    def test_l2_bounded_by_continuous_norm(self, base_mesh):
        # cell averaging contracts the continuous norm
        length = 3.0
        samples = sample_cell_averages(lambda x: np.sin(np.pi * x / length), base_mesh)
        assert discrete_l2_norm(samples, base_mesh) <= np.sqrt(length / 2.0) + 1e-12


class TestLayerEnergies:
    def test_matches_scalar_functions(self, base_mesh, base_ell, base_params, rng):
        # a block's entries are the brute-force energies of its layer pairs,
        # and the same bits as the 2- and 3-row blocks of those layers
        layers = rng.standard_normal((6, base_mesh.n_max))
        widths, ell = base_mesh.cell_widths, base_ell.ell
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            e_k, e_p, e_tot, diss, res = layer_energies(
                layers, base_mesh, base_ell, base_params, DT, variant
            )
            assert len(e_k) == 5 and len(diss) == 4
            for j in range(5):
                u, v = layers[j], layers[j + 1]
                assert e_k[j] == pytest.approx(kinetic_oracle(u, v, widths, DT), rel=1e-13)
                assert e_p[j] == pytest.approx(oracle(u, v, ell), rel=1e-12)
                pair = pair_energies(u, v, base_mesh, base_ell, base_params, variant)
                assert (e_k[j], e_p[j], e_tot[j]) == pair
            for j in range(4):
                expected = dissipation_oracle(
                    layers[j], layers[j + 2], base_mesh, base_params.delta, DT
                )
                assert diss[j] == pytest.approx(expected, rel=1e-12)
                step = step_identity(*layers[j : j + 3], base_mesh, base_ell, base_params, variant)
                assert (diss[j], res[j]) == step
                assert res[j] == (e_tot[j + 1] - e_tot[j]) - diss[j]

    def test_reused_work_gives_fresh_bits(self, base_mesh, base_ell, base_params, rng):
        # the kernel writes every entry of its result array, which np.empty
        # may take from an array just freed: each call follows the freeing
        # of an array of the same size filled with NaN or inf, for a full
        # block and the shorter blocks after it, and gives the bits of fresh
        # temporaries
        layers = rng.standard_normal((9, base_mesh.n_max))
        blocks = (layers, layers[2:7], layers[4:7], layers[:2], layers[1:9])
        for params in (base_params, undamped_params()):
            for variant in ("explicit", "implicit"):
                for fill in (np.nan, np.inf, -np.inf):
                    for block in blocks:
                        args = (block, base_mesh, base_ell, params, DT, variant)
                        expected = allocating_layer_energies(*args)
                        np.full(5 * len(block), fill)
                        assert_same_bits(layer_energies(*args), expected)

    def test_bad_blocks_rejected(self, base_mesh, base_ell, base_params, rng):
        layers = rng.standard_normal((3, base_mesh.n_max))
        with pytest.raises(ValueError, match="variant"):
            layer_energies(layers, base_mesh, base_ell, base_params, DT, "leapfrog")
        with pytest.raises(ValueError, match="two"):
            layer_energies(layers[:1], base_mesh, base_ell, base_params, DT, "explicit")


# (n_alpha, n_damp, n_beta): 4, 8191, 8192, 8193 and 20000 cells around
# einsum's buffer of 8192 terms, and 1, 7, 8, 100, 128, 129, 1999 and 9999
# damped faces around the pairwise sum's blocks of 8 and 128 terms
KERNEL_MESHES = [(1, 2, 1), (3, 8, 3), (4000, 9, 4182), (10, 101, 10), (4000, 129, 4063),
                 (60, 130, 60), (3000, 2000, 3193), (5000, 10000, 5000)]


class TestKernelEnergies:
    """The compiled kernel against the Python-float loops in its order and
    against the numpy formulation it reproduces, bit for bit."""

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    @pytest.mark.parametrize("cells", KERNEL_MESHES, ids=lambda c: "-".join(map(str, c)))
    def test_matches_oracles(self, cells, variant, rng):
        for delta in (1.3, 0.0):
            params = Parameters(1.0, 4.0, 2.0, delta, 1.0, 2.0, 3.0, 10.0)
            mesh = build_mesh(params, *cells)
            ell = flux_coefficients(mesh, params)
            layers = rng.standard_normal((8, mesh.n_max)) * 10.0 ** rng.uniform(-3, 3, (8, 1))
            args = (layers, mesh, ell, params, DT, variant)
            got = layer_energies(*args)
            assert_same_bits(got, loop_layer_energies(*args))
            assert_same_bits(got, allocating_layer_energies(*args))
            if delta == 0.0:
                assert got[3].tobytes() == np.zeros(6).tobytes()  # +0.0, never -0.0

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_signed_zeros_infinities_and_nan(self, base_mesh, base_ell, base_params, rng,
                                             variant):
        n = base_mesh.n_max
        rows = [np.zeros(n), np.full(n, -0.0), rng.choice([0.0, -0.0], n)]
        for value in (np.inf, -np.inf, np.nan):
            row = rng.standard_normal(n)
            row[rng.integers(0, n, 3)] = value
            rows += [row, rng.standard_normal(n)]
        rows += [np.full(n, np.inf), np.full(n, -np.inf), np.full(n, np.nan)]
        args = (np.array(rows), base_mesh, base_ell, base_params, DT, variant)
        got = layer_energies(*args)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_same_bits(got, allocating_layer_energies(*args))
            assert_same_bits(got, loop_layer_energies(*args))

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_selected_steps_are_the_bits_of_the_whole_block(self, base_mesh, base_ell,
                                                            base_params, rng, variant):
        # a selected step's dissipation and residual, and the energies of the
        # two pairs it reads, are the bits of the unselected call; every other
        # entry is NaN, whatever the result array held before
        for m in range(2, 10):
            layers = rng.standard_normal((m, base_mesh.n_max))
            args = (layers, base_mesh, base_ell, base_params, DT, variant)
            whole = layer_energies(*args)
            index = np.arange(m - 2)
            for selected in (index < 0, index >= 0, index == 0, index == m - 3, index % 2 == 0,
                             index % 2 == 1, rng.random(m - 2) < 0.5):
                pairs = np.zeros(m - 1, bool)
                pairs[:-1] |= selected
                pairs[1:] |= selected
                np.full(5 * m, 1.0)
                got = layer_energies(*args, selected)
                for q, (values, expected) in enumerate(zip(got, whole)):
                    wanted = pairs if q < 3 else selected
                    assert values.shape == expected.shape
                    assert values[wanted].tobytes() == expected[wanted].tobytes()
                    assert np.isnan(values[~wanted]).all()

    def test_bad_arrays_rejected(self, base_mesh, base_ell, base_params, rng):
        layers = rng.standard_normal((3, base_mesh.n_max))
        args = (base_mesh, base_ell, base_params, DT, "explicit")
        with pytest.raises(ValueError, match="contiguous"):
            layer_energies(np.asfortranarray(layers), *args)
        with pytest.raises(ValueError, match="float64"):
            layer_energies(layers.astype(np.float32), *args)
        with pytest.raises(ValueError, match="cells"):
            layer_energies(layers[:, 1:], *args)
        with pytest.raises(ValueError, match="two"):
            layer_energies(layers[None], *args)  # a batch of blocks
        block = rng.standard_normal((4, base_mesh.n_max))
        for selected in (np.ones(3, bool), np.ones(2, np.uint8), np.ones((2, 1), bool)):
            with pytest.raises(ValueError, match="selected"):
                layer_energies(block, *args, selected)
        # counts that build_mesh would refuse: a damped zone past the last cell
        mesh = replace(base_mesh, n_damp=base_mesh.n_damp + base_mesh.n_beta + 1, n_beta=-1)
        with pytest.raises(ValueError, match="faces"):
            layer_energies(layers, mesh, *args[1:])


class TestFits:
    def test_exponential_exact(self):
        t = np.linspace(0.0, 1000.0, 200)
        fit = fit_exponential(t, np.exp(-0.01 * t), (0.0, 1000.0))
        assert abs(fit.rate - 0.01) <= 1e-10
        assert fit.residual <= 1e-10

    def test_polynomial_exact(self):
        t = np.linspace(1.0, 1000.0, 200)
        fit = fit_polynomial(t, t**-4.0, (1.0, 1000.0))
        assert abs(fit.rate - 4.0) <= 1e-10

    def test_rescaling_leaves_rate_unchanged(self):
        t = np.linspace(10.0, 500.0, 64)
        e = np.exp(-0.37 * t)
        base = fit_exponential(t, e, (10.0, 500.0))
        scaled = fit_exponential(t, 123.456 * e, (10.0, 500.0))
        assert scaled.rate == pytest.approx(base.rate, rel=1e-12)
        assert scaled.intercept != pytest.approx(base.intercept, rel=1e-3)
        p_base = fit_polynomial(t, t**-2.5, (10.0, 500.0))
        p_scaled = fit_polynomial(t, 9.5 * t**-2.5, (10.0, 500.0))
        assert p_scaled.rate == pytest.approx(p_base.rate, rel=1e-12)

    def test_window_selection(self):
        t = np.linspace(0.0, 100.0, 101)
        e = np.exp(-0.1 * t)
        fit = fit_exponential(t, e, (50.0, 100.0))
        assert fit.n_samples == 51
        assert fit.t_lo == 50.0 and fit.t_hi == 100.0

    def test_too_few_samples(self):
        t = np.linspace(0.0, 100.0, 101)
        with pytest.raises(ValueError, match="samples"):
            fit_exponential(t, np.exp(-t / 30.0), (95.0, 100.0))

    def test_nonpositive_energy_rejected(self):
        t = np.linspace(0.0, 10.0, 20)
        e = np.ones(20)
        e[5] = 0.0
        with pytest.raises(ValueError, match="onpositive"):
            fit_exponential(t, e, (0.0, 10.0))

    def test_polynomial_needs_positive_start(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError, match="t > 0"):
            fit_polynomial(t, np.ones(20), (0.0, 10.0))

    def test_bad_window_ordering(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError, match="window"):
            fit_exponential(t, np.ones(20), (5.0, 5.0))
