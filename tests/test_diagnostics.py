import math

import numpy as np
import pytest

from kvwave import linalg, schemes
from kvwave.diagnostics import fit_exponential, fit_polynomial
from kvwave.linalg import LDLFactorization, TriDiagMatrix
from kvwave.mesh import Parameters, build_mesh, flux_coefficients
from kvwave.model import default_initial_data, sample_cell_averages
from oracles import block_energies, discrete_h1_seminorm, discrete_l2_norm, step_energies

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


def pair_energies(u_curr, u_next, mesh, params, variant):
    """(kinetic, potential, total) of one layer pair, from a step call of
    no steps, as a run's first energies are evaluated."""
    args = schemes.build_operators(mesh, params, DT, variant).energy_args
    _, (e_k, e_p, e_tot, diss, res) = step_energies(args, u_curr, u_next)
    assert len(e_k) == 1 and len(diss) == 0 and len(res) == 0
    return float(e_k[0]), float(e_p[0]), float(e_tot[0])


def step_identity(u_prev, u_curr, d, mesh, params, variant):
    """(dissipation, residual, layers) of the step at u_curr, from a step
    call of one step that writes u_curr + d; layers are the three the
    entries belong to."""
    args = schemes.build_operators(mesh, params, DT, variant).energy_args
    layers, (_, _, _, diss, res) = step_energies(args, u_prev, u_curr, d, 1)
    return float(diss[0]), float(res[0]), layers


def allocating_layer_energies(layers, mesh, ell, params, dt, variant):
    """An independent numpy formulation of the kernel's energies: einsum for the
    energies, add.reduce for the dissipation's faces.  It adds the same
    terms in another order, so it agrees with the kernel within
    rounding_bounds, not bit for bit."""
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


def rounding_bounds(layers, mesh, ell, params, dt, variant):
    """Bounds on |kernel energies - allocating_layer_energies|, entry by
    entry.  The two add the same terms in other orders.  A sum of at most
    n + 1 terms, in any order, lies within n u times the sum of its terms'
    magnitudes of the exact sum (u = eps / 2, to first order), so two
    orders lie within n eps times that magnitude of each other.  Each bound
    is 2 (n + 2) eps times the entry's magnitude, the entry with every term,
    and every energy that a total or a residual combines, replaced by its
    absolute value; the factor 2 and the 2 more terms leave room for the
    roundings of the total and the residual themselves."""
    n = layers.shape[1]
    rates = (layers[1:] - layers[:-1]) / dt
    jumps = np.abs(np.diff(layers, axis=-1, prepend=0.0, append=0.0))
    e_k = 0.5 * np.einsum("ij,ij,j->i", rates, rates, mesh.cell_widths)
    if variant == "explicit":
        e_p = 0.5 * np.einsum("ij,ij,j->i", jumps[1:], jumps[:-1], ell.ell)
    else:
        sq = np.einsum("ij,ij,j->i", jumps, jumps, ell.ell)
        e_p = 0.25 * (sq[1:] + sq[:-1])
    e_total = e_k + e_p
    dissipation = np.abs(allocating_layer_energies(layers, mesh, ell, params, dt, variant)[3])
    residual = e_total[1:] + e_total[:-1] + dissipation
    return tuple(2 * (n + 2) * np.finfo(float).eps * magnitude
                 for magnitude in (e_k, e_p, e_total, dissipation, residual))


def assert_within_rounding(got, expected, bounds):
    # entries that are not finite must agree, any NaN with any NaN
    assert len(got) == len(expected) == len(bounds)
    for x, y, bound in zip(got, expected, bounds):
        finite = np.isfinite(x)
        assert x.shape == y.shape and (finite == np.isfinite(y)).all()
        assert_same_bits([x[~finite]], [y[~finite]])
        assert (np.abs(x - y)[finite] <= bound[finite]).all()


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
    def test_equal_layers(self, base_mesh, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        for variant in ("explicit", "implicit"):
            e_k, _, _ = pair_energies(u, u.copy(), base_mesh, base_params, variant)
            assert e_k == 0.0

    def test_unit_rate_gives_half_length(self, base_mesh, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        e_k, _, _ = pair_energies(u, u + DT, base_mesh, base_params, "explicit")
        assert e_k == pytest.approx(1.5, rel=1e-12)

    def test_matches_brute_force(self, base_mesh, base_params, rng):
        u, v = rng.standard_normal((2, base_mesh.n_max))
        expected = kinetic_oracle(u, v, base_mesh.cell_widths, DT)
        for variant in ("explicit", "implicit"):
            e_k, _, _ = pair_energies(u, v, base_mesh, base_params, variant)
            assert e_k == pytest.approx(expected, rel=1e-13)


class TestPotentialEnergy:
    def test_zero_layers(self, base_mesh, base_params):
        z = np.zeros(base_mesh.n_max)
        for variant in ("explicit", "implicit"):
            _, e_p, _ = pair_energies(z, z, base_mesh, base_params, variant)
            assert e_p == 0.0

    def test_equal_layers_give_half_squared_seminorm(self, base_mesh, base_ell, base_params, rng):
        u = rng.standard_normal(base_mesh.n_max)
        half_sq = 0.5 * discrete_h1_seminorm(u, base_ell) ** 2
        for variant in ("explicit", "implicit"):
            _, e_p, _ = pair_energies(u, u, base_mesh, base_params, variant)
            assert e_p == pytest.approx(half_sq, rel=1e-13)

    def test_matches_brute_force(self, base_mesh, base_ell, base_params, rng):
        u, v = rng.standard_normal((2, base_mesh.n_max))
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            _, e_p, e_tot = pair_energies(u, v, base_mesh, base_params, variant)
            assert e_p == pytest.approx(oracle(u, v, base_ell.ell), rel=1e-12)
            e_k = kinetic_oracle(u, v, base_mesh.cell_widths, DT)
            assert e_tot == pytest.approx(e_k + oracle(u, v, base_ell.ell), rel=1e-12)

    def test_implicit_nonnegative(self, base_mesh, base_params, rng):
        for _ in range(25):
            u, v = rng.standard_normal((2, base_mesh.n_max))
            _, e_p, _ = pair_energies(u, v, base_mesh, base_params, "implicit")
            assert e_p >= 0.0


class TestDissipation:
    def test_undamped_is_zero(self, base_mesh, rng):
        u, w, d = rng.standard_normal((3, base_mesh.n_max))
        diss, _, _ = step_identity(u, w, d, base_mesh, undamped_params(), "explicit")
        assert diss == 0.0
        assert not np.signbit(diss)  # written as 0, not -0

    def test_equal_outer_layers_cancel(self, base_mesh, base_params, rng):
        # w = 2 u and d = -u add up to u exactly
        u = rng.standard_normal(base_mesh.n_max)
        diss, _, layers = step_identity(u, 2.0 * u, -u, base_mesh, base_params, "explicit")
        assert layers[2].tobytes() == u.tobytes()
        assert diss == 0.0

    def test_matches_brute_force(self, base_mesh, base_params, rng):
        u, w, d = rng.standard_normal((3, base_mesh.n_max))
        for variant in ("explicit", "implicit"):
            diss, _, layers = step_identity(u, w, d, base_mesh, base_params, variant)
            expected = dissipation_oracle(u, layers[2], base_mesh, base_params.delta, DT)
            assert diss == pytest.approx(expected, rel=1e-12)
            assert diss <= 0.0


class TestIdentityResidual:
    def test_value(self, base_mesh, base_ell, base_params, rng):
        u, w, d = rng.standard_normal((3, base_mesh.n_max))
        widths, ell = base_mesh.cell_widths, base_ell.ell
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            _, res, (_, _, v) = step_identity(u, w, d, base_mesh, base_params, variant)
            before = kinetic_oracle(u, w, widths, DT) + oracle(u, w, ell)
            after = kinetic_oracle(w, v, widths, DT) + oracle(w, v, ell)
            expected = (after - before) - dissipation_oracle(u, v, base_mesh, base_params.delta, DT)
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
    """The energies of a step call, the way every energy of a run is
    evaluated, on layers that steps with a zero stiffness and an identity
    R1 and factors write (oracles.step_energies)."""

    def test_matches_scalar_functions(self, base_mesh, base_ell, base_params, rng):
        # a call's entries are the brute-force energies of its layer pairs,
        # and the same bits as the calls of no steps and of one step on
        # those layers
        u, v, d = rng.standard_normal((3, base_mesh.n_max))
        for variant, oracle in (
            ("explicit", potential_explicit_oracle),
            ("implicit", potential_implicit_oracle),
        ):
            args = schemes.build_operators(base_mesh, base_params, DT, variant).energy_args
            layers, (e_k, e_p, e_tot, diss, res) = step_energies(args, u, v, d, 4)
            widths, ell = base_mesh.cell_widths, base_ell.ell
            assert len(e_k) == 5 and len(diss) == 4
            for j in range(5):
                u_j, v_j = layers[j], layers[j + 1]
                assert e_k[j] == pytest.approx(kinetic_oracle(u_j, v_j, widths, DT), rel=1e-13)
                assert e_p[j] == pytest.approx(oracle(u_j, v_j, ell), rel=1e-12)
                pair = pair_energies(u_j, v_j, base_mesh, base_params, variant)
                assert (e_k[j], e_p[j], e_tot[j]) == pair
            for j in range(4):
                expected = dissipation_oracle(
                    layers[j], layers[j + 2], base_mesh, base_params.delta, DT
                )
                assert diss[j] == pytest.approx(expected, rel=1e-12)
                *step, three = step_identity(*layers[j:j + 2], d, base_mesh, base_params, variant)
                assert three.tobytes() == layers[j:j + 3].tobytes()
                assert (diss[j], res[j]) == tuple(step)
                assert res[j] == (e_tot[j + 1] - e_tot[j]) - diss[j]

    def test_reused_work_gives_fresh_bits(self, base_mesh, base_ell, base_params, rng):
        # the kernel writes every entry that a call's out returns, which
        # np.empty may take from an array just freed: each call follows the
        # freeing of an array of the size of its out filled with NaN or inf,
        # for a long call and the shorter ones after it, down to the call of
        # no steps that gives a run's first energies, and gives the bits of
        # fresh temporaries
        u, v, d = rng.standard_normal((3, base_mesh.n_max))
        for params in (base_params, undamped_params()):
            for variant in ("explicit", "implicit"):
                args = schemes.build_operators(base_mesh, params, DT, variant).energy_args
                for fill in (np.nan, np.inf, -np.inf):
                    for steps in (7, 3, 1, 0, 6):
                        np.full(5 * (steps + 2), fill)
                        layers, got = step_energies(args, u, v, d, steps)
                        expected = block_energies(layers, base_mesh, base_ell, params, DT,
                                                  variant)
                        assert_same_bits(got, expected)

    def test_bad_blocks_rejected(self, base_mesh, base_params, rng):
        # rings that cannot hold a run's first pair
        n = base_mesh.n_max
        args = schemes.build_operators(base_mesh, base_params, DT, "explicit").energy_args
        identity = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
        step = (identity, identity, LDLFactorization(np.ones(n), np.zeros(n - 1)),
                np.zeros((2, n)), math.inf)
        ring = rng.standard_normal((3, n))
        for bad, message in ((ring[:2], "rows"), (np.asfortranarray(ring), "contiguous"),
                             (ring.astype(np.float32), "float64")):
            with pytest.raises(ValueError, match=message):
                linalg.step_block(bad, 2, 2, *step, (None, np.empty((5, 2)), args))


# (n_alpha, n_damp, n_beta) around the chunks of the kernel's 8 lanes: 4,
# 7, 14, 15, 16, 17, 56, 57, 63, 121, 250, 8191, 8192, 8193 and 20000 cells,
# below one chunk and at and next to multiples of 8; 1, 2, 7, 8, 9, 15, 16,
# 17, 100, 128, 129, 1999 and 9999 damped interior faces, the same way
KERNEL_MESHES = [(1, 2, 1), (2, 3, 2), (3, 8, 3), (3, 8, 4), (3, 9, 4), (3, 10, 4),
                 (20, 16, 20), (20, 17, 20), (20, 18, 25), (10, 101, 10), (60, 130, 60),
                 (4000, 9, 4182), (4000, 129, 4063), (3000, 2000, 3193), (5000, 10000, 5000)]


class TestKernelEnergies:
    """The compiled kernel's energies, from step calls (oracles.step_energies),
    against the Python-float loops in its order on the layers the ring
    holds, bit for bit, and against the numpy formulation, within
    rounding_bounds."""

    @staticmethod
    def check(layers, got, mesh, ell, params, variant):
        args = (layers, mesh, ell, params, DT, variant)
        with np.errstate(invalid="ignore", over="ignore"):
            assert_within_rounding(got, allocating_layer_energies(*args), rounding_bounds(*args))
            assert_same_bits(got, block_energies(*args))

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    @pytest.mark.parametrize("cells", KERNEL_MESHES, ids=lambda c: "-".join(map(str, c)))
    def test_matches_oracles(self, cells, variant, rng):
        for delta in (1.3, 0.0):
            params = Parameters(1.0, 4.0, 2.0, delta, 1.0, 2.0, 3.0, 10.0)
            mesh = build_mesh(params, *cells)
            ell = flux_coefficients(mesh, params)
            u, v, d = rng.standard_normal((3, mesh.n_max)) * 10.0 ** rng.uniform(-3, 3, (3, 1))
            args = schemes.build_operators(mesh, params, DT, variant).energy_args
            layers, got = step_energies(args, u, v, d, 6)
            self.check(layers, got, mesh, ell, params, variant)
            if delta == 0.0:
                assert got[3].tobytes() == np.zeros(6).tobytes()  # +0.0, never -0.0

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_signed_zeros_infinities_and_nan(self, base_mesh, base_ell, base_params, rng,
                                             variant):
        # every pair of consecutive rows by a call of no steps, whose layers
        # may hold anything; and every row as the first of three layers by a
        # call of one step, whose later layers must be finite
        n = base_mesh.n_max
        rows = [np.zeros(n), np.full(n, -0.0), rng.choice([0.0, -0.0], n)]
        for value in (np.inf, -np.inf, np.nan):
            row = rng.standard_normal(n)
            row[rng.integers(0, n, 3)] = value
            rows += [row, rng.standard_normal(n)]
        rows += [np.full(n, np.inf), np.full(n, -np.inf), np.full(n, np.nan)]
        args = schemes.build_operators(base_mesh, base_params, DT, variant).energy_args
        oracle = (base_mesh, base_ell, base_params, variant)
        for u, v in zip(rows, rows[1:]):
            self.check(*step_energies(args, u, v), *oracle)
        for u in rows:
            self.check(*step_energies(args, u, rows[2], rng.standard_normal(n), 1), *oracle)

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_selected_steps_are_the_bits_of_the_whole_block(self, base_mesh, base_params, rng,
                                                            variant):
        # a selected step's dissipation and residual, and the energies of the
        # two pairs it reads, are the bits of the call without a selection;
        # every other entry is NaN, whatever the result array held before
        args = schemes.build_operators(base_mesh, base_params, DT, variant).energy_args
        for m in range(2, 10):
            u, v, d = rng.standard_normal((3, base_mesh.n_max))
            layers, whole = step_energies(args, u, v, d, m - 2)
            index = np.arange(m - 2)
            for selected in (index < 0, index >= 0, index == 0, index == m - 3, index % 2 == 0,
                             index % 2 == 1, rng.random(m - 2) < 0.5):
                pairs = np.zeros(m - 1, bool)
                pairs[:-1] |= selected
                pairs[1:] |= selected
                np.full(5 * m, 1.0)
                again, got = step_energies(args, u, v, d, m - 2, selected)
                assert again.tobytes() == layers.tobytes()
                for q, (values, expected) in enumerate(zip(got, whole)):
                    wanted = pairs if q < 3 else selected
                    assert values.shape == expected.shape
                    assert values[wanted].tobytes() == expected[wanted].tobytes()
                    assert np.isnan(values[~wanted]).all()

    def test_bad_arrays_rejected(self, base_mesh, base_params, rng):
        # a selection is one C-ordered boolean flag per step, never copied
        # into one: a strided selection is rejected
        u, v, d = rng.standard_normal((3, base_mesh.n_max))
        args = schemes.build_operators(base_mesh, base_params, DT, "explicit").energy_args
        for selected in (np.ones(3, bool), np.ones(2, np.uint8), np.ones((2, 1), bool),
                         np.array([True, True, False, False])[::2]):
            with pytest.raises(ValueError, match="selected"):
                step_energies(args, u, v, d, 2, selected)


class TestStepCallEnergies:
    """The energies a step call evaluates as it writes each layer into its
    ring, against oracles.block_energies on the same layers: byte for
    byte, every entry that the selection reads of a call that ends at its
    stop, with NaN in every other, and the entries schemes.run reads of one
    that ends at a failing layer."""

    @staticmethod
    def check(step, u0, u1, d1, first, steps, selected, limit, problem):
        """The call of the layers first+2 .. first+steps+1, from the layers
        first and first+1 (u0, u1) and the increment d1 into u1, in a ring
        of three rows; block_energies on the same steps taken in a block of
        their own, with no energies.  Returns the steps the call took."""
        n = len(u0)
        start, stop = first + 2, first + 2 + steps
        ring = np.full((3, n), np.nan)
        ring[first % 3], ring[(first + 1) % 3] = u0, u1
        out = np.full((5, steps + 2), 7.0)
        mesh, _, params, dt, variant = problem
        args = schemes.build_operators(mesh, params, dt, variant).energy_args
        end = linalg.step_block(ring, start, stop, *step, np.stack((d1, d1)), limit,
                                (selected, out, args))
        block = np.full((steps + 2, n), np.nan)
        block[:2] = u0, u1
        k = linalg.step_block(block, 2, steps + 2, *step, np.stack((d1, d1)), limit) - 2
        assert end - start == k
        last = k + 1 + (k < steps)  # the last layer written, the failing one if any
        for i in range(max(last - 2, 0), last + 1):  # the layers the ring keeps
            assert ring[(first + i) % 3].tobytes() == block[i].tobytes()
        steps_read = np.ones(k, bool) if selected is None else selected[:k]
        expected = block_energies(block[:k + 2], *problem)
        got = (out[0, :k + 1], out[1, :k + 1], out[2, :k + 1], out[3, :k], out[4, :k])
        if k == steps:
            pairs = np.zeros(k + 1, bool)
            pairs[:-1] |= steps_read
            pairs[1:] |= steps_read
            for q, (values, oracle) in enumerate(zip(got, expected)):
                wanted = pairs if q < 3 else steps_read
                assert_same_bits([values[wanted]], [oracle[wanted]])
                assert np.isnan(values[~wanted]).all()
        # what schemes.run reads: each selected step's dissipation and
        # residual, and the energies of the two pairs it reads
        j = steps_read.nonzero()[0]
        assert_same_bits([got[3][j], got[4][j], got[2][j]], [expected[3][j], expected[4][j],
                                                            expected[2][j]])
        assert_same_bits([e[j + 1] for e in got[:3]], [e[j + 1] for e in expected[:3]])
        return k

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_run_layers_and_selections(self, base_mesh, base_ell, base_params, variant):
        ops = schemes.build_operators(base_mesh, base_params, DT, variant)
        data = default_initial_data(base_params.length)
        u0, psi = (sample_cell_averages(f, base_mesh) for f in (data.phi, data.psi))
        u1 = schemes.bootstrap(u0, psi, ops)
        step = (ops.stiff, ops.rhs_prev, ops.lhs_factor)
        problem = (base_mesh, base_ell, base_params, DT, variant)
        for first in (0, 1, 2, 3 * 10**6 + 1):
            for steps in (1, 2, 7, 25):
                index = np.arange(first + 1, first + 1 + steps)
                selections = [None, index >= 0, index < 0] + [
                    (index % every == 0) | (index == first + steps) for every in (1, 3, 10)]
                for selected in selections:
                    assert self.check(step, u0, u1, u1 - u0, first, steps, selected, math.inf,
                                      problem) == steps

    # With a zero stiffness and identity R1 and factors each step adds the
    # increment: layer i is u0 + i from [0, 1) cells, whose sup norm rises
    # by 1 a step, past a limit just below the sup of the first, a middle
    # or the last layer of a 5-step call; and cell 5 ramps by MAX / 2 to
    # inf in the layer before that one, which a zero stiffness turns into
    # NaN, within an infinite limit.
    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    @pytest.mark.parametrize("failing", [0, 2, 4])
    def test_call_ending_at_a_failing_layer(self, base_mesh, base_ell, base_params, rng,
                                            variant, failing):
        n = base_mesh.n_max
        zero, identity = (TriDiagMatrix(np.full(n, v), np.zeros(n - 1)) for v in (0.0, 1.0))
        step = (zero, identity, LDLFactorization(np.ones(n), np.zeros(n - 1)))
        problem = (base_mesh, base_ell, base_params, DT, variant)
        big = float(np.finfo(float).max)
        for first in (0, 1, 2):
            u0 = rng.random(n)
            u1, d1 = u0 + 1.0, np.ones(n)
            past = float(np.nextafter(np.abs(u1 + 1.0 + failing).max(), 0.0))
            nan_u1, nan_d1 = u1.copy(), d1.copy()
            nan_u1[5], nan_d1[5] = (3 - failing) * (big / 2), big / 2  # inf when failing = 0
            cases = [(u1, d1, past), (nan_u1, nan_d1, math.inf)]
            for (layer, incr, limit), every in zip(cases * 3, (1, 1, 2, 2, 3, 3)):
                selected = (np.arange(first + 1, first + 6) % every) == 0
                assert self.check(step, u0, layer, incr, first, 5, selected, limit,
                                  problem) == failing

    def test_bad_energy_arguments_rejected(self, base_mesh, base_params, rng):
        n = base_mesh.n_max
        m = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
        f = LDLFactorization(np.ones(n), np.zeros(n - 1))
        args = schemes.build_operators(base_mesh, base_params, DT, "explicit").energy_args
        ring = rng.standard_normal((3, n))
        saved = ring.copy()
        selected = np.ones(4, bool)

        def call(block, start, out, selected=selected, incr=np.zeros((2, n)), matrix=m):
            return linalg.step_block(block, start, start + 4, matrix, m, f, incr, math.inf,
                                     (selected, out, args))

        out = np.zeros((5, 6))
        # a call needs the two layers before its first, in a ring that keeps three
        for block, start in ((ring, 1), (ring[:2], 2)):
            with pytest.raises(ValueError, match="rows"):
                call(block, start, out)
        for bad in (np.zeros((5, 5)), np.zeros((4, 6)), np.zeros((6, 5)).T):
            with pytest.raises(ValueError, match="out"):
                call(ring, 2, bad)
        read_only = out.view()
        read_only.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            call(ring, 2, read_only)
        for bad in (selected[1:], np.ones(4, np.uint8)):
            with pytest.raises(ValueError, match="selected"):
                call(ring, 2, out, bad)
        # out may not share a byte with the ring, the increments or a matrix
        buffer = np.zeros(30 + 3 * n)
        with pytest.raises(ValueError, match="overlap"):
            call(buffer[29:29 + 3 * n].reshape(3, n), 2, buffer[:30].reshape(5, 6))
        with pytest.raises(ValueError, match="overlap"):
            call(ring, 2, buffer[:30].reshape(5, 6), incr=buffer[29:29 + 2 * n].reshape(2, n))
        shared = TriDiagMatrix(buffer[29:29 + n], np.zeros(n - 1))
        with pytest.raises(ValueError, match="overlap"):
            call(ring, 2, buffer[:30].reshape(5, 6), matrix=shared)
        assert ring.tobytes() == saved.tobytes() and not buffer.any() and not out.any()
        call(ring, 2, buffer[:30].reshape(5, 6), incr=buffer[30:30 + 2 * n].reshape(2, n))


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

    def test_too_few_samples(self):
        t = np.linspace(0.0, 100.0, 101)
        with pytest.raises(ValueError, match="samples"):
            fit_exponential(t, np.exp(-t / 30.0), (95.0, 100.0))

    def test_nonpositive_energy_rejected(self):
        # and a non-finite energy or time inside the window, with its own message
        t = np.linspace(0.0, 10.0, 20)
        for value, message in ((0.0, "onpositive"), (-np.inf, "onpositive"),
                               (np.inf, "non-finite"), (np.nan, "non-finite")):
            e = np.ones(20)
            e[5] = value
            with pytest.raises(ValueError, match=message):
                fit_exponential(t, e, (0.0, 10.0))
            with pytest.raises(ValueError, match=message):
                fit_polynomial(t, e, (0.5, 10.0))
        t[-1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_exponential(t, np.ones(20), (0.0, np.inf))

    def test_polynomial_needs_positive_start(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError, match="t > 0"):
            fit_polynomial(t, np.ones(20), (0.0, 10.0))

    def test_bad_window_ordering(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError, match="window"):
            fit_exponential(t, np.ones(20), (5.0, 5.0))
