import math

import numpy as np
import pytest

from kvwave import linalg, schemes
from kvwave.diagnostics import fit_exponential, fit_polynomial
from kvwave.linalg import LDLFactorization, TriDiagMatrix
from kvwave.mesh import Parameters, build_mesh, flux_coefficients
from kvwave.model import default_initial_data, sample_cell_averages
from oracles import block_energies, discrete_h1_seminorm, discrete_l2_norm, record, step_energies

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
        # a call that keeps every step writes every entry of its trace,
        # which np.empty may take from an array just freed: each call
        # follows the freeing of an array of the size of its trace filled
        # with NaN or inf, for a long call and the shorter ones after it,
        # down to the call of no steps that gives a run's first energies,
        # and gives the bits of fresh temporaries
        u, v, d = rng.standard_normal((3, base_mesh.n_max))
        for params in (base_params, undamped_params()):
            for variant in ("explicit", "implicit"):
                args = schemes.build_operators(base_mesh, params, DT, variant).energy_args
                for fill in (np.nan, np.inf, -np.inf):
                    for steps in (7, 3, 1, 0, 6):
                        np.full(5 * (steps + 1), fill)
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
                linalg.step_block(bad, 2, 2, *step, (1, 0, False, np.empty((1, 5)), np.zeros(3),
                                                     args))


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
        # a first call of m - 2 steps that keeps every `every`-th step, and
        # the last when it is the run's, writes those steps' rows and the
        # maxima over the kept, or with verify every, step: the bits of
        # oracles.record from the call that keeps every step, and no other
        # entry of the trace, whatever it held before
        args = schemes.build_operators(base_mesh, base_params, DT, variant).energy_args
        for m in range(2, 10):
            u, v, d = rng.standard_normal((3, base_mesh.n_max))
            layers, whole = step_energies(args, u, v, d, m - 2)
            for every in (1, 2, 3, m, m + 5):
                for last in (m - 2, m, 2 * m + 3):
                    for verify in (False, True):
                        rows = -(-last // every) + 1
                        np.full(5 * rows, 1.0)
                        trace = np.full((rows, 5), 7.0)
                        maxima = np.array([0.0, 0.0, -math.inf])
                        expected, expected_max = trace.copy(), maxima.copy()
                        record(whole, 2, m, every, last, verify, expected, expected_max)
                        again = step_call(args, u, v, d, m - 2, (every, last, verify, trace,
                                                                 maxima))
                        assert again.tobytes() == layers.tobytes()
                        assert_same_bits([trace, maxima], [expected, expected_max])

    def test_bad_arrays_rejected(self, base_mesh, base_params, rng):
        # a trace holds a C-ordered float64 row of 5 per kept step and the
        # first pair, and the maxima are 3 doubles; neither is copied into
        # one of those: a strided one is rejected
        u, v, d = rng.standard_normal((3, base_mesh.n_max))
        args = schemes.build_operators(base_mesh, base_params, DT, "explicit").energy_args
        maxima = np.zeros(3)
        for trace in (np.zeros((2, 5)), np.zeros((3, 4)), np.zeros((5, 3)).T,
                      np.zeros((3, 5), np.float32), np.zeros((6, 5))[::2]):
            with pytest.raises(ValueError, match="trace"):
                step_call(args, u, v, d, 2, (1, 2, False, trace, maxima))
        for bad in (np.zeros(4), np.zeros((1, 3)), np.zeros(6)[::2], np.zeros(3, np.float32)):
            with pytest.raises(ValueError, match="maxima"):
                step_call(args, u, v, d, 2, (1, 2, False, np.zeros((3, 5)), bad))


def step_call(args, u, v, d, steps, rule):
    """The layers after a run's first step_block call from u and v, with
    steps more, each the one before plus d, as oracles.step_energies takes
    them, and energies (*rule, args): rule is (every, last, verify, trace,
    maxima)."""
    n, m = len(u), steps + 2
    zero, identity = (TriDiagMatrix(np.full(n, x), np.zeros(n - 1)) for x in (0.0, 1.0))
    ring = np.empty((max(m, 3), n))
    ring[0], ring[1] = u, v
    assert linalg.step_block(ring, 2, m, zero, identity,
                             LDLFactorization(np.ones(n), np.zeros(n - 1)), np.stack((d, d)),
                             math.inf, (*rule, args)) == m
    return ring[:m]


class TestStepCallEnergies:
    """The trace rows and maxima that a run's step calls write as they
    write each layer into their ring, against oracles.record over
    oracles.block_energies on the same layers, byte for byte: of calls
    that end at their stop, of calls that end at a failing layer, and of
    the calls of a run."""

    @staticmethod
    def check(step, u0, u1, d1, first, steps, rule, limit, problem):
        """The call of the layers first+2 .. first+steps+1, from the layers
        first and first+1 (u0, u1) and the increment d1 into u1, in a ring
        of three rows, with rule = (every, last, verify), into a trace of
        7.0, whose row 0 holds E0 = 7.0 unless the call is a run's first;
        oracles.record on the same steps taken in a block of their own,
        with no energies.  Returns the steps the call took."""
        every, last, verify = rule
        n = len(u0)
        start, stop = first + 2, first + 2 + steps
        ring = np.full((3, n), np.nan)
        ring[first % 3], ring[(first + 1) % 3] = u0, u1
        trace = np.full((-(-last // every) + 1, 5), 7.0)
        maxima = np.array([0.0, 0.0, -math.inf])
        expected, expected_max = trace.copy(), maxima.copy()
        mesh, _, params, dt, variant = problem
        args = schemes.build_operators(mesh, params, dt, variant).energy_args
        end = linalg.step_block(ring, start, stop, *step, np.stack((d1, d1)), limit,
                                (*rule, trace, maxima, args))
        block = np.full((steps + 2, n), np.nan)
        block[:2] = u0, u1
        k = linalg.step_block(block, 2, steps + 2, *step, np.stack((d1, d1)), limit) - 2
        assert end - start == k
        written = k + 1 + (k < steps)  # the last layer written, the failing one if any
        for i in range(max(written - 2, 0), written + 1):  # the layers the ring keeps
            assert ring[(first + i) % 3].tobytes() == block[i].tobytes()
        record(block_energies(block[:k + 2], *problem), start, end, *rule, expected, expected_max)
        assert_same_bits([trace, maxima], [expected, expected_max])
        return k

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_run_layers_and_selections(self, base_mesh, base_ell, base_params, variant):
        # calls from a run's first two layers, as its first call and as
        # later ones, far into a run too, keeping steps at several
        # cadences, with the call's last step the run's or not, verified
        # or not
        ops = schemes.build_operators(base_mesh, base_params, DT, variant)
        data = default_initial_data(base_params.length)
        u0, psi = (sample_cell_averages(f, base_mesh) for f in (data.phi, data.psi))
        u1 = schemes.bootstrap(u0, psi, ops)
        step = (ops.stiff, ops.rhs_prev, ops.lhs_factor)
        problem = (base_mesh, base_ell, base_params, DT, variant)
        for first in (0, 1, 2, 3 * 10**6 + 1):
            everies = (1, 3, 10) if first < 3 else (10**6, first + 3)
            for steps in (1, 2, 7, 25):
                for every in everies:
                    for last in (first + steps, first + steps + 2):
                        for verify in (False, True):
                            assert self.check(step, u0, u1, u1 - u0, first, steps,
                                              (every, last, verify), math.inf, problem) == steps

    # With a zero stiffness and identity R1 and factors each step adds the
    # increment: layer i is u0 + i from [0, 1) cells, whose sup norm rises
    # by 1 a step, past a limit just below the sup of the first, a middle
    # or the last layer of a 5-step call; and cell 5 ramps by MAX / 2 to
    # inf in the layer before that one, which a zero stiffness turns into
    # NaN, within an infinite limit: its energies are inf and its
    # residuals NaN, which leaves the maxima NaN.
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
                for verify in (False, True):
                    assert self.check(step, u0, layer, incr, first, 5, (every, first + 6, verify),
                                      limit, problem) == failing

    @pytest.mark.parametrize("variant", ["explicit", "implicit"])
    def test_calls_of_a_run_fill_its_trace_and_maxima(self, base_mesh, base_ell, base_params,
                                                      rng, variant):
        # a run's calls through one ring, ending at random layers, a call
        # of no steps among them, with a random every, last step and
        # verify, and a limit that every layer passes or one that a random
        # layer fails: the trace and maxima are oracles.record's of one
        # call over the same steps, taken in a block of their own.  The
        # run goes back in time from the arch data's layers 1 and 0, so
        # that the damping raises its energy and, for 30 steps, its sup.
        ops = schemes.build_operators(base_mesh, base_params, DT, variant)
        data = default_initial_data(base_params.length)
        u1, psi = (sample_cell_averages(f, base_mesh) for f in (data.phi, data.psi))
        u0 = schemes.bootstrap(u1, psi, ops)
        step = (ops.stiff, ops.rhs_prev, ops.lhs_factor)
        problem = (base_mesh, base_ell, base_params, DT, variant)
        block = np.empty((62, base_mesh.n_max))
        block[:2] = u0, u1
        linalg.step_block(block, 2, len(block), *step, np.stack((u1 - u0, u0)), math.inf)
        sup = np.abs(block).max(axis=1)
        for _ in range(40):
            last = int(rng.integers(0, 60))  # layers 0 .. last + 1
            rule = (int(rng.integers(1, last + 3)), last, bool(rng.integers(2)))
            limit = float(rng.choice([math.inf, *sup[2:last + 2]]))
            over = np.nonzero(sup[2:last + 2] > limit)[0]
            end = 2 + int(over[0]) if len(over) else last + 2
            stops = sorted({last + 2, *rng.integers(2, last + 3, 3).tolist()})
            ring = np.stack((u0, u1, u1))
            incr = np.stack((u1 - u0, u0))
            trace = np.full((-(-last // rule[0]) + 1, 5), 7.0)
            maxima = np.array([0.0, 0.0, -math.inf])
            expected, expected_max = trace.copy(), maxima.copy()
            filled = 2
            for stop in stops:
                filled = linalg.step_block(ring, filled, stop, *step, incr, limit,
                                           (*rule, trace, maxima, ops.energy_args))
                if filled < stop:
                    break
            assert filled == end
            record(block_energies(block[:end], *problem), 2, end, *rule, expected, expected_max)
            assert_same_bits([trace, maxima], [expected, expected_max])

    def test_bad_energy_arguments_rejected(self, base_mesh, base_params, rng):
        n = base_mesh.n_max
        m = TriDiagMatrix(np.ones(n), np.zeros(n - 1))
        f = LDLFactorization(np.ones(n), np.zeros(n - 1))
        args = schemes.build_operators(base_mesh, base_params, DT, "explicit").energy_args
        ring = rng.standard_normal((3, n))
        saved = ring.copy()

        def call(block, start, trace, maxima=np.zeros(3), every=1, last=9, incr=np.zeros((2, n)),
                 matrix=m):
            return linalg.step_block(block, start, start + 4, matrix, m, f, incr, math.inf,
                                     (every, last, False, trace, maxima, args))

        trace = np.zeros((10, 5))  # ceil(last / every) + 1 rows
        # a call needs the two layers before its first, in a ring that keeps three
        for block, start in ((ring, 1), (ring[:2], 2)):
            with pytest.raises(ValueError, match="rows"):
                call(block, start, trace)
        # a cadence of 1 or more, and a last step no earlier than the call's
        for every, last in ((0, 9), (-3, 9), (1, 3)):
            with pytest.raises(ValueError, match="every"):
                call(ring, 2, trace, every=every, last=last)
        for bad, every in ((np.zeros((9, 5)), 1), (np.zeros((10, 5)), 3), (np.zeros((5, 10)).T, 1)):
            with pytest.raises(ValueError, match="trace"):
                call(ring, 2, bad, every=every)
        for i in range(2):
            written = [trace, np.zeros(3)]
            written[i] = written[i].view()
            written[i].setflags(write=False)
            with pytest.raises(ValueError, match="writeable"):
                call(ring, 2, *written)
        # the trace and the maxima may not share a byte with the ring, the
        # increments, a matrix or each other
        buffer = np.zeros(50 + 3 * n)
        shared = buffer[:50].reshape(10, 5)
        with pytest.raises(ValueError, match="overlap"):
            call(buffer[49:49 + 3 * n].reshape(3, n), 2, shared)
        with pytest.raises(ValueError, match="overlap"):
            call(ring, 2, shared, incr=buffer[49:49 + 2 * n].reshape(2, n))
        with pytest.raises(ValueError, match="overlap"):
            call(ring, 2, shared, matrix=TriDiagMatrix(buffer[49:49 + n], np.zeros(n - 1)))
        for maxima in (buffer[48:51], buffer[50:53]):
            with pytest.raises(ValueError, match="overlap"):
                call(ring, 2, shared, maxima, incr=buffer[50:50 + 2 * n].reshape(2, n))
        with pytest.raises(ValueError, match="overlap"):
            call(ring, 2, trace, ring[2, :3])
        assert ring.tobytes() == saved.tobytes() and not buffer.any() and not trace.any()
        call(ring, 2, shared, incr=buffer[50:50 + 2 * n].reshape(2, n))
        call(ring, 2, np.zeros((4, 5)), every=3)


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
