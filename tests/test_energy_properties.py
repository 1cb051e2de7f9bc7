"""Property tests: a run's energies depend only on its layers.

Over random speeds, damping (including none), interfaces, cell counts and
time steps at or below the CFL bound, the recorded energy rows are the same
bits with and without --verify-identity, and a run gives the same trace and
statistics however many steps its step calls take.  Without verification the
statistics come from the recorded rows alone, and without damping the
energy drifts only by round-off.  Over the same space the
explicit bootstrap's solve gives the bits of a division by 2 M, and over it
and far above the CFL bound every scheme matrix is factored as L D L^T and
both bootstraps give the bits of their band products solved with their
factors.  Over the same space every layer a step call writes is the bits
of the one-step oracle.  At 1-100 times the CFL bound the implicit scheme
stays bounded and its energy never rises beyond round-off.  Over every
configuration that passes validation, with lengths, speeds, damping and
time steps anywhere from 1e-320 to 1e308, a run ends in an exit code and
at most one error line, never in an exception.
"""

import contextlib
import io
import math
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvwave import linalg, schemes
from kvwave.cli import main
from kvwave.diagnostics import EnergyTrace
from kvwave.linalg import LDLFactorization, TriDiagMatrix
from kvwave.mesh import Parameters, build_mesh, flux_coefficients
from kvwave.model import cfl_max_dt, default_initial_data, sample_cell_averages
from kvwave.schemes import run
from oracles import (band_products, block_energies, explicit_bootstrap, ldl_solve,
                     one_step_layers, record)

STATS = ("identity_residual_max", "energy_drift_max", "energy_rise_max", "verified_steps")

speeds = st.floats(0.25, 4.0)
damping = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
counts = st.tuples(st.integers(1, 20), st.integers(2, 20), st.integers(1, 20))


def assert_same_trace(a: EnergyTrace, b: EnergyTrace) -> None:
    for column in fields(EnergyTrace):
        np.testing.assert_array_equal(getattr(a, column.name), getattr(b, column.name))


def assert_same_stats(a, b) -> None:
    for name in STATS:
        assert getattr(a, name) == getattr(b, name), name


def assert_stats_from_recorded_rows(result) -> None:
    trace = result.trace
    assert result.identity_residual_max == np.abs(trace.residual[1:]).max(initial=0.0)
    drift = np.abs(trace.e_total[1:] - trace.e_total[0]).max(initial=0.0)
    assert result.energy_drift_max == drift
    assert result.verified_steps == len(trace) - 1


def run_with_call_steps(steps, *args, snapshot_steps=(), **kwargs):
    """A run whose step calls take at most `steps` steps each: it makes one
    call per snapshot interval, so it takes a snapshot every `steps` steps
    as well, and returns only the snapshots asked for."""
    asked = set(snapshot_steps)
    result = run(*args, snapshot_steps=asked | set(range(0, args[4], steps)), **kwargs)
    return replace(result, snapshots=[s for s in result.snapshots if s.step in asked])


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@example(  # smallest zones, undamped, at the CFL bound, every step recorded
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1),
    cfl_fraction=1.0, n_steps=300, observe_every=1, call_steps=1,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.floats(0.05, 1.0),
    n_steps=st.integers(1, 300),
    observe_every=st.integers(1, 50),
    call_steps=st.integers(1, 5),
)
def test_energy_rows_depend_only_on_the_layers(
    c_sq, delta, alpha, beta, cells, cfl_fraction, n_steps, observe_every, call_steps
):
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    for scheme in ("explicit", "implicit"):
        args = (params, mesh, data, dt, n_steps)
        kwargs = dict(scheme=scheme, observe_every=observe_every)
        plain = run(*args, **kwargs)
        plain_small = run_with_call_steps(call_steps, *args, **kwargs)
        verified = run(*args, verify_identity=True, **kwargs)
        small = run_with_call_steps(call_steps, *args, verify_identity=True, **kwargs)
        assert not verified.diverged

        assert_same_trace(plain.trace, verified.trace)
        assert_same_trace(plain_small.trace, plain.trace)
        assert_same_trace(small.trace, verified.trace)
        assert_same_stats(plain_small, plain)
        assert_same_stats(small, verified)
        assert_stats_from_recorded_rows(plain)
        assert verified.verified_steps == n_steps - 1
        assert verified.identity_residual_max <= 1e-11 * max(verified.energy_initial, 1.0)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example(  # smallest zones, at the CFL bound, the longest run
    c_sq=(1.0, 4.0, 0.25), alpha=1.0, beta=2.0, cells=(1, 2, 1), cfl_fraction=1.0,
    n_steps=300,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.floats(0.05, 1.0),
    n_steps=st.integers(1, 300),
)
def test_undamped_energy_drifts_only_by_round_off(c_sq, alpha, beta, cells, cfl_fraction, n_steps):
    # Without damping both schemes conserve the discrete energy exactly, so
    # at or below the CFL bound its drift over the run is round-off.
    params = Parameters(*c_sq, 0.0, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    for scheme in ("explicit", "implicit"):
        result = run(params, mesh, data, dt, n_steps, scheme=scheme, verify_identity=True)
        assert not result.diverged
        assert result.energy_drift_max <= 1e-8 * max(result.energy_initial, 1.0)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@example(  # undamped, smallest zones
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1), cfl_fraction=1.0,
)
@example(  # strong damping on a 2-cell zone, dt far above the CFL bound
    c_sq=(4.0, 0.25, 4.0), delta=10.0, alpha=0.1, beta=2.9, cells=(20, 2, 20),
    cfl_fraction=1e4,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 1e4)),
)
def test_scheme_matrices_factor_as_ldlt(c_sq, delta, alpha, beta, cells, cfl_fraction):
    # Every left-hand matrix is positive definite, so none takes the LU
    # fallback; the implicit scheme is also drawn far above the CFL bound.
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    for scheme in ("explicit", "implicit"):
        ops = schemes.build_operators(mesh, params, dt, scheme)
        assert type(ops.lhs_factor) is LDLFactorization
        assert type(ops.boot_factor) is LDLFactorization


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@example(  # undamped, smallest zones
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1), cfl_fraction=1.0,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.floats(0.05, 1.0),
)
def test_explicit_bootstrap_is_the_division_by_2m(c_sq, delta, alpha, beta, cells, cfl_fraction):
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    ops = schemes.build_operators(mesh, params, cfl_fraction * cfl_max_dt(params, mesh), "explicit")
    data = default_initial_data(params.length)
    u0, psi = (sample_cell_averages(f, mesh) for f in (data.phi, data.psi))
    assert (schemes.bootstrap(u0, psi, ops).tobytes()
            == explicit_bootstrap(u0, psi, ops, mesh).tobytes())


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@example(  # undamped, smallest zones
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1), cfl_fraction=1.0,
    seed=0,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 1e4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_is_the_oracle_solve_of_its_band_products(
    c_sq, delta, alpha, beta, cells, cfl_fraction, seed
):
    # B u1 = R2 u0 + R1 (2 dt psi), B the bootstrap matrix, in Python floats: on the arch
    # data and on random data of magnitudes 1e-100 .. 1e100 with signed zeros
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, mesh.n_max)) * 10.0 ** rng.uniform(-100, 100, (2, mesh.n_max))
    zeros = rng.random(noise.shape) < 0.1
    noise[zeros] = np.copysign(0.0, noise[zeros])
    inputs = [tuple(sample_cell_averages(f, mesh) for f in (data.phi, data.psi)), tuple(noise)]
    for scheme in ("explicit", "implicit"):
        ops = schemes.build_operators(mesh, params, dt, scheme)
        boot = ops.boot_factor
        for u0, psi in inputs:
            rhs = band_products(ops.rhs_curr, u0, 2.0 * dt, ops.rhs_prev, psi)
            expected = ldl_solve(boot.d, boot.e, rhs)
            assert schemes.bootstrap(u0, psi, ops).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@example(  # undamped, smallest zones, 100x the CFL bound, the longest run
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1),
    cfl_fraction=100.0, n_steps=300,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=counts,
    cfl_fraction=st.floats(1.0, 100.0),
    n_steps=st.integers(1, 300),
)
def test_implicit_scheme_stays_bounded_above_the_cfl_bound(
    c_sq, delta, alpha, beta, cells, cfl_fraction, n_steps
):
    # The flux-averaged scheme is unconditionally stable: its discrete
    # energy never grows, so well above the explicit scheme's bound a run
    # neither diverges nor gains energy beyond round-off.
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    result = run(params, mesh, data, dt, n_steps, scheme="implicit", verify_identity=True)
    assert not result.diverged
    assert result.energy_rise_max <= 1e-11 * max(result.energy_initial, 1.0)


def assert_no_shared_memory(result) -> None:
    arrays = [result.u_prev, result.u_curr] + [s.values for s in result.snapshots]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def stepwise_divergence(params, mesh, data, dt):
    """Divergence step and the two layers before it, each layer stepped by
    its own step_block call, with no limit, and checked by np.abs as it is
    stepped."""
    ops = schemes.build_operators(mesh, params, dt, "explicit")
    u0 = sample_cell_averages(data.phi, mesh)
    u1 = schemes.bootstrap(u0, sample_cell_averages(data.psi, mesh), ops)
    limit = schemes.SUP_GROWTH_LIMIT * np.abs(u0).max()
    block = np.stack([u0, u1, np.zeros_like(u0)])
    incr = np.stack((u1 - u0, u0))
    step = 2
    while True:
        linalg.step_block(block, 2, 3, ops.stiff, ops.rhs_prev, ops.lhs_factor, incr, math.inf)
        if not np.abs(block[2]).max() <= limit:
            return step, block[0], block[1]
        block[:2] = block[1:].copy()
        step += 1


@pytest.mark.parametrize("observe_every", [1, 7, 100])
def test_diverging_run_is_independent_of_mode_and_block_size(observe_every):
    # Undamped explicit above the CFL bound diverges at layer 42 (1.05x) or
    # 13 (1.5x).  Over step calls of 1-10 steps, which also end at every
    # fifth step, a snapshot, that layer lands on the first, a middle and
    # the last layer of a call; runs of exactly that many steps or one more
    # end in a call that stops at or just past it.
    params = Parameters(1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 10.0)
    mesh = build_mesh(params, 20, 10, 20)
    data = default_initial_data(params.length)
    kwargs = dict(scheme="explicit", observe_every=observe_every, snapshot_steps=range(0, 60, 5))
    for factor in (1.05, 1.5):
        dt = factor * cfl_max_dt(params, mesh)
        reference = run(params, mesh, data, dt, 5000, **kwargs)
        step, u_prev, u_curr = stepwise_divergence(params, mesh, data, dt)
        assert reference.diverged and reference.divergence_step == step < 50
        assert reference.steps_completed == step - 1
        assert reference.trace.step[-1] == (step - 2) // observe_every * observe_every
        assert [s.step for s in reference.snapshots] == list(range(0, step, 5))
        np.testing.assert_array_equal(reference.u_prev, u_prev)
        np.testing.assert_array_equal(reference.u_curr, u_curr)
        assert_stats_from_recorded_rows(reference)
        results = {}
        for verify in (False, True):
            for n_steps in (5000, step, step + 1):
                args = (params, mesh, data, dt, n_steps)
                results[verify, None, n_steps] = run(*args, verify_identity=verify, **kwargs)
                for steps in range(1, 11):
                    results[verify, steps, n_steps] = run_with_call_steps(
                        steps, *args, verify_identity=verify, **kwargs
                    )
        for (verify, steps, n_steps), result in results.items():
            assert result.divergence_step == step
            assert_same_trace(result.trace, reference.trace)
            assert_same_stats(result, results[verify, None, 5000])
            np.testing.assert_array_equal(result.u_prev, reference.u_prev)
            np.testing.assert_array_equal(result.u_curr, reference.u_curr)
            assert [s.step for s in result.snapshots] == [s.step for s in reference.snapshots]
            for a, b in zip(result.snapshots, reference.snapshots):
                np.testing.assert_array_equal(a.values, b.values)
            assert_no_shared_memory(result)


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
def test_run_layers_match_one_step_oracle(scheme):
    # Every layer of a run is the same bits as the kernel's arithmetic done
    # one layer at a time in Python floats (oracles.one_step_layers): with
    # every layer a snapshot, so that each step call writes one layer, at
    # each offset of the ring in turn, and with a snapshot every 97 steps,
    # in calls of 97 steps.  On a damped problem over 2348 steps, and on an
    # explicit run that diverges at layer 42.
    damped = Parameters(9.0, 1.0, 4.0, 1.0, 1.0, 2.0, 3.0, 10.0)
    undamped = Parameters(1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 10.0)
    cases = [(damped, 0.9, 2 * 1024 + 300)]
    if scheme == "explicit":
        cases.append((undamped, 1.05, 60))
    for params, cfl_fraction, n_steps in cases:
        mesh = build_mesh(params, 20, 10, 20)
        data = default_initial_data(params.length)
        dt = cfl_fraction * cfl_max_dt(params, mesh)
        args = (params, mesh, data, dt, n_steps)
        result = run(*args, scheme=scheme, snapshot_steps=range(n_steps + 1))
        ops = schemes.build_operators(mesh, params, dt, scheme)
        u0, u1 = (s.values for s in result.snapshots[:2])
        expected = one_step_layers(ops, u0, u1, n_steps)
        stored = len(result.snapshots)
        if params is damped:
            assert not result.diverged and stored == n_steps + 1
        else:
            assert result.divergence_step == stored == 42
            assert not np.abs(expected[42]).max() <= schemes.SUP_GROWTH_LIMIT * np.abs(u0).max()
        sparse = run(*args, scheme=scheme, snapshot_steps=range(0, n_steps + 1, 97))
        assert [s.step for s in sparse.snapshots] == list(range(0, stored, 97))
        for snapshot in result.snapshots + sparse.snapshots:
            assert snapshot.values.tobytes() == expected[snapshot.step].tobytes(), snapshot.step
        for r in (result, sparse):
            assert r.u_prev.tobytes() == expected[stored - 2].tobytes()
            assert r.u_curr.tobytes() == expected[stored - 1].tobytes()



@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@example(  # undamped, one-cell side zones, at the CFL bound
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1), cfl_fraction=1.0,
    n_steps=30, seed=0,
)
@example(  # one damped face between side zones of whole chunks and more
    c_sq=(9.0, 1.0, 4.0), delta=1.0, alpha=1.0, beta=2.0, cells=(40, 2, 33), cfl_fraction=0.9,
    n_steps=30, seed=1,
)
@example(  # a one-cell side zone on either end of a damped zone
    c_sq=(0.25, 1.0, 4.0), delta=2.0, alpha=0.2, beta=1.7, cells=(1, 20, 1), cfl_fraction=0.5,
    n_steps=30, seed=2,
)
@example(  # undamped, both side zones longer than a chunk
    c_sq=(4.0, 1.0, 0.25), delta=0.0, alpha=1.3, beta=1.6, cells=(34, 3, 17), cfl_fraction=1.0,
    n_steps=30, seed=3,
)
@given(
    c_sq=st.tuples(speeds, speeds, speeds),
    delta=damping,
    alpha=st.floats(0.1, 1.4),
    beta=st.floats(1.6, 2.9),
    cells=st.tuples(st.integers(1, 40), st.integers(2, 12), st.integers(1, 40)),
    cfl_fraction=st.floats(0.05, 1.0),
    n_steps=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_rows_are_the_one_step_oracle_layers(
    c_sq, delta, alpha, beta, cells, cfl_fraction, n_steps, seed
):
    # Every row a block step writes has the bits of oracles.one_step_layers,
    # in both schemes: from the arch data's first two layers, and from two
    # random layers of magnitudes 1e-300 .. 1e100 with signed zeros, whose
    # band products and divisions underflow.
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, mesh.n_max)) * 10.0 ** rng.uniform(-300, 100, (2, mesh.n_max))
    zeros = rng.random(noise.shape) < 0.1
    noise[zeros] = np.copysign(0.0, noise[zeros])
    for scheme in ("explicit", "implicit"):
        ops = schemes.build_operators(mesh, params, dt, scheme)
        u0 = sample_cell_averages(data.phi, mesh)
        u1 = schemes.bootstrap(u0, sample_cell_averages(data.psi, mesh), ops)
        for first, second in ((u0, u1), tuple(noise)):
            expected = one_step_layers(ops, first, second, n_steps)
            block = np.empty((n_steps + 1, mesh.n_max))
            block[:2] = first, second
            incr = np.stack((second - first, first))
            assert linalg.step_block(block, 2, n_steps + 1, ops.stiff, ops.rhs_prev,
                                     ops.lhs_factor, incr, math.inf) == n_steps + 1
            for step, layer in enumerate(expected):
                assert block[step].tobytes() == layer.tobytes(), (scheme, step)


def kernel_within(layer, limit):
    """The kernel's verdict on a layer: the step that writes it from a zero
    row, with a zero stiffness, an identity R1 and identity factors and the
    layer as the increment, is past the limit or not."""
    n = len(layer)
    zero, identity = (TriDiagMatrix(np.full(n, v), np.zeros(n - 1)) for v in (0.0, 1.0))
    f = LDLFactorization(np.ones(n), np.zeros(n - 1))
    scratch, incr = np.zeros((2, n)), np.stack((layer, layer))
    return linalg.step_block(scratch, 1, 2, zero, identity, f, incr, limit) == 2


def run_poisoned(layer, value, judge, steps, *args, **kwargs):
    """A run in step calls of at most `steps` steps whose layer `layer` gets
    `value` in cell 3 as it is stepped.  Each call steps its layers in a
    block of their own, from the ring's last two layers, without energies;
    it then evaluates, by oracles.block_energies, the steps that its layers
    within the limit determine, writes them into the run's trace and
    maxima by oracles.record, and leaves the last three of its layers in
    the ring.  The bootstrap's step and a call of no steps go to the kernel
    as they are.  judge = "kernel": the kernel checks
    every layer, the poisoned one by kernel_within, before any layer after
    it is stepped.  judge = "abs max": nothing is checked as it is stepped,
    and each call returns the first of its layers that np.abs(...).max()
    <= limit rejects, having stepped the layers after it, which the run
    discards."""
    step_block = linalg.step_block
    params, mesh, _, dt = args[:4]
    energy_args = (mesh, flux_coefficients(mesh, params), params, dt, kwargs["scheme"])

    def poisoned(ring, start, stop, stiff, rhs_prev, f, incr, limit, energies=None):
        if energies is None or start == stop:
            return step_block(ring, start, stop, stiff, rhs_prev, f, incr, limit, energies)
        block = np.empty((stop - start + 2, ring.shape[1]))  # layer start-2+i in row i
        block[:2] = ring[(start - 2) % 3], ring[(start - 1) % 3]
        row, rows = layer - start + 2, len(block)  # the row of `layer`, if this call steps it
        by_kernel = judge == "kernel"
        step_limit = limit if by_kernel else math.inf
        end, first = rows, 2
        if 2 <= row < rows:
            # step up to and through the layer, poison it, and step the rest from it
            end = step_block(block, 2, row + 1, stiff, rhs_prev, f, incr, step_limit)
            if end > row:
                block[row, 3] = value
                end = row if by_kernel and not kernel_within(block[row], limit) else rows
                first = row + 1
        if end == rows:
            end = step_block(block, first, rows, stiff, rhs_prev, f, incr, step_limit)
        if not by_kernel:
            within = np.abs(block[2:]).max(axis=1) <= limit
            end = rows if within.all() else 2 + int(within.argmin())
        for i in range(max(end - 3, 0), end):
            ring[(start - 2 + i) % 3] = block[i]
        *rule, trace, maxima, _ = energies
        record(block_energies(block[:end], *energy_args), start, start - 2 + end, *rule, trace,
               maxima)
        return start - 2 + end

    linalg.step_block = poisoned
    try:
        return run_with_call_steps(steps, *args, **kwargs)
    finally:
        linalg.step_block = step_block


def test_sup_check_stops_runs_where_abs_max_does():
    # A stable run with one entry of layer 20 set past -limit, to exactly
    # +-limit, or to +-inf or NaN.  Over step calls of 1-6 steps and runs
    # ending at, just after and long after that layer (the first two end in
    # a shorter call), the kernel's check stops the run where the abs-max
    # check does, with the same trace, statistics, last layers and snapshots.
    params = Parameters(1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 10.0)
    mesh = build_mesh(params, 20, 10, 20)
    data = default_initial_data(params.length)
    dt = 0.9 * cfl_max_dt(params, mesh)
    limit = schemes.SUP_GROWTH_LIMIT * np.abs(sample_cell_averages(data.phi, mesh)).max()
    layer = 20
    values = (-1.5 * limit, -limit, limit, np.inf, -np.inf, np.nan)
    for value in values:
        for scheme in ("explicit", "implicit"):
            for verify in (False, True):
                kwargs = dict(scheme=scheme, observe_every=3, verify_identity=verify,
                              snapshot_steps=range(0, 60, 4))
                for n_steps in (layer, layer + 1, 60):
                    for steps in range(1, 7):
                        args = (params, mesh, data, dt, n_steps)
                        result = run_poisoned(layer, value, "kernel", steps, *args, **kwargs)
                        expected = run_poisoned(layer, value, "abs max", steps, *args, **kwargs)
                        assert result.divergence_step == expected.divergence_step
                        if abs(value) != limit:
                            assert result.divergence_step == layer
                        assert_same_trace(result.trace, expected.trace)
                        assert_same_stats(result, expected)
                        np.testing.assert_array_equal(result.u_prev, expected.u_prev)
                        np.testing.assert_array_equal(result.u_curr, expected.u_curr)
                        assert ([s.step for s in result.snapshots]
                                == [s.step for s in expected.snapshots])
                        for a, b in zip(result.snapshots, expected.snapshots):
                            np.testing.assert_array_equal(a.values, b.values)


# positive floats across the binades from 2**-1063 (about 1e-320) to 2**1023
magnitudes = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1063, 1022))
fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def config_text(length, fractions, c_sq, delta, dt, scheme, cells, n_steps, out_dir):
    alpha, beta = (f * length for f in fractions)
    values = dict(scheme=scheme, c1_sq=c_sq[0], c2_sq=c_sq[1], c3_sq=c_sq[2], delta=delta,
                  alpha=alpha, beta=beta, length=length, t_final=n_steps * dt,
                  n_alpha=cells[0], n_damp=cells[1], n_beta=cells[2], dt=dt, n_steps=n_steps,
                  observe_every=1, out_dir=out_dir)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@example(  # length**2 underflows to 0
    length=1e-170, fractions=(0.1, 0.2), c_sq=(1.0, 1.0, 1.0), delta=1.0, dt=0.025,
    scheme="explicit", cells=(20, 10, 20), n_steps=20,
)
@example(  # the interface coefficient's denominator underflows to 0
    length=1e-160, fractions=(1e-10, 0.5), c_sq=(1e300, 1e-170, 1e-170), delta=1.0, dt=1e-8,
    scheme="implicit", cells=(20, 10, 20), n_steps=20,
)
@example(  # 4 dt h underflows to 0
    length=1e-100, fractions=(0.3, 0.9), c_sq=(1.0, 1.0, 1.0), delta=1.0, dt=1e-300,
    scheme="implicit", cells=(20, 10, 20), n_steps=5,
)
@example(  # the arch's scale 4 / length**2 overflows
    length=1e-160, fractions=(1e-10, 0.5), c_sq=(1.0, 1.0, 1.0), delta=1.0, dt=1.0,
    scheme="implicit", cells=(20, 10, 20), n_steps=1,
)
@given(
    length=magnitudes,
    fractions=st.tuples(fraction, fraction).map(sorted),
    c_sq=st.tuples(magnitudes, magnitudes, magnitudes),
    delta=st.one_of(st.just(0.0), magnitudes),
    dt=magnitudes,
    scheme=st.sampled_from(["explicit", "implicit"]),
    cells=st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)),
    n_steps=st.integers(1, 20),
)
def test_any_valid_config_ends_in_an_exit_code(length, fractions, c_sq, delta, dt, scheme,
                                                cells, n_steps):
    # Success, a run that cannot be set up (1) or a divergence (2), each
    # error as one line; nothing escapes main, not even a warning.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "run.cfg")
        path.write_text(config_text(length, fractions, c_sq, delta, dt, scheme, cells, n_steps,
                                    str(Path(tmp, "out"))))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--cfl-override"])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0) and all(line.startswith("error: ") for line in lines)
