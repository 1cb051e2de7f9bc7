"""Property tests: a run's energies depend only on its layers.

Over random speeds, damping (including none), interfaces, cell counts and
time steps at or below the CFL bound, the recorded energy rows are the same
bits with and without --verify-identity, and a run gives the same trace and
statistics whatever size its layer blocks have.  Without verification the
statistics come from the recorded rows alone.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvwave import EnergyTrace, Parameters, build_mesh, cfl_max_dt, default_initial_data, run
from kvwave import schemes

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


def run_with_block_rows(rows, *args, **kwargs):
    """A run whose layer blocks hold `rows` layers."""
    n_cells = args[1].n_max
    saved = schemes._BLOCK_BYTES
    schemes._BLOCK_BYTES = rows * 8 * n_cells
    try:
        return run(*args, **kwargs)
    finally:
        schemes._BLOCK_BYTES = saved


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@example(  # smallest zones, undamped, at the CFL bound, every step recorded
    c_sq=(1.0, 4.0, 0.25), delta=0.0, alpha=1.0, beta=2.0, cells=(1, 2, 1),
    cfl_fraction=1.0, n_steps=300, observe_every=1, block_rows=3,
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
    block_rows=st.integers(3, 7),
)
def test_energy_rows_depend_only_on_the_layers(
    c_sq, delta, alpha, beta, cells, cfl_fraction, n_steps, observe_every, block_rows
):
    params = Parameters(*c_sq, delta, alpha, beta, 3.0, 10.0)
    mesh = build_mesh(params, *cells)
    dt = cfl_fraction * cfl_max_dt(params, mesh)
    data = default_initial_data(params.length)
    for scheme in ("explicit", "implicit"):
        args = (params, mesh, data, dt, n_steps)
        kwargs = dict(scheme=scheme, observe_every=observe_every)
        plain = run(*args, **kwargs)
        plain_small = run_with_block_rows(block_rows, *args, **kwargs)
        verified = run(*args, verify_identity=True, **kwargs)
        small = run_with_block_rows(block_rows, *args, verify_identity=True, **kwargs)
        assert not verified.diverged

        assert_same_trace(plain.trace, verified.trace)
        assert_same_trace(plain_small.trace, plain.trace)
        assert_same_trace(small.trace, verified.trace)
        assert_same_stats(plain_small, plain)
        assert_same_stats(small, verified)
        assert_stats_from_recorded_rows(plain)
        assert verified.verified_steps == n_steps - 1
        assert verified.identity_residual_max <= 1e-11 * max(verified.energy_initial, 1.0)


@pytest.mark.parametrize("observe_every", [1, 7, 100])
def test_diverging_run_is_independent_of_mode_and_block_size(observe_every):
    # undamped explicit at 1.05x the CFL bound: diverges within 50 steps
    params = Parameters(1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 10.0)
    mesh = build_mesh(params, 20, 10, 20)
    args = (params, mesh, default_initial_data(params.length),
            1.05 * cfl_max_dt(params, mesh), 5000)
    kwargs = dict(scheme="explicit", observe_every=observe_every, snapshot_steps=range(0, 60, 5))
    results = {}
    for verify in (False, True):
        results[verify, None] = run(*args, verify_identity=verify, **kwargs)
        for rows in (3, 4, 7):
            results[verify, rows] = run_with_block_rows(
                rows, *args, verify_identity=verify, **kwargs
            )
    reference = results[False, None]
    assert reference.diverged and reference.divergence_step < 50
    assert_stats_from_recorded_rows(reference)
    for (verify, rows), result in results.items():
        assert result.divergence_step == reference.divergence_step
        assert_same_trace(result.trace, reference.trace)
        assert_same_stats(result, results[verify, None])
        np.testing.assert_array_equal(result.u_prev, reference.u_prev)
        np.testing.assert_array_equal(result.u_curr, reference.u_curr)
        assert [s.step for s in result.snapshots] == [s.step for s in reference.snapshots]
        for a, b in zip(result.snapshots, reference.snapshots):
            np.testing.assert_array_equal(a.values, b.values)
