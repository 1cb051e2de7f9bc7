"""Property tests: a run's energies depend only on its layers.

Over random speeds, damping (including none), interfaces, cell counts and
time steps at or below the CFL bound, the recorded energy rows are the same
bits with and without --verify-identity, and a verified run gives the same
trace and statistics whatever size its layer blocks have.
"""

from dataclasses import fields

import numpy as np
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


def run_with_block_rows(rows, *args, **kwargs):
    """A verified run whose layer blocks hold `rows` layers."""
    n_cells = args[1].n_max
    saved = schemes._VERIFY_BYTES
    schemes._VERIFY_BYTES = rows * 8 * n_cells
    try:
        return run(*args, verify_identity=True, **kwargs)
    finally:
        schemes._VERIFY_BYTES = saved


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
        verified = run(*args, verify_identity=True, **kwargs)
        small = run_with_block_rows(block_rows, *args, **kwargs)
        assert not verified.diverged

        assert_same_trace(plain.trace, verified.trace)
        assert_same_trace(small.trace, verified.trace)
        for name in STATS:
            assert getattr(small, name) == getattr(verified, name), name
        assert verified.verified_steps == n_steps - 1
        assert verified.identity_residual_max <= 1e-11 * max(verified.energy_initial, 1.0)
