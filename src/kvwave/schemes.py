"""Time-stepping engines for the damped transmission wave problem.

Both schemes are three-layer recurrences

    L u_next = R2 u_curr - R1 u_prev

with constant matrices.  The explicit scheme puts the flux divergence on the
current layer; the flux-averaged (semi-implicit) scheme splits it evenly
between the next and previous layers, which makes it unconditionally stable.
The first layer is bootstrapped from the initial velocity through a
fictitious layer one step before the start, eliminated with a centered
difference; in both schemes that leaves one tridiagonal solve, which runs
as one block step.

In both schemes R2 - L - R1 = dt^2 S, with S the stiffness matrix, so the
recurrence is stepped in summed form (Henrici, Discrete Variable Methods in
Ordinary Differential Equations, 1962): the run carries the increment
d_n = u_{n+1} - u_n and each step solves

    L d_n = dt^2 S u_n + R1 d_{n-1},    u_{n+1} = u_n + d_n.

The increment is never formed as a difference of two rounded layers, which
keeps the per-step energy identity at round-off whatever the cell count.  L
is positive definite, so it is factored once per run as L D L^T.  A whole
block of steps runs in one call of linalg's compiled kernel, whose bits do
not depend on the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import diagnostics, linalg
from .mesh import FluxCoefficients, Mesh, Parameters, flux_coefficients
from .model import ConfigError, InitialData, sample_cell_averages

__all__ = [
    "SUP_GROWTH_LIMIT",
    "SchemeOperators",
    "SimulationResult",
    "scheme_matrices",
    "build_operators",
    "bootstrap",
    "run",
]

# Divergence threshold: a layer whose sup norm exceeds this multiple of the
# initial sup norm ends the run (also catches non-finite values).
SUP_GROWTH_LIMIT = 1.0e6

# Every run steps its layers straight into one buffer of about this many
# bytes, between 3 and _BLOCK_MAX_ROWS rows, and checks divergence, takes
# snapshots and evaluates energies once per full buffer.
_BLOCK_BYTES = 512 * 2**10
_BLOCK_MAX_ROWS = 1026


@dataclass(frozen=True)
class SchemeMatrices:
    """The tridiagonal matrices of one scheme at one time step.

    lhs, rhs_curr and rhs_prev are L, R2 and R1 of the recurrence, and
    boot_lhs the matrix of the bootstrap: 2 M for the explicit scheme and
    2 M - dt^2 S for the flux-averaged one.  Every left-hand matrix is
    positive definite: M > 0, the damping is positive semidefinite and the
    stiffness negative semidefinite.
    """

    ell: FluxCoefficients
    stiffness: linalg.TriDiagMatrix
    lhs: linalg.TriDiagMatrix
    rhs_curr: linalg.TriDiagMatrix
    rhs_prev: linalg.TriDiagMatrix
    boot_lhs: linalg.TriDiagMatrix


def scheme_matrices(mesh: Mesh, params: Parameters, dt: float, scheme: str) -> SchemeMatrices:
    """Assemble the matrices of the requested scheme."""
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    ell = flux_coefficients(mesh, params)
    mass = linalg.assemble_mass(mesh)
    damping = linalg.assemble_damping(mesh)
    stiffness = linalg.assemble_stiffness(mesh, ell)

    damping_scaled = damping.scaled(params.delta * dt / mesh.h)
    if scheme == "explicit":
        lhs = mass + damping_scaled
        rhs_curr = mass.scaled(2.0) + stiffness.scaled(dt * dt)
        rhs_prev = mass - damping_scaled
        boot_lhs = mass.scaled(2.0)
    else:
        # The averaged fluxes put half the (negative-diagonal) stiffness on
        # each outer layer, so it enters both side matrices with a minus sign
        # and the left-hand matrix is strictly diagonally dominant for any dt.
        half_stiff = stiffness.scaled(0.5 * dt * dt)
        lhs = mass - half_stiff + damping_scaled
        rhs_curr = mass.scaled(2.0)
        rhs_prev = mass - half_stiff - damping_scaled
        boot_lhs = mass.scaled(2.0) - stiffness.scaled(dt * dt)
    return SchemeMatrices(ell, stiffness, lhs, rhs_curr, rhs_prev, boot_lhs)


@dataclass(frozen=True)
class SchemeOperators:
    """What stepping and bootstrap read of one scheme at one time step.

    lhs_factor and boot_factor hold the L D L^T factors of L and of the
    bootstrap matrix.  The bands are linalg's band storage of dt^2 S and R1,
    which every step multiplies, and of R2, which only the bootstrap
    multiplies.
    """

    scheme: str
    dt: float
    mesh: Mesh
    params: Parameters
    ell: FluxCoefficients
    lhs_factor: linalg.LDLFactorization
    boot_factor: linalg.LDLFactorization
    _stiff_band: np.ndarray = field(repr=False)
    _rhs_curr_band: np.ndarray = field(repr=False)
    _rhs_prev_band: np.ndarray = field(repr=False)

    def step_block(
        self, block: np.ndarray, start: int, stop: int, d_prev: np.ndarray, d_next: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step rows start .. stop-1 of a block of layers in summed form.

        Each row i gets block[i-1] + d, where L d = dt^2 S block[i-1] + R1 d_prev
        is solved in d_next; d_prev is the increment into row i-1, and the
        two vectors then swap.  Returns (d_prev, d_next) as the next call
        takes them.  The increments must not overlap each other or the block.
        The whole block runs in one call of the compiled kernel.
        """
        return linalg.step_block(block, start, stop, self._stiff_band, self._rhs_prev_band,
                                 self.lhs_factor, d_prev, d_next)


def build_operators(
    mesh: Mesh, params: Parameters, dt: float, scheme: str
) -> SchemeOperators:
    """Assemble the matrices of the requested scheme and factor them."""
    m = scheme_matrices(mesh, params, dt, scheme)
    return SchemeOperators(
        scheme=scheme,
        dt=dt,
        mesh=mesh,
        params=params,
        ell=m.ell,
        lhs_factor=linalg.factor(m.lhs),
        boot_factor=linalg.factor(m.boot_lhs),
        _stiff_band=linalg.band_storage(m.stiffness.scaled(dt * dt)),
        _rhs_curr_band=linalg.band_storage(m.rhs_curr),
        _rhs_prev_band=linalg.band_storage(m.rhs_prev),
    )


def bootstrap(u0: np.ndarray, psi: np.ndarray, ops: SchemeOperators) -> np.ndarray:
    """First layer of either scheme: solves boot_lhs u1 = R2 u0 + R1 (2 dt psi).

    That is one block step from u0 with the bootstrap's factors, R2 in place
    of dt^2 S and 2 dt psi as the previous increment: its increment is u1.
    The row the step writes, u0 + u1, is scratch and discarded.
    """
    u1, _ = linalg.step_block(np.stack((u0, u0)), 1, 2, ops._rhs_curr_band,
                              ops._rhs_prev_band, ops.boot_factor, 2.0 * ops.dt * psi,
                              np.empty_like(u0))
    return u1


def _rows_within(rows: np.ndarray, limit: float) -> np.ndarray:
    """Whether the sup norm of each row is at most limit; False for a row
    holding NaN.  The verdict of np.abs(rows).max(axis=1) <= limit, without
    a copy of the rows."""
    return (rows.max(axis=1) <= limit) & (rows.min(axis=1) >= -limit)


@dataclass(frozen=True)
class Snapshot:
    step: int
    t: float
    values: np.ndarray


@dataclass
class SimulationResult:
    """Outcome of a run: final layers, energy trace and verification maxima.

    Statistics cover every step at which energies were computed: all of them
    when verify_identity is on, otherwise the recorded ones.
    """

    scheme: str
    dt: float
    n_steps: int
    steps_completed: int
    diverged: bool
    divergence_step: int | None
    u_prev: np.ndarray
    u_curr: np.ndarray
    trace: diagnostics.EnergyTrace
    snapshots: list[Snapshot]
    energy_initial: float
    identity_residual_max: float
    energy_drift_max: float
    energy_rise_max: float
    verified_steps: int


class _EnergyLog:
    """Trace rows and identity statistics of a run, fed by layer_energies.

    The log is built on the run's layer block, whose first two rows hold
    layers 0 and 1; row 0 of the trace holds their energy.  record() takes a
    block of consecutive layers starting at layer `first`; the steps first+1
    .. first+m-2 are the ones whose residuals the block determines.  A step's
    row is kept when it is a multiple of observe_every or the last step.
    With verify the statistics cover every step, evaluated a whole block in
    one call; otherwise the kept steps only, each from its own three layers,
    all of a block's in one call.  The calls go through the module attribute
    diagnostics.layer_energies, which the benchmark's tracer wraps.
    """

    def __init__(self, ops: SchemeOperators, observe_every: int, last_step: int,
                 verify: bool, block: np.ndarray):
        self.ops = ops
        self.observe_every = observe_every
        self.last_step = last_step
        self.verify = verify
        e_k, e_p, e_tot, _, _ = self._energies(block[:2])
        self.e_tot0 = float(e_tot[0])
        self.rows = [(0, 0.0, float(e_k[0]), float(e_p[0]), self.e_tot0, 0.0, 0.0)]
        self.identity_max = 0.0
        self.drift_max = 0.0
        self.rise_max = -math.inf
        self.verified = 0

    def _energies(self, layers: np.ndarray):
        ops = self.ops
        return diagnostics.layer_energies(layers, ops.mesh, ops.ell, ops.params, ops.dt,
                                          ops.scheme)

    def record(self, block: np.ndarray, first: int) -> None:
        steps = np.arange(first + 1, first + len(block) - 1)
        kept = (steps % self.observe_every == 0) | (steps == self.last_step)
        if self.verify:
            e_k, e_p, e_tot, diss, res = self._energies(block)
            e_prev, e_k, e_p, e_tot = e_tot[:-1], e_k[1:], e_p[1:], e_tot[1:]
        else:
            steps = steps[kept]
            if not len(steps):
                return
            # layers s-1, s, s+1 of every kept step s, evaluated in one call
            triples = block[(steps - first - 1)[:, None] + np.arange(3)]
            e_k, e_p, e_pair, diss, res = self._energies(triples)
            e_prev, e_tot = e_pair[:, 0], e_pair[:, 1]
            e_k, e_p, diss, res = e_k[:, 1], e_p[:, 1], diss[:, 0], res[:, 0]
            kept = slice(None)
        self.identity_max = max(self.identity_max, float(np.abs(res).max()))
        self.drift_max = max(self.drift_max, float(np.abs(e_tot - self.e_tot0).max()))
        self.rise_max = max(self.rise_max, float((e_tot - e_prev).max()))
        self.verified += len(res)
        columns = (a[kept].tolist() for a in (steps, e_k, e_p, e_tot, diss, res))
        self.rows += [(step, step * self.ops.dt, *values) for step, *values in zip(*columns)]

    def trace(self) -> diagnostics.EnergyTrace:
        # a row holds the EnergyTrace fields, in order
        return diagnostics.EnergyTrace(*(np.asarray(column) for column in zip(*self.rows)))


def run(
    params: Parameters,
    mesh: Mesh,
    initial: InitialData,
    dt: float,
    n_steps: int,
    scheme: str = "explicit",
    observe_every: int = 100,
    verify_identity: bool = False,
    snapshot_steps: Sequence[int] = (),
) -> SimulationResult:
    """Run the chosen scheme for n_steps steps from the given initial data.

    The run produces layers 0 .. n_steps (bootstrap plus n_steps - 1
    recurrence steps).  One step_block call per block of layers steps its
    rows, keeping the increment in one of two vectors and writing each
    layer straight into its row; then the run checks the new layers for
    divergence, copies out snapshots and evaluates energies.  Energies
    are recorded every observe_every steps plus the final step; with
    verify_identity the energy identity is evaluated at every step and only
    its extremes are kept, otherwise at the recorded steps only.  Either way
    the recorded rows are the same bits.  A layer whose sup norm exceeds
    SUP_GROWTH_LIMIT times the initial one ends the run, which then reports
    exactly what a run stopped just before that layer would: the layers
    stepped past it in its block are discarded.  Operators that cannot be
    assembled or factored raise ConfigError before the first step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    try:
        ops = build_operators(mesh, params, dt, scheme)
    except ValueError as err:  # e.g. an entry that overflows, or a pivot lost to rounding
        raise ConfigError(f"cannot set up the {scheme} operators at dt = {dt:.6g}: {err}") from err
    u0 = sample_cell_averages(initial.phi, mesh)
    psi = sample_cell_averages(initial.psi, mesh)
    u1 = bootstrap(u0, psi, ops)

    sup_limit = SUP_GROWTH_LIMIT * max(float(np.abs(u0).max()), np.finfo(float).tiny)
    snap_steps = sorted({int(s) for s in snapshot_steps})
    snapshots = [Snapshot(s, s * dt, u.copy()) for s, u in ((0, u0), (1, u1)) if s in snap_steps]
    rows = min(max(_BLOCK_BYTES // (8 * mesh.n_max), 3), _BLOCK_MAX_ROWS)
    block = np.zeros((rows, mesh.n_max))
    block[0], block[1] = u0, u1
    last_step = n_steps - 1  # last step with a defined energy
    log = _EnergyLog(ops, observe_every, last_step, verify_identity, block)
    first = 0  # layer index of block[0]
    divergence_step: int | None = None
    d_prev, d_next = u1 - u0, np.empty_like(u0)  # increments, swapped every step
    remaining = n_steps - 1
    while True:
        stop = min(rows, 2 + remaining)
        d_prev, d_next = ops.step_block(block, 2, stop, d_prev, d_next)
        remaining -= stop - 2
        # check, snapshot and record the new layers block[2:filled]
        filled = stop
        within = _rows_within(block[2:stop], sup_limit)
        if not within.all():
            filled = 2 + int(within.argmin())
            divergence_step = first + filled
        snapshots.extend(Snapshot(s, s * dt, block[s - first].copy())
                         for s in snap_steps if first + 2 <= s < first + filled)
        if filled > 2:
            log.record(block[:filled], first)
        if divergence_step is not None or not remaining:
            break
        block[:2] = block[-2:]
        first += rows - 2
    diverged = divergence_step is not None

    return SimulationResult(
        scheme=scheme,
        dt=dt,
        n_steps=n_steps,
        steps_completed=divergence_step - 1 if diverged else n_steps,
        diverged=diverged,
        divergence_step=divergence_step,
        u_prev=block[filled - 2].copy(),
        u_curr=block[filled - 1].copy(),
        trace=log.trace(),
        snapshots=snapshots,
        energy_initial=log.e_tot0,
        identity_residual_max=log.identity_max,
        energy_drift_max=log.drift_max,
        energy_rise_max=log.rise_max if log.verified else 0.0,
        verified_steps=log.verified,
    )
