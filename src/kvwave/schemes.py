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

The bootstrap's increment d_0, into layer 1, is the difference u_1 - u_0
of its two rounded layers; every later increment is solved for, never
formed as such a difference, which keeps the per-step energy identity at
round-off whatever the cell count.  L is positive definite, so it is
factored once per run as L D L^T.  build_operators returns what the kernel
reads in one SchemeOperators: the matrices, each a linalg.TriDiagMatrix,
the factors of L and of the bootstrap's matrix, and the inputs of the
energies.  The steps up to a snapshot or the last step run in one
linalg.step_block call of the compiled kernel, which reads those matrices
as they are, carries the increment in one (2, n) array, writes each layer
into a ring of three rows, checks it for divergence and, while it is in
cache, evaluates the energies of the step it closes if the run keeps or
verifies that step, into the run's energy trace and maxima; its bits do
not depend on the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import diagnostics, linalg
from .mesh import Mesh, Parameters, flux_coefficients
from .model import InitialData, sample_cell_averages, set_up

__all__ = [
    "SUP_GROWTH_LIMIT",
    "SchemeOperators",
    "SimulationResult",
    "build_operators",
    "bootstrap",
    "run",
]

# Divergence threshold: a layer whose sup norm exceeds this multiple of the
# initial sup norm ends the run (also catches non-finite values).
SUP_GROWTH_LIMIT = 1.0e6

@dataclass(frozen=True)
class SchemeOperators:
    """What the kernel reads of one scheme at one time step: its tridiagonal
    matrices, the factors that stepping and bootstrap solve with, and the
    inputs of the energies.

    rhs_curr and rhs_prev are R2 and R1 of the recurrence, and stiff is
    dt^2 S, which every step multiplies.  lhs_factor and boot_factor hold
    the L D L^T factors of L and of the bootstrap's matrix, 2 M for the
    explicit scheme and 2 M - dt^2 S for the flux-averaged one, not kept
    themselves.  Both are positive definite: M > 0, the damping is positive
    semidefinite and the stiffness negative semidefinite.

    energy_args are the inputs of the energy definitions, as
    linalg.step_block takes them: the cell widths, the flux coefficients,
    dt, whether the scheme is implicit, the start and stop of the damped
    zone's interior faces (mesh.damping_interior_faces) and the coefficient
    delta / (4 dt h).  The kinetic energy of a layer pair is half the
    width-weighted sum of squared forward time differences.  The explicit
    potential energy is half the flux-weighted cross product of the pair's
    face jumps (not sign-definite); the implicit one is a quarter of the
    flux-weighted squared jumps of both layers (nonnegative).  The
    dissipation of a step is the identity's predicted energy change,
    nonpositive and +0.0 when undamped, summed over the damped zone's
    interior faces; its residual is (E^n - E^{n-1}) - dissipation.
    """

    dt: float
    rhs_curr: linalg.TriDiagMatrix
    rhs_prev: linalg.TriDiagMatrix
    stiff: linalg.TriDiagMatrix
    lhs_factor: linalg.LDLFactorization
    boot_factor: linalg.LDLFactorization
    energy_args: tuple


def build_operators(
    mesh: Mesh, params: Parameters, dt: float, scheme: str
) -> SchemeOperators:
    """Assemble the matrices of the requested scheme, factor them and form
    the energies' inputs: the one place where the damped zone and delta
    become kernel inputs."""
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    faces = mesh.damping_interior_faces
    if not 1 <= faces.start <= faces.stop <= mesh.n_max:  # the kernel indexes with them
        raise ValueError("the damped zone's interior faces must lie inside the mesh")
    ell = flux_coefficients(mesh, params)
    mass = linalg.assemble_mass(mesh)
    # scaled as assembled, so that no unscaled copy lives on into the factoring
    stiff = linalg.assemble_stiffness(ell).scaled(dt * dt)
    damping_scaled = linalg.assemble_damping(mesh).scaled(params.delta * dt / mesh.h)
    energy_args = (mesh.cell_widths, ell.ell, dt, scheme == "implicit", faces.start, faces.stop,
                   params.delta / (4.0 * dt * mesh.h))
    if scheme == "explicit":
        lhs = mass + damping_scaled
        rhs_curr = mass.scaled(2.0) + stiff
        rhs_prev = mass - damping_scaled
        boot_lhs = mass.scaled(2.0)
    else:
        # The averaged fluxes put half the (negative-diagonal) stiffness on
        # each outer layer, so it enters both side matrices with a minus sign
        # and the left-hand matrix is strictly diagonally dominant for any dt.
        half_stiff = linalg.assemble_stiffness(ell).scaled(0.5 * dt * dt)
        lhs = mass - half_stiff + damping_scaled
        rhs_curr = mass.scaled(2.0)
        rhs_prev = mass - half_stiff - damping_scaled
        boot_lhs = mass.scaled(2.0) - stiff
    return SchemeOperators(
        dt=dt,
        rhs_curr=rhs_curr,
        rhs_prev=rhs_prev,
        stiff=stiff,
        lhs_factor=linalg.factor(lhs),
        boot_factor=linalg.factor(boot_lhs),
        energy_args=energy_args,
    )


def bootstrap(u0: np.ndarray, psi: np.ndarray, ops: SchemeOperators) -> np.ndarray:
    """First layer of either scheme: solves B u1 = R2 u0 + R1 (2 dt psi).

    That is one block step from u0 with the factors of B, the bootstrap's
    matrix, R2 in place of dt^2 S and 2 dt psi as the previous increment,
    in row 0 of the increments, where the step leaves its own increment,
    u1, copied out.  The row the step writes, u0 + u1, is scratch and
    discarded, and so is its check against an infinite limit.
    """
    incr = np.stack((2.0 * ops.dt * psi, psi))  # row 1 is scratch
    linalg.step_block(np.stack((u0, u0)), 1, 2, ops.rhs_curr, ops.rhs_prev, ops.boot_factor,
                      incr, math.inf)
    return incr[0].copy()


@dataclass(frozen=True)
class Snapshot:
    step: int
    values: np.ndarray


@dataclass
class SimulationResult:
    """Outcome of a run: final layers, energy trace and verification maxima.

    Statistics cover every step at which energies were computed: all of them
    when verify_identity is on, otherwise the recorded ones.
    """

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
    recurrence steps).  Each linalg.step_block call steps the layers up to
    the next snapshot step or the last step through a ring of three rows,
    checking each layer for divergence and evaluating its step's energies
    as it writes it; the first call, from layer 2, makes even when it steps
    no layer the trace's row 0, from layers 0 and 1.  Energies are recorded
    every observe_every steps plus the final step; with verify_identity the
    energy identity is evaluated at every step and only its extremes are
    kept.  Either way the recorded rows are the same bits.  The kernel
    writes the recorded rows into one trace and the extremes into three
    maxima, so only those cross into Python.  A layer whose sup norm
    exceeds SUP_GROWTH_LIMIT times the initial one, or that holds a NaN,
    ends the run: the kernel steps no layer past it, and the run reports
    exactly what a run stopped just before that layer would.  Operators,
    initial layers or an energy trace that cannot be formed raise
    ConfigError, naming which, before the first step.
    """
    if not 1 <= n_steps < linalg.INDEX_MAX:
        raise ValueError(f"n_steps must lie in 1 .. {linalg.INDEX_MAX - 1}, the step counts "
                         f"whose last layer the kernel can index")
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    last_step = n_steps - 1  # last step with a defined energy
    every = min(observe_every, n_steps)  # keeps the same steps: 0 and the last beyond it

    name = f"the {scheme} run at dt = {dt:.6g}"
    ops = set_up(f"{name}: the operators", build_operators, mesh, params, dt, scheme)
    u0, psi = (set_up(f"{name}: the initial layers", sample_cell_averages, f, mesh)
               for f in (initial.phi, initial.psi))
    trace = set_up(f"{name}: the energy trace", np.empty, (-(-last_step // every) + 1, 5))
    maxima = np.array([0.0, 0.0, -math.inf])  # identity residual, drift, rise
    energies = (every, last_step, verify_identity, trace, maxima, ops.energy_args)
    u1 = bootstrap(u0, psi, ops)
    ring = np.zeros((3, mesh.n_max))  # layer i in row i % 3
    ring[0], ring[1] = u0, u1
    incr = np.stack((u1 - u0, u0))  # the increment into layer 1; row 1 is scratch

    sup_limit = SUP_GROWTH_LIMIT * max(float(np.abs(u0).max()), np.finfo(float).tiny)
    snap_steps = {int(s) for s in snapshot_steps}
    snapshots = [Snapshot(s, u.copy()) for s, u in ((0, u0), (1, u1)) if s in snap_steps]
    divergence_step: int | None = None
    filled = 2  # layers 0 .. filled-1 are stepped and within the limit
    while divergence_step is None:
        # a call ends at a snapshot step, whose layer the next call overwrites
        stop = min((s + 1 for s in snap_steps if filled <= s < n_steps), default=n_steps + 1)
        end = linalg.step_block(ring, filled, stop, ops.stiff, ops.rhs_prev, ops.lhs_factor, incr,
                                sup_limit, energies)
        if end < stop:
            divergence_step = end
        elif filled < stop and stop - 1 in snap_steps:
            snapshots.append(Snapshot(stop - 1, ring[(stop - 1) % 3].copy()))
        filled = end
        if filled > n_steps:
            break
    diverged = divergence_step is not None
    evaluated = filled - 2  # the last step whose layers passed
    rows = evaluated // every + 1 if diverged else len(trace)
    step = np.minimum(np.arange(rows) * every, last_step)
    verified = evaluated if verify_identity else rows - 1

    return SimulationResult(
        steps_completed=divergence_step - 1 if diverged else n_steps,
        diverged=diverged,
        divergence_step=divergence_step,
        u_prev=ring[(filled - 2) % 3].copy(),
        u_curr=ring[(filled - 1) % 3].copy(),
        trace=diagnostics.EnergyTrace(step, step * dt, *trace[:rows].T),
        snapshots=snapshots,
        energy_initial=float(trace[0, 2]),
        identity_residual_max=float(maxima[0]),
        energy_drift_max=float(maxima[1]),
        energy_rise_max=float(maxima[2]) if verified else 0.0,
        verified_steps=verified,
    )
