"""Time-stepping engines for the damped transmission wave problem.

Both schemes are three-layer recurrences

    L u_next = R2 u_curr - R1 u_prev

with constant matrices, so the left-hand factorization is computed once per
run.  The explicit scheme puts the flux divergence on the current layer; the
flux-averaged (semi-implicit) scheme splits it evenly between the next and
previous layers, which makes it unconditionally stable.  The first layer is
bootstrapped from the initial velocity through a fictitious layer one step
before the start, eliminated with a centered difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import diagnostics, linalg
from .mesh import FluxCoefficients, Mesh, Parameters, flux_coefficients
from .model import CellAverages, InitialData, sample_cell_averages

__all__ = [
    "DivergenceError",
    "SchemeState",
    "SchemeOperators",
    "Snapshot",
    "SimulationResult",
    "build_operators",
    "bootstrap_explicit",
    "bootstrap_implicit",
    "step_explicit",
    "step_implicit",
    "run",
]

# Abort threshold: a layer whose sup norm exceeds this multiple of the initial
# sup norm is treated as divergence (also catches non-finite values).
SUP_GROWTH_LIMIT = 1.0e6

_VERIFY_CHUNK = 1024


class DivergenceError(RuntimeError):
    """Raised when a step produces a non-finite or runaway layer."""

    def __init__(self, step: int, sup: float):
        super().__init__(f"solution diverged at step {step} (sup {sup:.3e})")
        self.step = step
        self.sup = sup


@dataclass
class SchemeState:
    """Three consecutive layers of a run.

    Boundary values are never stored; both ends are implicitly zero at every
    layer.  u_next is None until a step has been taken.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    dt: float
    u_next: np.ndarray | None = None

    def advanced(self, u_next: np.ndarray) -> "SchemeState":
        """Rotate layers after a step; arrays are rebound, never copied."""
        return SchemeState(
            u_prev=self.u_curr,
            u_curr=u_next,
            step_index=self.step_index + 1,
            dt=self.dt,
        )


@dataclass(frozen=True)
class SchemeOperators:
    """Constant matrices of one scheme at one time step, factored once.

    rhs_curr and rhs_prev multiply the current and previous layers of the
    recurrence; lhs is the matrix applied to the next layer.  For the
    explicit scheme the bootstrap system is diagonal (twice the mass), for
    the flux-averaged scheme it is boot_lhs.  Both right-hand matrices are
    also held in linalg's band storage, which the stepping products use.
    """

    scheme: str
    dt: float
    mesh: Mesh
    params: Parameters
    ell: FluxCoefficients
    mass: linalg.TriDiagMatrix
    damping: linalg.TriDiagMatrix
    stiffness: linalg.TriDiagMatrix
    lhs: linalg.TriDiagMatrix
    rhs_curr: linalg.TriDiagMatrix
    rhs_prev: linalg.TriDiagMatrix
    lhs_factor: linalg.TriDiagFactorization
    boot_lhs: linalg.TriDiagMatrix | None
    boot_factor: linalg.TriDiagFactorization | None
    _rhs_curr_band: np.ndarray = field(repr=False)
    _rhs_prev_band: np.ndarray = field(repr=False)

    def advance(self, u_prev: np.ndarray, u_curr: np.ndarray) -> np.ndarray:
        """One recurrence step: solve lhs @ u_next = rhs_curr u_curr - rhs_prev u_prev."""
        rhs = linalg.band_sum(self._rhs_curr_band, u_curr, -1.0, self._rhs_prev_band, u_prev)
        return linalg.solve(self.lhs_factor, rhs)


def build_operators(
    mesh: Mesh, params: Parameters, dt: float, scheme: str
) -> SchemeOperators:
    """Assemble and factor the matrices of the requested scheme."""
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
        boot_lhs = None
        boot_factor = None
    else:
        # The averaged fluxes put half the (negative-diagonal) stiffness on
        # each outer layer, so it enters both side matrices with a minus sign
        # and the left-hand matrix is strictly diagonally dominant for any dt.
        half_stiff = stiffness.scaled(0.5 * dt * dt)
        lhs = mass - half_stiff + damping_scaled
        rhs_curr = mass.scaled(2.0)
        rhs_prev = mass - half_stiff - damping_scaled
        boot_lhs = mass.scaled(2.0) - stiffness.scaled(dt * dt)
        boot_factor = linalg.factor(boot_lhs)

    return SchemeOperators(
        scheme=scheme,
        dt=dt,
        mesh=mesh,
        params=params,
        ell=ell,
        mass=mass,
        damping=damping,
        stiffness=stiffness,
        lhs=lhs,
        rhs_curr=rhs_curr,
        rhs_prev=rhs_prev,
        lhs_factor=linalg.factor(lhs),
        boot_lhs=boot_lhs,
        boot_factor=boot_factor,
        _rhs_curr_band=linalg.band_storage(rhs_curr),
        _rhs_prev_band=linalg.band_storage(rhs_prev),
    )


def _as_values(v: CellAverages | np.ndarray) -> np.ndarray:
    return v.values if isinstance(v, CellAverages) else np.asarray(v, dtype=float)


def bootstrap_explicit(
    u0: CellAverages | np.ndarray,
    psi: CellAverages | np.ndarray,
    ops: SchemeOperators,
) -> np.ndarray:
    """First layer of the explicit scheme.

    Solves 2 M u1 = (2M + dt^2 B) u0 + 2 dt (M - s A) psi; the left side is
    diagonal, so this is a componentwise division.
    """
    if ops.scheme != "explicit":
        raise ValueError("operators were built for the implicit scheme")
    u0v, psiv = _as_values(u0), _as_values(psi)
    rhs = linalg.band_sum(ops._rhs_curr_band, u0v, 2.0 * ops.dt, ops._rhs_prev_band, psiv)
    return rhs / (2.0 * ops.mass.diag)


def bootstrap_implicit(
    u0: CellAverages | np.ndarray,
    psi: CellAverages | np.ndarray,
    ops: SchemeOperators,
) -> np.ndarray:
    """First layer of the flux-averaged scheme.

    Solves boot_lhs u1 = 2 M u0 + 2 dt rhs_prev psi; in this scheme rhs_curr
    is 2 M, so the right-hand side has the explicit bootstrap's form.
    """
    if ops.scheme != "implicit":
        raise ValueError("operators were built for the explicit scheme")
    u0v, psiv = _as_values(u0), _as_values(psi)
    rhs = linalg.band_sum(ops._rhs_curr_band, u0v, 2.0 * ops.dt, ops._rhs_prev_band, psiv)
    assert ops.boot_factor is not None
    return linalg.solve(ops.boot_factor, rhs)


def _step(state: SchemeState, ops: SchemeOperators, sup_limit: float | None) -> np.ndarray:
    u_next = ops.advance(state.u_prev, state.u_curr)
    sup = float(np.abs(u_next).max())
    limit = sup_limit if sup_limit is not None else math.inf
    if not sup <= limit:  # also catches NaN
        raise DivergenceError(state.step_index + 1, sup)
    return u_next


def step_explicit(
    state: SchemeState, ops: SchemeOperators, sup_limit: float | None = None
) -> np.ndarray:
    """Advance the explicit scheme by one step and return the new layer."""
    if ops.scheme != "explicit":
        raise ValueError("operators were built for the implicit scheme")
    return _step(state, ops, sup_limit)


def step_implicit(
    state: SchemeState, ops: SchemeOperators, sup_limit: float | None = None
) -> np.ndarray:
    """Advance the flux-averaged scheme by one step and return the new layer."""
    if ops.scheme != "implicit":
        raise ValueError("operators were built for the explicit scheme")
    return _step(state, ops, sup_limit)


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


class _TraceBuilder:
    def __init__(self, variant: str):
        self.variant = variant
        self.rows: list[tuple[int, float, float, float, float, float, float]] = []

    def add(self, step, t, e_k, e_p, e_tot, diss, res):
        self.rows.append((step, t, e_k, e_p, e_tot, diss, res))

    def build(self) -> diagnostics.EnergyTrace:
        if self.rows:
            cols = list(zip(*self.rows))
        else:
            cols = [[]] * 7
        return diagnostics.EnergyTrace(
            variant=self.variant,
            step=np.asarray(cols[0], dtype=int),
            t=np.asarray(cols[1], dtype=float),
            e_kinetic=np.asarray(cols[2], dtype=float),
            e_potential=np.asarray(cols[3], dtype=float),
            e_total=np.asarray(cols[4], dtype=float),
            dissipation=np.asarray(cols[5], dtype=float),
            residual=np.asarray(cols[6], dtype=float),
        )


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
    observers: Sequence[Callable[[int, np.ndarray], None]] = (),
) -> SimulationResult:
    """Run the chosen scheme for n_steps steps from the given initial data.

    The run produces layers 0 .. n_steps (bootstrap plus n_steps - 1
    recurrence steps).  Energies are recorded every observe_every steps plus
    the final step; with verify_identity the energy identity is evaluated at
    every step (in vectorized blocks) and only its extremes are kept.
    Divergence aborts the run but preserves everything recorded so far.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    ops = build_operators(mesh, params, dt, scheme)
    u0 = sample_cell_averages(initial.phi, mesh).values
    psi = sample_cell_averages(initial.psi, mesh).values
    if scheme == "explicit":
        u1 = bootstrap_explicit(u0, psi, ops)
    else:
        u1 = bootstrap_implicit(u0, psi, ops)

    sup_limit = SUP_GROWTH_LIMIT * max(float(np.abs(u0).max()), np.finfo(float).tiny)
    snap_set = frozenset(int(s) for s in snapshot_steps)
    trace = _TraceBuilder(scheme)
    snapshots: list[Snapshot] = []
    e_k0, e_p0, e_tot0 = diagnostics.total_energy(u0, u1, mesh, ops.ell, dt, scheme)
    trace.add(0, 0.0, e_k0, e_p0, e_tot0, 0.0, 0.0)

    stats = {"identity_max": 0.0, "drift_max": 0.0, "rise_max": -math.inf, "verified": 0}
    last_index = n_steps - 1  # last step with a defined energy

    def note_snapshot(step: int, layer: np.ndarray) -> None:
        if step in snap_set:
            snapshots.append(Snapshot(step=step, t=step * dt, values=layer.copy()))

    note_snapshot(0, u0)
    note_snapshot(1, u1)
    for obs in observers:
        obs(0, u0.copy())

    diverged = False
    divergence_step: int | None = None
    state_prev, state_curr = u0, u1

    if verify_identity:
        buf = np.empty((_VERIFY_CHUNK + 2, mesh.n_max))
        buf[0], buf[1] = u0, u1
        filled = 2
        base = 0  # layer index of buf[0]

        def flush(final: bool) -> None:
            nonlocal filled, base
            if filled < 2:
                return
            e_k, e_p, e_tot, diss, res = diagnostics.layer_energies(
                buf[:filled], mesh, ops.ell, params, dt, scheme
            )
            emit_from = 0 if base == 0 else 1  # energies before that were emitted already
            if len(res):
                stats["identity_max"] = max(stats["identity_max"], float(np.abs(res).max()))
                jumps = e_tot[1:] - e_tot[:-1]
                stats["rise_max"] = max(stats["rise_max"], float(jumps.max()))
                stats["verified"] += len(res)
            span = e_tot[emit_from:]
            if len(span):
                stats["drift_max"] = max(stats["drift_max"], float(np.abs(span - e_tot0).max()))
            for j in range(emit_from, filled - 1):
                n = base + j
                if n == 0:
                    continue  # recorded right after the bootstrap
                if n % observe_every == 0 or (final and n == last_index):
                    trace.add(
                        n, n * dt, float(e_k[j]), float(e_p[j]), float(e_tot[j]),
                        float(diss[j - 1]) if j >= 1 else 0.0,
                        float(res[j - 1]) if j >= 1 else 0.0,
                    )
            base = base + filled - 2
            buf[0], buf[1] = buf[filled - 2], buf[filled - 1]
            filled = 2

        advance = ops.advance
        try:
            for n in range(1, n_steps):
                u_next = advance(state_prev, state_curr)
                sup = float(np.abs(u_next).max())
                if not sup <= sup_limit:
                    raise DivergenceError(n + 1, sup)
                buf[filled] = u_next
                filled += 1
                if filled == _VERIFY_CHUNK + 2:
                    flush(final=False)
                state_prev, state_curr = state_curr, u_next
                note_snapshot(n + 1, u_next)
                if observers and (n + 1) % observe_every == 0:
                    for obs in observers:
                        obs(n + 1, u_next.copy())
        except DivergenceError as err:
            diverged = True
            divergence_step = err.step
        flush(final=not diverged)
    else:
        advance = ops.advance
        try:
            for n in range(1, n_steps):
                u_next = advance(state_prev, state_curr)
                sup = float(np.abs(u_next).max())
                if not sup <= sup_limit:
                    raise DivergenceError(n + 1, sup)
                if n % observe_every == 0 or n == last_index:
                    e_k, e_p, e_tot = diagnostics.total_energy(
                        state_curr, u_next, mesh, ops.ell, dt, scheme
                    )
                    _, _, e_tot_prev = diagnostics.total_energy(
                        state_prev, state_curr, mesh, ops.ell, dt, scheme
                    )
                    diss = diagnostics.dissipation_increment(state_prev, u_next, mesh, params, dt)
                    res = (e_tot - e_tot_prev) - diss
                    trace.add(n, n * dt, e_k, e_p, e_tot, diss, res)
                    stats["identity_max"] = max(stats["identity_max"], abs(res))
                    stats["drift_max"] = max(stats["drift_max"], abs(e_tot - e_tot0))
                    stats["rise_max"] = max(stats["rise_max"], e_tot - e_tot_prev)
                    stats["verified"] += 1
                state_prev, state_curr = state_curr, u_next
                note_snapshot(n + 1, u_next)
                if observers and (n + 1) % observe_every == 0:
                    for obs in observers:
                        obs(n + 1, u_next.copy())
        except DivergenceError as err:
            diverged = True
            divergence_step = err.step

    return SimulationResult(
        scheme=scheme,
        dt=dt,
        n_steps=n_steps,
        steps_completed=int(divergence_step - 1) if diverged else n_steps,
        diverged=diverged,
        divergence_step=divergence_step,
        u_prev=state_prev,
        u_curr=state_curr,
        trace=trace.build(),
        snapshots=snapshots,
        energy_initial=e_tot0,
        identity_residual_max=stats["identity_max"],
        energy_drift_max=stats["drift_max"],
        energy_rise_max=stats["rise_max"] if stats["verified"] else 0.0,
        verified_steps=stats["verified"],
    )
