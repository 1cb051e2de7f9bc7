"""Spectral decay-rate oracle for the three-layer recurrences.

Both schemes advance L u_next = R2 u_curr - R1 u_prev with constant
matrices, so one step maps the pair (u_curr, u_prev) to (u_next, u_curr)
through the 2n x 2n companion matrix

    T = [[L^-1 R2, -L^-1 R1],
         [I,        0      ]].

A mode with eigenvalue z scales by |z| per step, so its energy (a quadratic
form of two consecutive layers) decays at the rate -2 ln|z| / dt.  These
rates come from the operator alone, independently of the time loop, the
initial data and the fit window.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from kvwave.cli import preset, resolve_time_step
from kvwave.mesh import Mesh, Parameters, build_mesh
from kvwave.schemes import build_operators
from oracles import left_matrices, to_dense

# Eigenvalue moduli are trusted to a thousand ulps; as a rate that is
# 2e3 eps / dt.
ROUND_OFF_ULPS = 1.0e3

# Sorted rates split into clusters wherever one exceeds this multiple of the
# rate before it.
CLUSTER_GAP = 2.0


def companion_matrix(mesh: Mesh, params: Parameters, dt: float, scheme: str) -> np.ndarray:
    """Dense one-step matrix acting on the stacked pair (u_curr, u_prev), of
    the operators that build_operators forms from the same arguments."""
    ops = build_operators(mesh, params, dt, scheme)
    lhs = to_dense(left_matrices(mesh, params, dt, scheme)[0])
    n = lhs.shape[0]
    t = np.zeros((2 * n, 2 * n))
    t[:n, :n] = np.linalg.solve(lhs, to_dense(ops.rhs_curr))
    t[:n, n:] = -np.linalg.solve(lhs, to_dense(ops.rhs_prev))
    t[n:, :n] = np.eye(n)
    return t


def decay_rates(mesh: Mesh, params: Parameters, dt: float, scheme: str) -> np.ndarray:
    """Energy decay rates -2 ln|z| / dt of every eigenvalue z, ascending."""
    moduli = np.abs(np.linalg.eigvals(companion_matrix(mesh, params, dt, scheme)))
    return np.sort(-2.0 * np.log(moduli) / dt)


def round_off_rate(dt: float) -> float:
    """Rate magnitude below which a computed rate is zero to round-off."""
    return 2.0 * ROUND_OFF_ULPS * float(np.finfo(float).eps) / dt


def next_cluster_rate(rates: np.ndarray) -> float:
    """Smallest rate of the second-slowest cluster of an ascending array."""
    jumps = np.flatnonzero(rates[1:] > CLUSTER_GAP * rates[:-1])
    return float(rates[jumps[0] + 1])


def preset_setup(name: str, scheme: str = "explicit") -> tuple[Mesh, Parameters, float, str]:
    """The mesh, parameters, time step and scheme of a run of the named
    preset: the arguments of build_operators, companion_matrix and
    decay_rates."""
    cfg = preset(name)
    params = Parameters(**{f.name: getattr(cfg, f.name) for f in fields(Parameters)})
    mesh = build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)
    dt, _ = resolve_time_step(cfg, params, mesh)
    return mesh, params, dt, scheme
