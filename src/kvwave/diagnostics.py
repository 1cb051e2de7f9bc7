"""Discrete energies, dissipation identity and decay-rate fits.

The discrete energy at step n pairs the layers n and n+1: the kinetic part is
a forward difference in time, the potential part couples the face jumps of
both layers.  For either scheme the step-to-step energy difference equals an
explicitly computable, nonpositive dissipation increment supported on the
interior faces of the damped zone; the per-step residual of that identity is
the primary correctness diagnostic of a run.  energy_arguments gives the
inputs of these definitions; layer_energies evaluates them on a block of
layers through linalg.energies, and a run's step calls, through
linalg.step_block, as they write each layer, both in the same routine of
linalg's compiled kernel.  The fits run in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .mesh import FluxCoefficients, Mesh, Parameters

__all__ = [
    "EnergyTrace",
    "DecayFit",
    "layer_energies",
    "energy_arguments",
    "fit_exponential",
    "fit_polynomial",
]


@dataclass(frozen=True)
class EnergyTrace:
    """Column-wise energy history of a run, one row per recorded step."""

    step: np.ndarray
    t: np.ndarray
    e_kinetic: np.ndarray
    e_potential: np.ndarray
    e_total: np.ndarray
    dissipation: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay-rate estimate over a time window.

    For the exponential model, -ln E is regressed against t and `rate` is the
    slope; for the polynomial model, against ln t.
    """

    rate: float
    intercept: float
    residual: float
    n_samples: int


def layer_energies(
    layers: np.ndarray,
    mesh: Mesh,
    ell: FluxCoefficients,
    params: Parameters,
    dt: float,
    variant: str,
    selected: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Energies and the dissipation identity for a block of consecutive layers.

    layers has shape (m, n_cells) holding layers k .. k+m-1 of a run.
    Returns (e_kinetic, e_potential, e_total, dissipation, residual); the
    energy arrays have length m-1 (entry j belongs to step k+j, the layer
    pair k+j, k+j+1), the dissipation and residual arrays have length m-2
    (entry j belongs to step k+j+1).  selected, a boolean vector of length
    m-2 like the residual, asks for some steps only: their dissipation and
    residual and the energies of the two pairs each reads are evaluated,
    and every other entry is NaN.  Without it every entry is evaluated.

    The kinetic energy is half the width-weighted sum of squared forward time
    differences.  The explicit potential energy is half the flux-weighted
    cross product of the pair's face jumps (not sign-definite); the implicit
    one is a quarter of the flux-weighted squared jumps of both layers
    (nonnegative).  The dissipation is the identity's predicted energy change,
    nonpositive and +0.0 when undamped, summed over the faces strictly inside
    the damped zone; residual is (E^n - E^{n-1}) - dissipation.

    The arithmetic runs in linalg's compiled kernel (linalg.energies), in
    eight lanes in a fixed order (README, "Install and test").  Every entry
    depends only on the layers it belongs to, never on the block or the
    selection, so any blocking of a run gives the same bits.
    """
    if layers.ndim != 2 or len(layers) < 2:
        raise ValueError("need a block of at least two consecutive layers")
    # the kernel reads the selection's flags as bytes, so a strided one is copied
    selected = None if selected is None else np.ascontiguousarray(selected)
    e_k, e_p, e_total, dissipation, residual = linalg.energies(
        layers, selected, energy_arguments(mesh, ell, params, dt, variant))
    return e_k[:-1], e_p[:-1], e_total[:-1], dissipation[:-2], residual[:-2]


def energy_arguments(mesh: Mesh, ell: FluxCoefficients, params: Parameters, dt: float,
                     variant: str) -> tuple:
    """The energy definitions' inputs, as linalg.energies and
    linalg.step_block take them: the cell widths, the flux coefficients,
    dt, whether the scheme is implicit, the damped zone's interior faces
    and the coefficient delta / (4 dt h)."""
    if variant not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme variant {variant!r}")
    faces = mesh.damping_interior_faces
    if not 1 <= faces.start <= faces.stop <= mesh.n_max:
        raise ValueError("the damped zone's interior faces must lie inside the mesh")
    return (mesh.cell_widths, ell.ell, dt, variant == "implicit", faces.start, faces.stop,
            params.delta / (4.0 * dt * mesh.h))


def _window_samples(
    t: np.ndarray, e: np.ndarray, window: tuple[float, float], model: str
) -> tuple[np.ndarray, np.ndarray]:
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise ValueError("fit window must satisfy t_lo < t_hi")
    if model == "polynomial" and t_lo <= 0.0:
        raise ValueError("polynomial fit window must start at t > 0")
    mask = (t >= t_lo) & (t <= t_hi)
    t, e = t[mask], e[mask]
    if len(t) < 10:
        raise ValueError(f"fit window holds {len(t)} samples, need at least 10")
    if np.any(e <= 0.0):
        raise ValueError("nonpositive energy inside the fit window")
    if not (np.isfinite(t).all() and np.isfinite(e).all()):
        raise ValueError("non-finite time or energy inside the fit window")
    return t, e


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    slope = float((dx @ (y - ym)) / (dx @ dx))
    intercept = float(ym - slope * xm)
    misfit = y - (intercept + slope * x)
    return slope, intercept, float(np.sqrt(np.mean(misfit * misfit)))


def fit_exponential(t: np.ndarray, e: np.ndarray, window: tuple[float, float]) -> DecayFit:
    """Slope of -ln E against t over the window (decay rate of e^{-rate t}).

    t and e are the sample times and total energies, e.g. a trace's t and
    e_total columns.
    """
    t, e = _window_samples(t, e, window, "exponential")
    rate, intercept, residual = _least_squares_line(t, -np.log(e))
    return DecayFit(rate, intercept, residual, len(t))


def fit_polynomial(t: np.ndarray, e: np.ndarray, window: tuple[float, float]) -> DecayFit:
    """Slope of -ln E against ln t over the window (decay rate of t^{-rate})."""
    t, e = _window_samples(t, e, window, "polynomial")
    rate, intercept, residual = _least_squares_line(np.log(t), -np.log(e))
    return DecayFit(rate, intercept, residual, len(t))
