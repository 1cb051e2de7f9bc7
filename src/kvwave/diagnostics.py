"""Discrete energies, dissipation identity and decay-rate fits.

The discrete energy at step n pairs the layers n and n+1: the kinetic part is
a forward difference in time, the potential part couples the face jumps of
both layers.  For either scheme the step-to-step energy difference equals an
explicitly computable, nonpositive dissipation increment supported on the
interior faces of the damped zone; the per-step residual of that identity is
the primary correctness diagnostic of a run.  layer_energies evaluates all of
these in one call of linalg's compiled kernel; the fits run in numpy.
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

    model: str
    rate: float
    intercept: float
    t_lo: float
    t_hi: float
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

    The arithmetic runs in linalg's compiled kernel, kv_energies, in the
    order of numpy's einsum for the energies and of its pairwise sum for the
    dissipation.  Every entry depends only on the layers it belongs to,
    never on the block it came in or on the selection, so any blocking of a
    run gives the same bits.  layers must be a C-contiguous float64 array.
    """
    if layers.ndim != 2 or len(layers) < 2:
        raise ValueError("need a block of at least two consecutive layers")
    if variant not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme variant {variant!r}")
    m, n = layers.shape
    if mesh.cell_widths.shape != (n,) or ell.ell.shape != (n + 1,):
        raise ValueError(f"layers of {n} cells do not match the mesh and its flux coefficients")
    faces = mesh.damping_interior_faces
    if not 1 <= faces.start <= faces.stop <= n:
        raise ValueError("the damped zone's interior faces must lie inside the mesh")
    if selected is not None and (selected.dtype != np.bool_ or selected.shape != (m - 2,)):
        raise ValueError(f"selected must be a boolean vector of length {m - 2}")
    out = np.empty((5, m))
    linalg._call(linalg._kernel.kv_energies, m, n, layers,
                 None if selected is None else selected.tobytes(), mesh.cell_widths, ell.ell,
                 dt, variant == "implicit", faces.start, faces.stop,
                 params.delta / (4.0 * dt * mesh.h), out)
    e_k, e_p, e_total, dissipation, residual = out
    return e_k[:-1], e_p[:-1], e_total[:-1], dissipation[:-2], residual[:-2]


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
    return DecayFit("exponential", rate, intercept, float(window[0]), float(window[1]),
                    residual, len(t))


def fit_polynomial(t: np.ndarray, e: np.ndarray, window: tuple[float, float]) -> DecayFit:
    """Slope of -ln E against ln t over the window (decay rate of t^{-rate})."""
    t, e = _window_samples(t, e, window, "polynomial")
    rate, intercept, residual = _least_squares_line(np.log(t), -np.log(e))
    return DecayFit("polynomial", rate, intercept, float(window[0]), float(window[1]),
                    residual, len(t))
