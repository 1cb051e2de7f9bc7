"""Discrete energies, dissipation identity and decay-rate fits.

The discrete energy at step n pairs the layers n and n+1: the kinetic part is
a forward difference in time, the potential part couples the face jumps of
both layers.  For either scheme the step-to-step energy difference equals an
explicitly computable, nonpositive dissipation increment supported on the
interior faces of the damped zone; the per-step residual of that identity is
the primary correctness diagnostic of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FluxCoefficients, Mesh, Parameters

__all__ = [
    "EnergyTrace",
    "DecayFit",
    "energy_work",
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


def energy_work(shape: tuple[int, ...], mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch arrays of layer_energies for layers of the given shape.

    They hold the time differences, the face jumps and the damped-face jump
    differences.  A caller that evaluates many blocks allocates them once;
    a block with fewer layers uses their leading rows.
    """
    *batch, m, n = shape
    faces = mesh.damping_interior_faces
    return (
        np.empty((*batch, m - 1, n)),
        np.empty((*batch, m, n + 1)),
        np.empty((*batch, m - 2, faces.stop - faces.start)),
    )


def layer_energies(
    layers: np.ndarray,
    mesh: Mesh,
    ell: FluxCoefficients,
    params: Parameters,
    dt: float,
    variant: str,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Energies and the dissipation identity for a block of consecutive layers.

    layers has shape (..., m, n_cells) holding layers k .. k+m-1 of a run,
    optionally for a batch of such blocks.  Returns (e_kinetic, e_potential,
    e_total, dissipation, residual) with the batch shape in front; the energy
    arrays have length m-1 (entry j belongs to step k+j, the layer pair
    k+j, k+j+1), the dissipation and residual arrays have length m-2 (entry j
    belongs to step k+j+1).

    The kinetic energy is half the width-weighted sum of squared forward time
    differences.  The explicit potential energy is half the flux-weighted
    cross product of the pair's face jumps (not sign-definite); the implicit
    one is a quarter of the flux-weighted squared jumps of both layers
    (nonnegative).  The dissipation is the identity's predicted energy change,
    nonpositive and +0.0 when undamped, summed over the faces strictly inside
    the damped zone; residual is (E^n - E^{n-1}) - dissipation.

    work is scratch space from energy_work for at least m layers; without it
    the call allocates its own.  Its contents on entry do not matter.

    Every entry depends only on the layers it belongs to, never on the block
    or batch they came in, so any blocking of a run gives the same bits.
    """
    if layers.ndim < 2 or layers.shape[-2] < 2:
        raise ValueError("need at least two consecutive layers")
    m = layers.shape[-2]
    if work is None:
        work = energy_work(layers.shape, mesh)
    rates, jumps, diff = (a[..., :rows, :] for a, rows in zip(work, (m - 1, m, m - 2)))
    widths = mesh.cell_widths
    coeffs = ell.ell

    # einsum reduces each row on its own; a BLAS product's rounding would
    # depend on the row's position in the block.
    np.subtract(layers[..., 1:, :], layers[..., :-1, :], out=rates)
    rates /= dt
    e_k = 0.5 * np.einsum("...ij,...ij,j->...i", rates, rates, widths)
    # jumps across all faces, with zero ghost values at both ends
    jumps[..., :-1] = layers
    jumps[..., -1] = 0.0
    jumps[..., 1:] -= layers
    if variant == "explicit":
        e_p = 0.5 * np.einsum(
            "...ij,...ij,j->...i", jumps[..., 1:, :], jumps[..., :-1, :], coeffs
        )
    elif variant == "implicit":
        sq = np.einsum("...ij,...ij,j->...i", jumps, jumps, coeffs)
        e_p = 0.25 * (sq[..., 1:] + sq[..., :-1])
    else:
        raise ValueError(f"unknown scheme variant {variant!r}")
    e_total = e_k + e_p

    faces = mesh.damping_interior_faces
    np.subtract(jumps[..., 2:, faces], jumps[..., :-2, faces], out=diff)
    diff *= diff
    dissipation = 0.0 - (params.delta / (4.0 * dt * mesh.h)) * diff.sum(axis=-1)
    residual = (e_total[..., 1:] - e_total[..., :-1]) - dissipation
    return e_k, e_p, e_total, dissipation, residual


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
