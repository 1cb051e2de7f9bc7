"""Discrete energies, dissipation identity and decay-rate fits.

The discrete energy at step n pairs the layers n and n+1: the kinetic part is
a forward difference in time, the potential part couples the face jumps of
both layers.  For either scheme the step-to-step energy difference equals an
explicitly computable, nonpositive dissipation increment supported on the
interior faces of the damped zone; the per-step residual of that identity is
the primary correctness diagnostic of a run.  schemes.build_operators forms
the inputs of these definitions, and linalg.step_block evaluates them in
linalg's compiled kernel as a run's step calls write each layer: the
steps the run keeps, or with verification every step, from its first
pair on.  The kernel writes the kept steps' rows and the run's maxima;
this module holds the trace that schemes.run forms of those rows, and the
decay-rate fits, which run in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnergyTrace",
    "DecayFit",
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
