"""Initial data sampling and time-step admissibility.

Initial profiles are pointwise-evaluable scalar fields on [0, L].  They are
projected onto the mesh as cell averages with a per-cell Simpson rule, which
is exact (to round-off) for polynomials up to degree three and therefore for
the parabolic profiles used by the bundled experiment presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh, Parameters

__all__ = [
    "ConfigError",
    "InitialData",
    "Admissibility",
    "default_initial_data",
    "sample_cell_averages",
    "cfl_max_dt",
    "validate_run",
]

ScalarField = Callable[[np.ndarray], np.ndarray]


class ConfigError(ValueError):
    """A run that cannot be set up: an invalid configuration or command line,
    an input file that is not text in the locale's encoding, or a problem
    whose mesh, step count, initial data or operators cannot be built in
    floating point or in the memory available."""


@dataclass(frozen=True)
class InitialData:
    """Displacement profile phi and velocity profile psi on [0, length].

    phi must vanish at both endpoints to be compatible with the homogeneous
    Dirichlet boundary condition.
    """

    phi: ScalarField
    psi: ScalarField
    length: float

    def __post_init__(self) -> None:
        ends = np.array([0.0, self.length])
        vals = _evaluate(self.phi, ends)
        scale = 1.0 + abs(float(_evaluate(self.phi, np.array([self.length / 2.0]))[0]))
        if np.max(np.abs(vals)) > 1e-9 * scale:
            raise ValueError("displacement profile must vanish at x = 0 and x = length")


@dataclass(frozen=True)
class Admissibility:
    """Verdict of the time-step check for one scheme.

    For the explicit scheme `stable` is the hard stability condition
    dt <= dt_bound.  The flux-averaged scheme is unconditionally stable, so
    it is always admissible, but `accuracy_warning` is set when dt exceeds
    the explicit bound.
    """

    scheme: str
    dt: float
    dt_bound: float
    stable: bool
    accuracy_warning: bool = False


def default_initial_data(length: float) -> InitialData:
    """Parabolic arch displacement with unit peak and the opposite velocity.

    This is the initial state used by all bundled presets.
    """
    scale = 4.0 / length**2

    def arch(x: np.ndarray) -> np.ndarray:
        return scale * x * (length - x)

    def neg_arch(x: np.ndarray) -> np.ndarray:
        return -scale * x * (length - x)

    return InitialData(phi=arch, psi=neg_arch, length=length)


def _evaluate(profile: ScalarField, x: np.ndarray) -> np.ndarray:
    """Evaluate a scalar field on an array, falling back to pointwise calls."""
    try:
        out = np.asarray(profile(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(profile(xi)) for xi in x])


def sample_cell_averages(profile: ScalarField, mesh: Mesh) -> np.ndarray:
    """Cell averages of a profile, per-cell Simpson rule (3 nodes per cell).

    Returns a read-only array, cell order left to right.
    """
    at_faces = _evaluate(profile, mesh.faces)
    at_centers = _evaluate(profile, mesh.centers)
    values = (at_faces[:-1] + 4.0 * at_centers + at_faces[1:]) / 6.0
    if not np.all(np.isfinite(values)):
        raise ValueError("profile produced non-finite values on the mesh")
    values.setflags(write=False)
    return values


def cfl_max_dt(params: Parameters, mesh: Mesh) -> float:
    """Largest explicit-scheme time step: (smallest cell) / (fastest speed).

    Zones are uniform, so the smallest cell width equals the smallest nominal
    zone width; using the nominal value keeps the bound free of the last-ulp
    jitter of the assembled face coordinates.
    """
    dx = min(mesh.h_alpha, mesh.h, mesh.h_beta)
    c_max = max(params.zone_speeds_sq) ** 0.5
    return dx / c_max


def validate_run(params: Parameters, mesh: Mesh, dt: float, scheme: str) -> Admissibility:
    """Check a proposed time step against the explicit stability bound."""
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    bound = cfl_max_dt(params, mesh)
    if scheme == "explicit":
        return Admissibility(scheme=scheme, dt=dt, dt_bound=bound, stable=dt <= bound)
    return Admissibility(
        scheme=scheme,
        dt=dt,
        dt_bound=bound,
        stable=True,
        accuracy_warning=dt > bound,
    )
