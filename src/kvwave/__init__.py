"""Finite-volume simulation of a 1-D elastic/viscoelastic transmission wave
problem with localized Kelvin-Voigt damping, with per-step energy accounting
and decay-rate estimation.

The top level holds what a library user needs to set up, run and fit one
problem; everything else is imported from its submodule.
"""

# imported for their attributes: kvwave.cli and friends work after `import kvwave`
from . import cli, diagnostics, linalg, schemes  # noqa: F401
from .diagnostics import fit_exponential
from .mesh import Parameters, build_mesh
from .model import cfl_max_dt, default_initial_data, validate_run
from .schemes import run

__all__ = [
    "Parameters",
    "build_mesh",
    "default_initial_data",
    "run",
    "validate_run",
    "cfl_max_dt",
    "fit_exponential",
]
