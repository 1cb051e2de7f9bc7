"""Finite-volume simulation of a 1-D elastic/viscoelastic transmission wave
problem with localized Kelvin-Voigt damping, with per-step energy accounting
and decay-rate estimation."""

from .diagnostics import (
    DecayFit,
    EnergyTrace,
    fit_exponential,
    fit_polynomial,
)
from .linalg import (
    SingularMatrixError,
    TriDiagMatrix,
    assemble_damping,
    assemble_mass,
    assemble_stiffness,
)
from .mesh import FluxCoefficients, Mesh, Parameters, build_mesh, flux_coefficients
from .model import (
    Admissibility,
    InitialData,
    cfl_max_dt,
    default_initial_data,
    sample_cell_averages,
    validate_run,
)
from .schemes import (
    SchemeOperators,
    SimulationResult,
    Snapshot,
    bootstrap_explicit,
    bootstrap_implicit,
    build_operators,
    run,
)
from .cli import PRESET_NAMES, ConfigError, RunConfig, RunResult, parse_config, preset

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "ConfigError",
    "DecayFit",
    "EnergyTrace",
    "FluxCoefficients",
    "InitialData",
    "Mesh",
    "PRESET_NAMES",
    "Parameters",
    "RunConfig",
    "RunResult",
    "SchemeOperators",
    "SimulationResult",
    "SingularMatrixError",
    "Snapshot",
    "TriDiagMatrix",
    "assemble_damping",
    "assemble_mass",
    "assemble_stiffness",
    "bootstrap_explicit",
    "bootstrap_implicit",
    "build_mesh",
    "build_operators",
    "cfl_max_dt",
    "default_initial_data",
    "fit_exponential",
    "fit_polynomial",
    "flux_coefficients",
    "parse_config",
    "preset",
    "run",
    "sample_cell_averages",
    "validate_run",
]
