"""The package's top level is what README "Library use" shows and what the
benchmark and tools call there; everything else lives in its submodule."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvwave

TOP_LEVEL = [
    "Parameters", "build_mesh", "default_initial_data", "run", "validate_run", "cfl_max_dt",
    "fit_exponential",
]
SUBMODULES = ["cli", "diagnostics", "linalg", "mesh", "model", "schemes"]


def test_top_level_names_are_the_documented_seven():
    assert sorted(kvwave.__all__) == sorted(TOP_LEVEL)
    for name in TOP_LEVEL:
        assert callable(getattr(kvwave, name)), name


def test_bare_import_binds_the_submodules_the_benchmark_reads():
    # perfbench reads kvwave.cli after a bare `import kvwave`, and its tracer
    # wraps functions in kvwave.cli, .schemes, .linalg and .diagnostics
    src = str(Path(kvwave.__file__).resolve().parents[1])
    code = (
        "import types, kvwave\n"
        "for name in ('cli', 'schemes', 'linalg', 'diagnostics'):\n"
        "    assert isinstance(getattr(kvwave, name), types.ModuleType), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"kvwave.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing and len(set(mod.__all__)) == len(mod.__all__)
