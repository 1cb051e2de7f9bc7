"""The compiled kernel: built once into the package's __pycache__, loaded from
there by later processes with no compiler, safe to build from two processes
at once, the only numerical dependency besides numpy, free of the C
library's locale-dependent formatting and parsing, exporting only the
entry points the package binds, giving the same bits whatever flags it is
built with, and reading and writing only within its arrays."""

import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvwave
from kvwave import diagnostics, linalg, schemes
from kvwave.mesh import Parameters, build_mesh
from kvwave.model import cfl_max_dt, default_initial_data, sample_cell_averages
from oracles import step_energies

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
from output_digests import build_kernel  # noqa: E402

PACKAGE = Path(kvwave.__file__).resolve().parent
# prints the library that was loaded
IMPORT = "import kvwave; print(kvwave.linalg._kernel._name)"


def fresh_copy(tmp_path: Path) -> Path:
    """A copy of the package with no built kernel; returns its parent directory."""
    shutil.copytree(PACKAGE, tmp_path / "kvwave", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def environment(src: Path, **env: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), **env)


def run_import(src: Path, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", IMPORT], env=environment(src, **env),
                          capture_output=True, text=True, timeout=120)


def built(src: Path) -> list[str]:
    return sorted(p.name for p in (src / "kvwave" / "__pycache__").glob("kernel*"))


def test_import_loads_no_scipy():
    code = "import sys, kvwave; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=environment(PACKAGE.parent),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cached_kernel_loads_without_a_compiler(tmp_path):
    src = fresh_copy(tmp_path)
    first = run_import(src)
    assert first.returncode == 0, first.stderr
    assert Path(first.stdout.strip()).parent == src / "kvwave" / "__pycache__"
    second = run_import(src, PATH="")
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert len(built(src)) == 1


def test_no_compiler_and_no_cache_is_one_import_error(tmp_path):
    proc = run_import(fresh_copy(tmp_path), PATH="")
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1].startswith(
        "ImportError: kvwave needs a C compiler (cc) to build")
    assert built(tmp_path) == []


def test_concurrent_first_imports_both_succeed(tmp_path):
    src = fresh_copy(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", IMPORT], env=environment(src),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    results = [proc.communicate(timeout=120) + (proc.returncode,) for proc in procs]
    for stdout, stderr, code in results:
        assert code == 0, stderr
    assert results[0][0] == results[1][0]
    assert len(built(src)) == 1  # one library, no temporary file left behind


def test_rebuild_removes_stale_libraries(tmp_path):
    src = fresh_copy(tmp_path)
    first = run_import(src)
    assert first.returncode == 0, first.stderr
    with open(src / "kvwave" / "kernel.c", "a") as source:
        source.write("/* edited */\n")
    second = run_import(src)
    assert second.returncode == 0, second.stderr
    assert second.stdout != first.stdout
    assert built(src) == [Path(second.stdout.strip()).name]


def test_kernel_imports_no_locale_dependent_function():
    # The CSV text must not depend on LC_NUMERIC or on the C library, so the
    # library may import no printf-family, locale or strtod function.  A
    # comma-decimal locale is not needed to check this, nor always installed.
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm (binutils) is not installed: cannot list the kernel's imports")
    proc = subprocess.run([nm, "-D", "--undefined-only", kvwave.linalg._kernel._name],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [line.split()[-1] for line in proc.stdout.splitlines() if line.strip()]
    forbidden = re.compile(r"printf|setlocale|localeconv|strtod")
    assert [name for name in imported if forbidden.search(name)] == []


def test_kernel_exports_exactly_the_entry_points_the_package_binds():
    # An entry point that nothing binds is dead code in the library.
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm (binutils) is not installed: cannot list the kernel's exports")
    proc = subprocess.run([nm, "-D", "--defined-only", kvwave.linalg._kernel._name],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    defined = {line.split()[-1] for line in proc.stdout.splitlines() if line.strip()}
    # ctypes keeps each function it has looked up as an attribute of the library
    bound = {name for name in vars(kvwave.linalg._kernel) if name.startswith("kv_")}
    assert {name for name in defined if name.startswith("kv_")} == bound


def test_package_binds_the_factor_the_step_and_the_formatter():
    # every energy, a run's first pair included, is evaluated by the step
    # call, so the package binds three entry points; build_operators forms
    # the energies' inputs, and diagnostics exports the trace and the fits
    bound = {name for name in vars(kvwave.linalg._kernel) if name.startswith("kv_")}
    assert bound == {"kv_factor", "kv_step_block", "kv_format_csv"}
    assert sorted(diagnostics.__all__) == ["DecayFit", "EnergyTrace", "fit_exponential",
                                           "fit_polynomial"]


# Doubles whose text depends on every branch of the formatter: signed
# zeros, the smallest subnormal, the largest double, infinities and NaN,
# exact ties of '%.17g' (18 significant digits ending in 5), positional and
# with an exponent, each rounded half to even, and the first values written
# with an exponent, 1e17 and 1e-5
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max, np.inf,
                -np.inf, np.nan, 1234567890123456.25, 1234567890123456.75, 123456789012345.125,
                2.0**-25, -(2.0**-25) * 3, 1e17, 1e-5]
# A field of the widest text, 24 bytes, and the field whose fixed-length
# copies reach furthest past its start, 34 bytes: tables of the first that
# end in the second write furthest into the scratch after the output bound
WIDEST_FIELD, FURTHEST_FIELD = -1.2345678901234567e-308, -1234567890123456.7


def block_outputs() -> list[bytes]:
    """The bits of a block step of each scheme, with the rows it returns,
    and of the energies of its layers, evaluated by step calls of no steps
    on each pair of them and of one step after each of them; then of a
    run's first step call through a ring of three rows that keeps every
    third step, with and without verifying the others, as it writes its
    layers: its trace and maxima.  The explicit runs' side zones hold
    whole chunks of free cells, and an inf put into a layer makes the
    stiffness product of the next one NaN: the row where the second call
    stops.  All of it on two meshes: one of 86 cells, and one of 1500,
    which steps in wide vectors (WIDE_CELLS in kernel.c) and whose damped
    zone, a serial span of 307 cells, takes 38 of the side zones' 74
    chunks along in its backward sweep, the cells 17 .. 576 and 916 .. 963;
    the inf goes into one of those.  Last, the CSV text of EDGE_DOUBLES,
    and of tables of WIDEST_FIELD that end in FURTHEST_FIELD."""
    params = Parameters(1.0, 4.0, 0.25, 1.0, 1.0, 2.0, 3.0, 10.0)
    data = default_initial_data(params.length)
    outputs = []
    for cells, inf_cell in (((40, 6, 40), 60), ((600, 300, 600), 300)):
        mesh = build_mesh(params, *cells)
        dt = 0.9 * cfl_max_dt(params, mesh)
        for scheme in ("explicit", "implicit"):
            ops = schemes.build_operators(mesh, params, dt, scheme)
            u0 = sample_cell_averages(data.phi, mesh)
            u1 = schemes.bootstrap(u0, sample_cell_averages(data.psi, mesh), ops)
            block = np.zeros((40, mesh.n_max))
            block[0], block[1] = u0, u1
            incr = np.stack((u1 - u0, u0))
            step = (ops.stiff, ops.rhs_prev, ops.lhs_factor, incr, 1e6 * np.abs(u0).max())
            rows = [linalg.step_block(block, 2, 20, *step)]
            if scheme == "explicit":
                block[19, inf_cell] = math.inf
                rows.append(linalg.step_block(block, 20, 40, *step))
                assert rows == [20, 20] and np.isnan(block[20]).any()
            outputs += [bytes(rows), block.tobytes(), incr.tobytes()]
            args = ops.energy_args
            written = block[:rows[-1] + 1]
            for u, v in zip(written, written[1:]):
                outputs += [e.tobytes() for e in step_energies(args, u, v)[1]]
            for u in written:
                outputs += [e.tobytes() for e in step_energies(args, u, u1, u1 - u0, 1)[1]]
            for verify in (False, True):
                ring, incr = np.stack((u0, u1, u1)), np.stack((u1 - u0, u0))
                trace, maxima = np.zeros((14, 5)), np.array([0.0, 0.0, -math.inf])
                end = linalg.step_block(ring, 2, 40, *step[:3], incr, step[4],
                                        (3, 38, verify, trace, maxima, args))
                assert end == 40
                outputs += [ring.tobytes(), incr.tobytes(), trace.tobytes(), maxima.tobytes()]
    tables = [np.array(EDGE_DOUBLES).reshape(4, -1)]
    for shape in ((1, 1), (3, 7), (100, 2)):
        table = np.full(shape, WIDEST_FIELD)
        table[-1, -1] = FURTHEST_FIELD
        tables.append(table)
    for table in tables:
        text = bytes(linalg.format_csv(table))
        assert text.splitlines() == [",".join("%.17g" % x for x in row).encode()
                                     for row in table.tolist()]
        outputs.append(text)
    return outputs


BUILD_FLAGS = [("-O0",), ("-O2", "-ffp-contract=off", "-march=x86-64")]


@pytest.mark.parametrize("flags", BUILD_FLAGS, ids=" ".join)
def test_kernel_bits_do_not_depend_on_build_flags(tmp_path, monkeypatch, flags):
    # Without optimization, and for the baseline x86-64, whose fma() is a
    # libm call, the factors, the step, the energies and the CSV text are
    # the bits of the library the package built for this CPU.
    if "-march=x86-64" in flags and platform.machine() != "x86_64":
        pytest.skip("-march=x86-64 needs an x86-64 machine")
    kernel = build_kernel(linalg, list(flags), tmp_path)
    expected = block_outputs()
    monkeypatch.setattr(linalg, "_kernel", kernel)
    assert block_outputs() == expected


SANITIZE = ["-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off", "-march=native",
            "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
# Run with the sanitizers' runtimes preloaded; the compiler runs without them
SANITIZED_RUN = """
import os, sys
from pathlib import Path
os.environ.pop("LD_PRELOAD")
from kvwave import linalg
from test_kernel_build import SANITIZE, block_outputs, build_kernel
expected = block_outputs()
linalg._kernel = build_kernel(linalg, SANITIZE, Path(sys.argv[1]))
assert block_outputs() == expected
"""


def test_sanitized_kernel_reads_and_writes_within_its_arrays(tmp_path):
    # A read or write out of bounds, or undefined behaviour, that moves no
    # bit passes every other test; AddressSanitizer and UndefinedBehavior-
    # Sanitizer stop the process at it.  The kernel is built as shipped,
    # both widths of the step included, and gives the package build's bits.
    try:
        runtimes = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                                   text=True, timeout=60).stdout.strip()
                    for name in ("libasan.so", "libubsan.so")]
    except FileNotFoundError:  # no gcc
        runtimes = [""]
    if not Path(runtimes[0]).is_file():
        pytest.skip("gcc names no AddressSanitizer runtime (libasan.so)")
    path = os.pathsep.join(map(str, (PACKAGE.parent, Path(__file__).parent, TOOLS)))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path, LD_PRELOAD=" ".join(runtimes),
                                   ASAN_OPTIONS="detect_leaks=0"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
