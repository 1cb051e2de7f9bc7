"""The compiled kernel: built once into the package's __pycache__, loaded from
there by later processes with no compiler, safe to build from two processes
at once, and the only numerical dependency besides numpy."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import kvwave

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
