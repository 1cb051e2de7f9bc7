"""sha256 digests of kvwave's output files over a fixed set of runs.

    python tools/output_digests.py DIGESTS.json [--steps N] [--src DIR] [--cflags=FLAGS]
    python tools/output_digests.py --compare BEFORE.json AFTER.json

The runs are every preset with both schemes, each with and without
--verify-identity; an undamped explicit run at 1.05 times the stability
bound, which diverges, in both modes: on the presets' mesh (5000 steps),
and on a 2000/1000/2000 mesh (5000 cells, 100 steps), where it diverges at
layer 57, after the run's kernel call that stops at its mid-run snapshot;
a verified run on that mesh (300 steps); in both modes, the first of
those diverging runs once more at ``observe_every`` 10 and 41 (it stops at
layer 42, so step 40 is kept and written and step 41 is kept but never
evaluated), and three edges of the kept-step rule on the wide-damping
preset: one step, 4001 steps (a last step on a multiple of
``observe_every``) and ``observe_every = 10**30``; and, in both modes, the
benchmark's 16 ``sweep`` configurations and its ``dense-trace``
configuration, taken from ``perfbench/workloads``, with that configuration
once more under the explicit scheme (it records every step,
``observe_every = 1``, and is implicit in the benchmark).  Each goes
through ``cli.execute`` and ``cli.write_outputs``.  The JSON maps each
run's name to the sha256 of every file it wrote, hashed as the benchmark
hashes them (``perfbench/workloads.output_digests``: summary.txt without its
wall-clock line), and of what ``kvwave fit`` prints for its energy.csv over
two windows: the fit window of its summary, and one where both fits fail.

The JSON also holds, under ``_environment``, the ``OPENBLAS_CORETYPE``
setting and the CPU model name.  The step no longer depends on either: it
runs in kvwave's compiled kernel, whose bits are the same on every machine,
so energy.csv and the snapshots match across them.  The fits still do: their
``@`` products run in the BLAS kernel OpenBLAS picks for the CPU and
``np.log`` in numpy's CPU-specific loops, so the fitted rates in summary.txt
and the ``kvwave fit`` output may differ in their last digits between
machines (README "Known behavior").  Compare those digests taken under the
same kernel and CPU.

--steps caps every run at N steps and keeps its time step.  --src imports
kvwave from another checkout's ``src`` directory, so one copy of this tool
digests two revisions.  --cflags builds the package's kernel.c with these
compiler flags (and -shared -fPIC) into a temporary directory, never the
package's ``__pycache__``, and digests with that library in place of the
package's build, each entry point typed as ``linalg._kernel`` types it:
the output bits must not depend on the flags.  Write --cflags=-O0, with
``=``, when FLAGS is one flag.  --compare prints any difference of the two
environments first, then every run and file whose digest differs or is
missing on one side, and exits 1 if there is any such run or file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import output_digests, specs, sweep_specs, to_config  # noqa: E402  (imports no kvwave)
from bench_baseline import cpu_model  # noqa: E402  (this file's directory)

ENVIRONMENT = "_environment"  # the key of the environment; no run name starts with "_"

# No sample of a run lies in this window, and no polynomial fit window may
# start at t = 0: both fits report an error.
FAILING_FIT_WINDOW = "0,1e-300"


def configs(kvwave, steps: int | None) -> dict[str, object]:
    """Name -> RunConfig of every run."""
    cli = kvwave.cli
    runs = {}
    for name in cli.PRESET_NAMES:
        for scheme in ("explicit", "implicit"):
            _both_modes(runs, f"{name}-{scheme}", replace(cli.preset(name), scheme=scheme))
    undamped = cli.preset("equal-undamped")
    for name, cfg, n_steps in (("diverging-explicit", undamped, 5000), (
            "mesh5000-diverging-explicit",
            replace(undamped, n_alpha=2000, n_damp=1000, n_beta=2000), 100)):
        params, mesh = _problem(kvwave, cfg)
        _both_modes(runs, name, replace(
            cfg, dt=1.05 * kvwave.cfl_max_dt(params, mesh), n_steps=n_steps, cfl_override=True,
        ))
    for every in (10, 41):
        _both_modes(runs, f"diverging-explicit-every{every}",
                    replace(runs["diverging-explicit-plain"], observe_every=every))
    wide = cli.preset("wide-damping")
    for name, cfg in (("one-step", replace(wide, n_steps=1)),
                      ("wide-damping-4001-steps", replace(wide, n_steps=4001)),
                      ("wide-damping-every-1e30", replace(wide, observe_every=10**30))):
        _both_modes(runs, name, cfg)
    runs["mesh5000-explicit-verified"] = replace(
        cli.preset("equal-damped"), n_alpha=2000, n_damp=1000, n_beta=2000,
        dt=None, n_steps=None, cfl_fraction=0.9, t_final=300 * 0.9 * 0.5 / 1000,
        verify_identity=True,
    )
    for spec in sweep_specs(0):
        total = spec["n_alpha"] + spec["n_damp"] + spec["n_beta"]
        _both_modes(runs, f"sweep-n{total:03d}", to_config(cli, spec))
    dense = to_config(cli, specs("dense-trace", 0)[0])
    _both_modes(runs, "dense-trace", dense)
    _both_modes(runs, "dense-trace-explicit", replace(dense, scheme="explicit"))
    if steps is not None:
        runs = {name: _capped(kvwave, cfg, steps) for name, cfg in runs.items()}
    return runs


def _both_modes(runs: dict, name: str, cfg) -> None:
    for verify in (False, True):
        mode = "verified" if verify else "plain"
        runs[f"{name}-{mode}"] = replace(cfg, verify_identity=verify)


def _problem(kvwave, cfg):
    names = [f.name for f in fields(kvwave.Parameters)]
    params = kvwave.Parameters(**{name: getattr(cfg, name) for name in names})
    return params, kvwave.build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)


def _capped(kvwave, cfg, steps: int):
    dt, n_steps = kvwave.cli.resolve_time_step(cfg, *_problem(kvwave, cfg))
    return replace(cfg, dt=dt, cfl_fraction=None, n_steps=min(steps, n_steps))


def fit_outputs(cli, run_dir: Path) -> dict[str, str]:
    """What `kvwave fit` prints for a run's energy.csv over the fit window of
    its summary ("fit:summary-window") and over FAILING_FIT_WINDOW
    ("fit:failing-window")."""
    summary = (run_dir / "summary.txt").read_text()
    window = ",".join(re.search(rf"^result_fit_window_{end} = (.*)$", summary, re.M).group(1)
                      for end in ("lo", "hi"))
    outputs = {}
    for name, w in (("fit:summary-window", window), ("fit:failing-window", FAILING_FIT_WINDOW)):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["fit", "--energy-csv", str(run_dir / "energy.csv"), "--window", w])
        if code != 0:
            raise RuntimeError(f"kvwave fit --window {w} on {run_dir} exited {code}")
        outputs[name] = printed.getvalue()
    return outputs


def digest_runs(kvwave, steps: int | None) -> dict[str, dict[str, str]]:
    cli = kvwave.cli
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs(kvwave, steps).items():
            run_dir = Path(tmp) / name
            cli.validate_config(cfg)
            cli.write_outputs(cli.execute(cfg), run_dir)
            out[name] = output_digests(run_dir)
            for key, text in fit_outputs(cli, run_dir).items():
                out[name][key] = hashlib.sha256(text.encode()).hexdigest()
            print(f"{name}: {len(out[name])} digests", file=sys.stderr)
    return out


def build_kernel(linalg, flags: list[str], directory: Path):
    """linalg's kernel.c built with flags into directory and loaded, with
    the argtypes and restype of every entry point that linalg._kernel binds.
    Raises RuntimeError, with the compiler's message, if cc fails."""
    lib = directory / "kernel.so"
    proc = subprocess.run(["cc", *flags, "-shared", "-fPIC", "-o", str(lib),
                           str(Path(linalg.__file__).with_name("kernel.c")), "-lm"],
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"cc {shlex.join(flags)} cannot build the kernel:\n{proc.stderr}")
    kernel = ctypes.CDLL(str(lib))
    # ctypes keeps each function it has looked up as an attribute of the library
    for name in [name for name in vars(linalg._kernel) if name.startswith("kv_")]:
        entry, bound = getattr(kernel, name), getattr(linalg._kernel, name)
        entry.argtypes, entry.restype = bound.argtypes, bound.restype
    return kernel


def environment() -> dict[str, str | None]:
    """What selects the OpenBLAS kernel and numpy's CPU loops, and with them
    the bits of the fits; the step's bits depend on neither."""
    return {"OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"), "cpu_model": cpu_model()}


def runs(digests: dict) -> dict[str, dict[str, str]]:
    """The runs of a digest file, without its environment."""
    return {name: files for name, files in digests.items() if name != ENVIRONMENT}


def environment_mismatch(before: dict, after: dict) -> list[str]:
    """One line per environment entry that differs; files written before the
    environment was recorded read as "unrecorded"."""
    a, b = before.get(ENVIRONMENT, {}), after.get(ENVIRONMENT, {})
    lines = []
    for key in sorted(a.keys() | b.keys()):
        old, new = a.get(key, "unrecorded"), b.get(key, "unrecorded")
        if old != new:
            lines.append(f"environment differs, so may the output bits: {key} {old!r} != {new!r}")
    return lines


def compare(before: dict, after: dict) -> list[str]:
    problems = []
    before, after = runs(before), runs(after)
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            problems.append(f"{name}: only in {'after' if a is None else 'before'}")
            continue
        for file in sorted(a.keys() | b.keys()):
            if a.get(file) != b.get(file):
                problems.append(f"{name}/{file}: {a.get(file)} != {b.get(file)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--steps", type=int, help="cap every run at this many steps")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the kvwave package to run")
    parser.add_argument("--cflags", help="build kernel.c with these compiler flags and digest "
                        "with that build")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        problems = compare(before, after)
        lines = environment_mismatch(before, after)
        lines += problems or [f"{len(runs(before))} runs identical"]
        print("\n".join(lines))
        return 1 if problems else 0
    if args.output is None:
        parser.error("give an output file or --compare")
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")
    sys.path.insert(0, str(args.src))
    import kvwave

    print(f"kvwave from {Path(kvwave.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        if args.cflags is not None:
            try:
                kvwave.linalg._kernel = build_kernel(kvwave.linalg, shlex.split(args.cflags),
                                                     Path(tmp))
            except RuntimeError as err:
                sys.exit(str(err))
            print(f"kernel built with {args.cflags}", file=sys.stderr)
        digests = {ENVIRONMENT: environment(), **digest_runs(kvwave, args.steps)}
    Path(args.output).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
