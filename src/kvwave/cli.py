"""Experiment presets, configuration parsing, CSV output and the CLI.

Configuration grammar: flat ``key = value`` lines, one pair per line, ``#``
starts a comment.  A ``preset`` key loads the named preset's values at that
point; later lines override individual fields.  Keys starting with
``result_`` are reserved for the run summary echo and are skipped on parsing,
so a summary file is itself a valid configuration reproducing its run.

Output: energy.csv and the snapshot CSVs are formatted in one call of the
compiled kernel each (linalg.format_csv), summary.txt in Python by _fmt;
both write every float as %.17g does, whatever the locale.

Exit codes: 0 success, 1 configuration/usage error, 2 divergence,
3 I/O error.
"""

from __future__ import annotations

import argparse
import locale
import sys
import time
from dataclasses import dataclass, fields, replace
from math import ceil, isfinite
from pathlib import Path

import numpy as np

from . import diagnostics, linalg
from .mesh import Mesh, Parameters, build_mesh
from .model import (Admissibility, ConfigError, cfl_max_dt, default_initial_data, set_up,
                    validate_run)
from .schemes import SimulationResult, run

__all__ = [
    "RunConfig",
    "PRESET_NAMES",
    "preset",
    "parse_config",
    "validate_config",
    "resolve_time_step",
    "execute",
    "summary_lines",
    "write_energy_csv",
    "write_snapshot_csv",
    "write_summary",
    "write_outputs",
    "main",
]


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one simulation run.

    Exactly one of dt / cfl_fraction must be set; cfl_fraction resolves to
    the largest dt not above that fraction of the explicit stability bound
    that divides t_final into a whole number of steps.  n_steps defaults to
    t_final / dt and cannot be combined with cfl_fraction.  The fields are
    in the order of the summary's configuration echo, and each key of a
    configuration file is parsed as its field's type.
    """

    preset: str | None = None
    scheme: str = "explicit"
    c1_sq: float | None = None
    c2_sq: float | None = None
    c3_sq: float | None = None
    delta: float | None = None
    alpha: float | None = None
    beta: float | None = None
    length: float | None = None
    t_final: float | None = None
    n_alpha: int | None = None
    n_damp: int | None = None
    n_beta: int | None = None
    dt: float | None = None
    cfl_fraction: float | None = None
    n_steps: int | None = None
    observe_every: int = 100
    fit_lo: float = 0.5
    fit_hi: float = 1.0
    out_dir: str = "."
    cfl_override: bool = False
    verify_identity: bool = False


_PRESETS: dict[str, dict] = {}


def _register_presets() -> None:
    base = dict(
        c1_sq=1.0, c2_sq=1.0, c3_sq=1.0, delta=1.0,
        alpha=1.0, beta=2.0, length=3.0, t_final=10000.0,
        n_alpha=20, n_damp=10, n_beta=20,
        dt=0.025, n_steps=400000,
    )
    _PRESETS["equal-undamped"] = dict(base, delta=0.0)
    _PRESETS["equal-damped"] = dict(base)
    # The three mismatched-speed cases whose nominal time step would violate
    # the explicit stability bound run at 90% of that bound instead; the
    # summary records the bound next to the resolved step.
    for name, speeds in (
        ("case1", (9.0, 1.0, 4.0)),
        ("case2", (2.0, 4.0, 0.25)),
        ("case3", (2.0, 4.0, 6.0)),
    ):
        _PRESETS[name] = dict(
            base, c1_sq=speeds[0], c2_sq=speeds[1], c3_sq=speeds[2],
            dt=None, n_steps=None, cfl_fraction=0.9,
        )
    _PRESETS["case4"] = dict(base, c1_sq=2.0, c2_sq=4.0, c3_sq=2.0)
    _PRESETS["wide-damping"] = dict(
        base, alpha=0.1, beta=2.9, n_alpha=4, n_damp=100, n_beta=4,
        t_final=100.0, dt=0.025, n_steps=4000,
    )


_register_presets()
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> RunConfig:
    """Named experiment configuration."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return RunConfig(preset=name, **_PRESETS[name])


# each key's value is parsed as its field's type, the annotation's first
# word: annotations are strings here (PEP 563), such as "float | None"
_FIELD_TYPES = {f.name: {"float": float, "int": int, "str": str, "bool": bool}[f.type.split()[0]]
                for f in fields(RunConfig)}
_MATERIAL_KEYS = {"rho1", "rho2", "rho3", "kappa1", "kappa2", "kappa3", "damping"}


def _parse_bool(raw: str, key: str, lineno: int) -> bool:
    if raw not in ("true", "false"):
        raise ConfigError(f"line {lineno}: {key} must be true or false, got {raw!r}")
    return raw == "true"


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value grammar into a validated RunConfig."""
    values: dict = {}
    material: dict[str, float] = {}
    explicit_dt = explicit_cfl = False
    saw_any = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key.startswith("result_"):
            continue  # summary echo, not configuration
        saw_any = True
        try:
            if key == "preset":
                base = preset(raw)
                for f in fields(RunConfig):
                    values[f.name] = getattr(base, f.name)
            elif key in _FIELD_TYPES:
                kind = _FIELD_TYPES[key]
                values[key] = _parse_bool(raw, key, lineno) if kind is bool else kind(raw)
                if key == "dt":
                    explicit_dt = True
                    values["cfl_fraction"] = None
                elif key == "cfl_fraction":
                    explicit_cfl = True
                    values["dt"] = None
            elif key in _MATERIAL_KEYS:
                material[key] = float(raw)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key}: {err}") from err
    if not saw_any:
        raise ConfigError("empty configuration: no preset and no parameters")
    if explicit_dt and explicit_cfl:
        raise ConfigError("dt and cfl_fraction are mutually exclusive")
    if material:
        _apply_material(values, material)
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def _apply_material(values: dict, material: dict[str, float]) -> None:
    missing = sorted(_MATERIAL_KEYS - material.keys())
    if missing:
        raise ConfigError(f"incomplete material data, missing: {', '.join(missing)}")
    for key in ("c1_sq", "c2_sq", "c3_sq", "delta"):
        if values.get(key) is not None:
            raise ConfigError("material data and explicit speeds are mutually exclusive")
    for i in (1, 2, 3):
        if material[f"rho{i}"] <= 0.0 or material[f"kappa{i}"] <= 0.0:
            raise ConfigError("densities and moduli must be > 0")
    values["c1_sq"] = material["kappa1"] / material["rho1"]
    values["c2_sq"] = material["kappa2"] / material["rho2"]
    values["c3_sq"] = material["kappa3"] / material["rho3"]
    values["delta"] = material["damping"] / material["rho2"]


def validate_config(cfg: RunConfig) -> None:
    required = (
        "c1_sq", "c2_sq", "c3_sq", "delta", "alpha", "beta", "length",
        "t_final", "n_alpha", "n_damp", "n_beta",
    )
    missing = [name for name in required if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"missing configuration keys: {', '.join(missing)}")
    if (cfg.dt is None) == (cfg.cfl_fraction is None):
        raise ConfigError("exactly one of dt and cfl_fraction must be set")
    if cfg.cfl_fraction is not None:
        if not 0.0 < cfg.cfl_fraction <= 1.0:
            raise ConfigError("cfl_fraction must lie in (0, 1]")
        if cfg.n_steps is not None:
            raise ConfigError("n_steps cannot be combined with cfl_fraction")
    if cfg.dt is not None and not cfg.dt > 0.0:
        raise ConfigError("dt must be > 0")
    if cfg.n_steps is not None and not 1 <= cfg.n_steps < linalg.INDEX_MAX:
        raise ConfigError(f"n_steps = {cfg.n_steps:.6g} lies outside 1 .. {linalg.INDEX_MAX - 1}, "
                          f"the step counts whose last layer the kernel can index")
    if cfg.scheme not in ("explicit", "implicit"):
        raise ConfigError(f"scheme must be explicit or implicit, got {cfg.scheme!r}")
    if not 0.0 <= cfg.fit_lo < cfg.fit_hi <= 1.0:
        raise ConfigError("fit window fractions must satisfy 0 <= fit_lo < fit_hi <= 1")
    if cfg.observe_every < 1:
        raise ConfigError("observe_every must be >= 1")
    # the summary echoes out_dir as a line that parse_config must read back
    out = cfg.out_dir
    try:
        out.encode(locale.getpreferredencoding(False))
        echoable = "#" not in out and out == out.strip() and len(out.splitlines()) <= 1
    except UnicodeEncodeError:
        echoable = False
    if not echoable:
        raise ConfigError(f"out_dir {out!r} cannot be echoed in summary.txt: it must be text in "
                          f"the locale's encoding with no '#', no line break and no leading or "
                          f"trailing whitespace")
    infinite = [name for name, value in vars(cfg).items()
                if isinstance(value, float) and not isfinite(value)]
    if infinite:
        raise ConfigError(f"values must be finite: {', '.join(infinite)}")
    try:
        _parameters(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    # default_initial_data's scale 4 / length**2 is inf up to 2**-511, and
    # length**2 overflows from 2**512 on
    if not 2.0**-511 < cfg.length < 2.0**512:
        raise ConfigError("length must lie strictly between 2**-511 and 2**512 (about 1.49e-154 "
                          "and 1.34e154), where the initial data's scale 4 / length**2 is finite")


def _parameters(cfg: RunConfig) -> Parameters:
    return Parameters(
        c1_sq=cfg.c1_sq, c2_sq=cfg.c2_sq, c3_sq=cfg.c3_sq, delta=cfg.delta,
        alpha=cfg.alpha, beta=cfg.beta, length=cfg.length, t_final=cfg.t_final,
    )


def resolve_time_step(cfg: RunConfig, params: Parameters, mesh: Mesh) -> tuple[float, int]:
    """Concrete (dt, n_steps) for a validated configuration; ValueError for
    a step count derived from t_final whose last layer the kernel cannot
    index, as validate_config refuses a given one."""
    if cfg.dt is not None and cfg.n_steps is not None:
        return cfg.dt, int(cfg.n_steps)
    if cfg.dt is not None:
        steps = params.t_final / cfg.dt
    else:
        steps = params.t_final / (cfg.cfl_fraction * cfl_max_dt(params, mesh))
    # the doubles next to INDEX_MAX = 2**63 - 1 are 2**63 - 1024 and 2**63,
    # so rounding cannot carry steps across it; inf lies beyond it too
    if steps >= linalg.INDEX_MAX:
        raise ValueError(f"t_final gives n_steps = {steps:.6g}, more than "
                         f"{linalg.INDEX_MAX - 1}, the most whose last layer the kernel can index")
    if cfg.dt is not None:
        return cfg.dt, max(1, round(steps))
    n_steps = max(1, ceil(steps))
    return params.t_final / n_steps, n_steps


@dataclass
class RunResult:
    """A simulation plus its metadata, rate fits and file-ready summary."""

    config: RunConfig
    mesh: Mesh
    dt: float
    n_steps: int
    admissibility: Admissibility
    sim: SimulationResult
    fits: dict[str, diagnostics.DecayFit | None]
    fit_errors: dict[str, str]
    wall_clock: float


def _decay_fits(t: np.ndarray, e: np.ndarray, window: tuple[float, float]):
    """Both decay fits of the energies e over the window, and the error
    message of each fit that rejects it (its fit is then None)."""
    fits: dict[str, diagnostics.DecayFit | None] = {}
    errors: dict[str, str] = {}
    for model in ("exponential", "polynomial"):
        # looked up through the module at call time, where a tracer may wrap it
        fitter = getattr(diagnostics, f"fit_{model}")
        try:
            fits[model] = fitter(t, e, window)
        except ValueError as err:
            fits[model], errors[model] = None, str(err)
    return fits, errors


def _fit_items(fits: dict, errors: dict[str, str]) -> list[tuple[str, object]]:
    """The (key, value) pairs that report the fits, as `kvwave fit` prints
    them and, with a result_ prefix, the summary holds them."""
    items: list[tuple[str, object]] = []
    for model, fit in fits.items():
        if fit is None:
            items.append((f"{model}_error", errors[model].replace("=", ":")))
        else:
            items += [
                (f"{model}_rate", fit.rate),
                (f"{model}_intercept", fit.intercept),
                (f"{model}_residual", fit.residual),
                (f"{model}_samples", fit.n_samples),
            ]
    return items


def _part(cfg: RunConfig, part: str, *keys: str) -> str:
    """The part of the run that set_up names, with the configuration's
    values of keys, its inputs: e.g. a mesh too large to allocate."""
    inputs = ", ".join(f"{key} = {getattr(cfg, key)}" for key in keys
                       if getattr(cfg, key) is not None)
    return f"the run: the {part} for {inputs}"


def execute(cfg: RunConfig) -> RunResult:
    """Run a validated configuration end to end (no file output)."""
    params = _parameters(cfg)
    mesh = set_up(_part(cfg, "mesh", "n_alpha", "n_damp", "n_beta"), build_mesh, params,
                  cfg.n_alpha, cfg.n_damp, cfg.n_beta)
    dt, n_steps = set_up(_part(cfg, "time step", "t_final", "dt", "cfl_fraction"),
                         resolve_time_step, cfg, params, mesh)
    initial = set_up(_part(cfg, "initial data", "length"), default_initial_data, params.length)
    admissibility = validate_run(params, mesh, dt, cfg.scheme)
    if cfg.scheme == "explicit" and not admissibility.stable and not cfg.cfl_override:
        raise ConfigError(
            f"explicit run refused: dt = {dt:.6g} exceeds the stability bound "
            f"{admissibility.dt_bound:.6g}; rerun with --cfl-override to force"
        )
    started = time.perf_counter()
    sim = run(params, mesh, initial, dt, n_steps, scheme=cfg.scheme,
              observe_every=cfg.observe_every, verify_identity=cfg.verify_identity,
              snapshot_steps=(0, n_steps // 2, n_steps))
    wall = time.perf_counter() - started

    window = (cfg.fit_lo * params.t_final, cfg.fit_hi * params.t_final)
    fits, fit_errors = _decay_fits(sim.trace.t, sim.trace.e_total, window)
    return RunResult(
        config=cfg, mesh=mesh, dt=dt, n_steps=n_steps, admissibility=admissibility,
        sim=sim, fits=fits, fit_errors=fit_errors, wall_clock=wall,
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_ENERGY_COLUMNS = ("step", "t", "e_kinetic", "e_potential", "e_total", "dissipation", "residual")


def write_energy_csv(trace: diagnostics.EnergyTrace, path: str | Path) -> None:
    """Energy history, one row per recorded step, every field a double: a
    step beyond 2^53 in magnitude, which a double may not hold exactly,
    raises ValueError and writes no file."""
    if ((trace.step < -2**53) | (trace.step > 2**53)).any():
        raise ValueError(f"steps {trace.step.min()} .. {trace.step.max()} exceed +-2^53")
    table = np.column_stack([getattr(trace, name) for name in _ENERGY_COLUMNS])
    Path(path).write_bytes(linalg.format_csv(table, ",".join(_ENERGY_COLUMNS).encode() + b"\n"))


def write_snapshot_csv(values: np.ndarray, path: str | Path, centers: np.ndarray) -> None:
    """Cell-center profile of one layer: centers are the x of its values."""
    if np.shape(values) != np.shape(centers):
        raise ValueError(f"a snapshot needs a vector of values per cell center, got "
                         f"{np.shape(values)} values for {np.shape(centers)} centers")
    Path(path).write_bytes(linalg.format_csv(np.column_stack([centers, values]), b"x,u\n"))


def summary_lines(result: RunResult) -> list[str]:
    cfg, sim = result.config, result.sim
    lines = ["# run configuration (this file can be fed back to `run --config`)"]
    lines += [f"{name} = {_fmt(value)}" for name, value in vars(cfg).items() if value is not None]
    adm = result.admissibility
    lines.append("# results")
    items: list[tuple[str, object]] = [
        ("result_dt", result.dt),
        ("result_n_steps", result.n_steps),
        ("result_cfl_bound", adm.dt_bound),
        ("result_cfl_verdict", "stable" if adm.stable else "unstable"),
        ("result_cfl_accuracy_warning", adm.accuracy_warning),
        ("result_diverged", sim.diverged),
    ]
    if sim.diverged:
        items.append(("result_divergence_step", sim.divergence_step))
    items += [
        ("result_steps_completed", sim.steps_completed),
        ("result_energy_initial", sim.energy_initial),
        ("result_energy_final", float(sim.trace.e_total[-1])),
        ("result_energy_drift_max", sim.energy_drift_max),
        ("result_energy_rise_max", sim.energy_rise_max),
        ("result_identity_residual_max", sim.identity_residual_max),
        ("result_verified_steps", sim.verified_steps),
        ("result_fit_window_lo", cfg.fit_lo * cfg.t_final),
        ("result_fit_window_hi", cfg.fit_hi * cfg.t_final),
    ]
    items += [(f"result_{key}", value) for key, value in _fit_items(result.fits, result.fit_errors)]
    items.append(("result_wall_clock_s", result.wall_clock))
    lines += [f"{key} = {_fmt(value)}" for key, value in items]
    return lines


def write_summary(result: RunResult, path: str | Path) -> None:
    """Flat key = value summary; config echo plus result_* keys.  Its text is
    encoded as Path.write_text would, in the locale's encoding, in which
    validate_config requires the echoed out_dir to be text."""
    text = "\n".join(summary_lines(result)) + "\n"
    Path(path).write_bytes(text.encode(locale.getpreferredencoding(False)))


def write_outputs(result: RunResult, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    path = out / "energy.csv"
    write_energy_csv(result.sim.trace, path)
    written.append(path)
    for snap in result.sim.snapshots:
        path = out / f"snapshot_step{snap.step:08d}.csv"
        write_snapshot_csv(snap.values, path, result.mesh.centers)
        written.append(path)
    path = out / "summary.txt"
    write_summary(result, path)
    written.append(path)
    return written


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kvwave", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a preset or a config file")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="named experiment preset")
    src.add_argument("--config", help="path to a key = value config file")
    # every dest but config's is a RunConfig field, which the flag overrides
    p_run.add_argument("--scheme", choices=("explicit", "implicit"))
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--steps", type=int, dest="n_steps")
    p_run.add_argument("--out", dest="out_dir", help="output directory")
    p_run.add_argument("--observe-every", type=int)
    p_run.add_argument("--verify-identity", action="store_true", default=None)
    p_run.add_argument("--cfl-override", action="store_true", default=None)

    sub.add_parser("list-presets", help="print the preset names")

    p_fit = sub.add_parser("fit", help="re-fit decay rates from an energy CSV")
    p_fit.add_argument("--energy-csv", required=True)
    p_fit.add_argument("--window", required=True, help="t_lo,t_hi in simulation time")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.preset is not None:
        cfg = preset(args.preset)
    else:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        cfg = parse_config(text)
    overrides = {key: value for key, value in vars(args).items()
                 if key in _FIELD_TYPES and key != "preset" and value is not None}
    if args.dt is not None:
        overrides["cfl_fraction"] = None
    cfg = replace(cfg, **overrides)
    validate_config(cfg)
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = execute(cfg)
    try:
        written = write_outputs(result, cfg.out_dir)
    except OSError as err:
        print(f"error: cannot write outputs under {cfg.out_dir}: {err}", file=sys.stderr)
        return 3
    for path in written:
        print(f"wrote {path}")
    if result.sim.diverged:
        print(f"error: run diverged at step {result.sim.divergence_step}", file=sys.stderr)
        return 2
    return 0


def _load_energy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The t and e_total columns of an energy CSV."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise OSError(f"cannot read energy CSV {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"cannot read energy CSV {path}: {err}") from err
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty energy CSV")
    header = lines[0].split(",")
    try:
        col_t = header.index("t")
        col_e = header.index("e_total")
    except ValueError as err:
        raise ConfigError(f"{path}: missing t/e_total columns") from err
    t, e = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            t.append(float(parts[col_t]))
            e.append(float(parts[col_e]))
        except (ValueError, IndexError) as err:
            raise ConfigError(f"{path}:{lineno}: malformed row: {err}") from err
    return np.asarray(t), np.asarray(e)


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        lo_s, _, hi_s = args.window.partition(",")
        window = (float(lo_s), float(hi_s))
    except ValueError as err:
        raise ConfigError(f"bad --window {args.window!r}: expected 'lo,hi'") from err
    t, e = _load_energy_csv(args.energy_csv)
    for key, value in _fit_items(*_decay_fits(t, e, window)):
        print(f"{key} = {_fmt(value)}")
    return 0


# numpy's floating-point warnings are silenced: every value that matters is
# checked for range where it is used, and a failed check exits with one
# error line
@np.errstate(all="ignore")
def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list-presets":
            for name in PRESET_NAMES:
                print(name)
            return 0
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
