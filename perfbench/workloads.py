"""Workloads of the kvwave benchmark and the correctness gate on their runs.

A workload is the list of runs that make up one closed-loop iteration.  Runs
are described as ``RunConfig`` field overrides (plain dicts), so this module
imports without kvwave and the set-up probe can time ``import kvwave`` itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("preset-explicit", "large-mesh", "dense-trace", "sweep")

# Acceptance formula of the energy identity: a run passes when its largest
# residual is at most IDENTITY_GATE * max(E0, 1).
IDENTITY_GATE = 1e-11

# large-mesh: the equal-damped physics on a 2000/1000/2000 mesh.  Its time step
# follows the presets' rule (90% of the explicit stability bound) and t_final
# makes that 300 steps.  Neither is tuned to the identity residual, which on
# this mesh exceeds the gate; the failures stay visible in the results.
LARGE_CELLS = (2000, 1000, 2000)
LARGE_STEPS = 300
LARGE_CFL_DT = 0.5 / 1000  # smallest cell 1/2000 at unit speed

DENSE_TRACE_STEPS = 20_000

# sweep: one random configuration per entry of SWEEP_TOTAL_CELLS, each total
# split at random into the three zones.  The configurations are drawn once from
# SWEEP_DESIGN_SEED and the workload seed only orders the runs of a pass: the
# largest identity residual over random configurations is an extreme value
# that varies about tenfold from one draw of 16 configurations to the next,
# which no bound on its run-to-run spread could hold.
SWEEP_TOTAL_CELLS = (8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192)
SWEEP_STEPS = 1000
SWEEP_CFL_FRACTION = 0.9
SWEEP_LENGTH = 3.0
SWEEP_DESIGN_SEED = 0


def specs(workload: str, seed: int) -> list[dict]:
    """RunConfig overrides of every run in one pass of the workload.

    Only ``sweep`` uses the seed, to order its runs; the others are fixed.
    """
    if workload == "preset-explicit":
        return [{"preset": "equal-damped"}]
    if workload == "large-mesh":
        n_alpha, n_damp, n_beta = LARGE_CELLS
        return [{
            "preset": "equal-damped",
            "n_alpha": n_alpha, "n_damp": n_damp, "n_beta": n_beta,
            "dt": None, "n_steps": None, "cfl_fraction": 0.9,
            "t_final": LARGE_STEPS * 0.9 * LARGE_CFL_DT,
            "verify_identity": True,
        }]
    if workload == "dense-trace":
        return [{
            "preset": "equal-damped", "scheme": "implicit",
            "verify_identity": True, "observe_every": 1,
            "n_steps": DENSE_TRACE_STEPS,
        }]
    if workload == "sweep":
        return sweep_specs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def sweep_specs(seed: int) -> list[dict]:
    """The sweep's random configurations, about SWEEP_STEPS steps each, in
    the order the seed gives."""
    rng = random.Random(SWEEP_DESIGN_SEED)
    totals = list(SWEEP_TOTAL_CELLS)
    rng.shuffle(totals)
    out = []
    for i, total in enumerate(totals):
        alpha = rng.uniform(0.3, 1.2)
        beta = rng.uniform(1.8, 2.7)
        n_alpha, n_damp, n_beta = _split_cells(rng, total)
        speeds = [math.exp(rng.uniform(math.log(0.25), math.log(9.0))) for _ in range(3)]
        delta = 0.0 if rng.random() < 0.125 else rng.uniform(0.1, 2.0)
        # Same bound as kvwave.cfl_max_dt: smallest cell over fastest speed.
        h_min = min(alpha / n_alpha, (beta - alpha) / n_damp, (SWEEP_LENGTH - beta) / n_beta)
        cfl_dt = h_min / math.sqrt(max(speeds))
        out.append({
            "c1_sq": speeds[0], "c2_sq": speeds[1], "c3_sq": speeds[2],
            "delta": delta, "alpha": alpha, "beta": beta, "length": SWEEP_LENGTH,
            "t_final": SWEEP_STEPS * SWEEP_CFL_FRACTION * cfl_dt,
            "n_alpha": n_alpha, "n_damp": n_damp, "n_beta": n_beta,
            "cfl_fraction": SWEEP_CFL_FRACTION,
            "scheme": "explicit" if i % 2 == 0 else "implicit",
            "observe_every": 10,
        })
    random.Random(seed).shuffle(out)
    return out


def _split_cells(rng: random.Random, total: int) -> tuple[int, int, int]:
    """Zone cell counts summing to total, often with a two-cell damped zone
    or a one-cell side zone."""
    n_damp = 2 if rng.random() < 0.125 else rng.randint(2, total - 2)
    rest = total - n_damp
    pick = rng.random()
    if pick < 0.2:
        n_alpha = 1
    elif pick < 0.4:
        n_alpha = rest - 1
    else:
        n_alpha = rng.randint(1, rest - 1)
    return n_alpha, n_damp, rest - n_alpha


def spec_key(spec: dict) -> str:
    """Short stable name of a run's configuration, independent of run order."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]


def to_config(cli, spec: dict):
    """Validated RunConfig for one spec, built through kvwave's public CLI layer."""
    fields = dict(spec)
    name = fields.pop("preset", None)
    cfg = replace(cli.preset(name), **fields) if name else cli.RunConfig(**fields)
    cli.validate_config(cfg)
    return cfg


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file; summary.txt without its wall-clock line."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(b"result_wall_clock_s")
            )
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def identity_ok(residual_max: float, energy_initial: float) -> bool:
    """The acceptance formula; NaN fails."""
    return residual_max <= IDENTITY_GATE * max(energy_initial, 1.0)
