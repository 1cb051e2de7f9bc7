"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import kvwave  # noqa: E402
import workloads  # noqa: E402
from kvwave import cli  # noqa: E402
from tracer import LAYER_UNITS, Tracer, _lookup, targets  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_sweep_is_deterministic_for_a_seed():
    assert workloads.specs("sweep", 7) == workloads.specs("sweep", 7)
    assert workloads.specs("sweep", 7) != workloads.specs("sweep", 8)

    def keys(seed):
        return sorted(workloads.spec_key(spec) for spec in workloads.specs("sweep", seed))

    assert keys(7) == keys(8)


def test_sweep_covers_small_zones_and_both_schemes():
    specs = workloads.specs("sweep", 0)
    totals = sorted(s["n_alpha"] + s["n_damp"] + s["n_beta"] for s in specs)
    assert totals == sorted(workloads.SWEEP_TOTAL_CELLS)
    assert any(s["n_damp"] == 2 for s in specs)
    assert any(min(s["n_alpha"], s["n_beta"]) == 1 for s in specs)
    assert {s["scheme"] for s in specs} == {"explicit", "implicit"}


def test_sweep_configs_resolve_to_about_sweep_steps():
    for spec in workloads.specs("sweep", 0):
        cfg = workloads.to_config(cli, spec)
        params = kvwave.Parameters(**{
            name: getattr(cfg, name)
            for name in ("c1_sq", "c2_sq", "c3_sq", "delta", "alpha", "beta", "length", "t_final")
        })
        mesh = kvwave.build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)
        _, n_steps = cli.resolve_time_step(cfg, params, mesh)
        assert n_steps in (workloads.SWEEP_STEPS, workloads.SWEEP_STEPS + 1)


def test_large_mesh_follows_the_presets_time_step_rule():
    cfg = workloads.to_config(cli, workloads.specs("large-mesh", 0)[0])
    params = kvwave.Parameters(
        c1_sq=cfg.c1_sq, c2_sq=cfg.c2_sq, c3_sq=cfg.c3_sq, delta=cfg.delta,
        alpha=cfg.alpha, beta=cfg.beta, length=cfg.length, t_final=cfg.t_final,
    )
    mesh = kvwave.build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)
    dt, n_steps = cli.resolve_time_step(cfg, params, mesh)
    assert cfg.cfl_fraction == 0.9
    assert mesh.n_max == 5000
    assert n_steps == workloads.LARGE_STEPS
    assert dt == pytest.approx(0.9 * kvwave.cfl_max_dt(params, mesh))


def test_tracer_restores_every_wrapped_attribute():
    originals = [(owner, attr, _lookup(owner, attr)) for _, owner, attr, _ in targets(kvwave)]
    with pytest.raises(RuntimeError):
        with Tracer(kvwave) as tracer:
            assert all(_lookup(owner, attr) is not fn for owner, attr, fn in originals)
            raise RuntimeError("leave the traced block early")
    assert all(_lookup(owner, attr) is fn for owner, attr, fn in originals)
    assert tracer.missing == []
    assert tracer.unrestored() == []


def test_traced_run_counts_calls_and_self_time():
    cfg = dataclasses.replace(cli.preset("equal-damped"), n_steps=200, verify_identity=True)
    with Tracer(kvwave) as tracer:
        result = cli.execute(cfg)
    advance = tracer.stats["schemes.advance"]
    run = tracer.stats["schemes.run"]
    assert advance.calls == result.n_steps - 1
    assert tracer.stats["linalg.solve"].calls == advance.calls
    assert 0 < advance.self_ns < advance.total_ns
    assert 0 < run.self_ns < run.total_ns
    assert sum(advance.hist) == advance.calls
    assert advance.counts["bytes"] > 2 * 50 * 50 * 8 * advance.calls
    names = {span[3] for span in tracer.spans}
    assert "schemes.build_operators" in names and "schemes.advance" not in names


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert expected == LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
