"""kvwave benchmark: one workload in a single-process closed loop.

    python3 perfbench/run.py --workload large-mesh --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each iteration runs every configuration of the workload through
``cli.execute`` and ``cli.write_outputs``, one run after another, and checks
each run's outputs.  Iterations repeat until --seconds have passed (at least
MIN_ITERATIONS of them).  With --trace 0 the end-to-end metrics are measured
with nothing patched; with --trace 1 an untraced and a traced loop share the
time and the per-layer metrics come from the traced one.

The output is a table of every metric (reported value, then the median,
highest percentile with at least ten samples beyond it, and sample count of
its samples), the output digests, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs every
workload in its own process, one after another.
Details are written to .perfbench-out/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import LAYER_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

BLAS_THREADS = 2  # capped at the CPUs this process may run on
SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
PROBE_MIN_BYTES = 420 * 2**20
SUBPROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "identity_residual_rel": "ratio",
}
# Printed with the end-to-end metrics but not a JSON metric: it is 0 on most
# workloads, and the JSON line carries it as attempted and failed.
ERROR_RATE_UNITS = {"error_rate": "ratio"}


def pin_environment() -> int:
    """Fix the BLAS thread count before numpy loads; returns it."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    return threads


def llc_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
        return int(out.strip()) or None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _blas(module) -> str:
    try:
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def environment(threads: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "llc_bytes": llc_bytes(),
    }


def mem_bw_probe(llc: int | None) -> tuple[float, int]:
    """Streaming read bandwidth in GB/s through the same BLAS matrix-vector
    kernel the dense step uses, over a matrix of at least 4x the LLC."""
    import numpy as np

    n_bytes = max(4 * (llc or 0), PROBE_MIN_BYTES)
    cols = 4096
    matrix = np.ones((-(-n_bytes // (8 * cols)), cols))
    x = np.ones(cols)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        matrix @ x
        times.append(time.perf_counter() - start)
    return matrix.nbytes / statistics.median(times) / 1e9, matrix.nbytes


def setup_samples(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up times, one probe process after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_once(cli, cfg, out_dir: Path) -> dict:
    """One run as `kvwave run` does it, timed from execute to the last file."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        result = cli.execute(cfg)
        cli.write_outputs(result, out_dir)
    except Exception:  # a failing run is counted and the loop goes on
        traceback.print_exc()
        error = traceback.format_exc().strip().splitlines()[-1]
        return {"wall": time.perf_counter() - start, "steps": 0, "error": error}
    wall = time.perf_counter() - start
    sim = result.sim
    return {
        "wall": wall,
        "steps": sim.steps_completed,
        "diverged": sim.diverged,
        "residual_rel": sim.identity_residual_max / max(sim.energy_initial, 1.0),
        "identity_ok": workloads.identity_ok(sim.identity_residual_max, sim.energy_initial),
        "digests": workloads.output_digests(out_dir),
    }


def closed_loop(cli, workload: str, runs: list[tuple[str, object]], seconds: float,
                min_iterations: int, reference: dict, tracer: Tracer | None = None) -> list[list[dict]]:
    """Iterations of the workload until `seconds` have passed.

    runs holds (key, RunConfig) pairs.  reference maps each key to the
    digests of its first outputs; a later run whose outputs differ is not
    deterministic.
    """
    iterations: list[list[dict]] = []
    started = time.perf_counter()
    while len(iterations) < min_iterations or time.perf_counter() - started < seconds:
        outcomes = []
        for key, cfg in runs:
            if tracer is not None:
                tracer.run_id = f"{len(iterations)}:{key}"
            outcome = run_once(cli, cfg, OUT / "runs" / workload / key)
            digests = outcome.get("digests")
            outcome["key"] = key
            outcome["deterministic"] = digests is not None and reference.setdefault(key, digests) == digests
            outcome["failed"] = bool(
                "error" in outcome or outcome["diverged"]
                or not outcome["identity_ok"] or not outcome["deterministic"]
            )
            outcomes.append(outcome)
        iterations.append(outcomes)
    return iterations


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        out["high_pct"] = 100.0 * (n - 10) / n
        out["high"] = ordered[n - 11]
    return out


def end_to_end(iterations: list[list[dict]], setup: list[float]) -> dict[str, tuple[float, list[float]]]:
    """name -> (reported value, samples).

    The time of a pass is the sum over its runs of each run's median time,
    so a slow moment of the machine moves one sample of one run, not the
    whole pass.
    """
    by_key: dict[str, list[dict]] = {}
    for outcome in (r for runs in iterations for r in runs):
        by_key.setdefault(outcome["key"], []).append(outcome)
    wall = sum(statistics.median(r["wall"] for r in runs) for runs in by_key.values())
    steps = sum(statistics.median(r["steps"] for r in runs) for runs in by_key.values())
    pass_walls = [sum(r["wall"] for r in runs) for runs in iterations]
    pass_rates = [sum(r["steps"] for r in runs) / w for runs, w in zip(iterations, pass_walls)]
    residuals = [r["residual_rel"] for runs in iterations for r in runs if "residual_rel" in r]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = [sum(r["failed"] for r in runs) for runs in iterations]
    attempted = [len(runs) for runs in iterations]
    return {
        "wall_s": (wall, pass_walls),
        "steps_per_s": (steps / wall, pass_rates),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (rss_mib, [rss_mib]),
        "identity_residual_rel": (max(residuals, default=float("nan")), residuals),
        "error_rate": (sum(failed) / sum(attempted), [f / a for f, a in zip(failed, attempted)]),
    }


def run_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def print_table(rows: dict[str, tuple[float, list[float]]], units: dict[str, str]) -> None:
    print(f"{'metric':44s} {'unit':6s} {'value':>14s} {'median':>14s} {'high':>20s} {'n':>5s}")
    for name, unit in units.items():
        value, samples = rows[name]
        if not samples:
            print(f"{name:44s} {unit:6s} {value:14.6g}")
            continue
        st = summarize(samples)
        high = f"p{st['high_pct']:.0f} {st['high']:.6g}" if "high" in st else "-"
        print(f"{name:44s} {unit:6s} {value:14.6g} {st['median']:14.6g} {high:>20s} {st['n']:5d}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=10 * SUBPROCESS_TIMEOUT_S,
            ).returncode
            for name in workloads.WORKLOADS
        )

    if not (SRC / "kvwave" / "__init__.py").is_file():
        print(f"error: no kvwave sources at {SRC / 'kvwave'}", file=sys.stderr)
        return 2
    threads = pin_environment()
    import kvwave
    from kvwave import cli

    if Path(kvwave.__file__).resolve().parent != (SRC / "kvwave").resolve():
        print(f"error: imported kvwave from {kvwave.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(threads)
    runs = [(workloads.spec_key(spec), workloads.to_config(cli, spec))
            for spec in workloads.specs(args.workload, args.seed)]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} runs_per_iteration={len(runs)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    reference: dict[str, dict] = {}
    record: dict = {"args": vars(args), "env": env}
    if args.trace == 0:
        try:
            setup = setup_samples(args.workload, args.seed)
        except (RuntimeError, subprocess.SubprocessError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        iterations = closed_loop(cli, args.workload, runs, args.seconds, MIN_ITERATIONS, reference)
        rows = end_to_end(iterations, setup)
        units = END_TO_END_UNITS
        table_units = units | ERROR_RATE_UNITS
        restored = True
    else:
        bw_gbs, probe_bytes = mem_bw_probe(env["llc_bytes"])
        print(f"bandwidth probe: {probe_bytes / 2**20:.0f} MiB matrix, llc {env['llc_bytes']} bytes")
        untraced = closed_loop(cli, args.workload, runs, args.seconds / 2, 1, reference)
        with Tracer(kvwave) as tracer:
            traced = closed_loop(cli, args.workload, runs, args.seconds / 2, 1, reference, tracer)
        unrestored = tracer.unrestored()
        restored = not unrestored
        if tracer.missing or unrestored:
            print(f"trace targets missing: {tracer.missing}; not restored: {unrestored}")
        walls = [statistics.median(sum(r["wall"] for r in runs) for runs in loop) for loop in (untraced, traced)]
        overhead = 100.0 * (walls[1] / walls[0] - 1.0)
        metrics = layer_metrics(tracer, len(traced), bw_gbs, overhead)
        rows = {name: (value, []) for name, value in metrics.items()}
        units = table_units = LAYER_UNITS
        iterations = untraced + traced
        record["trace"] = {
            "missing": tracer.missing,
            "unrestored": unrestored,
            "untraced_iterations": len(untraced),
            "stats": {
                name: {"calls": st.calls, "total_ns": st.total_ns, "self_ns": st.self_ns,
                       "log2_ns_hist": st.hist, "counts": st.counts}
                for name, st in tracer.stats.items()
            },
            "spans": tracer.spans,
        }

    outcomes = [r for iteration in iterations for r in iteration]
    failed = sum(r["failed"] for r in outcomes)
    correct = restored and not any(
        "error" in r or r["diverged"] or not r["deterministic"] for r in outcomes
    )
    print_table(rows, table_units)
    gate_breaches = sum(1 for r in outcomes if "error" not in r and not r["identity_ok"])
    print(f"runs attempted={len(outcomes)} failed={failed} identity_gate_breaches={gate_breaches} "
          f"iterations={len(iterations)}")
    for key, digests in sorted(reference.items()):
        print(f"digest {key} {run_digest(digests)}")

    metrics_out = {name: {"value": rows[name][0], "unit": unit} for name, unit in units.items()}
    record.update(
        metrics=metrics_out, correct=correct, attempted=len(outcomes), failed=failed,
        digests=reference,
        runs=[{k: v for k, v in r.items() if k != "digests"} | {"iteration": n}
              for n, iteration in enumerate(iterations) for r in iteration],
    )
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    print(f"details: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
