"""Baseline file of the kvwave benchmark: each gated workload's result.

    python tools/bench_baseline.py BENCH_N.json [--checkout DIR]

For every workload that BENCHMARK.json gates, one after another, this runs
the checkout's own ``perfbench/run.py --workload W --seed 1 --seconds 50
--trace 0`` and keeps the JSON line it prints last.  The output file holds
those lines by workload, the environment the benchmark recorded, the host,
and the checkout's git revision with a flag for uncommitted changes and the
sha256 of its ``src/kvwave`` sources, Python and C.  A file measured with
uncommitted changes is identified by that sha256, not by the revision,
which is then the commit the changes were made on.  --checkout defaults to this
repository; point it at a clone of another revision to measure that one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

from bench_pairs import run_once  # tools/, the script's own directory, is on the path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 50
SEED = 1


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def sources_sha256(checkout: Path) -> str:
    """sha256 of the package's Python and C sources, by file name."""
    digest = hashlib.sha256()
    package = checkout / "src" / "kvwave"
    for path in sorted([*package.glob("*.py"), *package.glob("*.c")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), None)


def run_workload(checkout: Path, workload: str) -> tuple[dict, dict]:
    """(last JSON line, recorded environment) of one benchmark run."""
    line = run_once(checkout, workload, SECONDS, SEED)
    details = checkout / ".perfbench-out" / "results" / f"{workload}-seed{SEED}-trace0.json"
    return line, json.loads(details.read_text())["env"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="JSON file to write")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose benchmark and sources to run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    gated = [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    record = {
        "revision": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "sources_sha256": sources_sha256(checkout),
        "command": f"perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0",
        "host": {"platform": platform.platform(), "cpu": cpu_model()},
        "workloads": {},
    }
    for workload in gated:
        line, env = run_workload(checkout, workload)
        record["env"] = env
        record["workloads"][workload] = line
        print(f"{workload}: {json.dumps(line['metrics'])}", file=sys.stderr)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
