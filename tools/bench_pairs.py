"""Alternating pairs of benchmark runs of two checkouts, summarized per metric.

    python tools/bench_pairs.py PARENT CHANGE [--pairs N] [--workload W ...]
        [--seconds S] [--seed K] [--json OUT]

PARENT and CHANGE are two checkouts of the repository, for example a clone
of the parent commit and one of the change.  Each pair runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` once in
each checkout, each run in a process of its own; the parent goes first in
the even pairs and the change in the odd ones, so that a drift of the
host's speed does not favour one side.  The workloads default to the ones
that PARENT's BENCHMARK.json gates, and N, S and K to 10, 50 and 1.

For each workload and each end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the per-pair ratio change/parent as its
median, minimum and maximum, how many pairs got worse and how many better
in the metric's own direction, and a verdict:

* "unresolved" where the parent's quartile distance, relative to its
  median, exceeds the metric's bound, so that its own runs spread too
  widely to tell a change within the bound from none, unless every run of
  the change reads better than every run of the parent;
* "gain" where the change is better in at least nine tenths of the pairs
  and the medians differ by more than the parent's quartile distance;
* "worse" where the change's median is worse than the parent's by more
  than the bound;
* "within bound" otherwise.

It also prints each side's run counts (``attempted``) and failed runs,
since ``peak_rss_mb`` grows with the number of runs that fit into S
seconds.  --json writes every run's JSON line and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON line that perfbench/run.py prints last."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=4 * seconds + 600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], metric: str, better: str, bound: float) -> dict:
    """The per-metric summary of one workload's pairs."""
    values = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
    parent, change = values["parent"], values["change"]
    ratios = [c / p for p, c in zip(parent, change) if p]
    sign = 1.0 if better == "lower" else -1.0
    worse = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    spread = p3 - p1
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if pm and spread / abs(pm) > bound and not every_run_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(parent) and sign * (pm - cm) > spread:
        verdict = "gain"
    elif pm and sign * (cm - pm) / abs(pm) > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "parent": [p1, pm, p3], "change": [c1, cm, c3],
        "ratio": [statistics.median(ratios), min(ratios), max(ratios)] if ratios else None,
        "worse": worse, "better": wins, "pairs": len(parent), "verdict": verdict,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="workload to run (repeatable)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="file to write every run and the summary to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    record: dict = {"runs": {}, "summary": {}}
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                line = run_once(checkouts[side], workload, args.seconds, args.seed)
                runs[side].append(line)
                print(f"{workload} pair {pair + 1} {side}: attempted={line['attempted']} "
                      f"wall_s={line['metrics']['wall_s']['value']:.6g}", file=sys.stderr)
        record["runs"][workload] = runs
        counts = {side: [r["attempted"] for r in runs[side]] for side in SIDES}
        failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
        print(f"{workload}: {args.pairs} pairs; runs parent {counts['parent']}, "
              f"change {counts['change']}; failed parent {failed['parent']}, "
              f"change {failed['change']}")
        print(f"  {'metric':22s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} "
              f"{'ratio med [min, max]':>28s} {'worse':>5s} {'better':>6s}  verdict")
        record["summary"][workload] = {}
        for spec in declared["end_to_end"]:
            s = summarize(runs, spec["name"], spec["better"], spec["bound"])
            record["summary"][workload][spec["name"]] = s
            ratio = "n/a" if s["ratio"] is None else "{:.3f} [{:.3f}, {:.3f}]".format(*s["ratio"])
            print(f"  {spec['name']:22s} {'{:.4g} / {:.4g} / {:.4g}'.format(*s['parent']):>34s} "
                  f"{'{:.4g} / {:.4g} / {:.4g}'.format(*s['change']):>34s} {ratio:>28s} "
                  f"{s['worse']:5d} {s['better']:6d}  {s['verdict']} (bound {spec['bound']:g})")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
