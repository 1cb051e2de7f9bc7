"""The pair summary of tools/bench_pairs.py: ratios, counts and verdicts."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def runs(parent, change):
    def lines(values):
        return [{"metrics": {"m": {"value": v}}} for v in values]
    return {"parent": lines(parent), "change": lines(change)}


@pytest.mark.parametrize("parent, change, better, verdict", [
    # better in every pair, by more than the parent's quartile distance
    ([1.0, 1.1, 0.9, 1.0], [0.7, 0.72, 0.69, 0.71], "lower", "gain"),
    ([1.0, 1.1, 0.9, 1.0], [1.3, 1.32, 1.29, 1.31], "higher", "gain"),
    # the parent spreads past the bound: unresolved, unless every run of
    # the change reads better than every run of the parent
    ([1.0, 2.0, 0.5, 1.0], [0.9, 2.1, 0.6, 1.0], "lower", "unresolved"),
    ([1.0, 2.0, 0.5, 1.0], [0.4, 0.3, 0.35, 0.2], "lower", "gain"),
    ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", "worse"),
    ([1.0, 1.0, 1.0], [0.7, 0.7, 0.7], "higher", "worse"),
    ([1.0, 1.0, 1.0], [1.1, 0.9, 1.0], "lower", "within bound"),
])
def test_verdicts(parent, change, better, verdict):
    assert bench_pairs.summarize(runs(parent, change), "m", better, 0.25)["verdict"] == verdict


def test_ratios_and_counts():
    s = bench_pairs.summarize(runs([1.0, 2.0, 4.0], [0.5, 2.0, 5.0]), "m", "lower", 0.25)
    assert s["ratio"] == [1.0, 0.5, 1.25]
    assert (s["worse"], s["better"], s["pairs"]) == (1, 1, 3)
    assert s["parent"][1] == 2.0 and s["change"][1] == 2.0
