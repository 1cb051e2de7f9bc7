"""The byte-identity tool: its run set, and its comparison (identical digests
pass, any change fails)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digests  # noqa: E402
from workloads import SWEEP_TOTAL_CELLS  # noqa: E402  (on the path through output_digests)

import kvwave  # noqa: E402

BEFORE = {"run-a": {"energy.csv": "aa", "summary.txt": "bb"}, "run-b": {"energy.csv": "cc"}}


def compare_exit(tmp_path, after, before=BEFORE) -> int:
    a, b = tmp_path / "before.json", tmp_path / "after.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    return output_digests.main(["--compare", str(a), str(b)])


def test_identical_digests_pass(tmp_path):
    assert compare_exit(tmp_path, BEFORE) == 0


def test_changed_missing_or_extra_entries_fail(tmp_path):
    changed = {"run-a": {"energy.csv": "aa", "summary.txt": "xx"}, "run-b": {"energy.csv": "cc"}}
    no_file = {"run-a": {"energy.csv": "aa"}, "run-b": {"energy.csv": "cc"}}
    no_run = {"run-a": BEFORE["run-a"]}
    extra_run = dict(BEFORE, run_c={"energy.csv": "dd"})
    for after in (changed, no_file, no_run, extra_run):
        assert compare_exit(tmp_path, after) == 1
    assert output_digests.compare(BEFORE, changed) == ["run-a/summary.txt: bb != xx"]


def test_environment_mismatch_is_printed_before_the_diff(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    env = output_digests.environment()
    assert env["OPENBLAS_CORETYPE"] == "Haswell" and "cpu_model" in env
    before = dict(BEFORE, _environment={"OPENBLAS_CORETYPE": None, "cpu_model": "cpu A"})
    after = dict(BEFORE, _environment={"OPENBLAS_CORETYPE": "Haswell", "cpu_model": "cpu A"})
    assert compare_exit(tmp_path, after, before) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "environment differs, so may the output bits: OPENBLAS_CORETYPE None != 'Haswell'",
        "2 runs identical",
    ]
    changed = dict(after, **{"run-b": {"energy.csv": "dd"}})
    assert compare_exit(tmp_path, changed, before) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("environment differs") and lines[1:] == ["run-b/energy.csv: cc != dd"]
    # a file written before the environment was recorded
    assert compare_exit(tmp_path, BEFORE, before) == 0
    assert capsys.readouterr().out.splitlines() == [
        "environment differs, so may the output bits: OPENBLAS_CORETYPE None != 'unrecorded'",
        "environment differs, so may the output bits: cpu_model 'cpu A' != 'unrecorded'",
        "2 runs identical",
    ]


def test_runs_include_the_benchmark_sweep_and_dense_trace():
    runs = output_digests.configs(kvwave, None)
    dense = ["dense-trace", "dense-trace-explicit"]
    for name in [f"sweep-n{total:03d}" for total in SWEEP_TOTAL_CELLS] + dense:
        assert runs[f"{name}-plain"].verify_identity is False
        assert runs[f"{name}-verified"].verify_identity is True
    # both schemes record every step
    assert {runs[f"{name}-plain"].scheme for name in dense} == {"implicit", "explicit"}
    assert all(runs[f"{name}-plain"].observe_every == 1 for name in dense)


def test_kvwave_fit_output_is_digested_over_two_windows(tmp_path, monkeypatch):
    cfg = kvwave.cli.preset("wide-damping")
    run_dir = tmp_path / "run"
    kvwave.cli.write_outputs(kvwave.cli.execute(cfg), run_dir)
    outputs = output_digests.fit_outputs(kvwave.cli, run_dir)
    # over the summary's window, fit prints the run's own fit lines
    summary = set((run_dir / "summary.txt").read_text().splitlines())
    printed = outputs["fit:summary-window"].splitlines()
    assert len(printed) == 8 and {f"result_{line}" for line in printed} <= summary
    assert [line.split(" = ")[0] for line in outputs["fit:failing-window"].splitlines()] == [
        "exponential_error", "polynomial_error",
    ]
    monkeypatch.setattr(output_digests, "configs", lambda kvwave, steps: {"wide": cfg})
    digests = output_digests.digest_runs(kvwave, None)["wide"]
    assert {"energy.csv", "summary.txt", "fit:summary-window", "fit:failing-window"} <= digests.keys()
