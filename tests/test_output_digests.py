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


def test_runs_include_the_edges_of_the_kept_step_rule():
    # one step; a last step on a multiple of observe_every; observe_every
    # far beyond n_steps; and the diverging run, which stops at layer 42,
    # keeping steps 10 .. 40, or only 41, which it never reaches
    runs = output_digests.configs(kvwave, None)
    for mode in ("plain", "verified"):
        assert runs[f"one-step-{mode}"].n_steps == 1
        cfg = runs[f"wide-damping-4001-steps-{mode}"]
        assert (cfg.n_steps - 1) % cfg.observe_every == 0
        assert runs[f"wide-damping-every-1e30-{mode}"].observe_every == 10**30
        for every, last_kept in ((10, 40), (41, 0)):
            sim = kvwave.cli.execute(runs[f"diverging-explicit-every{every}-{mode}"]).sim
            assert sim.divergence_step == 42 and sim.trace.step[-1] == last_kept


def test_a_diverging_run_stops_after_its_first_step_call():
    # the 5000-cell run's first step call ends at its mid-run snapshot, and
    # the run diverges in the call after it, from the layers carried over
    cfg = output_digests.configs(kvwave, None)["mesh5000-diverging-explicit-plain"]
    sim = kvwave.cli.execute(cfg).sim
    assert sim.diverged and sim.divergence_step > cfg.n_steps // 2 + 1
    assert [s.step for s in sim.snapshots] == [0, cfg.n_steps // 2]


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


def test_cflags_digest_with_a_kernel_built_outside_the_package(tmp_path, monkeypatch):
    # the -O0 build is loaded in place of the package's, whose __pycache__
    # it leaves alone, and gives the same digests
    linalg = kvwave.linalg
    monkeypatch.setattr(linalg, "_kernel", linalg._kernel)  # restored after the test
    monkeypatch.setattr(output_digests, "configs",
                        lambda kvwave, steps: {"wide": kvwave.cli.preset("wide-damping")})
    cache = sorted(Path(linalg.__file__).with_name("__pycache__").glob("kernel*"))
    package, rebuilt = tmp_path / "package.json", tmp_path / "rebuilt.json"
    assert output_digests.main([str(package)]) == 0
    assert output_digests.main([str(rebuilt), "--cflags=-O0"]) == 0
    assert "__pycache__" not in linalg._kernel._name
    assert sorted(Path(linalg.__file__).with_name("__pycache__").glob("kernel*")) == cache
    assert json.loads(package.read_text()) == json.loads(rebuilt.read_text())
