import locale
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from kvwave.cli import (
    PRESET_NAMES,
    _fmt,
    execute,
    main,
    parse_config,
    preset,
    resolve_time_step,
    summary_lines,
    validate_config,
    write_energy_csv,
    write_outputs,
    write_snapshot_csv,
    write_summary,
)
from kvwave.diagnostics import EnergyTrace
from kvwave.mesh import Parameters, build_mesh
from kvwave.model import ConfigError, cfl_max_dt, default_initial_data
from kvwave.schemes import build_operators


MATERIAL_TEXT = (
    "rho1 = 2\nrho2 = 4\nrho3 = 1\n"
    "kappa1 = 18\nkappa2 = 4\nkappa3 = 4\ndamping = 2\n"
    "alpha = 1\nbeta = 2\nlength = 3\nt_final = 10\n"
    "n_alpha = 4\nn_damp = 4\nn_beta = 4\ndt = 0.005\n"
)


def material_text(key, value):
    """MATERIAL_TEXT with one key set to another value."""
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", MATERIAL_TEXT, flags=re.M)


def undecodable() -> bytes:
    """A byte the locale's encoding cannot decode: 0xff, in UTF-8 or ASCII."""
    try:
        b"\xff".decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return b"\xff"
    pytest.skip("the locale's encoding decodes every byte")


def small_trace():
    return EnergyTrace(
        step=np.array([0, 100]),
        t=np.array([0.0, 2.5]),
        e_kinetic=np.array([0.8, 0.7]),
        e_potential=np.array([0.9, 0.85]),
        e_total=np.array([1.7, 1.55]),
        dissipation=np.array([0.0, -0.001]),
        residual=np.array([0.0, 1e-15]),
    )


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == (
            "equal-undamped", "equal-damped", "case1", "case2", "case3", "case4",
            "wide-damping",
        )

    def test_equal_damped(self):
        cfg = preset("equal-damped")
        assert cfg.dt == 0.025
        assert cfg.delta == 1.0
        assert cfg.n_steps == 400000
        assert (cfg.n_alpha, cfg.n_damp, cfg.n_beta) == (20, 10, 20)
        assert cfg.scheme == "explicit"

    def test_equal_undamped(self):
        assert preset("equal-undamped").delta == 0.0

    def test_wide_damping_geometry(self):
        cfg = preset("wide-damping")
        assert (cfg.alpha, cfg.beta) == (0.1, 2.9)
        assert cfg.t_final == 100.0 and cfg.n_steps == 4000 and cfg.dt == 0.025
        params = Parameters(
            cfg.c1_sq, cfg.c2_sq, cfg.c3_sq, cfg.delta,
            cfg.alpha, cfg.beta, cfg.length, cfg.t_final,
        )
        mesh = build_mesh(params, cfg.n_alpha, cfg.n_damp, cfg.n_beta)
        assert mesh.h_alpha == pytest.approx(0.025, rel=1e-15)
        assert mesh.h == pytest.approx(0.028, rel=1e-15)

    def test_mismatched_speed_cases_run_below_the_bound(self):
        for name, speeds in (
            ("case1", (9.0, 1.0, 4.0)),
            ("case2", (2.0, 4.0, 0.25)),
            ("case3", (2.0, 4.0, 6.0)),
        ):
            cfg = preset(name)
            assert (cfg.c1_sq, cfg.c2_sq, cfg.c3_sq) == speeds
            assert cfg.dt is None and cfg.cfl_fraction == 0.9
        case4 = preset("case4")
        assert (case4.c1_sq, case4.c2_sq, case4.c3_sq) == (2.0, 4.0, 2.0)
        assert case4.dt == 0.025

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="equal-damped"):
            preset("unknown")


class TestParseConfig:
    def test_preset_with_override(self):
        cfg = parse_config("preset = equal-damped\nscheme = implicit\n")
        assert cfg.scheme == "implicit"
        assert cfg.dt == 0.025 and cfg.delta == 1.0

    def test_dt_and_cfl_fraction_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("preset = equal-damped\ndt = 0.025\ncfl_fraction = 0.5\n")

    def test_override_replaces_time_step_choice(self):
        cfg = parse_config("preset = case1\ndt = 0.01\n")
        assert cfg.dt == 0.01 and cfg.cfl_fraction is None

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config("preset = equal-damped\nn_steps = 0\n")

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config("# nothing but comments\n\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config("preset = equal-damped\nwavelength = 3\n")

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("preset = equal-damped\nthis is not a pair\n")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("preset = equal-damped\ndt = fast\n")

    @pytest.mark.parametrize("every", [2**63, 10**30], ids=["2**63", "10**30"])
    def test_observe_every_beyond_int64_runs_as_n_steps(self, every):
        # any observe_every of n_steps or more keeps steps 0 and n_steps - 1
        text = "preset = wide-damping\nn_steps = 300\nobserve_every = {}\n"
        huge, plain = (execute(parse_config(text.format(e))) for e in (every, 300))
        assert list(huge.sim.trace.step) == [0, 299]
        for column in fields(EnergyTrace):
            assert (getattr(huge.sim.trace, column.name).tobytes()
                    == getattr(plain.sim.trace, column.name).tobytes())
        echo = ("observe_every = ", "result_wall_clock_s = ")
        huge_lines, plain_lines = summary_lines(huge), summary_lines(plain)
        assert f"observe_every = {every}" in huge_lines
        assert ([line for line in huge_lines if not line.startswith(echo)]
                == [line for line in plain_lines if not line.startswith(echo)])

    def test_result_keys_skipped(self):
        cfg = parse_config("preset = equal-damped\nresult_diverged = false\n")
        assert cfg.preset == "equal-damped"

    def test_material_keys(self):
        cfg = parse_config(MATERIAL_TEXT)
        assert (cfg.c1_sq, cfg.c2_sq, cfg.c3_sq) == (9.0, 1.0, 4.0)
        assert cfg.delta == 0.5

    @pytest.mark.parametrize("key, value", [("rho1", "0"), ("rho2", "-4"), ("kappa3", "-1")])
    def test_nonpositive_material_rejected(self, key, value):
        with pytest.raises(ConfigError, match="densities and moduli must be > 0"):
            parse_config(material_text(key, value))

    def test_material_and_speeds_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("preset = equal-damped\nrho1 = 1\nrho2 = 1\nrho3 = 1\n"
                         "kappa1 = 1\nkappa2 = 1\nkappa3 = 1\ndamping = 1\n")

    def test_incomplete_material_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config("rho1 = 1\nkappa1 = 1\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing configuration keys"):
            parse_config("dt = 0.025\n")

    def test_steps_with_cfl_fraction_rejected(self):
        with pytest.raises(ConfigError, match="cfl_fraction"):
            parse_config("preset = case1\nn_steps = 100\n")

    def test_bool_values(self):
        cfg = parse_config("preset = equal-damped\nverify_identity = true\n")
        assert cfg.verify_identity is True
        with pytest.raises(ConfigError, match="true or false"):
            parse_config("preset = equal-damped\nverify_identity = yes\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("\n# comment\npreset = equal-damped  # trailing\n\n")
        assert cfg.preset == "equal-damped"


class TestResolveTimeStep:
    def test_explicit_dt(self):
        cfg = preset("equal-damped")
        params = Parameters(1, 1, 1, 1, 1, 2, 3, 10000.0)
        mesh = build_mesh(params, 20, 10, 20)
        dt, n = resolve_time_step(cfg, params, mesh)
        assert dt == 0.025 and n == 400000

    def test_cfl_fraction_lands_on_final_time(self):
        cfg = preset("case1")
        params = Parameters(9, 1, 4, 1, 1, 2, 3, 10000.0)
        mesh = build_mesh(params, 20, 10, 20)
        dt, n = resolve_time_step(cfg, params, mesh)
        bound = cfl_max_dt(params, mesh)
        assert dt <= 0.9 * bound * (1 + 1e-12)
        assert dt * n == pytest.approx(10000.0, rel=1e-12)

    def test_steps_derived_from_dt(self):
        cfg = replace(preset("equal-damped"), n_steps=None)
        params = Parameters(1, 1, 1, 1, 1, 2, 3, 10000.0)
        mesh = build_mesh(params, 20, 10, 20)
        dt, n = resolve_time_step(cfg, params, mesh)
        assert n == 400000


@pytest.fixture(scope="module")
def short_wide_result():
    cfg = replace(preset("wide-damping"), n_steps=400, verify_identity=True)
    return execute(cfg)


class TestOutputs:
    def test_energy_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "energy.csv"
        write_energy_csv(small_trace(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,e_kinetic,e_potential,e_total,dissipation,residual"
        assert len(lines) == 3
        assert lines[1].startswith("0,0,")

    def test_energy_csv_steps_up_to_2_to_the_53_exactly_and_none_beyond(self, tmp_path):
        # every column is written as a double, which holds each integer up
        # to 2^53 in magnitude, and not 2^53 + 1
        path, cols = tmp_path / "energy.csv", [np.zeros(3)] * 6
        steps = np.array([-2**53, 0, 2**53])
        write_energy_csv(EnergyTrace(steps, *cols), path)
        assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == [
            str(step) for step in steps.tolist()]
        path.unlink()
        for beyond in (2**53 + 1, -2**53 - 1, np.iinfo(np.int64).max, np.iinfo(np.int64).min):
            with pytest.raises(ValueError, match="2\\^53"):
                write_energy_csv(EnergyTrace(np.array([0, 1, beyond]), *cols), path)
            assert not path.exists()

    def test_snapshot_csv_header(self, tmp_path, base_mesh, rng):
        path = tmp_path / "snap.csv"
        values = rng.standard_normal(base_mesh.n_max)
        write_snapshot_csv(values, path, base_mesh.centers)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == base_mesh.n_max + 1
        x0, u0 = lines[1].split(",")
        assert float(x0) == base_mesh.centers[0]
        assert float(u0) == values[0]

    def test_snapshot_values_must_match_the_centers(self, tmp_path, base_mesh):
        path = tmp_path / "snap.csv"
        for values in (np.zeros(base_mesh.n_max - 1), np.zeros(base_mesh.n_max + 1),
                       np.zeros((base_mesh.n_max, 1))):
            with pytest.raises(ValueError, match="cell center"):
                write_snapshot_csv(values, path, base_mesh.centers)
        assert not path.exists()

    def test_numbers_round_trip_exactly(self, tmp_path):
        path = tmp_path / "energy.csv"
        trace = small_trace()
        write_energy_csv(trace, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for i, row in enumerate(rows):
            assert float(row[4]) == trace.e_total[i]
            assert float(row[6]) == trace.residual[i]

    def test_csv_bytes_match_per_value_formatting(self, tmp_path, base_mesh):
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0 / 3.0, -2.5e-7, 123456.789])
        cols = [np.roll(special, k) for k in range(6)]
        trace = EnergyTrace(np.arange(len(special)) * 100, *cols)
        energy = tmp_path / "energy.csv"
        write_energy_csv(trace, energy)
        rows = ["step,t,e_kinetic,e_potential,e_total,dissipation,residual"] + [
            ",".join([str(int(trace.step[i]))] + [_fmt(float(c[i])) for c in cols])
            for i in range(len(special))
        ]
        assert energy.read_bytes() == ("\n".join(rows) + "\n").encode()

        values = np.resize(special, base_mesh.n_max)
        snapshot = tmp_path / "snap.csv"
        write_snapshot_csv(values, snapshot, base_mesh.centers)
        rows = ["x,u"] + [
            f"{_fmt(float(x))},{_fmt(float(u))}" for x, u in zip(base_mesh.centers, values)
        ]
        assert snapshot.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_one_call_writers_match_per_value_format_on_edge_values(self, tmp_path, base_mesh):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                float("nan"), float("inf"), float("-inf"), 0.1]
        cols = [np.roll(edge, k) for k in range(6)]
        steps = np.arange(len(edge)) * 7
        energy = tmp_path / "energy.csv"
        write_energy_csv(EnergyTrace(steps, *cols), energy)
        rows = ["step,t,e_kinetic,e_potential,e_total,dissipation,residual"] + [
            ",".join(["{}".format(int(steps[i]))] + ["{:.17g}".format(c[i]) for c in cols])
            for i in range(len(edge))
        ]
        assert energy.read_bytes() == ("\n".join(rows) + "\n").encode()
        tokens = set(energy.read_text().replace("\n", ",").split(","))
        assert {"-0", "4.9406564584124654e-324", "-1.7976931348623157e+308", "nan", "inf", "-inf"} <= tokens

        values = np.resize(edge, base_mesh.n_max)
        expected = "\n".join(["x,u"] + [
            "{:.17g},{:.17g}".format(x, u) for x, u in zip(base_mesh.centers.tolist(), values.tolist())
        ]) + "\n"
        snapshot = tmp_path / "snap.csv"
        write_snapshot_csv(values, snapshot, base_mesh.centers)
        assert snapshot.read_bytes() == expected.encode()

    def test_summary_round_trips_to_identical_config(self, short_wide_result, tmp_path):
        # an out_dir with spaces and '=' inside is echoed as it reads back
        path = tmp_path / "summary.txt"
        for out_dir in (short_wide_result.config.out_dir, "runs/damped run = 2"):
            cfg = replace(short_wide_result.config, out_dir=out_dir)
            write_summary(replace(short_wide_result, config=cfg), path)
            assert parse_config(path.read_text()) == cfg

    def test_summary_contains_results(self, short_wide_result):
        text = "\n".join(summary_lines(short_wide_result))
        for key in (
            "result_cfl_verdict", "result_identity_residual_max",
            "result_energy_drift_max", "result_fit_window_lo", "result_wall_clock_s",
        ):
            assert key in text
        # short run leaves the default window empty, so fit errors are echoed
        assert "result_exponential_error" in text or "result_exponential_rate" in text

    def test_overflowing_energies_report_no_clean_identity(self, tmp_path):
        # at dt = 1e-310 the kinetic rate (u1 - u0) / dt overflows: every
        # energy is inf and every residual NaN, and the maxima keep the NaN
        path = tmp_path / "run.cfg"
        path.write_text("preset = equal-damped\nscheme = implicit\ndt = 1e-310\nn_steps = 5\n"
                        "verify_identity = true\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert {"result_energy_initial = inf", "result_energy_drift_max = nan",
                "result_energy_rise_max = nan", "result_identity_residual_max = nan",
                "result_verified_steps = 4"} <= set(summary)

    def test_write_outputs_set(self, short_wide_result, tmp_path):
        written = write_outputs(short_wide_result, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert "energy.csv" in names and "summary.txt" in names
        assert sum(1 for n in names if n.startswith("snapshot_step")) == 3

    def test_runs_of_other_sizes_in_between_change_no_output(self, tmp_path):
        # A, B, A, B, ... in one process, verified and plain: every run of a
        # configuration writes the bytes of its first run, whatever ran in
        # between.  Mesh objects die and their ids come back, so a cache
        # keyed on a mesh's id fails this.
        a = replace(preset("wide-damping"), n_steps=1500, observe_every=7)
        b = replace(preset("equal-damped"), n_alpha=400, n_damp=200, n_beta=400, dt=0.001,
                    n_steps=90)
        for verify in (False, True):
            first = {}
            for i in range(8):
                for name, cfg in (("a", a), ("b", b)):
                    out = tmp_path / f"{verify}-{name}-{i}"
                    write_outputs(execute(replace(cfg, verify_identity=verify)), out)
                    files = {p.name: p.read_bytes() for p in out.iterdir()}
                    files["summary.txt"] = re.sub(
                        rb"result_wall_clock_s = .*", b"", files["summary.txt"]
                    )
                    assert len(files) == 5 and files == first.setdefault(name, files)

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = replace(preset("wide-damping"), n_steps=300)
        a = execute(cfg)
        b = execute(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_energy_csv(a.sim.trace, pa)
        write_energy_csv(b.sim.trace, pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestMain:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7
        assert "wide-damping" in out

    def test_run_preset_writes_outputs(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "equal-undamped", "--steps", "2000",
            "--out", str(tmp_path / "undamped"),
        ])
        assert code == 0
        energy = (tmp_path / "undamped" / "energy.csv").read_text().splitlines()
        assert energy[0] == "step,t,e_kinetic,e_potential,e_total,dissipation,residual"
        e_total = np.array([float(line.split(",")[4]) for line in energy[1:]])
        assert np.max(np.abs(e_total - e_total[0])) <= 1e-9 * e_total[0]
        assert (tmp_path / "undamped" / "summary.txt").exists()

    @pytest.mark.parametrize("name", ["energy.csv", "summary.txt"])
    def test_unwritable_output_file_exits_3(self, tmp_path, capsys, name):
        # a directory in the place of the first or the last file written
        (tmp_path / "out" / name).mkdir(parents=True)
        code = main(["run", "--preset", "equal-undamped", "--steps", "200",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: cannot write outputs under")

    def test_run_refuses_unstable_explicit(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "case1", "--scheme", "explicit", "--dt", "0.025",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "stability bound" in capsys.readouterr().err

    def test_cfl_override_allows_divergent_run(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "equal-undamped", "--dt", "0.0525", "--steps", "5000",
            "--cfl-override", "--out", str(tmp_path / "blowup"),
        ])
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        summary = (tmp_path / "blowup" / "summary.txt").read_text()
        assert "result_diverged = true" in summary
        assert "result_cfl_verdict = unstable" in summary

    def test_unknown_preset_usage_error(self, capsys):
        assert main(["run", "--preset", "nope", "--out", "x"]) == 1
        assert "available" in capsys.readouterr().err

    def test_fit_subcommand(self, tmp_path, capsys):
        t = np.linspace(0.0, 100.0, 201)
        trace = EnergyTrace(
            step=np.arange(201), t=t,
            e_kinetic=np.zeros(201), e_potential=np.zeros(201),
            e_total=np.exp(-0.25 * t), dissipation=np.zeros(201),
            residual=np.zeros(201),
        )
        path = tmp_path / "energy.csv"
        write_energy_csv(trace, path)
        assert main(["fit", "--energy-csv", str(path), "--window", "10,100"]) == 0
        out = capsys.readouterr().out
        rate = float(next(l for l in out.splitlines() if l.startswith("exponential_rate")).split("=")[1])
        assert rate == pytest.approx(0.25, rel=1e-10)

    def test_fit_subcommand_prints_the_runs_own_fits(self, tmp_path, capsys):
        # energy.csv holds t and e_total exactly, so refitting it over the
        # run's window prints every fit value of its summary, same digits
        out = tmp_path / "wide"
        assert main(["run", "--preset", "wide-damping", "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        window = [line.split(" = ")[1] for line in summary if line.startswith("result_fit_window")]
        capsys.readouterr()
        assert main(["fit", "--energy-csv", str(out / "energy.csv"),
                     "--window", ",".join(window)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 8
        assert set(f"result_{line}" for line in printed) <= set(summary)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_fit_non_finite_energy_is_a_fit_error(self, tmp_path, capsys, value):
        t = np.linspace(0.0, 29.0, 30)
        e = np.exp(-0.25 * t)
        e[12] = value
        trace = EnergyTrace(step=np.arange(30), t=t, e_kinetic=e, e_potential=np.zeros(30),
                            e_total=e, dissipation=np.zeros(30), residual=np.zeros(30))
        path = tmp_path / "energy.csv"
        write_energy_csv(trace, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--energy-csv", str(path), "--window", "1,29"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{model}_error = non-finite time or energy inside the fit window"
            for model in ("exponential", "polynomial")]

    def test_fit_bad_window(self, tmp_path, capsys):
        path = tmp_path / "energy.csv"
        write_energy_csv(small_trace(), path)
        assert main(["fit", "--energy-csv", str(path), "--window", "oops"]) == 1

    def test_fit_missing_file_is_io_error(self, capsys):
        assert main(["fit", "--energy-csv", "/definitely/not/here.csv",
                     "--window", "0,1"]) == 3

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/no/such/config.txt"]) == 1

    def test_config_file_run(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "preset = wide-damping\nn_steps = 300\nout_dir = "
            + str(tmp_path / "cfgout") + "\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cfgout" / "energy.csv").exists()

    def test_nonpositive_material_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "material.cfg"
        cfg_path.write_text(material_text("rho2", "0"))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "densities and moduli must be > 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, reason", [
        ("preset = case1\nt_final = inf\n", "values must be finite: t_final"),
        ("preset = equal-damped\nlength = inf\n", "values must be finite: length"),
        ("preset = equal-damped\nlength = 1e300\nbeta = 1e299\n",  # length**2 overflows
         "length must lie strictly between 2**-511 and 2**512"),
        ("preset = equal-damped\ndelta = inf\n", "values must be finite: delta"),
        ("preset = equal-damped\ndelta = 1e308\n",  # L loses positive definiteness to rounding
         "matrix not positive definite"),
        ("preset = equal-damped\nscheme = implicit\ndt = 1e200\n",  # dt^2 S overflows
         "matrix entries must be finite"),
        ("preset = equal-damped\nscheme = implicit\ndt = inf\n", "values must be finite: dt"),
        ("preset = equal-damped\nn_damp = 1\n", "n_damp must be >= 2"),
        ("preset = case1\nt_final = 1e300\ncfl_fraction = 1e-300\n",  # the step count overflows
         "cannot set up the run: the time step for t_final = 1e+300, cfl_fraction = 1e-300: "
         "t_final gives n_steps = inf, more than 9223372036854775806"),
        ("preset = equal-damped\nlength = 1e-170\nalpha = 1e-171\nbeta = 2e-171\n",
         "length must lie strictly between 2**-511 and 2**512"),  # 4 / length**2 is inf
        ("preset = equal-damped\nlength = 1e-150\nalpha = 1e-160\nbeta = 5e-151\nc1_sq = 1e300\n"
         "c2_sq = 1e-175\nc3_sq = 1e-175\nscheme = implicit\ndt = 1e-8\nn_steps = 50\n"
         "t_final = 1e-8\n",  # the interface coefficient's denominator underflows to 0
         "cannot set up the implicit run at dt = 1e-08: the operators: "),
        ("preset = equal-damped\nlength = 1e-100\nalpha = 3e-101\nbeta = 9e-101\n"
         "scheme = implicit\ndt = 1e-300\nn_steps = 5\n",  # 4 dt h underflows to 0
         "cannot set up the implicit run at dt = 1e-300: the operators: "),
        ("preset = equal-damped\nlength = 1e-160\nalpha = 1e-170\nbeta = 5e-161\n"
         "scheme = implicit\ndt = 1\nn_steps = 1\n",  # the arch's scale overflows
         "length must lie strictly between 2**-511 and 2**512"),
        # step counts whose last layer the kernel cannot index, and a trace
        # of a row per step that no memory holds
        ("preset = equal-damped\nn_steps = 1000000000000000000000000000000\n",
         "n_steps = 1e+30 lies outside 1 .. 9223372036854775806, the step counts whose last "
         "layer the kernel can index"),
        ("c1_sq = 1\nc2_sq = 1\nc3_sq = 1\ndelta = 1\nalpha = 1\nbeta = 2\nlength = 3\n"
         "n_alpha = 20\nn_damp = 10\nn_beta = 20\ndt = 0.025\nt_final = 1e300\n",
         "cannot set up the run: the time step for t_final = 1e+300, dt = 0.025: t_final gives "
         "n_steps = 4e+301, more than 9223372036854775806"),
        ("c1_sq = 1\nc2_sq = 1\nc3_sq = 1\ndelta = 1\nalpha = 1\nbeta = 2\nlength = 3\n"
         "n_alpha = 20\nn_damp = 10\nn_beta = 20\ndt = 1e-300\nt_final = 1e300\n",
         "cannot set up the run: the time step for t_final = 1e+300, dt = 1e-300: t_final gives "
         "n_steps = inf, more than 9223372036854775806"),
        ("preset = equal-damped\nn_steps = 1000000000000000\nobserve_every = 1\n",
         "cannot set up the explicit run at dt = 0.025: the energy trace: Unable to allocate"),
    ], ids=["t_final-inf", "length-inf", "length-1e300", "delta-inf", "delta-1e308",
            "dt-1e200", "dt-inf", "n_damp-1", "steps-overflow", "length-1e-170",
            "interface-underflow", "dissipation-underflow", "arch-overflow",
            "steps-beyond-index", "derived-steps-beyond-index", "derived-steps-infinite",
            "trace-beyond-memory"])
    def test_unusable_config_exits_1_with_one_error_line(self, tmp_path, capsys, text, reason):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print lines of its own
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and reason in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # the undecodable argv byte 0xff arrives as the surrogate \udcff
    @pytest.mark.parametrize("out_dir", ["o\udcff", "a#b", "b\nscheme = implicit", " c"],
                             ids=["unencodable", "comment", "line-break", "leading-space"])
    def test_out_dir_the_summary_cannot_echo_exits_1(self, tmp_path, monkeypatch, capsys,
                                                     out_dir):
        # summary.txt echoes out_dir as a configuration line: a value that the
        # locale's encoding cannot write, or that parse_config would read back
        # as another value or as more keys, is refused before anything is
        # written
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--preset", "wide-damping", "--steps", "10", "--out", out_dir]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: out_dir ")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_config_not_in_the_locale_encoding_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"preset = wide-damping\n# " + undecodable() + b"\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read config")
        assert not (tmp_path / "out").exists()

    def test_energy_csv_not_in_the_locale_encoding_exits_1(self, tmp_path, capsys):
        path = tmp_path / "energy.csv"
        path.write_bytes(b"step,t,e_total\n0,0," + undecodable() + b"\n")
        assert main(["fit", "--energy-csv", str(path), "--window", "0,1"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read energy CSV")

    @pytest.mark.skipif(sys.platform != "linux", reason="caps the address space through Linux")
    def test_mesh_too_large_to_allocate_exits_1(self, tmp_path):
        # a child process whose address space is capped 1 GiB above its size
        # after the import, so that no allocation of the mesh can succeed
        child = (
            "import resource, sys\n"
            "from kvwave.cli import main\n"
            "size = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "            if line.startswith('VmSize:')) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, resource.RLIM_INFINITY))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        path = tmp_path / "huge.cfg"
        path.write_text("preset = equal-damped\nn_alpha = 100000000000\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child, "run", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=120, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 1, done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: cannot set up the run: ")
        assert "allocate" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_run_requires_source(self, capsys):
        assert main(["run"]) == 1


class TestLargeMesh:
    COUNTS = (20000, 10000, 20000)

    @pytest.mark.parametrize(
        "scheme, verify",
        [("explicit", False), ("implicit", False), ("explicit", True), ("implicit", True)],
        ids=["explicit", "implicit", "explicit-verified", "implicit-verified"],
    )
    def test_fifty_thousand_cells_run_in_linear_memory(self, scheme, verify):
        params = Parameters(1, 1, 1, 1, 1, 2, 3, 10000.0)
        mesh = build_mesh(params, *self.COUNTS)
        dt = 0.9 * cfl_max_dt(params, mesh)
        cfg = replace(
            preset("equal-damped"), scheme=scheme, dt=dt, n_steps=200, verify_identity=verify,
            n_alpha=self.COUNTS[0], n_damp=self.COUNTS[1], n_beta=self.COUNTS[2],
        )
        tracemalloc.start()
        try:
            result = execute(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.sim.diverged
        assert result.sim.steps_completed == 200
        assert np.all(np.isfinite(result.sim.u_curr))
        assert result.sim.verified_steps == (199 if verify else 2)
        if verify:
            tol = 1e-11 * max(result.sim.energy_initial, 1.0)
            assert result.sim.identity_residual_max <= tol
        assert peak < 64 * 2**20

        n = mesh.n_max
        ops = build_operators(mesh, params, dt, scheme)
        held = []
        for value in vars(ops).values():
            held.append(value)
            if is_dataclass(value):
                held += vars(value).values()
        sizes = [a.size for a in held if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= 3 * n


class TestRunConfigValidation:
    def test_fit_window_fractions(self):
        with pytest.raises(ConfigError, match="fit"):
            parse_config("preset = equal-damped\nfit_lo = 0.9\nfit_hi = 0.5\n")

    def test_cfl_fraction_range(self):
        with pytest.raises(ConfigError, match="cfl_fraction"):
            parse_config("preset = equal-damped\ncfl_fraction = 1.5\n")

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("preset = equal-damped\nscheme = magic\n")

    def test_bad_geometry_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config(
                "c1_sq = 1\nc2_sq = 1\nc3_sq = 1\ndelta = 0\n"
                "alpha = 2\nbeta = 1\nlength = 3\nt_final = 1\n"
                "n_alpha = 2\nn_damp = 2\nn_beta = 2\ndt = 0.01\n"
            )

    def test_length_range_is_where_the_initial_data_can_be_formed(self):
        # the smallest length whose 4 / length**2 is finite, the largest whose
        # square is finite, and the floats past them: validation accepts a
        # length exactly when default_initial_data forms a finite arch
        smallest, largest = float(np.nextafter(2.0**-511, 1.0)), float(np.nextafter(2.0**512, 0.0))
        for length, valid in ((smallest, True), (2.0**-511, False), (largest, True),
                              (2.0**512, False)):
            cfg = replace(preset("equal-damped"), length=length, alpha=length / 3,
                          beta=2 * length / 3)
            if valid:
                validate_config(cfg)
                x = np.linspace(0.0, length, 5)
                assert np.isfinite(default_initial_data(length).phi(x)).all()
            else:
                with pytest.raises(ConfigError,
                                   match=r"strictly between 2\*\*-511 and 2\*\*512"):
                    validate_config(cfg)
                try:
                    scale = 4.0 / length**2
                except OverflowError:  # of length**2
                    scale = math.inf
                assert scale == math.inf
