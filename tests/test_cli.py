import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tflow
from tflow import dynamics, models, operators, tf
from tflow.cli import main
from tflow.dynamics import TimeGrid

THREE_ROOT_SIX = 3.0 * np.sqrt(6.0)
THREE_ROOT_THREE = 3.0 * np.sqrt(3.0)


def _read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_two_level_constant_drive_run(tmp_path):
    rc = main(["two-level", "--omega0", "1.0", "--points", "1000",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    assert report["results"]["closed_form_mean"] == pytest.approx(np.pi / 2, rel=1e-9)
    assert report["results"]["grid_mean"] == pytest.approx(np.pi / 2, rel=1e-3)
    lines = _csv_lines(tmp_path / "two_level_series.csv")
    assert lines[0] == "# manifest: two_level_report.json"
    assert lines[1] == "time,p_1,pi_tf,segment"
    assert len(lines) == 2 + 1000
    assert report["manifest"]["command"] == "two-level"
    assert set(report) == {"manifest", "inputs", "series_files", "results",
                           "bounds", "diagnostics"}


def test_two_level_constant_drive_reports_the_closed_system_bounds(tmp_path):
    # a constant drive's H is constant, so the default run has the bounds of
    # tau_TF = dtheta / (sqrt 2 Delta_k H) and Delta T Delta_k H >= dtheta / (6 sqrt 3)
    assert main(["two-level", "--outdir", str(tmp_path / "constant")]) == 0
    report = _read_report(tmp_path / "constant" / "two_level_report.json")
    bounds, omega0 = report["bounds"], report["inputs"]["omega0"]
    assert bounds["tau_tf_closed_printed"] is not None
    assert bounds["tau_tf_closed_derived"] == pytest.approx(bounds["tau_tf"], rel=1e-15)
    assert bounds["uncertainty_product"] == pytest.approx(
        bounds["measured"]["std"] * abs(omega0) / 2.0, rel=1e-15)
    assert bounds["satisfied"]["uncertainty"] is True
    # a polynomial drive's H is time-dependent, even with all-zero coefficients
    assert main(["two-level", "--waveform", "polynomial", "--t-end", "3",
                 "--outdir", str(tmp_path / "polynomial")]) == 0
    bounds = _read_report(tmp_path / "polynomial" / "two_level_report.json")["bounds"]
    assert [bounds[key] for key in ("tau_tf_closed_printed", "tau_tf_closed_derived",
                                    "uncertainty_product")] == [None] * 3
    assert "uncertainty" not in bounds["satisfied"]


def test_two_level_departure_arrival_boundary(tmp_path):
    rc = main(["two-level", "--theta", str(np.pi / 3), "--phi", str(np.pi / 2),
               "--omega0", "1.0", "--t-end", str(np.pi), "--points", "3000",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    assert report["results"]["boundaries"][0] == pytest.approx(np.pi / 3, abs=2e-3)
    kinds = [seg["kind"] for seg in report["results"]["segments"]]
    assert kinds == ["TOD", "TOA"]


def test_two_level_t_start_moves_the_window(tmp_path):
    rc = main(["two-level", "--t-start", "0.5", "--t-end", "3", "--points", "2001",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    assert report["inputs"]["t_start"] == 0.5
    assert _csv_lines(tmp_path / "two_level_series.csv")[2].split(",")[0] == "0.5"
    results = report["results"]
    assert results["segments"] == [{"t_start": 0.5, "t_end": 3.0, "kind": "TOA"}]
    # closed-form moments on [0.5, 3], recorded when this test was written
    closed = (results["closed_form_mean"], results["closed_form_std"])
    assert closed == (1.644090943623663, 0.618034638927136)
    assert abs(results["grid_mean"] - closed[0]) <= 1e-7
    assert abs(results["grid_std"] - closed[1]) <= 1e-7


@pytest.mark.parametrize("t_end", [None, "1"], ids=["pi-transfer", "t-end-1"])
def test_two_level_two_points_exit_2_and_write_nothing(tmp_path, capsys, t_end):
    # the full pi transfer exited 3 as a flat flow: its rate vanishes at both
    # grid points, and the rate samples were normalized first
    argv = ["two-level", "--points", "2", "--outdir", str(tmp_path / "out")]
    assert main(argv + (["--t-end", t_end] if t_end else [])) == 2
    err = capsys.readouterr().err
    assert "error: need at least 3 samples to estimate a flow density\n" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_two_level_protocol_outputs(tmp_path):
    rc = main(["two-level", "--omega0", "1.0", "--points", "100",
               "--protocol", "10000", "--seed", "5", "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    stats = report["diagnostics"]["protocol"]
    assert stats["n_trials"] == 10000
    assert stats["freq_sup_error"] <= 5.0 / np.sqrt(10000)
    assert (tmp_path / "two_level_protocol.csv").exists()
    assert (tmp_path / "two_level_frequencies.csv").exists()


def test_two_level_protocol_negative_seed(tmp_path):
    # Philox wraps the seed word, so -1 keys the streams as 2**64 - 1
    rc = main(["two-level", "--omega0", "1.0", "--points", "100",
               "--protocol", "1000", "--seed", "-1", "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    assert report["diagnostics"]["protocol"]["n_trials"] == 1000


def test_missing_required_flag_exits_2(tmp_path, capsys):
    rc = main(["lambda", "--omega1", "1.0", "--outdir", str(tmp_path)])
    assert rc == 2


def test_unknown_command_exits_2():
    assert main(["warp"]) == 2


def test_flat_dynamics_exits_3(tmp_path, capsys):
    rc = main(["two-level", "--omega0", "0.0", "--t-end", "1.0",
               "--outdir", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_moment_arithmetic_never_exits_1(tmp_path, capsys):
    # each exited 1: (pi / w)^2 raised OverflowError, and alpha * n overflowed
    def run(*argv):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([*argv, "--points", "50", "--outdir", str(out)]), out

    rc, out = run("two-level", "--omega0", "1e-160", "--t-end", "1")
    assert rc == 3
    assert "flow is flat" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []
    # the --omega0 1 run in time rescaled by 1e155
    rc, out = run("two-level", "--omega0", "1e-155")
    assert rc == 0
    results = _read_report(out / "two_level_report.json")["results"]
    assert results["closed_form_mean"] == pytest.approx(1e155 * np.pi / 2, rel=1e-12)
    assert results["closed_form_std"] == pytest.approx(1e155 * 0.683667390089903, rel=1e-12)
    rc, out = run("sta", "--alpha", "1.7e308")
    assert rc == 0
    assert _read_report(out / "sta_report.json")["results"]["mean"] == 1.0


def test_closed_form_spreads_far_from_t_0(tmp_path):
    # both wrote std 0: the raw forms mu2 - mu1^2 cancelled every digit
    assert main(["two-level", "--omega0", "1", "--t-start", "1e8", "--t-end",
                 "100000003.14159265", "--points", "1000", "--outdir", str(tmp_path)]) == 0
    results = _read_report(tmp_path / "two_level_report.json")["results"]
    assert results["closed_form_std"] == pytest.approx(1.0127071564, rel=1e-10)
    assert results["grid_std"] == pytest.approx(1.0127071564, rel=1e-6)  # O(dt^2)
    assert main(["sta", "--alpha", "1e8", "--points", "50", "--outdir", str(tmp_path)]) == 0
    std = _read_report(tmp_path / "sta_report.json")["results"]["std"]
    assert std == pytest.approx(1.0607753409e-8, rel=1e-10)  # mpmath at 40 digits


def test_failed_run_writes_nothing(tmp_path, capsys):
    # the protocol fails after the series is computed; no CSV may be left
    # behind naming a report that is never written
    rc = main(["two-level", "--omega0", "1", "--t-end", "0.001", "--points", "50",
               "--protocol", "1", "--seed", "1", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "no population change was detected" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, substeps", [([], 4096), (["--substeps", "4"], 4)],
                         ids=["auto", "fixed-substeps"])
def test_overflowing_attempt_exits_3_without_warnings(tmp_path, capsys, extra, substeps):
    # the step maps overflow to inf and NaN; numpy's RuntimeWarnings went to
    # stderr, and under an error filter main raised instead of returning 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["lambda", "--omega1", "1e50", "--omega2", "1", "--delta-i", "-10",
                   "--delta-f", "10", "--t-final", "4", "--points", "50", *extra,
                   "--outdir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"numerical failure: norm drift nan exceeds budget 1e-08 at "
        f"substeps={substeps}; refine the grid or raise substeps\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("omega1, scale", [("1e160", "7.071e+159"),
                                           ("1e200", "7.071e+199")],
                         ids=["1e160", "1e200"])
def test_overflowing_generator_norm_exits_3(tmp_path, capsys, omega1, scale):
    # every entry of H is finite and so is its norm, formed without squaring
    # the entries; (scale * dt)^5 overflows. This exited 2 with "error:
    # schedule is not finite at t = 0", then 3 with an overflowed scale
    rc = main(["lambda", "--omega1", omega1, "--omega2", "1", "--delta-i", "-10",
               "--delta-f", "10", "--t-final", "4", "--points", "50",
               "--outdir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"numerical failure: generator scale {scale} is too large to step across "
        "the window [0, 4]\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed_from", ["flag", "env"])
@pytest.mark.parametrize("seed", [2 ** 64, -2 ** 63 - 1])
def test_out_of_range_seed_exits_2(tmp_path, capsys, monkeypatch, seed_from, seed):
    # these exited 1 with an OverflowError from the sampler
    args = ["two-level", "--t-end", "3", "--protocol", "1000", "--outdir", str(tmp_path)]
    if seed_from == "flag":
        args += ["--seed", str(seed)]
    else:
        monkeypatch.setenv("TFLOW_SEED", str(seed))
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(
        f"error: seed {seed} lies outside [-2**63, 2**64)\n")
    assert list(tmp_path.iterdir()) == []


# every subcommand with its optional tables on: the CSVs in write order, and
# the keys of manifest.parameters (the parsed arguments plus the extras)
_WRITER_CONTRACT = {
    "two-level": (["--points", "50", "--protocol", "100"],
                  ["series", "protocol", "frequencies"],
                  ["command", "theta", "phi", "waveform", "omega0", "coefficients", "t0",
                   "sigma", "t_start", "t_end", "points", "protocol", "outdir", "units",
                   "seed"]),
    "sta": (["--alpha", "1", "--points", "50", "--numeric"],
            ["series", "tf", "numeric"],
            ["command", "alpha", "t_final", "omega0", "points", "numeric", "outdir"]),
    "lambda": (["--omega1", "1", "--omega2", "1", "--delta-i", "-5", "--delta-f", "5",
                "--t-final", "1", "--points", "50"],
               ["series", "tf"],
               ["command", "omega1", "omega2", "delta_i", "delta_f", "t_final", "points",
                "outdir", "units", "substeps"]),
    "dephasing": (["--gamma", "1", "--points", "50"],
                  ["series"],
                  ["command", "gamma", "t_end", "points", "outdir", "units",
                   "substeps"]),
    "hadamard": (["--omega0", "5", "--gamma", "1", "--points", "50"],
                 ["series", "tf"],
                 ["command", "omega0", "gamma", "t_end", "points", "outdir", "units",
                  "substeps"]),
    "optimize": (["--config", "{config}"],
                 ["series"],
                 ["command", "config", "outdir", "config_data"]),
}


@pytest.mark.parametrize("command", list(_WRITER_CONTRACT))
def test_writer_contract(tmp_path, monkeypatch, command):
    argv, tables, parameters = _WRITER_CONTRACT[command]
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({"t_horizon": 1.0, "omega0": 2.5, "lambda_mono": 1.0,
                                  "max_iterations": 50}), encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv]
    monkeypatch.setenv("TFLOW_SEED", "3")
    assert main([command, *argv, "--outdir", str(out)]) == 0
    stem = command.replace("-", "_")
    report_name = f"{stem}_report.json"
    report = _read_report(out / report_name)
    assert report["series_files"] == [f"{stem}_{name}.csv" for name in tables]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        report["series_files"] + [report_name])
    written = [out / name for name in report["series_files"] + [report_name]]
    assert sorted(written, key=lambda p: p.stat().st_mtime_ns) == written
    for name in report["series_files"]:
        assert _csv_lines(out / name)[0] == f"# manifest: {report_name}"
    assert list(report["manifest"]["parameters"]) == parameters
    # only the sampling run has a seed, resolved from TFLOW_SEED
    if command == "two-level":
        assert report["manifest"]["parameters"]["seed"] == 3
        assert report["manifest"]["seed"] == 3
    else:
        assert "seed" not in report["manifest"]


@pytest.mark.parametrize("argv, option", [
    (["sta", "--alpha", "1", "--seed", "5"], "--seed"),
    (["two-level", "--seed", "5"], "--seed"),
    (["two-level", "--waveform", "gaussian", "--omega0", "5", "--t0", "0.5",
      "--sigma", "0.1", "--t-end", "1"], "--omega0"),
    (["two-level", "--coefficients", "1", "2", "3", "4"], "--coefficients"),
    (["two-level", "--t0", "0.5"], "--t0"),
], ids=["sta-seed", "seed-without-protocol", "gaussian-omega0",
        "constant-coefficients", "constant-t0"])
def test_option_that_changes_nothing_exits_2(tmp_path, capsys, argv, option):
    # each was accepted and ignored
    assert main([*argv, "--points", "50", "--outdir", str(tmp_path / "out")]) == 2
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_seed_environment_is_read_only_by_a_sampling_run(tmp_path, capsys, monkeypatch):
    # dephasing exited 2 with "invalid literal for int()", though it never samples
    monkeypatch.setenv("TFLOW_SEED", "abc")
    assert main(["dephasing", "--gamma", "1", "--points", "50",
                 "--outdir", str(tmp_path / "dephasing")]) == 0
    assert main(["two-level", "--points", "50", "--protocol", "100",
                 "--outdir", str(tmp_path / "sampled")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: TFLOW_SEED must be an integer, not 'abc'\n")
    assert not (tmp_path / "sampled").exists()


def test_cyclic_units_skip_the_absent_omega0_of_a_gaussian_drive(tmp_path):
    # a gaussian drive has no omega0 to convert; its outputs do not depend
    # on the units of frequency options it does not take
    argv = ["two-level", "--waveform", "gaussian", "--t0", "0.5", "--sigma", "0.1",
            "--t-end", "1", "--points", "50"]
    assert main([*argv, "--outdir", str(tmp_path / "angular")]) == 0
    assert main([*argv, "--units", "mhz-cyclic", "--outdir", str(tmp_path / "cyclic")]) == 0
    name = "two_level_series.csv"
    assert (tmp_path / "angular" / name).read_bytes() == (tmp_path / "cyclic" / name).read_bytes()
    report = _read_report(tmp_path / "cyclic" / "two_level_report.json")
    assert report["inputs"]["omega0"] is None


def test_two_level_run_that_does_not_sample_records_no_seed(tmp_path, monkeypatch):
    # the other subcommands never sample; test_writer_contract covers them
    monkeypatch.setenv("TFLOW_SEED", "3")
    assert main(["two-level", "--points", "50", "--outdir", str(tmp_path)]) == 0
    manifest = _read_report(tmp_path / "two_level_report.json")["manifest"]
    assert "seed" not in manifest
    assert "seed" not in manifest["parameters"]


def test_reproducibility_byte_identical(tmp_path):
    args = ["two-level", "--omega0", "1.0", "--points", "200",
            "--protocol", "1000", "--seed", "9"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(dir_a)]) == 0
    assert main(args + ["--outdir", str(dir_b)]) == 0
    for name in ("two_level_series.csv", "two_level_protocol.csv",
                 "two_level_frequencies.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    rep_a = _read_report(dir_a / "two_level_report.json")
    rep_b = _read_report(dir_b / "two_level_report.json")
    rep_a["manifest"].pop("timestamp")
    rep_b["manifest"].pop("timestamp")
    rep_a["manifest"]["parameters"].pop("outdir")
    rep_b["manifest"]["parameters"].pop("outdir")
    assert rep_a == rep_b


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TFLOW_SEED", "77")
    assert main(["two-level", "--omega0", "1.0", "--points", "60",
                 "--protocol", "500", "--outdir", str(tmp_path / "env")]) == 0
    report_env = _read_report(tmp_path / "env" / "two_level_report.json")
    assert report_env["manifest"]["seed"] == 77
    monkeypatch.delenv("TFLOW_SEED")
    assert main(["two-level", "--omega0", "1.0", "--points", "60",
                 "--protocol", "500", "--seed", "77",
                 "--outdir", str(tmp_path / "flag")]) == 0
    a = (tmp_path / "env" / "two_level_frequencies.csv").read_bytes()
    b = (tmp_path / "flag" / "two_level_frequencies.csv").read_bytes()
    assert a == b


def test_sta_run_and_numeric_deviation(tmp_path):
    rc = main(["sta", "--alpha", "1.0", "--t-final", "1.0", "--omega0", "20",
               "--points", "800", "--numeric", "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "sta_report.json")
    assert report["results"]["mean"] == pytest.approx(1.0 - 2.0 / np.pi, rel=1e-9)
    assert report["results"]["std"] == pytest.approx(0.240, abs=5e-4)
    assert report["diagnostics"]["max_deviation"] <= 1e-5
    assert (tmp_path / "sta_numeric.csv").exists()
    lines = _csv_lines(tmp_path / "sta_tf.csv")
    assert lines[1] == "time,pi_toa"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: a closed attempt is accepted on norm drift alone; at alpha "
    "0.75 the automatic r = 1 leaves 2.209e-6, set by the first grid interval"))
def test_sta_numeric_alpha_below_one_is_accurate(tmp_path):
    # exits 0 today with max_deviation 2.209e-6; on 200 points it reads 5.8e-9.
    # A failed run writes no report, which is not an AssertionError
    main(["sta", "--alpha", "0.75", "--t-final", "1", "--omega0", "20", "--points", "2000",
          "--numeric", "--outdir", str(tmp_path)])
    report = _read_report(tmp_path / "sta_report.json")
    assert report["diagnostics"]["max_deviation"] <= 1e-8


def test_sta_alpha_ordering(tmp_path):
    assert main(["sta", "--alpha", "10", "--outdir", str(tmp_path / "hi")]) == 0
    assert main(["sta", "--alpha", "1", "--outdir", str(tmp_path / "lo")]) == 0
    hi = _read_report(tmp_path / "hi" / "sta_report.json")["results"]["mean"]
    lo = _read_report(tmp_path / "lo" / "sta_report.json")["results"]["mean"]
    assert hi > lo


def test_sta_invalid_alpha_exits_2(tmp_path):
    assert main(["sta", "--alpha", "-2", "--outdir", str(tmp_path)]) == 2


def test_lambda_run_structure(tmp_path):
    rc = main(["lambda", "--omega1", "1.0", "--omega2", "1.0",
               "--delta-i", "-10.0", "--delta-f", "10.0", "--t-final", "4.0",
               "--points", "2000", "--units", "mhz-cyclic",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "lambda_report.json")
    diag = report["diagnostics"]
    assert diag["population_sum_error"] <= 1e-8
    assert diag["dark_state_decoupled"] is True
    assert diag["pi_2_peak_count"] > 3
    assert report["results"]["landau_zener_probability"] == pytest.approx(
        np.exp(-np.pi * 8.0 * np.pi ** 2 / (20.0 * np.pi)), rel=1e-9
    )
    lines = _csv_lines(tmp_path / "lambda_series.csv")
    assert lines[1] == "time,p_1,p_2,p_3,gamma_expectation,pi_2_current"
    assert _csv_lines(tmp_path / "lambda_tf.csv")[1] == "time,pi_1,pi_2,pi_3"


def test_lambda_units_equivalence(tmp_path):
    cyclic = ["lambda", "--omega1", "1.0", "--omega2", "1.0", "--delta-i", "-10",
              "--delta-f", "10", "--t-final", "4.0", "--points", "500",
              "--units", "mhz-cyclic", "--outdir", str(tmp_path / "cyc")]
    angular = ["lambda", "--omega1", str(2 * np.pi), "--omega2", str(2 * np.pi),
               "--delta-i", str(-20 * np.pi), "--delta-f", str(20 * np.pi),
               "--t-final", "4.0", "--points", "500",
               "--outdir", str(tmp_path / "ang")]
    assert main(cyclic) == 0
    assert main(angular) == 0
    a = _csv_lines(tmp_path / "cyc" / "lambda_series.csv")[2:]
    b = _csv_lines(tmp_path / "ang" / "lambda_series.csv")[2:]
    assert a == b


def test_lambda_sweep_slowdown_reduces_leakage(tmp_path):
    base = ["lambda", "--omega1", str(2 * np.pi), "--omega2", str(2 * np.pi),
            "--delta-i", str(-20 * np.pi), "--delta-f", str(20 * np.pi),
            "--points", "500"]
    plz = []
    for i, t_final in enumerate(("4.0", "8.0")):
        out = tmp_path / f"run{i}"
        assert main(base + ["--t-final", t_final, "--outdir", str(out)]) == 0
        plz.append(
            _read_report(out / "lambda_report.json")["results"]
            ["landau_zener_probability"]
        )
    assert plz[1] < plz[0]


def test_lambda_invalid_detuning_exits_2(tmp_path):
    rc = main(["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "1",
               "--delta-f", "10", "--t-final", "4", "--outdir", str(tmp_path)])
    assert rc == 2


def test_dephasing_report_values(tmp_path):
    rc = main(["dephasing", "--gamma", "1.0", "--points", "2000",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "dephasing_report.json")
    bounds = report["bounds"]
    assert bounds["tau_tf"] == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), rel=1e-9)
    assert bounds["mt_bound"] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
    assert bounds["spread_bound_qsl"] == pytest.approx(1.0 / (6.0 * np.sqrt(6.0)),
                                                       rel=1e-9)
    assert bounds["std_over_qsl_spread_bound"] == pytest.approx(THREE_ROOT_SIX,
                                                                rel=1e-3)
    assert report["results"]["exact_mean"] == 0.5
    assert report["results"]["grid_std"] == pytest.approx(0.5, rel=0.01)
    assert bounds["tau_tf_closed_printed"] is None


def test_dephasing_requires_positive_gamma(tmp_path):
    assert main(["dephasing", "--gamma", "0", "--outdir", str(tmp_path)]) == 2


def test_hadamard_report(tmp_path):
    omega0 = 2.0 * np.pi
    rc = main(["hadamard", "--omega0", str(omega0), "--gamma", "0.0",
               "--points", "1500", "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "hadamard_report.json")
    assert report["bounds"]["trace_term"] == pytest.approx(omega0 ** 2 / 4.0,
                                                           rel=1e-12)
    assert report["bounds"]["satisfied"]["spread_qsl"] is True
    assert report["bounds"]["satisfied"]["uncertainty"] is True
    assert report["results"]["delta_theta"] == pytest.approx(0.5, abs=1e-6)
    assert report["diagnostics"]["current_vs_fd_sup"] <= 5.0 * (0.5 / 1499)


def test_hadamard_dephasing_sweep_bound_holds(tmp_path):
    for i, gamma_mhz in enumerate(("0", "5", "10")):
        out = tmp_path / f"g{i}"
        rc = main(["hadamard", "--omega0", "10", "--gamma", gamma_mhz,
                   "--units", "mhz-cyclic", "--points", "1200",
                   "--outdir", str(out)])
        assert rc == 0
        report = _read_report(out / "hadamard_report.json")
        assert report["bounds"]["satisfied"]["spread_qsl"] is True


def test_optimize_run(tmp_path):
    config = {"t_horizon": 1.0, "omega0": 0.8 * np.pi, "lambda_mono": 1.0,
              "lambda_reg": 1e-8, "max_iterations": 2000}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["optimize", "--config", str(path), "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "optimize_report.json")
    assert report["results"]["p1_final"] >= 0.999
    assert report["results"]["n_false"] == 0
    assert report["results"]["monotonicity_unconstrained"] is False
    lines = _csv_lines(tmp_path / "optimize_series.csv")
    assert lines[1] == "time,omega,p_1,pi_1"
    # the benchmark's config: the series keeps the bytes it had when the
    # optimizer formed its own pi_1, and every bound holds
    digest = hashlib.sha256((tmp_path / "optimize_series.csv").read_bytes()).hexdigest()
    assert digest == "eea946690e2cd5d128ee29596a865d414d5f9cba2273c23807bd8a2dc9771207"
    assert report["bounds"]["satisfied"] and all(report["bounds"]["satisfied"].values())
    assert report["diagnostics"]["resolved"] is True


@pytest.mark.parametrize("config, phase", [
    ({"t_horizon": 1.0, "omega0": 2.5, "lambda_mono": 1.0, "max_iterations": 200}, None),
    # the initial drive is resolved, the final one turns by 7.34 rad per step
    ({"t_horizon": 1.0, "omega0": 10.0, "simplex_scale": 10.0, "grid_points": 10}, 7.3417),
], ids=["ci", "aliased-final-drive"])
def test_optimize_reports_bounds_and_flags_the_final_drive(tmp_path, config, phase):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["optimize", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    report = _read_report(tmp_path / "optimize_report.json")
    assert report["results"]["converged"] is True
    assert set(report["bounds"]) >= {"trace_term", "tau_tf", "measured", "satisfied"}
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"phase_per_step", "resolved", "current_vs_fd_sup"}
    if phase is None:
        assert diagnostics["resolved"] is True
        assert all(report["bounds"]["satisfied"].values())
    else:
        assert diagnostics["resolved"] is False
        assert diagnostics["phase_per_step"] == pytest.approx(phase, abs=1e-4)


def test_optimize_lambda_mono_zero_flagged(tmp_path):
    config = {"t_horizon": 1.0, "omega0": np.pi, "lambda_mono": 0.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["optimize", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    report = _read_report(tmp_path / "optimize_report.json")
    assert report["results"]["monotonicity_unconstrained"] is True


def test_optimize_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"t_horizon": 1.0,\n  "omega0": }', encoding="utf-8")
    rc = main(["optimize", "--config", str(path), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_optimize_missing_key_exits_2(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"omega0": 1.0}', encoding="utf-8")
    assert main(["optimize", "--config", str(path), "--outdir", str(tmp_path)]) == 2


def test_csv_numeric_format_sixteen_digits(tmp_path):
    assert main(["two-level", "--omega0", "1.0", "--points", "10",
                 "--outdir", str(tmp_path)]) == 0
    row = _csv_lines(tmp_path / "two_level_series.csv")[3].split(",")
    assert row[0] == f"{np.pi / 9:.16g}"


def _cell(value) -> str:
    # the per-value reference: a label as it is, a number to 16 digits
    return value if isinstance(value, str) else f"{float(value):.16g}"


def test_csv_columns_format_like_per_value(tmp_path):
    from tflow.cli import _write_csv

    floats = np.array([np.pi, -0.0, 1e-300, 2.5e17, np.nan, np.inf, 1.0, 1 / 3])
    columns = [floats, np.array(["TOA", "TOD", "neutral"] * 2 + ["a", "b"]),
               floats.astype(np.float32)]
    path = tmp_path / "mixed.csv"
    _write_csv(path, "m.json", ["f", "s", "f32"], columns)
    want = ["# manifest: m.json", "f,s,f32"]
    want += [",".join(_cell(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


def test_csv_template_edge_cases(tmp_path):
    from tflow.cli import _write_csv

    path = tmp_path / "empty.csv"
    _write_csv(path, "m.json", ["a", "b"], [np.array([]), np.array([], dtype=str)])
    assert path.read_bytes() == b"# manifest: m.json\na,b\n"
    columns = [np.array([1.5, np.pi]), np.array(["100%", "%s%d%%"])]
    path = tmp_path / "percent.csv"
    _write_csv(path, "m%s.json", ["x%", "s"], columns)
    want = ["# manifest: m%s.json", "x%,s"]
    want += [",".join(_cell(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


def test_point_kinds_match_per_point_reference():
    # the classifier behind the two-level series' segment column
    from tflow.tf import point_kinds

    rate = np.array([1.0, -1.0, 0.0, 1e-12, -1e-12, 2e-9, -2e-9, 1e-9, -1e-9, np.nan])
    want = [tflow.tf.KIND_TOA if r > 1e-9 else
            (tflow.tf.KIND_TOD if r < -1e-9 else tflow.tf.KIND_NEUTRAL) for r in rate]
    assert point_kinds(rate, 1e-9).tolist() == want


# report moments of the scipy path these runs used before, recorded then:
# (closed_form_mean, closed_form_std, grid_mean, grid_std, segment kinds)
@pytest.mark.parametrize("argv, want", [
    (["--waveform", "polynomial", "--omega0", "1.1", "--coefficients", "0.4", "-0.2",
      "0.05", "0.01", "--t-end", "3", "--points", "500"],
     (1.7533065364141673, 0.8361134335252313, 1.7533031555659684, 0.836111825714534,
      ["TOA", "TOD"])),
    (["--waveform", "polynomial", "--omega0", "2.94", "--coefficients", "-5.6", "2.294",
      "-0.56", "0.2", "--theta", "2.0", "--phi", "4.0", "--t-end", "3", "--points", "800"],
     (2.0347598332893, 1.0060153674602268, 2.0347486113698032, 1.006014836846518,
      ["TOA", "TOD", "TOA", "TOD"])),
    (["--waveform", "gaussian", "--t0", "0.5", "--sigma", "0.05", "--t-end", "1"],
     (0.5, 0.03236201272402105, 0.5, 0.03236330279498719, ["neutral", "TOA", "neutral"])),
    (["--waveform", "gaussian", "--t0", "1.0", "--sigma", "0.2", "--theta", "1.0471975512",
      "--phi", "1.5707963268", "--t-end", "2", "--points", "2000"],
     (1.0475837510299515, 0.21958740420504927, 1.0475840957853262, 0.21958777265575455,
      ["TOD", "TOA"])),
])
def test_two_level_polynomial_and_gaussian_runs(tmp_path, argv, want):
    assert main(["two-level", *argv, "--outdir", str(tmp_path)]) == 0
    results = _read_report(tmp_path / "two_level_report.json")["results"]
    assert results["closed_form_mean"] == pytest.approx(want[0], rel=1e-11)
    assert results["closed_form_std"] == pytest.approx(want[1], rel=1e-11)
    assert results["grid_mean"] == pytest.approx(want[2], rel=1e-12)
    assert results["grid_std"] == pytest.approx(want[3], rel=1e-12)
    assert [seg["kind"] for seg in results["segments"]] == want[4]


# Propagated columns of the CLI outputs, pinned before the blocked kernels:
# (file, column) -> (mean under seeded positive weights that sum to 1, the
# largest move allowed in any one value, {row: value} at the first and last
# rows, the largest magnitude and three seeded rows). A weighted mean moves
# by at most the largest move of its values, and each pinned value by no
# more than that move; the tolerances are those stated for the blocked
# kernels.
_PROPAGATED = {
    ("lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-10", "--delta-f", "10",
     "--t-final", "4", "--units", "mhz-cyclic", "--points", "4000"): {
        ("lambda_series.csv", "p_1"): (0.5633104116931504, 2.5e-14, {
            0: 1.0, 938: 0.9497747615529879, 1307: 0.8905777784594738,
            2878: 0.2068541448157585, 3999: 0.2795871741415676}),
        ("lambda_series.csv", "p_2"): (0.2494718225534614, 2.5e-14, {
            0: 0.0, 938: 0.01408119123829445, 1307: 0.007508357220139558,
            2878: 0.490311506945269, 3268: 0.4999906537690471,
            3999: 0.4983457208246815}),
        ("lambda_series.csv", "p_3"): (0.18721776575338814, 2.5e-14, {
            0: 0.0, 938: 0.03614404720871779, 1307: 0.1019138643203869,
            2124: 0.568906964021226, 2878: 0.3028343482389726,
            3999: 0.2220671050337511}),
        ("lambda_series.csv", "gamma_expectation"): (0.124714716444112, 2.5e-14, {
            0: 0.0, 938: 0.3068556652288491, 1307: 0.06122144472995147,
            2171: 0.8842815002136759, 2878: 0.4534059589247043,
            3999: -0.2078310693752514}),
        ("lambda_series.csv", "pi_2_current"): (0.25091240382293667, 2.5e-14, {
            0: 0.0, 938: 0.2403770592568023, 1307: 0.04795815269261335,
            2171: 0.6927067369541035, 2878: 0.3551780312563196,
            3999: 0.1628056019150289}),
        ("lambda_tf.csv", "pi_1"): (0.2517557899299595, 1e-12, {
            0: 0.002649329115266845, 937: 0.1142319595855565, 1307: 0.05984985843022762,
            2877: 0.05571352854207229, 3908: 0.6511650466454187,
            3998: 0.4998382765622625}),
        ("lambda_tf.csv", "pi_2"): (0.25091104873718556, 1e-12, {
            0: 0.007731800975694691, 937: 0.2417952844577516, 1307: 0.05088686950362398,
            2170: 0.6928003161305114, 2877: 0.3581595418182448,
            3998: 0.1513965108179315}),
        ("lambda_tf.csv", "pi_3"): (0.2521332788887265, 1e-12, {
            0: 8.071280458629758e-09, 937: 0.03872189653138084,
            1307: 0.05233642208405727, 2315: 0.7620064892541827,
            2877: 0.08268875964175039, 3998: 0.5527676795603655}),
    },
    ("dephasing", "--gamma", "1"): {
        ("dephasing_series.csv", "p_minus_numeric"): (0.4762447170226393, 1e-15, {
            0: 0.0, 469: 0.4954174210675507, 653: 0.4992728762056715,
            1439: 0.4999997205229837, 1999: 0.4999999989694231}),
    },
    ("hadamard", "--omega0", "10", "--gamma", "5", "--units", "mhz-cyclic"): {
        ("hadamard_series.csv", "p_plus"): (0.6318868365745036, 1e-14, {
            0: 0.4999999999999999, 469: 0.5509802814608123, 653: 0.5863717131247101,
            1439: 0.7045021119892244, 1706: 0.7132303932717993,
            1999: 0.7039880514793205}),
        ("hadamard_series.csv", "gamma_expectation"): (3.9957302934199355, 1e-12, {
            0: 0.0, 469: 7.268483107246212, 653: 7.930411528072212,
            679: 7.939924655770463, 1439: 2.656072249007231, 1999: -2.397676930183338}),
        ("hadamard_series.csv", "pi_plus_current"): (19.68475913926013, 1e-12, {
            0: 0.0, 469: 32.6669488717861, 653: 35.641872464626, 679: 35.68462758306602,
            1439: 11.93726050922361, 1999: 10.77594713142765}),
        ("hadamard_tf.csv", "pi_plus"): (19.698108167358, 1e-10, {
            0: 0.05545268433784863, 468: 32.65640313663994, 653: 35.64830582840727,
            678: 35.68941361994717, 1438: 11.96194131181171, 1998: 10.76204284787349}),
    },
    ("sta", "--alpha", "1.0", "--t-final", "1", "--omega0", "20", "--numeric"): {
        ("sta_numeric.csv", "p_plus_numeric"): (0.8176589080758773, 2e-15, {
            0: 0.4999999999999999, 234: 0.6798443648213023, 326: 0.7452189639584277,
            719: 0.9523197549063257, 999: 0.9999999999999998}),
        ("sta_numeric.csv", "deviation"): (4.207391271725665e-13, 2e-15, {
            0: 2.220446049250313e-16, 78: 1.02740038698812e-12,
            234: 9.654499422140361e-13, 326: 2.173816682216057e-13,
            719: 4.266587083634477e-13, 999: 2.220446049250313e-16}),
    },
    ("sta", "--alpha", "0.5", "--t-final", "1", "--omega0", "20", "--numeric"): {
        ("sta_numeric.csv", "p_plus_numeric"): (0.9057810433354675, 2e-15, {
            0: 0.5175672081881363, 234: 0.8447693060471022, 326: 0.8909728626656795,
            719: 0.9858985027951487, 999: 0.9999999999998962}),
        ("sta_numeric.csv", "deviation"): (9.492019204015414e-08, 2e-15, {
            0: 1.110223024625157e-16, 3: 3.194911756265739e-07,
            234: 3.215434030146014e-09, 326: 1.942816444389095e-07,
            719: 1.99951858403935e-08, 999: 1.038058528024521e-13}),
    },
}


@pytest.mark.parametrize("argv", list(_PROPAGATED), ids=lambda a: "-".join(a[:3]))
def test_propagated_outputs_move_by_rounding_only(tmp_path, argv):
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    for (name, column), (want, tol, pins) in _PROPAGATED[argv].items():
        values = np.genfromtxt(tmp_path / name, delimiter=",", names=True,
                               skip_header=1)[column]
        weights = np.random.default_rng(8).random(values.size)
        assert weights / weights.sum() @ values == pytest.approx(want, rel=0, abs=tol)
        for row, value in pins.items():
            assert values[row] == pytest.approx(value, rel=0, abs=tol)


def test_every_subcommand_runs_without_scipy(tmp_path):
    config = tmp_path / "opt.json"
    config.write_text(json.dumps({"t_horizon": 1.0, "omega0": 0.8 * np.pi,
                                  "lambda_mono": 1.0, "lambda_reg": 1e-8,
                                  "max_iterations": 2000}), encoding="utf-8")
    runs = [
        ["two-level", "--omega0", "1.0", "--points", "100", "--protocol", "100"],
        ["two-level", "--waveform", "polynomial", "--coefficients", "0.4", "-0.2",
         "0.05", "0.01", "--t-end", "3", "--points", "100"],
        ["two-level", "--waveform", "gaussian", "--t0", "0.5", "--sigma", "0.05",
         "--t-end", "1", "--points", "100"],
        ["sta", "--alpha", "0.5", "--points", "100", "--numeric"],
        ["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-5", "--delta-f", "5",
         "--t-final", "1", "--points", "100"],
        ["dephasing", "--gamma", "1", "--points", "100"],
        ["hadamard", "--omega0", "5", "--gamma", "1", "--points", "100"],
        ["optimize", "--config", str(config)],
    ]
    code = (
        "import sys, json; sys.modules['scipy'] = None\n"
        "from tflow.cli import main\n"
        "codes = [main(argv + ['--outdir', sys.argv[1]]) for argv in json.loads(sys.argv[2])]\n"
        "print(codes)\n"
    )
    src = str(Path(tflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), json.dumps(runs)],
                         env=dict(os.environ, PYTHONPATH=path), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([0] * len(runs))


def _scipy_modules_after(code):
    """scipy modules loaded in a fresh interpreter after running ``code``."""
    code += "; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(tflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    assert _scipy_modules_after(
        "import sys, tflow, tflow.cli, tflow.models, tflow.optimize") == "[]"


def test_optimize_loads_no_scipy():
    code = ("import sys, math; from tflow import optimize; "
            "optimize.optimize_polynomial(optimize.OptimizeConfig("
            "t_horizon=1.0, omega0=0.8 * math.pi, lambda_mono=1.0, "
            "lambda_reg=1e-8, max_iterations=2000))")
    assert _scipy_modules_after(code) == "[]"


def test_nan_gamma_is_refused_and_writes_nothing(tmp_path, capsys):
    # it exited 0 with NaN current columns
    rc = main(["hadamard", "--omega0", "1", "--gamma", "nan", "--points", "50",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert "argument --gamma: must be finite, not 'nan'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, name", [
    (["sta", "--alpha", "nan", "--points", "50"], "alpha"),
    (["sta", "--alpha", "1", "--omega0", "nan", "--points", "50"], "omega0"),
    (["two-level", "--omega0", "nan", "--t-end", "1", "--points", "50"], "omega0"),
    (["two-level", "--waveform", "gaussian", "--t0", "nan", "--sigma", "0.1",
      "--t-end", "1"], "t0"),
    (["two-level", "--waveform", "polynomial", "--coefficients", "nan", "0", "0", "0",
      "--t-end", "1"], "coefficients"),
], ids=["sta-alpha", "sta-omega0", "two-level-omega0", "gaussian-t0",
        "polynomial-coefficients"])
def test_non_finite_scenario_number_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                argv, name):
    # each exited 3 as a flat flow, or 0 with a NaN report (sta --omega0)
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert f"argument --{name}: must be finite, not 'nan'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["hadamard", "--omega0", "inf", "--points", "50"],
     "argument --omega0: must be finite, not 'inf'"),
    (["two-level", "--waveform", "gaussian", "--omega0", "nan", "--t0", "0.5",
      "--sigma", "0.1", "--t-end", "1", "--points", "50"],
     "argument --omega0: must be finite, not 'nan'"),
    (["sta", "--alpha", "1", "--t-final", "1e-320", "--points", "50"],
     "the grid step 2.03e-322 is not a normal float"),
    (["two-level", "--t-end", "inf", "--points", "50"],
     "argument --t-end: must be finite, not 'inf'"),
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-5", "--delta-f", "5",
      "--t-final", "inf", "--points", "50"],
     "argument --t-final: must be finite, not 'inf'"),
    (["hadamard", "--omega0", "1", "--gamma", "inf", "--points", "50"],
     "argument --gamma: must be finite, not 'inf'"),
    # reached the generator check: "error: schedule is not finite at t = 0"
    (["lambda", "--omega1", "nan", "--omega2", "1", "--delta-i", "-10", "--delta-f",
      "10", "--t-final", "4", "--points", "50"],
     "argument --omega1: must be finite, not 'nan'"),
    # finite as parsed, infinite after the 2 pi of --units mhz-cyclic: the
    # lambda runs reached the generator check ("schedule is not finite at
    # t = 0"), the dephasing run a window of 10/gamma = 0 ("t_end must
    # exceed t_start")
    (["lambda", "--omega1", "1e308", "--omega2", "1", "--delta-i", "-10",
      "--delta-f", "10", "--t-final", "4", "--points", "50", "--units", "mhz-cyclic"],
     "argument --omega1: 1e+308 times 2 pi is not finite"),
    (["lambda", "--omega1", "1e308", "--omega2", "1", "--delta-i", "-10",
      "--delta-f", "10", "--t-final", "4", "--points", "50", "--units", "mhz-cyclic",
      "--substeps", "2"],
     "argument --omega1: 1e+308 times 2 pi is not finite"),
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-1e308",
      "--delta-f", "10", "--t-final", "4", "--points", "50", "--units", "mhz-cyclic"],
     "argument --delta-i: -1e+308 times 2 pi is not finite"),
    (["dephasing", "--gamma", "1e308", "--units", "mhz-cyclic"],
     "argument --gamma: 1e+308 times 2 pi is not finite"),
    (["two-level", "--omega0", "1e308", "--units", "mhz-cyclic", "--points", "50"],
     "argument --omega0: 1e+308 times 2 pi is not finite"),
    # the norm divided by sigma^2 = 0: exit 3, "flow is flat: its mass nan"
    (["two-level", "--waveform", "gaussian", "--t0", "0.5", "--sigma", "1e-200",
      "--t-end", "1", "--points", "50"],
     "sigma 1e-200 is too small: its square underflows"),
    # a constant drive whose angle omega0 t overflows on the window: the
    # runs raised RuntimeWarnings (overflow, then sin(inf)), or exited 3
    # with "flow is flat: its mass nan"
    (["two-level", "--omega0", "1e300", "--t-end", "1e10", "--points", "50"],
     "the drive angle omega0 t_end = 1e+300 * 1e+10 is not finite"),
    (["two-level", "--omega0", "1e300", "--t-start", "1e10", "--t-end", "1.0000001e10",
      "--points", "50"],
     "the drive angle omega0 t_end = 1e+300 * 1e+10 is not finite"),
    # reached the generator check: "schedule is not finite at t = 0"
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-1e308", "--delta-f",
      "1e308", "--t-final", "4", "--points", "50"],
     "the ramp from delta_initial -1e+308 to delta_final 1e+308 spans more than "
     "the largest float"),
], ids=["hadamard-omega0-inf", "gaussian-omega0-nan", "sta-subnormal-window",
        "two-level-t-end-inf", "lambda-t-final-inf", "hadamard-gamma-inf",
        "lambda-omega1-nan", "lambda-omega1-cyclic-overflow",
        "lambda-omega1-cyclic-overflow-fixed-substeps", "lambda-delta-i-cyclic-overflow",
        "dephasing-gamma-cyclic-overflow", "two-level-omega0-cyclic-overflow",
        "gaussian-sigma-underflow", "constant-angle-overflow",
        "constant-angle-overflow-far-window", "lambda-span-overflow"])
def test_ill_posed_number_exits_2_before_any_arithmetic(tmp_path, capsys, argv,
                                                        message):
    # under error::RuntimeWarning the first rows exited 1 at a numpy warning,
    # except the gaussian run, which exited 0 with "omega0": null in its report
    outdir = tmp_path / "out"
    assert main(argv + ["--outdir", str(outdir)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not outdir.exists() or list(outdir.iterdir()) == []


def test_units_convert_once_and_the_manifest_keeps_the_parsed_values(tmp_path):
    assert main(["hadamard", "--omega0", "10", "--gamma", "5", "--units", "mhz-cyclic",
                 "--points", "50", "--outdir", str(tmp_path)]) == 0
    report = _read_report(tmp_path / "hadamard_report.json")
    parameters = report["manifest"]["parameters"]
    assert (parameters["omega0"], parameters["gamma"]) == (10.0, 5.0)
    two_pi = 2.0 * np.pi
    assert report["inputs"]["omega0"] == 10.0 * two_pi
    assert report["inputs"]["gamma"] == 5.0 * two_pi


@pytest.mark.parametrize("exponent, plain", [
    ("-1e1", "-10"), ("-1.5E+1", "-15"), ("-.5e1", "-5"), ("-2.e0", "-2"),
])
def test_negative_value_in_exponent_form_is_a_value(tmp_path, exponent, plain):
    # argparse's negative-number pattern has no exponent, so "--delta-i -1e1"
    # exited 2 with "expected one argument"
    base = ["lambda", "--omega1", "1", "--omega2", "1", "--delta-f", "10",
            "--t-final", "4", "--points", "200"]
    for name, value in (("exp", exponent), ("plain", plain)):
        assert main(base + ["--delta-i", value, "--outdir", str(tmp_path / name)]) == 0
    for csv in ("lambda_series.csv", "lambda_tf.csv"):
        assert ((tmp_path / "exp" / csv).read_bytes()
                == (tmp_path / "plain" / csv).read_bytes())
    reports = [_read_report(tmp_path / name / "lambda_report.json")
               for name in ("exp", "plain")]
    for report in reports:
        del report["manifest"]["timestamp"], report["manifest"]["parameters"]["outdir"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("config, message", [
    ('{"t_horizon": 1.0, "omega0": 2.5, "lamda_mono": 0.0, "grid_points": 20.9}',
     "unknown config keys: lamda_mono"),
    ('{"t_horizon": 1.0, "omega0": 2.5, "grid_points": 20.9}',
     "grid_points must be a whole number, not 20.9"),
    ('{"t_horizon": 1.0, "omega0": 2.5, "max_iterations": Infinity}',
     "max_iterations must be a whole number, not inf"),
    ('{"t_horizon": 1.0, "omega0": 2.5, "lambda_mono": null}',
     "lambda_mono must be a number, not None"),
    ('[1.0, 2.5]', "the config must be a JSON object"),
], ids=["unknown-key", "fractional-count", "infinite-count", "null-weight",
        "not-an-object"])
def test_optimize_config_refusals_exit_2_and_write_nothing(tmp_path, capsys, config,
                                                           message):
    # the unknown key and the fractional count ran with lambda_mono 1.0 and
    # grid_points 20 (exit 0); the infinite count, the null and the list
    # ended in a traceback (exit 1)
    path = tmp_path / "config.json"
    path.write_text(config, encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["optimize", "--config", str(path), "--outdir", str(outdir)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


SIMPLEX_SCALES = "simplex_scale * omega0 / t_horizon^p must be finite and nonzero"


@pytest.mark.parametrize("entry, message", [
    ('"t_horizon": 1e-100, "omega0": 2.5', SIMPLEX_SCALES),
    ('"t_horizon": 1e100, "omega0": 2.5', SIMPLEX_SCALES),
    ('"t_horizon": 1.0, "omega0": 0.0', SIMPLEX_SCALES),
    ('"t_horizon": 1.0, "omega0": 1e308',
     "the cost is not finite on the initial simplex of initial_coefficients, "
     "simplex_scale, omega0 and t_horizon"),
    ('"t_horizon": 1.0, "omega0": 2.5, "simplex_scale": 0',
     "simplex_scale must be positive"),
    ('"t_horizon": 1.0, "omega0": 2.5, "max_iterations": 0',
     "max_iterations must be >= 1"),
    ('"t_horizon": 1.0, "omega0": 2.5, "max_iterations": -1',
     "max_iterations must be >= 1"),
    # the drive turns by 5e17 and 5e147 rad per grid step: each search
    # exited 0 with n_false above 80 and no convergence
    ('"t_horizon": 1.0, "omega0": 1e20',
     "the initial drive turns by 5.03e+17 rad between neighbouring points of the "
     "200-point cost grid, which samples only turns below pi; raise grid_points "
     "or lower omega0"),
    ('"t_horizon": 1.0, "omega0": 1e150',
     "the initial drive turns by 5.03e+147 rad between neighbouring points of the "
     "200-point cost grid, which samples only turns below pi; raise grid_points "
     "or lower omega0"),
], ids=["tiny-horizon", "huge-horizon", "zero-omega0", "huge-omega0", "zero-scale",
        "no-iterations", "negative-iterations", "aliased-drive", "aliased-huge-drive"])
def test_optimize_ill_posed_simplex_exits_2_and_writes_nothing(tmp_path, capsys,
                                                               entry, message):
    # the horizons ended in a ZeroDivisionError or OverflowError traceback
    # (exit 1), omega0 1e308 in an overflow warning; a zero scale reported a
    # convergence after one iteration, and no iterations took no simplex step
    config = tmp_path / "config.json"
    config.write_text("{" + entry + "}", encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["optimize", "--config", str(config), "--outdir", str(outdir)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_every_float_option_is_parsed_as_finite():
    import argparse

    from tflow.cli import build_parser, finite

    assert finite("-1e-3") == -1e-3
    for text in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
            finite(text)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    types = {a.type for p in sub.choices.values() for a in p._actions}
    assert float not in types and finite in types


@pytest.mark.parametrize("entry", [
    '"lambda_reg": NaN', '"lambda_mono": NaN', '"simplex_scale": NaN',
    '"tolerance": NaN', '"omega0": NaN', '"omega0": Infinity',
])
def test_optimize_non_finite_config_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                entry):
    # json.loads accepts NaN and Infinity; the weights ran to "cost": null
    # (exit 0) and omega0 to a flat flow (exit 3)
    config = tmp_path / "config.json"
    config.write_text('{"t_horizon": 1.0, "omega0": 2.5, ' + entry + "}",
                      encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["optimize", "--config", str(config), "--outdir", str(outdir)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


# each refusal of the command line that no other test reaches, and two that
# reach a library refusal from it
@pytest.mark.parametrize("argv, message", [
    (["two-level", "--waveform", "polynomial", "--points", "50"],
     "--t-end is required for this waveform"),
    (["two-level", "--waveform", "gaussian", "--t0", "0.5", "--t-end", "1",
      "--points", "50"],
     "the gaussian waveform needs --t0 and --sigma"),
    (["two-level", "--t-start", "-1", "--t-end", "1", "--points", "50"],
     "transfer windows start at t >= 0"),
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-5", "--delta-f", "5",
      "--t-final", "2", "--points", "50", "--substeps", "0"],
     "substeps must be >= 1"),
], ids=["polynomial-without-t-end", "gaussian-without-sigma", "negative-t-start",
        "zero-substeps"])
def test_refusal_exits_2_with_its_message(tmp_path, capsys, argv, message):
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not any(path.is_file() for path in tmp_path.rglob("*"))


# ---------------------------------------------------------------------------
# the scenario pipeline


def _hard_inputs(rng):
    """(argv, phase per grid step, trace term) of seeded hard inputs: constant
    drives up to omega 2000 on [0, 10], alpha < 1 sweeps and Lambda ramps.
    Both numbers are recomputed here from the drive. The phase is omega dt
    for the constant drive, and the largest eigenvalue spread of H times dt
    for the others. The trace term is the closed-system identity
    |Tr((i[H, M])^2)| = 2 (Delta_M H)^2 at its largest on the grid."""
    cases = [(["two-level", "--omega0", "2000", "--t-end", "10"], 2000.0 * 10.0 / 999,
              2000.0 ** 2 / 2)]
    for _ in range(8):
        omega = float(np.exp(rng.uniform(0.0, np.log(2000.0))))
        t_end, points = rng.uniform(1.0, 10.0), int(rng.integers(200, 2001))
        cases.append((["two-level", "--omega0", repr(omega), "--t-end", repr(t_end),
                       "--points", str(points)], omega * t_end / (points - 1), omega ** 2 / 2))
    for k in range(6):
        alpha, t_final, omega0 = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), rng.uniform(5, 40)
        points = int(rng.integers(100, 1001))
        # the grid starts half a step in, where |H| = sqrt(omega0^2 + theta'^2) / 2
        # and 2 (Delta_+ H)^2 = (omega0^2 cos^2 theta + theta'^2) / 2 peak, and so
        # has a shorter step
        start = 0.5 * t_final / (points - 1)
        theta = 0.5 * np.pi * (start / t_final) ** alpha
        theta_dot = 0.5 * np.pi * alpha / t_final * (start / t_final) ** (alpha - 1.0)
        cases.append((["sta", "--alpha", repr(alpha), "--t-final", repr(t_final),
                       "--omega0", repr(omega0), "--points", str(points)]
                      + ["--numeric"] * (k % 2),
                      np.hypot(omega0, theta_dot) * (t_final - start) / (points - 1),
                      ((omega0 * np.cos(theta)) ** 2 + theta_dot ** 2) / 2))
    for _ in range(5):
        omega1, omega2 = rng.uniform(0.5, 3.0, 2).tolist()
        delta_i, delta_f = -rng.uniform(2.0, 20.0), rng.uniform(2.0, 20.0)
        t_final, points = rng.uniform(1.0, 4.0), int(rng.integers(200, 801))
        # the levels 0 and (delta -+ sqrt(delta^2 + omega_eff^2)) / 2 spread
        # most at the larger end of the ramp; Delta_2 H = omega_eff / 2 throughout
        spread = np.sqrt(max(delta_i ** 2, delta_f ** 2) + omega1 ** 2 + omega2 ** 2)
        cases.append((["lambda", "--omega1", repr(omega1), "--omega2", repr(omega2),
                       "--delta-i", repr(delta_i), "--delta-f", repr(delta_f),
                       "--t-final", repr(t_final), "--points", str(points)],
                      spread * t_final / (points - 1), (omega1 ** 2 + omega2 ** 2) / 2))
    return cases


def test_seeded_hard_input_sweep_through_the_cli(tmp_path):
    # the CLI sibling of test_models.py::test_seeded_cross_route_sweep
    cases = _hard_inputs(np.random.default_rng(20261020))
    assert any(phase >= np.pi for _, phase, _ in cases)
    for i, (argv, phase, trace_term) in enumerate(cases):
        out = tmp_path / str(i)
        assert main([*argv, "--outdir", str(out)]) == 0, argv
        report = _read_report(out / f"{argv[0].replace('-', '_')}_report.json")
        bounds = report["bounds"]
        assert bounds["satisfied"] and all(bounds["satisfied"].values()), argv
        assert bounds["trace_term"] == pytest.approx(trace_term, rel=1e-9), argv
        diag = report["diagnostics"]
        assert diag["phase_per_step"] == pytest.approx(phase, rel=1e-9), argv
        assert diag["resolved"] is bool(phase < np.pi), argv


@pytest.mark.parametrize("argv, reason", [
    (["two-level", "--omega0", "1e200", "--t-end", "3e-200", "--points", "50"],
     "the trace term inf is not a normal float"),
    (["sta", "--alpha", "1e300", "--t-final", "1e-10", "--points", "50"],
     "schedule is not finite at t = 0"),
    # one rule for every trace term, formed from L^dag(M) on the grid: the
    # hadamard and dephasing runs exited 2 on a closed-form term, and the
    # subnormal two-level term formed bounds (tau_tf off by 2.3e-14)
    (["hadamard", "--omega0", "1e155", "--points", "50"],
     "the trace term inf is not a normal float"),
    (["hadamard", "--omega0", "1e-160", "--points", "50"],
     "the trace term 2.49997e-321 is not a normal float"),
    (["dephasing", "--gamma", "1e-160", "--points", "50"],
     "the trace term 1.99998e-320 is not a normal float"),
    (["dephasing", "--gamma", "1e155", "--points", "50"],
     "the trace term inf is not a normal float"),
    (["two-level", "--omega0", "1e-155", "--points", "50"],
     "the trace term 5e-311 is not a normal float"),
], ids=["trace-term-overflows", "h-not-finite", "hadamard-omega0-trace-overflow",
        "hadamard-trace-subnormal", "dephasing-trace-subnormal",
        "dephasing-trace-overflow", "two-level-trace-subnormal"])
def test_route_that_cannot_be_formed_writes_null_and_a_reason(tmp_path, argv, reason):
    # a route a run cannot form must not change its exit code, nor warn
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    report = _read_report(tmp_path / f"{argv[0].replace('-', '_')}_report.json")
    assert report["bounds"] is None
    assert report["diagnostics"]["skipped"] == {"bounds": reason}


def test_hadamard_dephasing_rate_too_large_for_the_grid_exits_3(tmp_path, capsys):
    # exited 2 on its closed-form trace term before it propagated; then
    # 3 with "refine the grid", though no feasible grid can step this rate
    assert main(["hadamard", "--omega0", "1", "--gamma", "1e155", "--points", "50",
                 "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: generator scale 2.000e+155 is too large to step across "
        "the window [0, 3.14159]\n")
    assert list(tmp_path.iterdir()) == []


# the rate of lambda and hadamard is <L^dag(M)> on the pipeline's one table
# of H, and every trace term its grid's largest |Tr(L^dag(M)^2)|; the
# hand-derived forms are the references. Measured at most 1.1e-15 off
_REL = 1e-13


def _series(path):
    lines = _csv_lines(path)
    return dict(zip(lines[1].split(","),
                    np.array([[float(x) for x in line.split(",")] for line in lines[2:]]).T))


@pytest.mark.parametrize("argv", [
    ["lambda", "--omega1", "1.3", "--omega2", "0.7", "--delta-i", "-10", "--delta-f", "8",
     "--t-final", "4", "--points", "400"],
    ["hadamard", "--omega0", "6.283185307179586", "--points", "400"],
    ["hadamard", "--omega0", "62.83185307179586", "--gamma", "31.41592653589793",
     "--points", "400"],
], ids=["lambda", "hadamard", "hadamard-dephased"])
def test_current_route_is_the_expectation_of_l_dag_m(tmp_path, argv):
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    value = {k[2:].replace("-", "_"): float(v) for k, v in zip(argv[1::2], argv[2::2])}
    if argv[0] == "lambda":
        config = models.LambdaConfig(value["omega1"], value["omega2"], value["delta_i"],
                                     value["delta_f"], value["t_final"])
        grid = TimeGrid(0.0, config.t_final, 400)
        traj = dynamics.propagate_schrodinger(models.lambda_hamiltonian(config),
                                              operators.basis_state(3, 0), grid)
        op, m, pi = models.lambda_gamma(config), operators.projector(3, 1), "pi_2_current"
    else:
        omega0, gamma = value["omega0"], value.get("gamma", 0.0)
        bundle = models.hadamard_model(omega0, gamma)
        grid = TimeGrid(0.0, np.pi / omega0, 400)
        traj = dynamics.propagate_lindblad(bundle.model,
                                           operators.projector(2, 0).astype(complex), grid)
        op, m, pi = bundle.current_op, bundle.target, "pi_plus_current"
    rate = dynamics.expectation_series(traj, op)
    series = _series(tmp_path / f"{argv[0]}_series.csv")
    assert np.max(np.abs(series["gamma_expectation"] - rate)) <= _REL * np.max(np.abs(rate))
    want = tf.tf_from_rate(grid, rate).density
    assert np.max(np.abs(series[pi] - want)) <= _REL * np.max(want)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, dynamics.population_series(traj, m)))
    mid = tf.tf_from_rate(grid, rate, align="midpoints").density
    report = _read_report(tmp_path / f"{argv[0]}_report.json")
    assert report["diagnostics"]["current_vs_fd_sup"] == pytest.approx(
        np.max(np.abs(mid - fd.density)), abs=_REL * np.max(fd.density))
    if argv[0] == "hadamard":
        _assert_bounds_of(report["bounds"], omega0 ** 2 / 4.0 + gamma ** 2 / 2.0,
                          report["results"]["delta_theta"])


def _assert_bounds_of(bounds, trace_term, delta_theta):
    assert bounds["trace_term"] == pytest.approx(trace_term, rel=_REL)
    tau = delta_theta / np.sqrt(trace_term)
    assert bounds["tau_tf"] == pytest.approx(tau, rel=_REL)
    assert bounds["spread_bound_qsl"] == pytest.approx(tau / THREE_ROOT_THREE, rel=_REL)


@pytest.mark.parametrize("gamma", [1.0, 0.37, 25.0])
def test_dephasing_trace_term_is_the_grid_trace_term(tmp_path, gamma):
    assert main(["dephasing", "--gamma", repr(gamma), "--points", "400",
                 "--outdir", str(tmp_path)]) == 0
    bounds = _read_report(tmp_path / "dephasing_report.json")["bounds"]
    _assert_bounds_of(bounds, 2.0 * gamma ** 2, 0.5)
    assert bounds["std_over_qsl_spread_bound"] == pytest.approx(
        (0.5 / gamma) / (0.5 / np.sqrt(2.0 * gamma ** 2) / THREE_ROOT_THREE), rel=_REL)


_OPTIONS = {
    "two-level": ["--theta", "--phi", "--waveform", "--omega0", "--coefficients", "--t0",
                  "--sigma", "--t-start", "--t-end", "--points", "--protocol", "--outdir",
                  "--units", "--seed"],
    "sta": ["--alpha", "--t-final", "--omega0", "--points", "--numeric", "--outdir"],
    "lambda": ["--omega1", "--omega2", "--delta-i", "--delta-f", "--t-final", "--points",
               "--outdir", "--units", "--substeps"],
    "dephasing": ["--gamma", "--t-end", "--points", "--outdir", "--units", "--substeps"],
    "hadamard": ["--omega0", "--gamma", "--t-end", "--points", "--outdir", "--units",
                 "--substeps"],
    "optimize": ["--config", "--outdir"],
}


def test_every_subcommand_keeps_its_options():
    # a route reaches a subcommand through the scenario pipeline, not
    # through a new knob
    import argparse

    from tflow.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [s for a in parser._actions for s in a.option_strings] == [
        "-h", "--help", "--version"]
    assert {name: [s for a in p._actions for s in a.option_strings][2:]
            for name, p in sub.choices.items()} == _OPTIONS


@pytest.mark.parametrize("argv, calls", [
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-5", "--delta-f", "5",
      "--t-final", "1"], 1),
    (["dephasing", "--gamma", "1"], 1),
    (["hadamard", "--omega0", "5", "--gamma", "1"], 1),
    (["sta", "--alpha", "0.5", "--numeric"], 1),
    (["sta", "--alpha", "0.5"], 0),
    (["two-level", "--protocol", "100"], 0),
], ids=["lambda", "dephasing", "hadamard", "sta-numeric", "sta", "two-level"])
def test_every_propagating_subcommand_propagates_once(tmp_path, monkeypatch, argv, calls):
    from tflow import dynamics, models

    made = []
    originals = {name: getattr(dynamics, name)
                 for name in ("propagate_schrodinger", "propagate_lindblad")}
    for module, name in ((dynamics, "propagate_schrodinger"), (models, "propagate_schrodinger"),
                         (dynamics, "propagate_lindblad")):
        def counted(*args, _propagate=originals[name], **kwargs):
            made.append(argv[0])
            return _propagate(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main([*argv, "--points", "200", "--outdir", str(tmp_path)]) == 0
    assert len(made) == calls
