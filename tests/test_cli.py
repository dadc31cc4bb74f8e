import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tflow
from tflow.cli import main

THREE_ROOT_SIX = 3.0 * np.sqrt(6.0)


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


def test_two_level_departure_arrival_boundary(tmp_path):
    rc = main(["two-level", "--theta", str(np.pi / 3), "--phi", str(np.pi / 2),
               "--omega0", "1.0", "--t-end", str(np.pi), "--points", "3000",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "two_level_report.json")
    assert report["results"]["boundaries"][0] == pytest.approx(np.pi / 3, abs=2e-3)
    kinds = [seg["kind"] for seg in report["results"]["segments"]]
    assert kinds == ["TOD", "TOA"]


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


def test_csv_columns_format_like_per_value(tmp_path):
    from tflow.cli import _fmt, _write_csv

    floats = np.array([np.pi, -0.0, 1e-300, 2.5e17, np.nan, np.inf, 1.0, 1 / 3])
    columns = [floats, np.arange(8) - 3, ["TOA", "TOD", "neutral"] * 2 + ["a", "b"],
               np.array([True, False] * 4), floats.astype(np.float32)]
    path = tmp_path / "mixed.csv"
    _write_csv(path, "m.json", ["f", "i", "s", "b", "f32"], columns)
    want = ["# manifest: m.json", "f,i,s,b,f32"]
    want += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


def test_csv_template_edge_cases(tmp_path):
    from tflow.cli import _fmt, _write_csv

    path = tmp_path / "empty.csv"
    _write_csv(path, "m.json", ["a", "b"], [np.array([]), []])
    assert path.read_bytes() == b"# manifest: m.json\na,b\n"
    columns = [np.array([1.5, np.pi]), ["100%", "%s%d%%"], np.array([2, 3])]
    path = tmp_path / "percent.csv"
    _write_csv(path, "m%s.json", ["x%", "s", "i"], columns)
    want = ["# manifest: m%s.json", "x%,s,i"]
    want += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


def test_point_kinds_match_per_point_reference():
    from tflow.cli import _point_kinds

    rate = np.array([1.0, -1.0, 0.0, 1e-12, -1e-12, 2e-9, -2e-9, 1e-9, -1e-9, np.nan])
    want = [tflow.tf.KIND_TOA if r > 1e-9 else
            (tflow.tf.KIND_TOD if r < -1e-9 else tflow.tf.KIND_NEUTRAL) for r in rate]
    assert _point_kinds(rate, 1e-9).tolist() == want


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
        "import numpy as np\n"
        "from tflow import models\n"
        "from tflow.cli import main\n"
        "codes = [main(argv + ['--outdir', sys.argv[1]]) for argv in json.loads(sys.argv[2])]\n"
        "wf = models.ControlWaveform.custom(np.cos)\n"
        "assert abs(wf.cumulative(1.3) - np.sin(1.3)) <= 1e-14\n"
        "models.two_level_moments_closed(wf, models.TwoLevelInitial(), 0.0, 4.0)\n"
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
