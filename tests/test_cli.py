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
