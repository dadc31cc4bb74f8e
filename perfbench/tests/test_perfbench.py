"""Tests of the benchmark's own references, checkers and tracer.

    python3 -m pytest perfbench/tests -q

The references are compared with brute-force computations at small
sizes, and each checker is shown to pass a real tflow output and to flag
the same output once perturbed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

QUAD = dict(epsabs=1e-13, epsrel=1e-12, limit=2000)


# ---------------------------------------------------------------------------
# references against brute force


@pytest.mark.parametrize("w, delta, t0, t1", [(7.0, 0.3, 0.0, 3.0), (1.0, 0.0, 0.0, math.pi),
                                              (13.0, -1.1, 0.4, 2.2)])
def test_abs_sin_moments_match_quadrature(w, delta, t0, t1):
    roots = [(delta + k * math.pi) / w for k in range(-50, 200)]
    cuts = sorted({t0, t1, *[r for r in roots if t0 < r < t1]})

    def mu(p):
        return sum(quad(lambda t: t ** p * abs(math.sin(w * t - delta)), a, b, **QUAD)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))

    mean = mu(1) / mu(0)
    std = math.sqrt(mu(2) / mu(0) - mean * mean)
    got = ref.abs_sin_moments(w, delta, t0, t1)
    assert got[0] == pytest.approx(mean, rel=1e-10)
    assert got[1] == pytest.approx(std, rel=1e-9)


def test_high_oscillation_reference_is_the_exact_value():
    mean, std = ref.constant_drive_moments(2000.0, 0.0, 0.0, 0.0, 10.0)
    assert mean == pytest.approx(4.999918066, abs=1e-9)
    assert std == pytest.approx(2.886704028, abs=1e-9)


def test_two_level_rate_is_the_derivative_of_p1():
    t = np.linspace(0.1, 2.0, 50)
    h = 1e-6
    args = (1.7, 1.0, 0.6)
    fd = (ref.two_level_p1(*args, t + h) - ref.two_level_p1(*args, t - h)) / (2 * h)
    assert np.max(np.abs(ref.two_level_rate(*args, t) - fd)) < 1e-8


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.7, 2.0])
def test_sta_moments_match_quadrature_in_t(alpha):
    big_t = 1.3

    def density(t):
        u = (t / big_t) ** alpha
        return 0.5 * math.pi * math.cos(0.5 * math.pi * u) * alpha / big_t * (t / big_t) ** (alpha - 1)

    mu = [quad(lambda t: t ** p * density(t), 0.0, big_t, **QUAD)[0] for p in range(3)]
    mean = mu[1] / mu[0]
    got = ref.sta_moments(alpha, big_t)
    assert mu[0] == pytest.approx(1.0, rel=1e-9)
    assert got[0] == pytest.approx(mean, rel=1e-8)
    assert got[1] == pytest.approx(math.sqrt(mu[2] / mu[0] - mean ** 2), rel=1e-7)


def _lindblad_brute(h, jumps, rho0, times):
    """Direct master-equation integration of sum_j (L rho L^+ - {L^+L, rho}/2)."""
    d = h.shape[0]

    def rhs(t, y):
        rho = y.reshape(d, d)
        out = -1j * (h @ rho - rho @ h)
        for op in jumps:
            out += op @ rho @ op.conj().T - 0.5 * (op.conj().T @ op @ rho + rho @ op.conj().T @ op)
        return out.ravel()

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.astype(complex).ravel(), t_eval=times,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    return sol.y.T.reshape(-1, d, d)


def test_hadamard_bloch_matches_master_equation():
    omega0, gamma = 3.0, 0.8
    times = np.linspace(0.0, 2.0, 41)
    h = 0.5 * omega0 * (ref.SX + ref.SZ) / math.sqrt(2.0)
    rho = _lindblad_brute(h, [math.sqrt(gamma / 2.0) * ref.SZ], np.diag([1.0, 0.0]), times)
    p_plus = np.real(0.5 * (rho[:, 0, 0] + rho[:, 1, 1] + rho[:, 0, 1] + rho[:, 1, 0]))
    r, rdot, _ = ref.hadamard_bloch(omega0, gamma, times)
    assert np.max(np.abs(0.5 * (1.0 + r[:, 0]) - p_plus)) < 1e-9
    fd = np.gradient(0.5 * (1.0 + r[:, 0]), times, edge_order=2)
    assert np.max(np.abs(0.5 * rdot[:, 0] - fd)[2:-2]) < 5e-3


def test_trace_terms_match_the_documented_forms():
    assert ref.hadamard_trace_term(4.0, 1.5) == pytest.approx(4.0 ** 2 / 4 + 1.5 ** 2 / 2)
    assert ref.dephasing_trace_term(0.7) == pytest.approx(2 * 0.7 ** 2)


def test_lambda_solution_matches_stepped_exponentials():
    o1, o2, di, df, big_t = 2.0, 1.5, -4.0, 4.0, 1.0
    times = np.linspace(0.0, big_t, 11)
    pops, rate, _ = ref.lambda_solution(o1, o2, di, df, big_t, times)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    sub = 4000
    dt = big_t / (len(times) - 1) / sub
    brute = [np.abs(psi) ** 2]
    for k in range(len(times) - 1):
        for s in range(sub):
            tm = times[k] + (s + 0.5) * dt
            h = np.array([[0, o1 / 2, 0], [o1 / 2, di + (df - di) * tm / big_t, o2 / 2],
                          [0, o2 / 2, 0]], dtype=complex)
            psi = expm(-1j * h * dt) @ psi
        brute.append(np.abs(psi) ** 2)
    assert np.max(np.abs(pops - np.array(brute))) < 1e-6
    fine = np.linspace(0.0, big_t, 401)
    pops, rate, _ = ref.lambda_solution(o1, o2, di, df, big_t, fine)
    fd = np.gradient(pops[:, 1], fine, edge_order=2)
    assert np.max(np.abs(rate - fd)) < 1e-3 * np.max(np.abs(rate))


# ---------------------------------------------------------------------------
# checkers pass real output and flag perturbed output


def _run_cli(argv, out: Path):
    from tflow.cli import main

    assert main([*argv, "--outdir", str(out)]) == 0


def _perturb_csv(path: Path, column: str, row: int, delta: float):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) + delta)
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_two_level_checker_flags_perturbations(tmp_path):
    op = workloads.CliOp("two-level", ("two-level", "--omega0", "1.0", "--points", "200",
                                       "--protocol", "50000", "--seed", "3",
                                       "--theta", "1.0", "--phi", "0.5", "--t-end", "3.0"),
                         params={"omega": 1.0, "theta": 1.0, "phi": 0.5, "t_end": 3.0,
                                 "points": 200, "n_trials": 50000})
    _run_cli(list(op.argv), tmp_path)
    want = checks.cli_reference(op)
    assert checks.check_cli(op, tmp_path, want) == []
    _perturb_csv(tmp_path / "two_level_series.csv", "p_1", 50, 1e-7)
    assert any("p_1" in p for p in checks.check_cli(op, tmp_path, want))


def test_report_perturbation_and_repeat_check(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["sta", "--alpha", "0.5", "--t-final", "1.0", "--points", "300"]
    _run_cli(argv, a)
    _run_cli(argv, b)
    op = workloads.CliOp("sta", tuple(argv), params={"alpha": 0.5, "t_final": 1.0,
                                                     "points": 300})
    want = checks.cli_reference(op)
    assert checks.check_cli(op, a, want) == []
    assert checks.same_outputs(a, b) == []
    report = json.loads((b / "sta_report.json").read_text())
    report["results"]["mean"] *= 1 + 1e-6
    (b / "sta_report.json").write_text(json.dumps(report))
    assert any(p.startswith("mean") for p in checks.check_cli(op, b, want))
    assert checks.same_outputs(a, b) == ["sta_report.json differs between repeats"]


def test_sweep_checker_flags_perturbation_and_kept_fault():
    import sweep

    pt = {"kind": "hadamard", "omega0": 10.0, "gamma": 2.0, "points": 101,
          "n_trials": 20000, "seed": 5}
    outcome = sweep.run_point(pt)
    want = checks.sweep_reference(pt)
    assert checks.check_sweep(pt, outcome, want) == []
    outcome["result"]["std"] *= 0.999
    assert checks.check_sweep(pt, outcome, want)

    fault = workloads.library_sweep(0)[-1]
    outcome = sweep.run_point(fault)
    assert not outcome["ok"] and "IntegrationError" in outcome["error"]


def test_seed_changes_inputs_but_not_the_amount_of_work():
    for make in (workloads.cli_propagate, workloads.cli_closed_form):
        a, b = make(1), make(2)
        assert [op.name for op in a] == [op.name for op in b]
        assert [op.argv for op in a] != [op.argv for op in b]
        assert make(1) == make(1)
    a, b = workloads.library_sweep(1), workloads.library_sweep(2)
    assert [(p["kind"], p["points"]) for p in a] == [(p["kind"], p["points"]) for p in b]
    assert a[-1] == b[-1]


def test_every_seed_asks_for_the_same_rk4_steps():
    script = (
        "import sys, json; sys.path.insert(0, %r)\n"
        "import tracing, workloads\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "import sweep\n"
        "for pt in workloads.library_sweep(int(sys.argv[1])): sweep.run_point(pt)\n"
        "print(json.dumps(t.counts))\n" % str(HERE))
    counts = []
    for seed in (3, 4):
        proc = subprocess.run([sys.executable, "-c", script, str(seed)],
                              env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1]
    assert counts[0]["rk4_steps"] > 0


# ---------------------------------------------------------------------------
# tracer


def test_traced_cli_run_reports_layers(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", str(trace), "dephasing", "--gamma",
         "1.0", "--points", "200", "--outdir", str(tmp_path / "out")],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(trace.read_text())
    assert summary["self_s"]["kernels"] > 0 and summary["self_s"]["cli"] > 0
    assert summary["counts"]["propagations"] == 1
    assert summary["counts"]["rk4_steps"] > 0
    assert summary["calls"]["qsl.build_bounds_report"] == 1


def test_tracer_tolerates_a_missing_layer(tmp_path):
    pkg = tmp_path / "tflow"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "dynamics.py").write_text(
        "def propagate_schrodinger(x):\n    return x + 1\n")
    script = (
        "import sys, json; sys.path.insert(0, %r)\n"
        "import tracing\n"
        "t = tracing.Tracer(); found = tracing.install(t)\n"
        "import tflow.dynamics as d; d.propagate_schrodinger(1)\n"
        "print(json.dumps([found, t.summary()]))\n" % str(HERE))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={"PYTHONPATH": str(tmp_path), "PATH": "/usr/bin:/bin"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found, summary = json.loads(proc.stdout)
    assert found == ["dynamics"]
    metrics = run.layer_metrics([summary], 1, 0.1, 10, 0, 0.0)
    assert metrics["kernels.self_s"][0] == 0.0
    assert metrics["dynamics.propagations"][0] == 1
    assert set(metrics) == {name for name, _ in run.LAYER_METRICS}


def test_scipy_import_seconds_parses_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   scipy._lib\n"
            "import time:        80 |        200 | scipy\n"
            "import time:        50 |         50 | numpy.core\n")
    assert run.scipy_import_seconds(text) == pytest.approx(200e-6)
