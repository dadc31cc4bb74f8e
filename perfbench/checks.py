"""Checks of every tflow output against references made apart from it.

``cli_reference(op)`` and ``sweep_reference(point)`` are computed once per
run, before timing; ``check_cli`` and ``check_sweep`` compare one
operation's output with them and return the list of problems found (an
empty list means the output is correct). Tolerances follow from the
method: closed forms agree to rounding, propagated states to the
integrator's accuracy, and the current route agrees with finite
differences to the trapezoid error dt^2/12 max|g''|.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from workloads import CliOp

# integrator accuracy: the propagators aim at ~1e-9 accumulated error and
# accept a norm/trace drift of 1e-8; STEP_TOL bounds the error a population
# difference between neighbouring grid points picks up from it
STATE_TOL = 1e-6
STEP_TOL = 1e-8
CLOSED_TOL = 1e-10
QUAD_TOL = 1e-8


class Problems(list):
    def close(self, label, got, want, tol, scale=None):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.append(f"{label}: non-finite values")
            return
        s = float(np.max(np.abs(want))) if scale is None else scale
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if err > tol * max(s, 1e-300):
            self.append(f"{label}: max error {err:.3e} > {tol:.1e} x {s:.3e}")

    def require(self, label, ok):
        if not ok:
            self.append(label)


# ---------------------------------------------------------------------------
# output files


def read_csv(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError(f"{path.name}: missing manifest line")
    header = lines[1].split(",")
    cells = [line.split(",") for line in lines[2:]]
    cols = {}
    for i, name in enumerate(header):
        raw = [row[i] for row in cells]
        cols[name] = raw if name == "segment" else np.array(raw, dtype=float)
    return cols


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def comparable(report: dict) -> dict:
    """The report without the fields that may differ between repeats."""
    manifest = dict(report["manifest"])
    manifest.pop("timestamp", None)
    params = dict(manifest.get("parameters", {}))
    params.pop("outdir", None)
    manifest["parameters"] = params
    return dict(report, manifest=manifest)


def same_outputs(a: Path, b: Path) -> list[str]:
    """Seeded outputs repeat: CSVs byte for byte, reports up to run fields."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"files differ between repeats: {names}"]
    out = []
    for name in names:
        if name.endswith(".csv"):
            if (a / name).read_bytes() != (b / name).read_bytes():
                out.append(f"{name} differs between repeats")
        elif comparable(read_report(a / name)) != comparable(read_report(b / name)):
            out.append(f"{name} differs between repeats")
    return out


# ---------------------------------------------------------------------------
# references for the CLI runs (hadamard and dephasing are shared with the sweep)


def _hadamard_reference(omega0: float, gamma: float, points: int) -> dict:
    times = np.linspace(0.0, math.pi / omega0, points)
    r, rdot, r3 = ref.hadamard_bloch(omega0, gamma, times)
    return {"times": times, "p": 0.5 * (1.0 + r[:, 0]), "rate": 0.5 * rdot[:, 0],
            "curvature": float(np.max(np.abs(0.5 * r3[:, 0]))),
            "trace_term": ref.hadamard_trace_term(omega0, gamma)}


def _dephasing_reference(gamma: float, window: float, points: int) -> dict:
    times = np.linspace(0.0, window, points)
    return {"times": times, "p": ref.dephasing_population(gamma, times),
            "rate": gamma * np.exp(-2.0 * gamma * times), "curvature": 4.0 * gamma ** 3,
            "trace_term": ref.dephasing_trace_term(gamma)}


def cli_reference(op: CliOp) -> dict:
    p = op.params
    cmd = op.argv[0]
    if cmd == "two-level":
        times = np.linspace(0.0, p["t_end"], p["points"])
        args = (p["omega"], p["theta"], p["phi"])
        return {"times": times, "p1": ref.two_level_p1(*args, times),
                "rate": ref.two_level_rate(*args, times),
                "moments": ref.constant_drive_moments(*args, 0.0, p["t_end"])}
    if cmd == "sta":
        return {"moments": ref.sta_moments(p["alpha"], p["t_final"])}
    if cmd == "optimize":
        return {}
    if cmd == "lambda":
        times = np.linspace(0.0, p["t_final"], p["points"])
        pops, rate, curvature = ref.lambda_solution(
            p["omega1"], p["omega2"], p["delta_i"], p["delta_f"], p["t_final"], times)
        return {"times": times, "pops": pops, "rate": rate, "curvature": curvature}
    if cmd == "dephasing":
        return _dephasing_reference(p["gamma"], 10.0 / p["gamma"], p["points"])
    if cmd == "hadamard":
        return _hadamard_reference(p["omega0"], p["gamma"], p["points"])
    raise ValueError(f"no reference for {cmd}")


# ---------------------------------------------------------------------------
# shared property checks


def _check_fd_current(pr: Problems, label, fd, cur, dt, curvature):
    """|dp|/dt against the midpoint-averaged |current|: the trapezoid error
    dt^2/12 max|g''| plus the finite difference of the integrator's error."""
    tol = 1.5 * dt * dt / 12.0 * curvature + 2.0 * STEP_TOL / dt
    err = float(np.max(np.abs(np.abs(fd) - np.abs(cur))))
    pr.require(f"{label}: current vs finite differences {err:.3e} > O(dt^2) bound {tol:.3e}",
               err <= tol)


def _check_bounds(pr: Problems, label, std, pi_max, trace_term, delta_theta, bounds):
    cheb = ref.CHEB / pi_max
    tau = delta_theta / math.sqrt(trace_term)
    pr.close(f"{label} chebyshev bound", bounds["spread_bound_chebyshev"], cheb, 1e-9)
    pr.close(f"{label} tau_tf", bounds["tau_tf"], tau, 1e-9)
    pr.close(f"{label} qsl spread bound", bounds["spread_bound_qsl"], ref.CHEB * tau, 1e-9)
    pr.require(f"{label}: std {std} under the Chebyshev bound {cheb}", std >= cheb * (1 - 1e-9))
    pr.require(f"{label}: std {std} under the QSL spread bound {ref.CHEB * tau}",
               std >= ref.CHEB * tau * (1 - 1e-9))


def _check_protocol(pr: Problems, label, f, p, n_trials, chi_square=True):
    f = np.asarray(f, dtype=float)
    counts = f * n_trials
    pr.require(f"{label}: frequencies not multiples of 1/N",
               bool(np.all(np.abs(counts - np.round(counts)) <= 1e-6)))
    err = float(np.max(np.abs(f - p)))
    pr.require(f"{label}: frequency error {err:.3e} outside 5/sqrt(N)",
               err <= 5.0 / math.sqrt(n_trials))
    if chi_square:
        # binomial sampling: z^2 averages to 1; the window is > 6 sigma wide
        var = p * (1.0 - p) / n_trials
        mask = p * (1.0 - p) > 0.01
        z2 = float(np.mean((f[mask] - p[mask]) ** 2 / var[mask]))
        pr.require(f"{label}: mean z^2 {z2:.3f} not binomial", 0.7 <= z2 <= 1.3)


# ---------------------------------------------------------------------------
# CLI checks


def check_cli(op: CliOp, out: Path, want: dict) -> list[str]:
    pr = Problems()
    try:
        CHECKERS[op.argv[0]](pr, op, out, want)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        pr.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return pr


def _two_level(pr: Problems, op: CliOp, out: Path, want: dict):
    p = op.params
    times = want["times"]
    dt = times[1] - times[0]
    series = read_csv(out / "two_level_series.csv")
    report = read_report(out / "two_level_report.json")
    pr.close("time", series["time"], times, 1e-12)
    pr.close("p_1", series["p_1"], want["p1"], CLOSED_TOL, scale=1.0)
    raw = np.abs(want["rate"])
    pr.close("pi_tf", series["pi_tf"], raw / (np.sum(raw) * dt), 1e-9)
    band = 1e-6 * float(np.max(raw))
    kinds = np.array(series["segment"])
    pr.require("segment labels disagree with the sign of dp/dt",
               bool(np.all(kinds[want["rate"] > band] == "TOA"))
               and bool(np.all(kinds[want["rate"] < -band] == "TOD")))
    res = report["results"]
    mean, std = want["moments"]
    pr.close("closed_form_mean", res["closed_form_mean"], mean, QUAD_TOL)
    pr.close("closed_form_std", res["closed_form_std"], std, QUAD_TOL)
    fd = ref.fd_density(want["p1"], dt)
    gm = ref.grid_moments(ref.midpoints(times), fd, dt)
    pr.close("grid_mean", res["grid_mean"], gm[0], 1e-9)
    pr.close("grid_std", res["grid_std"], gm[1], 1e-9)
    if "n_trials" in p:
        n = p["n_trials"]
        proto = read_csv(out / "two_level_protocol.csv")
        freq = read_csv(out / "two_level_frequencies.csv")
        pr.close("protocol time", proto["time"], ref.midpoints(times), 1e-12)
        pr.close("p_exact", freq["p_exact"], want["p1"], CLOSED_TOL, scale=1.0)
        f = freq["f_empirical"]
        _check_protocol(pr, "protocol", f, want["p1"], n)
        pr.close("pi_exact", proto["pi_exact"], fd, 1e-9)
        pr.close("pi_hat", proto["pi_hat"], ref.fd_density(f, dt), 1e-9)
        pm = ref.midpoints(want["p1"])
        pr.close("noise_density", proto["noise_density"],
                 2.0 * np.sqrt(np.clip(pm * (1 - pm), 0, None) / n) / dt, 1e-8)
        pr.require("protocol not flagged inside the binomial envelope",
                   report["diagnostics"]["protocol"]["within_binomial_envelope"] is True)


def _sta(pr: Problems, op: CliOp, out: Path, want: dict):
    p = op.params
    alpha, big_t, n = p["alpha"], p["t_final"], p["points"]
    times = np.linspace(0.0, big_t, n)
    dt = times[1] - times[0]
    series = read_csv(out / "sta_series.csv")
    dist = read_csv(out / "sta_tf.csv")
    report = read_report(out / "sta_report.json")
    pr.close("time", series["time"], times, 1e-12)
    pr.close("p_plus", series["p_plus"], ref.sta_population(alpha, big_t, times),
             CLOSED_TOL, scale=1.0)
    mass = np.diff(ref.sta_flow_cdf(alpha, big_t, times))
    pr.close("pi_toa", dist["pi_toa"], mass / dt / np.sum(mass), 1e-9)
    pr.close("tf time", dist["time"], ref.midpoints(times), 1e-12)
    mean, std = want["moments"]
    pr.close("mean", report["results"]["mean"], mean, QUAD_TOL)
    pr.close("std", report["results"]["std"], std, QUAD_TOL)
    if "--numeric" in op.argv:
        num = read_csv(out / "sta_numeric.csv")
        start = 0.5 * dt if alpha < 1.0 else 0.0
        t_num = np.linspace(start, big_t, n)
        closed = ref.sta_population(alpha, big_t, t_num)
        pr.close("numeric time", num["time"], t_num, 1e-12)
        pr.close("p_plus_closed", num["p_plus_closed"], closed, CLOSED_TOL, scale=1.0)
        pr.close("p_plus_numeric", num["p_plus_numeric"], closed, STATE_TOL, scale=1.0)
        pr.close("deviation", num["deviation"],
                 np.abs(num["p_plus_numeric"] - closed), CLOSED_TOL, scale=1.0)
        pr.close("max_deviation", report["diagnostics"]["max_deviation"],
                 np.max(np.abs(num["p_plus_numeric"] - closed)), CLOSED_TOL, scale=1.0)


def _optimize(pr: Problems, op: CliOp, out: Path, want: dict):
    cfg = op.params
    series = read_csv(out / "optimize_series.csv")
    res = read_report(out / "optimize_report.json")["results"]
    a = np.asarray(res["coefficients"], dtype=float)
    times = np.linspace(0.0, cfg["t_horizon"], 200)
    w0 = cfg["omega0"]
    angle = ref.polynomial_angle(w0, a, times)
    omega = w0 + sum(a[k] * times ** (k + 1) for k in range(4))
    p1 = np.sin(angle / 2.0) ** 2
    raw = np.abs(0.5 * omega * np.sin(angle))
    dt = times[1] - times[0]
    pr.close("time", series["time"], times, 1e-12)
    pr.close("omega", series["omega"], omega, 1e-10)
    pr.close("p_1", series["p_1"], p1, CLOSED_TOL, scale=1.0)
    pr.close("pi_1", series["pi_1"], raw / (np.sum(raw) * dt), 1e-9)
    n_false = int(np.sum(np.diff(p1) <= 0.0))
    cost = (p1[-1] - 1.0) ** 2 + cfg["lambda_mono"] * n_false + cfg["lambda_reg"] * float(a @ a)
    start_p1 = np.sin(w0 * times / 2.0) ** 2
    start_cost = (start_p1[-1] - 1.0) ** 2 + cfg["lambda_mono"] * int(
        np.sum(np.diff(start_p1) <= 0.0))
    pr.close("p1_final", res["p1_final"], p1[-1], CLOSED_TOL, scale=1.0)
    pr.require(f"n_false {res['n_false']} != recount {n_false}", res["n_false"] == n_false)
    pr.close("cost", res["cost"], cost, 1e-9, scale=max(cost, 1e-12))
    pr.require(f"optimized cost {cost:.3e} above the starting cost {start_cost:.3e}",
               cost <= start_cost)
    pr.require("optimizer result not feasible (p1_final >= 0.999, monotone)",
               res["p1_final"] >= 0.999 and n_false == 0)


def _lambda(pr: Problems, op: CliOp, out: Path, want: dict):
    p = op.params
    times = want["times"]
    dt = times[1] - times[0]
    series = read_csv(out / "lambda_series.csv")
    dist = read_csv(out / "lambda_tf.csv")
    report = read_report(out / "lambda_report.json")
    pr.close("time", series["time"], times, 1e-12)
    for k in range(3):
        pr.close(f"p_{k + 1}", series[f"p_{k + 1}"], want["pops"][:, k], STATE_TOL, scale=1.0)
    scale = float(np.max(np.abs(want["rate"])))
    pr.close("gamma_expectation", series["gamma_expectation"], want["rate"], STATE_TOL * 10,
             scale=scale)
    g = series["gamma_expectation"]
    pr.close("pi_2_current", series["pi_2_current"], np.abs(g) / (np.sum(np.abs(g)) * dt), 1e-9)
    _check_fd_current(pr, "lambda", np.diff(series["p_2"]) / dt, ref.midpoints(g), dt,
                      want["curvature"])
    stats = report["results"]["tf_statistics"]
    for k in range(3):
        fd = ref.fd_density(want["pops"][:, k], dt)
        pr.close(f"pi_{k + 1}", dist[f"pi_{k + 1}"], fd, 1e-4)
        mean, std = ref.grid_moments(ref.midpoints(times), fd, dt)
        pr.close(f"state {k + 1} mean", stats[k]["mean"], mean, 1e-6)
        pr.close(f"state {k + 1} std", stats[k]["std"], std, 1e-5)
    ramp = (p["delta_f"] - p["delta_i"]) / p["t_final"]
    w_eff2 = p["omega1"] ** 2 + p["omega2"] ** 2
    pr.close("landau_zener_probability", report["results"]["landau_zener_probability"],
             math.exp(-math.pi * w_eff2 / (2.0 * ramp)), 1e-12, scale=1.0)
    pr.close("omega_eff", report["results"]["omega_eff"], math.sqrt(w_eff2), 1e-12)
    diag = report["diagnostics"]
    pr.require("populations do not sum to 1", diag["population_sum_error"] <= 1e-8)
    pr.require("dark state couples to |2>", diag["dark_state_coupling"] <= 1e-12)


def _dephasing(pr: Problems, op: CliOp, out: Path, want: dict):
    gamma = op.params["gamma"]
    times = want["times"]
    dt = times[1] - times[0]
    series = read_csv(out / "dephasing_series.csv")
    report = read_report(out / "dephasing_report.json")
    pr.close("time", series["time"], times, 1e-12)
    pr.close("p_minus", series["p_minus"], want["p"], CLOSED_TOL, scale=1.0)
    pr.close("p_minus_numeric", series["p_minus_numeric"], want["p"], STATE_TOL, scale=1.0)
    raw = 2.0 * gamma * np.exp(-2.0 * gamma * times)
    pr.close("pi_minus", series["pi_minus"], raw / (np.sum(raw) * dt), 1e-9)
    res = report["results"]
    pr.close("exact_mean", res["exact_mean"], 0.5 / gamma, 1e-12)
    pr.close("exact_std", res["exact_std"], 0.5 / gamma, 1e-12)
    fd = ref.fd_density(want["p"], dt)
    mean, std = ref.grid_moments(ref.midpoints(times), fd, dt)
    pr.close("grid_mean", res["grid_mean"], mean, 1e-6)
    pr.close("grid_std", res["grid_std"], std, 1e-6)
    _check_bounds(pr, "dephasing", 0.5 / gamma, 2.0 * gamma, want["trace_term"], 0.5,
                  report["bounds"])
    pr.close("mt_bound", report["bounds"]["mt_bound"], 1.0 / (math.sqrt(2.0) * gamma), 1e-12)


def _hadamard(pr: Problems, op: CliOp, out: Path, want: dict):
    times = want["times"]
    dt = times[1] - times[0]
    series = read_csv(out / "hadamard_series.csv")
    dist = read_csv(out / "hadamard_tf.csv")
    report = read_report(out / "hadamard_report.json")
    pr.close("time", series["time"], times, 1e-12)
    pr.close("p_plus", series["p_plus"], want["p"], STATE_TOL, scale=1.0)
    scale = float(np.max(np.abs(want["rate"])))
    pr.close("gamma_expectation", series["gamma_expectation"], want["rate"], STATE_TOL * 10,
             scale=scale)
    g = series["gamma_expectation"]
    pr.close("pi_plus_current", series["pi_plus_current"],
             np.abs(g) / (np.sum(np.abs(g)) * dt), 1e-9)
    _check_fd_current(pr, "hadamard", np.diff(series["p_plus"]) / dt, ref.midpoints(g), dt,
                      want["curvature"])
    fd = ref.fd_density(want["p"], dt)
    pr.close("pi_plus", dist["pi_plus"], fd, 1e-4)
    mean, std = ref.grid_moments(ref.midpoints(times), fd, dt)
    res = report["results"]
    pr.close("mean", res["mean"], mean, 1e-6)
    pr.close("std", res["std"], std, 1e-5)
    delta_theta = abs(float(want["p"][-1] - want["p"][0]))
    pr.close("delta_theta", res["delta_theta"], delta_theta, STATE_TOL, scale=1.0)
    pr.close("trace_term", report["bounds"]["trace_term"], want["trace_term"], 1e-12)
    _check_bounds(pr, "hadamard", res["std"], float(np.max(dist["pi_plus"])),
                  want["trace_term"], res["delta_theta"], report["bounds"])


CHECKERS = {"two-level": _two_level, "sta": _sta, "optimize": _optimize,
            "lambda": _lambda, "dephasing": _dephasing, "hadamard": _hadamard}


# ---------------------------------------------------------------------------
# library sweep


def sweep_reference(pt: dict) -> dict:
    kind = pt["kind"]
    if kind == "hadamard":
        return _hadamard_reference(pt["omega0"], pt["gamma"], pt["points"])
    if kind == "dephasing":
        return _dephasing_reference(pt["gamma"], 1.0 / pt["gamma"], pt["points"])
    if kind == "lambda":
        times = np.linspace(0.0, pt["t_final"], pt["points"])
        pops, rate, curvature = ref.lambda_solution(
            pt["omega1"], pt["omega2"], pt["delta_i"], pt["delta_f"], pt["t_final"], times)
        # closed dynamics: |Tr((i[H, P_2])^2)| = 2 (Delta_2 H)^2 = omega_eff^2 / 2
        return {"times": times, "p": pops[:, 1], "pops": pops, "rate": rate,
                "curvature": curvature,
                "trace_term": 0.5 * (pt["omega1"] ** 2 + pt["omega2"] ** 2),
                "deviation": 0.5 * math.hypot(pt["omega1"], pt["omega2"])}
    if kind == "sta":
        return {"moments": ref.sta_moments(pt["alpha"], pt["t_final"])}
    if kind == "narrow-pulse":
        times = np.linspace(0.0, 1.0, pt["points"])
        return {"p": ref.gaussian_pulse_p1(pt["t0"], pt["sigma"], times)}
    raise ValueError(f"no reference for {kind}")


def check_sweep(pt: dict, outcome: dict, want: dict) -> list[str]:
    pr = Problems()
    if not outcome["ok"]:
        return [outcome["error"]]
    res = {k: np.asarray(v) if isinstance(v, list) else v
           for k, v in outcome["result"].items()}
    kind = pt["kind"]
    try:
        if kind == "narrow-pulse":
            pr.close("p_1", res["p"], want["p"], STATE_TOL, scale=1.0)
        elif kind == "sta":
            _sweep_sta(pr, pt, res, want)
        else:
            _sweep_pipeline(pr, pt, res, want)
    except (KeyError, ValueError, TypeError) as exc:
        pr.append(f"malformed result: {type(exc).__name__}: {exc}")
    return pr


def _sweep_pipeline(pr: Problems, pt: dict, res: dict, want: dict):
    label = pt["kind"]
    times = want["times"]
    dt = times[1] - times[0]
    pr.close(f"{label} p", res["p"], want["p"], STATE_TOL, scale=1.0)
    if "pops" in want:
        pr.close(f"{label} populations", res["p_all"], want["pops"].T, STATE_TOL, scale=1.0)
    fd = ref.fd_density(want["p"], dt)
    pr.close(f"{label} fd density", res["fd_density"], fd, 1e-4)
    mean, std = ref.grid_moments(ref.midpoints(times), fd, dt)
    pr.close(f"{label} mean", res["mean"], mean, 1e-6)
    pr.close(f"{label} std", res["std"], std, 1e-5)
    # unnormalized routes: |dp|/dt from the populations, |<current>| at midpoints
    raw_fd = res["fd_density"] / res["fd_norm"]
    raw_cur = res["cur_density"] / res["cur_norm"]
    pr.close(f"{label} current route", raw_cur, np.abs(ref.midpoints(want["rate"])),
             STATE_TOL * 10)
    _check_fd_current(pr, label, raw_fd, raw_cur, dt, want["curvature"])
    delta_theta = abs(float(res["p"][-1] - res["p"][0]))
    bounds = {"spread_bound_chebyshev": res["spread_chebyshev"], "tau_tf": res["tau_tf"],
              "spread_bound_qsl": res["spread_qsl"]}
    _check_bounds(pr, label, float(res["std"]), float(res["peak"]), want["trace_term"],
                  delta_theta, bounds)
    if "deviation" in want:
        pr.close(f"{label} uncertainty product", res["uncertainty_product"],
                 float(res["std"]) * want["deviation"], 1e-9)
        pr.require(f"{label}: uncertainty product under eta",
                   res["uncertainty_product"] >= res["uncertainty_eta"] * (1 - 1e-9))
    _check_protocol(pr, f"{label} protocol", res["frequencies"], want["p"], pt["n_trials"],
                    chi_square=False)


def _sweep_sta(pr: Problems, pt: dict, res: dict, want: dict):
    times = res["times"]
    n, big_t = pt["points"], pt["t_final"]
    # alpha < 1 grids start half a step in, which shortens their step
    start = 0.5 * big_t / (n - 1) if pt["alpha"] < 1.0 else 0.0
    pr.close("sta times", times, np.linspace(start, big_t, n), 1e-12)
    dt = times[1] - times[0]
    p = ref.sta_population(pt["alpha"], big_t, times)
    pr.close("sta p", res["p"], p, STATE_TOL, scale=1.0)
    mean, std = want["moments"]
    for key in ("closed", "report"):
        pr.close(f"sta {key} mean", res[f"{key}_mean"], mean, QUAD_TOL)
        pr.close(f"sta {key} std", res[f"{key}_std"], std, QUAD_TOL)
    fd = ref.fd_density(p, dt)
    pr.close("sta fd density", res["fd_density"], fd, 1e-4)
    gm = ref.grid_moments(ref.midpoints(times), fd, dt)
    pr.close("sta grid mean", res["mean"], gm[0], 1e-6)
    pr.close("sta grid std", res["std"], gm[1], 1e-5)
    pr.close("sta chebyshev bound", res["spread_chebyshev"], ref.CHEB / float(res["peak"]), 1e-9)
    pr.require("sta: std under the Chebyshev bound",
               float(res["std"]) >= float(res["spread_chebyshev"]) * (1 - 1e-9))
    _check_protocol(pr, "sta protocol", res["frequencies"], p, pt["n_trials"],
                    chi_square=False)
