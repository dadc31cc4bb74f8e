"""Sweep points of the library-sweep workload, run through tflow's public API.

Functions are looked up on their modules at call time, so the tracer's
patches apply. Every point returns plain arrays and floats; run.py
checks them against references computed apart from tflow.
"""

from __future__ import annotations

import numpy as np

from tflow import dynamics, errors, models, operators, optimize, protocol, qsl, tf


def _pipeline(traj, grid, target, current_op, n_trials, seed, model, state) -> dict:
    p = dynamics.population_series(traj, target)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p))
    m = tf.moments(fd)
    cur = tf.tf_from_current(traj, current_op, align="midpoints")
    empirical = protocol.simulate_protocol(
        model, state, protocol.ProtocolConfig(n_trials=n_trials, grid=grid,
                                              seed=seed, target=target))
    return {"p": p, "fd_density": fd.density, "fd_norm": fd.normalization,
            "cur_density": cur.density, "cur_norm": cur.normalization,
            "mean": m.mean, "std": m.std, "peak": fd.peak,
            "frequencies": empirical.frequencies}


def _bounds(out: dict, delta_theta_fn) -> dict:
    out["spread_chebyshev"] = qsl.chebyshev_spread_bound(out["peak"])
    tau = delta_theta_fn(abs(float(out["p"][-1] - out["p"][0])))
    out["tau_tf"] = tau
    out["spread_qsl"] = qsl.spread_bound_from_qsl(tau)
    return out


def hadamard(pt: dict) -> dict:
    bundle = models.hadamard_model(pt["omega0"], pt["gamma"])
    grid = dynamics.TimeGrid(0.0, np.pi / pt["omega0"], pt["points"])
    rho0 = operators.projector(2, 0).astype(complex)
    traj = dynamics.propagate_lindblad(bundle.model, rho0, grid)
    out = _pipeline(traj, grid, bundle.target, bundle.current_op, pt["n_trials"],
                    pt["seed"], bundle.model, rho0)
    return _bounds(out, lambda dtheta: qsl.tf_qsl_open(bundle.model, bundle.target, dtheta))


def dephasing(pt: dict) -> dict:
    gamma = pt["gamma"]
    model = models.dephasing_model(gamma)
    grid = dynamics.TimeGrid(0.0, 1.0 / gamma, pt["points"])
    rho0 = operators.projector_from_state(operators.plus_state())
    minus = operators.projector_from_state(operators.minus_state())
    traj = dynamics.propagate_lindblad(model, rho0, grid)
    current = dynamics.lindblad_adjoint(model, minus)
    out = _pipeline(traj, grid, minus, current, pt["n_trials"], pt["seed"], model, rho0)
    return _bounds(out, lambda dtheta: qsl.tf_qsl_open(model, minus, dtheta))


def lambda_ramp(pt: dict) -> dict:
    config = models.LambdaConfig(pt["omega1"], pt["omega2"], pt["delta_i"],
                                 pt["delta_f"], pt["t_final"])
    grid = dynamics.TimeGrid(0.0, pt["t_final"], pt["points"])
    schedule = models.lambda_hamiltonian(config)
    psi0 = operators.basis_state(3, 0)
    traj = dynamics.propagate_schrodinger(schedule, psi0, grid)
    target = operators.projector(3, 1)
    out = _pipeline(traj, grid, target, models.lambda_gamma(config), pt["n_trials"],
                    pt["seed"], schedule, psi0)
    out["p_all"] = np.stack([dynamics.population_series(traj, operators.projector(3, k))
                             for k in range(3)])
    closed = dynamics.LindbladModel(schedule)
    out = _bounds(out, lambda dtheta: qsl.tf_qsl_open(closed, target, dtheta,
                                                      times=grid.times))
    dtheta = abs(float(out["p"][-1] - out["p"][0]))
    check = qsl.uncertainty_check(out["std"], schedule(0.0), 1, dtheta)
    out["uncertainty_product"], out["uncertainty_eta"] = check.product, check.eta
    return out


def sta(pt: dict) -> dict:
    config = models.STAConfig(alpha=pt["alpha"], t_final=pt["t_final"],
                              omega0=pt["omega0"])
    grid = dynamics.TimeGrid(0.0, pt["t_final"], pt["points"])
    traj = models.sta_propagate(config, grid)
    plus = operators.projector_from_state(operators.plus_state())
    p = dynamics.population_series(traj, plus)
    fd = tf.tf_from_population(tf.PopulationSeries(traj.grid, p))
    m = tf.moments(fd)
    _, closed = models.sta_tf_closed(config, grid)
    row = optimize.sta_alpha_report([pt["alpha"]], pt["t_final"], pt["omega0"])[0]
    empirical = protocol.empirical_from_populations(
        p, protocol.ProtocolConfig(n_trials=pt["n_trials"], grid=traj.grid,
                                   seed=pt["seed"], target=plus))
    return {"times": traj.grid.times, "p": p, "fd_density": fd.density,
            "mean": m.mean, "std": m.std, "peak": fd.peak,
            "closed_mean": closed.mean, "closed_std": closed.std,
            "report_mean": row.mean, "report_std": row.std,
            "frequencies": empirical.frequencies,
            "spread_chebyshev": qsl.chebyshev_spread_bound(fd.peak)}


def narrow_pulse(pt: dict) -> dict:
    waveform = models.ControlWaveform.gaussian_pulse(pt["t0"], pt["sigma"])
    grid = dynamics.TimeGrid(0.0, 1.0, pt["points"])
    traj = dynamics.propagate_schrodinger(models.two_level_hamiltonian(waveform),
                                          operators.basis_state(2, 0), grid)
    return {"p": dynamics.population_series(traj, operators.projector(2, 1))}


KINDS = {"hadamard": hadamard, "dephasing": dephasing, "lambda": lambda_ramp,
         "sta": sta, "narrow-pulse": narrow_pulse}
EXPECTED_ERRORS = (errors.IntegrationError, errors.DegenerateDistributionError,
                   ValueError)


def run_point(pt: dict) -> dict:
    """One operation: the result, or the error it raised."""
    try:
        return {"ok": True, "result": KINDS[pt["kind"]](pt)}
    except EXPECTED_ERRORS as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
