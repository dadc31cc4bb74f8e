"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are fixed here, not configurable; the protocol
distance thresholds were frozen from the 20-seed calibration recorded in
docs/protocol_calibration.md.
"""

import time

import numpy as np
import pytest

from tflow import dynamics, models, operators, protocol, qsl, tf
from tflow.dynamics import TimeGrid, constant_hamiltonian

from test_qsl import bundled_model_cases

M_PLUS = operators.projector_from_state(operators.plus_state())
M_MINUS = operators.projector_from_state(operators.minus_state())
SPREAD_FACTOR = 1.0 / (3.0 * np.sqrt(3.0))


def _pass(number, message):
    print(f"[acceptance] criterion {number:02d} PASS - {message}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # exclude one-time JIT compilation from the timed criteria
    grid = TimeGrid(0.0, 0.1, 3)
    dynamics.propagate_schrodinger(
        constant_hamiltonian(operators.SIGMA_X), operators.basis_state(2, 0), grid
    )
    dynamics.propagate_lindblad(
        models.dephasing_model(1.0),
        operators.projector_from_state(operators.plus_state()), grid,
    )
    dynamics.propagate_schrodinger(
        models.lambda_hamiltonian(models.LambdaConfig(1, 1, -1, 1, 1)),
        operators.basis_state(3, 0), grid,
    )


def test_criterion_01_constant_drive_moments():
    start = time.perf_counter()
    omega0 = 1.0
    want_mean = np.pi / (2.0 * omega0)
    want_std = want_mean * np.sqrt(1.0 - 8.0 / np.pi ** 2)

    waveform = models.ControlWaveform.constant(omega0)
    closed = models.two_level_moments_closed(
        waveform, models.TwoLevelInitial(), 0.0, np.pi / omega0
    )
    assert closed.mean == pytest.approx(want_mean, rel=1e-6)
    assert closed.std == pytest.approx(want_std, rel=1e-6)

    grid = TimeGrid(0.0, np.pi / omega0, 2000)
    traj = dynamics.propagate_schrodinger(
        constant_hamiltonian(0.5 * omega0 * operators.SIGMA_X),
        operators.basis_state(2, 0), grid,
    )
    series = tf.PopulationSeries(grid, dynamics.population_series(traj, operators.projector(2, 1)))
    grid_m = tf.moments(tf.tf_from_population(series))
    assert grid_m.mean == pytest.approx(want_mean, rel=1e-4)
    assert grid_m.std == pytest.approx(want_std, rel=1e-4)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"mean/std match closed form and grid pipeline ({elapsed:.2f}s)")


def test_criterion_02_sta_moments_and_exactness():
    start = time.perf_counter()
    linear = models.sta_moments_closed(models.STAConfig(1.0, 1.0, 10.0))
    assert linear.mean == pytest.approx(1.0 - 2.0 / np.pi, rel=1e-6)
    assert linear.std == pytest.approx(np.sqrt(4.0 / np.pi - 12.0 / np.pi ** 2),
                                       rel=1e-6)
    worst = 0.0
    for alpha in (0.7, 1.0, 2.0, 5.0, 10.0):
        for omega0 in (5.0, 20.0):
            config = models.STAConfig(alpha=alpha, t_final=1.0, omega0=omega0)
            traj = models.sta_propagate(config, TimeGrid(0.0, 1.0, 2001))
            p_num = dynamics.population_series(traj, M_PLUS)
            p_ref = models.sta_population_closed(config, traj.grid.times)
            worst = max(worst, float(np.max(np.abs(p_num - p_ref))))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(2, f"sweep exact within {worst:.1e}, moments by quadrature ({elapsed:.2f}s)")


def test_criterion_03_dephasing_pipeline_and_bounds():
    gamma = 1.0
    grid = TimeGrid(0.0, 10.0 / gamma, 4000)
    traj = dynamics.propagate_lindblad(models.dephasing_model(gamma), M_PLUS, grid)
    series = tf.PopulationSeries(grid, dynamics.population_series(traj, M_MINUS))
    grid_m = tf.moments(tf.tf_from_population(series))
    assert grid_m.mean == pytest.approx(0.5 / gamma, rel=0.01)
    assert grid_m.std == pytest.approx(0.5 / gamma, rel=0.01)

    analytics = models.dephasing_analytics(gamma, grid)
    assert abs(analytics.exact_mean - 0.5 / gamma) <= 1e-12
    assert abs(analytics.exact_std - 0.5 / gamma) <= 1e-12

    tau = qsl.tf_qsl_open(models.dephasing_model(gamma), M_MINUS,
                          analytics.delta_theta)
    assert tau == pytest.approx(1.0 / (2.0 * np.sqrt(2.0) * gamma), rel=1e-12)
    assert qsl.mt_dephasing_bound(gamma) == pytest.approx(
        1.0 / (np.sqrt(2.0) * gamma), rel=1e-12
    )
    spread = qsl.spread_bound_from_qsl(tau)
    assert spread == pytest.approx(1.0 / (6.0 * np.sqrt(6.0) * gamma), rel=1e-12)
    assert analytics.exact_std / spread == pytest.approx(3.0 * np.sqrt(6.0),
                                                         rel=1e-3)
    _pass(3, "grid within 1%, analytics exact, bound ratio 3*sqrt(6)")


def test_criterion_04_hadamard_trace_and_spread_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        omega0 = rng.uniform(0.5, 40.0)
        gamma = rng.uniform(0.0, 15.0)
        bundle = models.hadamard_model(omega0, gamma)
        adj = dynamics.lindblad_adjoint(bundle.model, M_PLUS)
        got = abs(np.real(np.trace(adj @ adj)))
        want = omega0 ** 2 / 4.0 + gamma ** 2 / 2.0
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    omega0 = 2.0 * np.pi * 10.0
    margins = []
    for gamma_mhz in (0.0, 5.0, 10.0):
        gamma = 2.0 * np.pi * gamma_mhz
        bundle = models.hadamard_model(omega0, gamma)
        grid = TimeGrid(0.0, np.pi / omega0, 2000)
        traj = dynamics.propagate_lindblad(
            bundle.model, operators.projector(2, 0).astype(complex), grid
        )
        p = dynamics.population_series(traj, bundle.target)
        measured = tf.moments(tf.tf_from_population(tf.PopulationSeries(grid, p)))
        delta_theta = abs(float(p[-1] - p[0]))
        bound = SPREAD_FACTOR * delta_theta / np.sqrt(omega0 ** 2 / 4.0 + gamma ** 2 / 2.0)
        assert measured.std >= bound
        margins.append(measured.std / bound)
    _pass(4, f"trace identity exact; spread bound margins {min(margins):.1f}x+")


def test_criterion_05_step_model_statistics():
    mixed = tf.step_model_statistics([(2.0, 0.5), (4.0, -0.25), (6.0, 0.75)])
    assert abs(mixed.toa.mean - 22.0 / 5.0) <= 1e-12
    assert abs(mixed.toa.std - 4.0 * np.sqrt(6.0) / 5.0) <= 1e-12
    assert abs(mixed.tod.mean - 4.0) <= 1e-12
    assert abs(mixed.tf.mean - 13.0 / 3.0) <= 1e-12
    assert abs(mixed.tf.std - np.sqrt(29.0) / 3.0) <= 1e-12
    double = tf.step_model_statistics([(2.0, 0.5), (4.0, 0.5)])
    assert double.toa.mean == 3.0
    assert double.toa.std == 1.0
    _pass(5, "stepwise flow statistics exact")


def test_criterion_06_delta_pulse_concentration():
    t0 = 1.0
    spreads = []
    for sigma in (0.2, 0.1, 0.05):
        waveform = models.ControlWaveform.gaussian_pulse(t0, sigma)
        grid = TimeGrid(0.0, 2.0, 8001)
        p = np.clip(models.two_level_population(
            waveform, models.TwoLevelInitial(), grid.times), 0.0, 1.0)
        m = tf.moments(tf.tf_from_population(tf.PopulationSeries(grid, p)))
        assert abs(m.mean - t0) <= 3.0 * sigma
        assert m.std <= 2.0 * sigma
        spreads.append(m.std)
    assert spreads[0] > spreads[1] > spreads[2]
    _pass(6, "pulse narrowing concentrates the flow at the switching time")


def test_criterion_07_protocol_convergence_and_determinism():
    n_trials = 10 ** 5
    grid = TimeGrid(0.0, np.pi, 100)
    p = np.sin(grid.times / 2.0) ** 2
    exact = tf.tf_from_population(tf.PopulationSeries(grid, p))
    config = protocol.ProtocolConfig(n_trials=n_trials, grid=grid, seed=0,
                                     target=operators.projector(2, 1))
    empirical = protocol.empirical_from_populations(p, config)
    report = protocol.convergence_report(empirical, exact, p_exact=p)
    # thresholds frozen after the 20-seed run in docs/protocol_calibration.md
    assert report.mean_abs_distance <= 0.05
    assert report.l1_distance <= 0.16

    # each point draws from its own Philox stream keyed (seed, j)
    per_point = np.array([
        np.random.Generator(np.random.Philox(key=[config.seed, j])).binomial(
            n_trials, p[j]) / n_trials
        for j in range(grid.n_points)
    ])
    assert np.array_equal(empirical.frequencies, per_point)
    again = protocol.empirical_from_populations(p, config)
    assert np.array_equal(empirical.density, again.density)
    _pass(7, f"L1 {report.l1_distance:.3f} (normalized "
             f"{report.mean_abs_distance:.3f}); per-point streams bit-identical")


def test_criterion_08_lambda_sweep_properties():
    config = models.LambdaConfig(
        2.0 * np.pi, 2.0 * np.pi, -2.0 * np.pi * 10.0, 2.0 * np.pi * 10.0, 4.0
    )
    grid = TimeGrid(0.0, config.t_final, 4000)
    schedule = models.lambda_hamiltonian(config)
    traj = dynamics.propagate_schrodinger(
        schedule, operators.basis_state(3, 0), grid
    )
    pops = [dynamics.population_series(traj, operators.projector(3, k))
            for k in range(3)]
    assert np.max(np.abs(sum(pops) - 1.0)) <= 1e-8

    fd = tf.tf_from_population(tf.PopulationSeries(grid, pops[1]))
    current = tf.tf_from_current(traj, models.lambda_gamma(config),
                                 align="midpoints")
    assert np.max(np.abs(current.density - fd.density)) <= 5.0 * grid.dt

    dark = models.lambda_dark_state(config)
    for t in np.linspace(0.0, config.t_final, 100):
        assert abs(schedule(t)[1] @ dark) <= 1e-12

    probs = [
        models.landau_zener_probability(
            models.LambdaConfig(config.omega1, config.omega2,
                                config.delta_initial, config.delta_final, t_final)
        )
        for t_final in (1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))

    dens = fd.density
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    peaks = int(np.sum(interior & (dens[1:-1] > 0.05 * dens.max())))
    assert peaks > 3
    _pass(8, f"conservation, current route, dark state, {peaks} flow peaks")


def test_criterion_09_optimizer_feasibility():
    from tflow import optimize

    t_horizon = 1.0
    lambda_reg = 1e-8
    config = optimize.OptimizeConfig(
        t_horizon=t_horizon, omega0=0.8 * np.pi / t_horizon,
        lambda_mono=1.0, lambda_reg=lambda_reg, max_iterations=2000,
    )
    witness = 0.4 * np.pi / t_horizon ** 2
    witness_cost = optimize.cost((witness, 0.0, 0.0, 0.0), config)
    assert witness_cost <= 1e-12 + lambda_reg * witness ** 2

    result = optimize.optimize_polynomial(config)
    assert result.iterations <= 2000
    assert result.p1_final >= 0.999
    assert result.n_false == 0
    _pass(9, f"p1(T)={result.p1_final:.5f} with monotone transfer in "
             f"{result.iterations} iterations")


def test_criterion_10_bound_validity_sweep():
    checked = 0
    for name, measured, peak, delta_theta, trace, deviation in bundled_model_cases():
        tau = delta_theta / np.sqrt(trace)
        assert measured.std >= SPREAD_FACTOR * tau * (1.0 - 1e-9), name
        assert measured.std >= SPREAD_FACTOR / peak * (1.0 - 1e-9), name
        if deviation is not None:
            # product form applies to Hamiltonian-driven transfers
            eta = delta_theta / (6.0 * np.sqrt(3.0))
            assert measured.std * deviation >= eta * (1.0 - 1e-9), name
        checked += 1
    assert checked == 10
    _pass(10, f"no bound violations across {checked} bundled scenarios")


def test_criterion_11_closed_system_trace_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(100):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = raw + raw.conj().T
            k = int(rng.integers(dim))
            model = dynamics.LindbladModel(constant_hamiltonian(h), ())
            adj = dynamics.lindblad_adjoint(model, operators.projector(dim, k))
            trace_term = abs(np.real(np.trace(adj @ adj)))
            e1 = float(np.real(h[k, k]))
            e2 = float(np.real((h @ h)[k, k]))
            defect = abs(trace_term - 2.0 * (e2 - e1 * e1))
            worst = max(worst, defect / max(1.0, trace_term))
    assert worst <= 1e-10
    _pass(11, f"|Tr((L^dag M)^2)| = 2 (Delta_k H)^2 within {worst:.1e}")
