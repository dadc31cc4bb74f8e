import json
import re

import numpy as np
import pytest

from tflow import cli, dynamics, models, operators, qsl, tf
from tflow.dynamics import TimeGrid
from tflow.errors import DimensionMismatchError, OperatorConstraintError

M_PLUS = operators.projector_from_state(operators.plus_state())
M_MINUS = operators.projector_from_state(operators.minus_state())
THREE_ROOT_THREE = 3.0 * np.sqrt(3.0)


def test_tf_qsl_open_dephasing():
    gamma = 1.0
    tau = qsl.tf_qsl_open(models.dephasing_model(gamma), M_MINUS, 0.5)
    assert tau == pytest.approx(1.0 / (2.0 * np.sqrt(2.0) * gamma), rel=1e-12)


def test_tf_qsl_open_hadamard():
    omega0, gamma = 2.0 * np.pi, 1.5
    bundle = models.hadamard_model(omega0, gamma)
    tau = qsl.tf_qsl_open(bundle.model, M_PLUS, 0.4)
    assert tau == pytest.approx(0.4 / np.sqrt(omega0 ** 2 / 4 + gamma ** 2 / 2),
                                rel=1e-12)


def test_tf_qsl_open_frozen_dynamics_is_unbounded():
    model = dynamics.LindbladModel(
        dynamics.constant_hamiltonian(np.zeros((2, 2), dtype=complex)), ()
    )
    assert np.isinf(qsl.tf_qsl_open(model, operators.projector(2, 0), 0.5))


def test_tf_qsl_open_validates_inputs():
    model = models.dephasing_model(1.0)
    with pytest.raises(ValueError):
        qsl.tf_qsl_open(model, M_MINUS, 0.0)
    with pytest.raises(Exception):
        qsl.tf_qsl_open(model, operators.SIGMA_X, 0.5)  # not a projector


def _trace_term(model, m, t):
    """|Tr(L^dag(M)^2)| at a single time, the per-time reference."""
    adj = dynamics.lindblad_adjoint(model, m, t)
    return abs(float(np.real(np.trace(adj @ adj))))


def _time_dependent_models():
    lam = models.LambdaConfig(2 * np.pi, 2 * np.pi, -5 * np.pi, 5 * np.pi, 2.0)
    schedule = models.lambda_hamiltonian(lam)
    decay = np.zeros((3, 3))
    decay[1, 0] = 1.0
    psi = np.array([1.0, 1.0j, 1.0]) / np.sqrt(3.0)
    # a drive along all three Pauli axes
    driven = dynamics.HamiltonianSchedule(
        2, batch=lambda ts: 0.5 * np.cos(3.0 * ts)[:, None, None] * operators.SIGMA_X
        + 0.2 * ts[:, None, None] * operators.SIGMA_Z + 0.3 * operators.SIGMA_Y)
    phi = np.array([np.cos(0.4), np.exp(0.7j) * np.sin(0.4)])
    # generic channels and targets, so the cross term 2 Tr(i[H, M] D^dag(M))
    # is nonzero and the sign of the commutator matters
    return [
        (dynamics.LindbladModel(schedule), operators.projector(3, 1), lam.t_final),
        (dynamics.LindbladModel(schedule, ((decay, 1.0),)),
         np.outer(psi, psi.conj()), lam.t_final),
        (dynamics.LindbladModel(driven, ((np.array([[0.2, 1.0], [0.3j, -0.1]]), 0.35),)),
         np.outer(phi, phi.conj()), 4.0),
    ]


@pytest.mark.parametrize("case", range(3))
def test_tf_qsl_open_times_matches_per_time_trace_terms(case):
    model, m, t_end = _time_dependent_models()[case]
    times = np.linspace(0.0, t_end, 401)
    want = max(_trace_term(model, m, float(t)) for t in times)
    got = qsl.tf_qsl_open(model, m, 0.5, times=times)
    assert got == pytest.approx(0.5 / np.sqrt(want), rel=1e-12)


def test_tf_qsl_open_refuses_an_unfit_schedule_or_target():
    # each gave a quiet wrong number: nan, inf (the frozen target's value),
    # and a finite bound for an M that is no observable
    from tflow.errors import OperatorConstraintError

    def after_half_nan(ts):
        return np.where(ts > 0.5, np.nan, 1.0)[:, None, None] * operators.SIGMA_X

    def raising(ts):
        return np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                               (len(ts), 2, 2))

    m = operators.projector(2, 0)
    model = dynamics.LindbladModel(dynamics.HamiltonianSchedule(2, batch=after_half_nan))
    with pytest.raises(OperatorConstraintError, match=r"^schedule is not finite at t = 1$"):
        qsl.tf_qsl_open(model, m, 0.5, times=[0.0, 1.0])
    model = dynamics.LindbladModel(dynamics.HamiltonianSchedule(2, batch=raising))
    with pytest.raises(OperatorConstraintError,
                       match=r"^schedule is not Hermitian on the grid \(defect 1\.000e\+00\)$"):
        qsl.tf_qsl_open(model, m, 0.5, times=[0.0, 1.0])
    model = dynamics.LindbladModel(dynamics.constant_hamiltonian(operators.SIGMA_X))
    with pytest.raises(OperatorConstraintError,
                       match=r"^measurement operator is not Hermitian \(defect 1\.000e\+00\)$"):
        qsl.tf_qsl_open(model, np.array([[1.0, 1.0], [0.0, 0.0]]), 0.5)


def test_tf_qsl_open_times_checks_dimension():
    model = dynamics.LindbladModel(models.lambda_hamiltonian(
        models.LambdaConfig(1.0, 1.0, -1.0, 1.0, 1.0)))
    with pytest.raises(DimensionMismatchError):
        qsl.tf_qsl_open(model, M_PLUS, 0.5, times=[0.0, 0.5])


def test_hamiltonian_std_direct_evaluation():
    # oracle: <+|H^2|+> - <+|H|+>^2 for the Hadamard-axis Hamiltonian
    omega0 = 2.0 * np.pi
    h = 0.5 * omega0 * operators.hadamard()
    dev = qsl.hamiltonian_std(h, operators.plus_state())
    assert dev == pytest.approx(omega0 / (2.0 * np.sqrt(2.0)), rel=1e-12)
    # basis index form
    h2 = 0.5 * 3.0 * operators.SIGMA_X
    assert qsl.hamiltonian_std(h2, 1) == pytest.approx(1.5, rel=1e-12)
    # an energy offset moves no deviation; <H^2> - <H>^2 read 0 at 1e8
    for offset in (1e3, 1e8, 1e15):
        assert qsl.hamiltonian_std(0.5 * operators.SIGMA_X + offset * np.eye(2), 0) == 0.5


def test_tf_qsl_closed_variants():
    omega0 = 2.0 * np.pi
    h = 0.5 * omega0 * operators.hadamard()
    bound = qsl.tf_qsl_closed(h, operators.plus_state(), 0.5)
    dev = omega0 / (2.0 * np.sqrt(2.0))
    assert bound.printed == pytest.approx(0.5 / (2.0 * dev), rel=1e-12)
    assert bound.derived == pytest.approx(0.5 / (np.sqrt(2.0) * dev), rel=1e-12)
    # the derived variant reproduces the open-system bound at zero coupling
    open_tau = qsl.tf_qsl_open(models.hadamard_model(omega0, 0.0).model, M_PLUS, 0.5)
    assert bound.derived == pytest.approx(open_tau, rel=1e-12)


def test_tf_qsl_closed_eigenstate_is_unbounded():
    bound = qsl.tf_qsl_closed(operators.SIGMA_Z, 0, 0.5)
    assert np.isinf(bound.printed) and np.isinf(bound.derived)


def test_chebyshev_bound_values():
    assert qsl.chebyshev_spread_bound(2.0) == pytest.approx(
        1.0 / (6.0 * np.sqrt(3.0)), rel=1e-12
    )
    assert qsl.chebyshev_spread_bound(1.0) == pytest.approx(0.19245008972987526,
                                                            rel=1e-12)
    with pytest.raises(ValueError):
        qsl.chebyshev_spread_bound(0.0)


def test_chebyshev_bound_uniform_density():
    total = 1.0
    grid = TimeGrid(0.0, total, 5001)
    series = tf.PopulationSeries(grid, grid.times / total)
    m = tf.moments(tf.tf_from_population(series))
    bound = qsl.chebyshev_spread_bound(1.0 / total)
    assert m.std >= bound
    assert m.std == pytest.approx(total / np.sqrt(12.0), abs=1e-5)


def test_chebyshev_bound_random_unimodal_densities():
    rng = np.random.default_rng(101)
    grid = TimeGrid(0.0, 1.0, 2001)
    t = grid.times
    for _ in range(100):
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.02, 0.3)
        power = rng.uniform(1.0, 4.0)
        density = np.exp(-np.abs((t - center) / width) ** power)
        density /= np.sum(density) * grid.dt
        dist = tf.TFDistribution(t, density, grid.dt, 1.0)
        m = tf.moments(dist)
        assert m.std >= qsl.chebyshev_spread_bound(dist.peak) * (1.0 - 1e-9)


def test_spread_bound_from_qsl():
    gamma = 1.0
    tau = qsl.tf_qsl_open(models.dephasing_model(gamma), M_MINUS, 0.5)
    assert qsl.spread_bound_from_qsl(tau) == pytest.approx(
        1.0 / (6.0 * np.sqrt(6.0) * gamma), rel=1e-12
    )
    assert qsl.spread_bound_from_qsl(THREE_ROOT_THREE) == pytest.approx(1.0, rel=1e-12)
    omega0, g = 4.0, 0.3
    bundle = models.hadamard_model(omega0, g)
    tau_h = qsl.tf_qsl_open(bundle.model, M_PLUS, 0.37)
    want = (1.0 / THREE_ROOT_THREE) * 0.37 / np.sqrt(omega0 ** 2 / 4 + g ** 2 / 2)
    assert qsl.spread_bound_from_qsl(tau_h) == pytest.approx(want, rel=1e-12)


def test_dephasing_margin_factor():
    # measured spread sits 3*sqrt(6) above the combined bound
    gamma = 1.0
    measured_std = 1.0 / (2.0 * gamma)
    tau = qsl.tf_qsl_open(models.dephasing_model(gamma), M_MINUS, 0.5)
    ratio = measured_std / qsl.spread_bound_from_qsl(tau)
    assert ratio == pytest.approx(3.0 * np.sqrt(6.0), rel=1e-12)


def test_uncertainty_check_constant_drive():
    # oracle: Delta_1 H = omega0/2 for the sigma_x drive
    omega0 = 1.0
    h = 0.5 * omega0 * operators.SIGMA_X
    measured_std = (np.pi / (2.0 * omega0)) * np.sqrt(1.0 - 8.0 / np.pi ** 2)
    res = qsl.uncertainty_check(measured_std, h, 1, delta_theta=1.0)
    assert res.product == pytest.approx(measured_std * omega0 / 2.0, rel=1e-12)
    assert res.eta == pytest.approx(1.0 / (6.0 * np.sqrt(3.0)), rel=1e-12)
    assert res.satisfied


def test_uncertainty_check_zero_transfer_trivial():
    res = qsl.uncertainty_check(0.0, operators.SIGMA_Z, 0, delta_theta=0.0)
    assert res.eta == 0.0
    assert res.satisfied


def test_mt_dephasing_bound():
    assert qsl.mt_dephasing_bound(1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    assert qsl.mt_dephasing_bound(2.0) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)),
                                                        rel=1e-12)
    tau = qsl.tf_qsl_open(models.dephasing_model(1.0), M_MINUS, 0.5)
    assert tau / qsl.mt_dephasing_bound(1.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        qsl.mt_dephasing_bound(0.0)


def test_build_bounds_report_dephasing():
    gamma = 1.0
    analytics = models.dephasing_analytics(gamma, TimeGrid(0.0, 10.0, 1001))
    measured = tf.Moments(mean=0.5, std=0.5)
    report = qsl.build_bounds_report(
        delta_theta=analytics.delta_theta,
        trace_term=2.0 * gamma ** 2,
        measured=measured,
        pi_max=2.0 * gamma,
        mt_bound=qsl.mt_dephasing_bound(gamma),
    )
    assert report["tau_tf"] == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), rel=1e-12)
    assert report["satisfied"]["spread_qsl"]
    assert report["satisfied"]["spread_chebyshev"]
    assert report["satisfied"]["mt_comparison_ratio_half"]
    assert report["tau_tf_closed_printed"] is None
    assert report["measured"]["std"] == 0.5
    assert report["mt_bound"] == qsl.mt_dephasing_bound(gamma)
    assert report["std_over_qsl_spread_bound"] == pytest.approx(
        0.5 / report["spread_bound_qsl"], rel=1e-15)
    assert list(report)[-2:] == ["mt_bound", "std_over_qsl_spread_bound"]


def test_build_bounds_report_closed_variants():
    omega0 = 2.0 * np.pi
    h = models.hadamard_model(omega0, 0.0).model.hamiltonian(0.0)
    measured = tf.Moments(mean=0.3, std=0.2)
    report = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=omega0 ** 2 / 4.0, measured=measured,
        pi_max=2.0, hamiltonian=h, target=operators.plus_state())
    closed = qsl.tf_qsl_closed(h, operators.plus_state(), 0.5)
    assert report["tau_tf_closed_printed"] == closed.printed
    assert report["tau_tf_closed_derived"] == closed.derived
    assert report["tau_tf_closed_derived"] == pytest.approx(report["tau_tf"], rel=1e-12)
    assert report["spread_bound_qsl"] == qsl.spread_bound_from_qsl(report["tau_tf"])
    assert report["uncertainty_product"] == 0.2 * qsl.hamiltonian_std(
        h, operators.plus_state())
    assert "mt_bound" not in report
    # an eigenstate target has no closed-system bound and no product
    eigen = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=1.0, measured=measured, pi_max=2.0,
        hamiltonian=operators.SIGMA_Z, target=0)
    assert eigen["tau_tf_closed_printed"] is None and eigen["uncertainty_product"] is None
    assert "uncertainty" not in eigen["satisfied"]


# ---------------------------------------------------------------------------
# validity sweep across every bundled model


def _two_level_case():
    omega0 = 1.0
    waveform = models.ControlWaveform.constant(omega0)
    init = models.TwoLevelInitial()
    grid = TimeGrid(0.0, np.pi / omega0, 2001)
    dist = tf.tf_from_rate(grid, models.two_level_rate(waveform, init, grid.times))
    m = tf.moments(dist)
    p = models.two_level_population(waveform, init, grid.times)
    h = 0.5 * omega0 * operators.SIGMA_X
    trace = 2.0 * qsl.hamiltonian_std(h, 1) ** 2
    return "two-level", m, dist.peak, abs(p[-1] - p[0]), trace, qsl.hamiltonian_std(h, 1)


def _sta_cases():
    for alpha in (0.7, 1.0, 2.0, 5.0, 10.0):
        config = models.STAConfig(alpha=alpha, t_final=1.0, omega0=5.0)
        grid = TimeGrid(0.0, 1.0, 4001)
        dist, m = models.sta_tf_closed(config, grid)
        schedule = models.sta_hamiltonian(config)
        plus = operators.plus_state()
        sample_ts = grid.times[1:]  # alpha < 1 diverges at exactly t = 0
        devs = [qsl.hamiltonian_std(schedule(t), plus) for t in sample_ts[::40]]
        dev = max(devs)
        yield f"sta alpha={alpha}", m, dist.peak, 0.5, 2.0 * dev ** 2, dev


def _dephasing_case():
    gamma = 1.0
    analytics = models.dephasing_analytics(gamma, TimeGrid(0.0, 12.0, 4001))
    m = tf.Moments(mean=analytics.exact_mean, std=analytics.exact_std)
    return ("dephasing", m, 2.0 * gamma, analytics.delta_theta,
            2.0 * gamma ** 2, None)


def _hadamard_cases():
    omega0 = 2.0 * np.pi * 10.0
    for gamma_mhz in (0.0, 5.0, 10.0):
        gamma = 2.0 * np.pi * gamma_mhz
        bundle = models.hadamard_model(omega0, gamma)
        grid = TimeGrid(0.0, np.pi / omega0, 2001)
        traj = dynamics.propagate_lindblad(
            bundle.model, operators.projector(2, 0).astype(complex), grid
        )
        p = dynamics.population_series(traj, bundle.target)
        dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
        m = tf.moments(dist)
        dev = qsl.hamiltonian_std(bundle.model.hamiltonian(0.0), operators.plus_state())
        yield (f"hadamard gamma/2pi={gamma_mhz}", m, dist.peak,
               abs(float(p[-1] - p[0])), omega0 ** 2 / 4.0 + gamma ** 2 / 2.0, dev)


def bundled_model_cases():
    yield _two_level_case()
    yield from _sta_cases()
    yield _dephasing_case()
    yield from _hadamard_cases()


def test_validity_sweep_spread_bounds():
    for name, m, peak, d_theta, trace, _ in bundled_model_cases():
        tau = d_theta / np.sqrt(trace)
        spread_bound = qsl.spread_bound_from_qsl(tau)
        assert m.std >= spread_bound * (1.0 - 1e-9), name
        assert m.std >= qsl.chebyshev_spread_bound(peak) * (1.0 - 1e-9), name


def test_validity_sweep_uncertainty_products():
    # the product form applies where a Hamiltonian drives the transfer
    for name, m, _, d_theta, _, dev in bundled_model_cases():
        if dev is None:
            continue
        eta = d_theta / (6.0 * np.sqrt(3.0))
        assert m.std * dev >= eta * (1.0 - 1e-9), name


def test_peak_bounded_by_trace_term():
    # pi_max <= sqrt(trace term) / (net transfer) on every bundled model
    for name, m, peak, d_theta, trace, _ in bundled_model_cases():
        assert peak <= np.sqrt(trace) / d_theta * (1.0 + 1e-6), name


# ---------------------------------------------------------------------------
# one rule per bound


def test_uncertainty_flag_agrees_with_the_report_inside_the_tolerance():
    # product = eta * (1 - 5e-10): inside the report's 1e-9 slack, which the
    # check did not share (it used 1e-12 and called the bound broken)
    eta = 1.0 / (6.0 * np.sqrt(3.0))
    delta_t = eta * (1.0 - 5e-10)
    check = qsl.uncertainty_check(delta_t, operators.SIGMA_X, 0, 1.0)
    report = qsl.build_bounds_report(
        delta_theta=1.0, trace_term=2.0, pi_max=1.0,
        measured=tf.Moments(mean=1.0, std=delta_t),
        hamiltonian=operators.SIGMA_X, target=0)
    assert check.eta == report["uncertainty_eta"]
    assert check.product == report["uncertainty_product"]
    assert check.satisfied is report["satisfied"]["uncertainty"] is True


def test_tf_qsl_open_without_times_is_the_batched_bound_at_zero():
    bundle = models.hadamard_model(2.0 * np.pi, 1.5)
    for dtheta in (0.4, 1.0):
        assert qsl.tf_qsl_open(bundle.model, M_PLUS, dtheta) == qsl.tf_qsl_open(
            bundle.model, M_PLUS, dtheta, times=[0.0])
    model = dynamics.LindbladModel(models.lambda_hamiltonian(
        models.LambdaConfig(1.0, 1.0, -1.0, 1.0, 1.0)))
    with pytest.raises(ValueError, match="supply the evaluation times"):
        qsl.tf_qsl_open(model, operators.projector(3, 1), 0.5)


def test_bounds_report_computes_the_deviation_once(monkeypatch):
    calls = []
    std = qsl.hamiltonian_std
    monkeypatch.setattr(qsl, "hamiltonian_std",
                        lambda *args: calls.append(args) or std(*args))
    h = models.hadamard_model(2.0, 0.0).model.hamiltonian(0.0)
    report = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=1.0, pi_max=2.0, hamiltonian=h,
        target=operators.plus_state(),
        measured=tf.Moments(mean=0.3, std=0.2))
    assert len(calls) == 1
    assert report["tau_tf_closed_derived"] == qsl.tf_qsl_closed(
        h, operators.plus_state(), 0.5).derived


# the report's keys, in the order the CLI has always written them
REPORT_KEYS = ["delta_theta", "trace_term", "tau_tf", "tau_tf_closed_printed",
               "tau_tf_closed_derived", "spread_bound_chebyshev", "spread_bound_qsl",
               "uncertainty_eta", "uncertainty_product", "measured", "satisfied"]


def test_bounds_report_keeps_its_key_order():
    measured = tf.Moments(mean=0.3, std=0.2)
    dephasing = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=2.0, measured=measured, pi_max=2.0,
        mt_bound=qsl.mt_dephasing_bound(1.0))
    assert list(dephasing) == REPORT_KEYS + ["mt_bound", "std_over_qsl_spread_bound"]
    assert list(dephasing["measured"]) == ["mean", "std", "pi_max"]
    assert list(dephasing["satisfied"]) == [
        "spread_chebyshev", "spread_qsl", "mt_comparison_ratio_half"]
    h = models.hadamard_model(2.0, 0.0).model.hamiltonian(0.0)
    closed = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=1.0, measured=measured, pi_max=2.0,
        hamiltonian=h, target=operators.plus_state())
    assert list(closed) == REPORT_KEYS
    assert list(closed["satisfied"]) == ["spread_chebyshev", "spread_qsl", "uncertainty"]
    eigen = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=1.0, measured=measured, pi_max=2.0,
        hamiltonian=operators.SIGMA_Z, target=0)
    assert list(eigen) == REPORT_KEYS
    assert eigen["tau_tf_closed_printed"] is None
    assert eigen["tau_tf_closed_derived"] is None
    assert list(eigen["satisfied"]) == ["spread_chebyshev", "spread_qsl"]


def test_frozen_target_bound_is_written_as_null():
    report = qsl.build_bounds_report(
        delta_theta=0.5, trace_term=0.0, pi_max=2.0,
        measured=tf.Moments(mean=0.3, std=0.2))
    assert report["tau_tf"] == np.inf
    assert report["spread_bound_qsl"] == 0.0
    assert cli._jsonable(report)["tau_tf"] is None


@pytest.mark.parametrize("trace_term", [np.nan, np.inf, -1.0, 5e-311])
@pytest.mark.parametrize("mt_bound", [None, 0.25])
def test_bounds_report_refuses_a_trace_term_that_is_not_a_bound(trace_term, mt_bound):
    # an infinite trace term gave tau_tf 0 and spread_bound_qsl 0, both flags
    # satisfied, and divided by zero with mt_bound; NaN and -1 gave tau_tf inf;
    # a subnormal one, whose digits are lost, formed a bound. The rule and its
    # message are those of tf_qsl_open and the CLI
    message = f"^the trace term {trace_term:g} is not a normal float$"
    with pytest.raises(OperatorConstraintError, match=message):
        qsl.build_bounds_report(
            delta_theta=0.5, trace_term=trace_term, pi_max=2.0, mt_bound=mt_bound,
            measured=tf.Moments(mean=0.3, std=0.2))


def _report_of(delta_theta):
    return qsl.build_bounds_report(delta_theta=delta_theta, trace_term=2.0, pi_max=1.0,
                                   measured=tf.Moments(mean=1.0, std=0.5))


# each refusal that no other test reaches: its exception type and message
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: qsl.tf_qsl_closed(operators.SIGMA_X, 0, 0.0),
                 "delta_theta must lie in (0, 1]", id="zero-delta-theta"),
    pytest.param(lambda: qsl.spread_bound_from_qsl(0.0),
                 "tau_tf must be positive and finite", id="zero-tau-tf"),
    pytest.param(lambda: qsl.uncertainty_check(-1.0, operators.SIGMA_X, 0, 1.0),
                 "delta_t must be a finite non-negative time", id="negative-delta-t"),
    # each NaN below passed its refusal and came back as a NaN bound or eta
    pytest.param(lambda: qsl.chebyshev_spread_bound(np.nan),
                 "pi_max must be positive and finite", id="nan-pi-max"),
    pytest.param(lambda: qsl.spread_bound_from_qsl(np.nan),
                 "tau_tf must be positive and finite", id="nan-tau-tf"),
    pytest.param(lambda: qsl.mt_dephasing_bound(np.nan),
                 "gamma must be positive and finite", id="nan-gamma"),
    # each infinite input gave a vacuous bound: 0.0, 0.0 and inf
    pytest.param(lambda: qsl.chebyshev_spread_bound(np.inf),
                 "pi_max must be positive and finite", id="inf-pi-max"),
    pytest.param(lambda: qsl.spread_bound_from_qsl(np.inf),
                 "tau_tf must be positive and finite", id="inf-tau-tf"),
    pytest.param(lambda: qsl.mt_dephasing_bound(np.inf),
                 "gamma must be positive and finite", id="inf-gamma"),
    # a NaN delta_theta gave tau_tf nan with both flags satisfied
    pytest.param(lambda: _report_of(np.nan), "delta_theta must lie in [0, 1]",
                 id="report-nan-delta-theta"),
    pytest.param(lambda: _report_of(-0.5), "delta_theta must lie in [0, 1]",
                 id="report-negative-delta-theta"),
    pytest.param(lambda: _report_of(1.5), "delta_theta must lie in [0, 1]",
                 id="report-delta-theta-over-1"),
    pytest.param(lambda: qsl.uncertainty_check(1.0, operators.SIGMA_X, 0, np.nan),
                 "delta_theta must lie in [-1, 1]", id="nan-delta-theta"),
    # raised numpy's "zero-size array to reduction operation maximum"
    pytest.param(lambda: qsl.tf_qsl_open(models.dephasing_model(1.0), M_MINUS, 0.5,
                                         times=[]),
                 "no evaluation times given", id="empty-times"),
])
def test_refusal_type_and_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# tf_qsl_open and the CLI pipeline share one route to L^dag(M) and tau_tf


@pytest.mark.parametrize("argv, model, target, t_end", [
    (["lambda", "--omega1", "1", "--omega2", "1", "--delta-i", "-10", "--delta-f", "10",
      "--t-final", "4"],
     dynamics.LindbladModel(models.lambda_hamiltonian(
         models.LambdaConfig(1.0, 1.0, -10.0, 10.0, 4.0))), operators.basis_state(3, 1),
     4.0),
    (["hadamard", "--omega0", "10", "--gamma", "2"], models.hadamard_model(10.0, 2.0).model,
     operators.plus_state(), np.pi / 10.0),
    (["dephasing", "--gamma", "1"], models.dephasing_model(1.0), operators.minus_state(),
     10.0),
    (["two-level", "--omega0", "1.5"],
     dynamics.LindbladModel(models.two_level_hamiltonian(
         models.ControlWaveform.constant(1.5))), operators.basis_state(2, 1), np.pi / 1.5),
], ids=["lambda", "hadamard", "dephasing", "two-level"])
def test_tf_qsl_open_is_the_cli_tau_tf(tmp_path, argv, model, target, t_end):
    assert cli.main([*argv, "--points", "200", "--outdir", str(tmp_path)]) == 0
    bounds = json.loads((tmp_path / f"{argv[0].replace('-', '_')}_report.json")
                        .read_text())["bounds"]
    times = TimeGrid(0.0, t_end, 200).times
    tau = qsl.tf_qsl_open(model, operators.projector_from_state(target),
                          bounds["delta_theta"], times=times)
    assert tau.hex() == bounds["tau_tf"].hex()


@pytest.mark.parametrize("argv, model, m, reason", [
    # returned 0.0: an overflowed trace term made the bound vanish
    (["hadamard", "--omega0", "1e155"], models.hadamard_model(1e155).model, M_PLUS,
     "the trace term inf is not a normal float"),
    # returned 3.535553586323608e+159, 5.6e-6 off the exact 3.5355339059327e+159:
    # the subnormal trace term had lost digits
    (["dephasing", "--gamma", "1e-160"], models.dephasing_model(1e-160), M_MINUS,
     "the trace term 1.99998e-320 is not a normal float"),
], ids=["hadamard-overflow", "dephasing-subnormal"])
def test_tf_qsl_open_refuses_the_trace_terms_the_cli_skips(tmp_path, argv, model, m,
                                                          reason):
    with pytest.raises(OperatorConstraintError, match=f"^{re.escape(reason)}$"):
        qsl.tf_qsl_open(model, m, 0.5)
    assert cli.main([*argv, "--points", "50", "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{argv[0]}_report.json").read_text())
    assert report["bounds"] is None
    assert report["diagnostics"]["skipped"] == {"bounds": reason}
