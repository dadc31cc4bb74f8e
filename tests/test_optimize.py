import numpy as np
import pytest

from tflow import optimize


def test_cost_zero_at_exact_pi_pulse():
    config = optimize.OptimizeConfig(t_horizon=1.0, omega0=np.pi, lambda_mono=1.0)
    assert optimize.cost((0.0, 0.0, 0.0, 0.0), config) <= 1e-15


def test_cost_full_oscillation_penalized():
    # oracle: direct evaluation of sin^2(pi t / T) on the cost grid
    t_horizon = 1.0
    config = optimize.OptimizeConfig(
        t_horizon=t_horizon, omega0=2.0 * np.pi / t_horizon,
        lambda_mono=0.5, lambda_reg=0.0,
    )
    ts = np.linspace(0.0, t_horizon, config.grid_points)
    p1 = np.sin(np.pi * ts / t_horizon) ** 2
    n_false = int(np.sum(np.diff(p1) <= 0.0))
    want = (p1[-1] - 1.0) ** 2 + 0.5 * n_false
    assert optimize.cost((0.0, 0.0, 0.0, 0.0), config) == pytest.approx(want, abs=1e-12)
    assert n_false >= config.grid_points // 3


def test_cost_regularization_is_exactly_additive():
    base = optimize.OptimizeConfig(t_horizon=1.0, omega0=np.pi, lambda_reg=0.0)
    reg = optimize.OptimizeConfig(t_horizon=1.0, omega0=np.pi, lambda_reg=10.0)
    a = (0.1, -0.2, 0.05, 0.0)
    assert optimize.cost(a, reg) - optimize.cost(a, base) == pytest.approx(
        10.0 * sum(x * x for x in a), rel=1e-12
    )


def test_cost_deterministic():
    config = optimize.OptimizeConfig(t_horizon=1.0, omega0=2.0)
    a = (0.3, -0.01, 0.002, 0.0004)
    assert optimize.cost(a, config) == optimize.cost(a, config)


def test_feasibility_witness_cost():
    # witness a_1 = 0.4 pi / T^2 closes the angle deficit of omega0 = 0.8 pi/T
    t_horizon = 1.0
    lambda_reg = 1e-8
    config = optimize.OptimizeConfig(
        t_horizon=t_horizon, omega0=0.8 * np.pi / t_horizon,
        lambda_mono=1.0, lambda_reg=lambda_reg,
    )
    witness = 0.4 * np.pi / t_horizon ** 2
    got = optimize.cost((witness, 0.0, 0.0, 0.0), config)
    assert got <= 1e-12 + lambda_reg * witness ** 2


def test_optimizer_reaches_full_transfer():
    config = optimize.OptimizeConfig(
        t_horizon=1.0, omega0=0.8 * np.pi, lambda_mono=1.0, lambda_reg=1e-8,
        max_iterations=2000,
    )
    result = optimize.optimize_polynomial(config)
    assert result.converged
    assert result.p1_final >= 0.999
    assert result.n_false == 0
    assert result.iterations <= 2000
    # reported count must be recomputable from the returned waveform
    assert optimize.n_false(result.coefficients, config) == result.n_false


def test_optimizer_already_at_optimum():
    config = optimize.OptimizeConfig(t_horizon=1.0, omega0=np.pi,
                                     lambda_mono=1.0, lambda_reg=0.0)
    result = optimize.optimize_polynomial(config)
    assert result.cost <= 1e-12
    assert np.max(np.abs(result.coefficients)) <= 1e-4


def test_monotonicity_ablation_allows_overshoot():
    # without the monotonicity penalty the optimizer may route through a
    # non-monotone population as long as the endpoint is right
    config = optimize.OptimizeConfig(
        t_horizon=1.0, omega0=2.0 * np.pi, lambda_mono=0.0, lambda_reg=1e-8,
        max_iterations=3000,
    )
    result = optimize.optimize_polynomial(config)
    assert result.p1_final >= 0.99
    assert result.n_false > 0


def test_regularization_path_monotone():
    # stronger regularization never grows the optimal coefficient norm
    sizes = []
    for lambda_reg in (0.0, 1e-4, 1e-2):
        config = optimize.OptimizeConfig(
            t_horizon=1.0, omega0=0.8 * np.pi, lambda_mono=1.0,
            lambda_reg=lambda_reg, max_iterations=4000,
        )
        result = optimize.optimize_polynomial(config)
        sizes.append(float(np.sum(result.coefficients ** 2)))
    assert sizes[0] + 1e-9 >= sizes[1] >= sizes[2] - 1e-12


def test_reported_zero_n_false_holds_on_denser_grid():
    config = optimize.OptimizeConfig(
        t_horizon=1.0, omega0=0.8 * np.pi, lambda_mono=1.0, lambda_reg=1e-8,
    )
    result = optimize.optimize_polynomial(config)
    assert result.n_false == 0
    dense = np.linspace(0.0, config.t_horizon, 4 * config.grid_points)
    assert optimize.n_false(result.coefficients, config, dense) == 0


def test_optimizer_deterministic():
    config = optimize.OptimizeConfig(t_horizon=1.0, omega0=0.8 * np.pi,
                                     lambda_reg=1e-6)
    a = optimize.optimize_polynomial(config)
    b = optimize.optimize_polynomial(config)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.cost == b.cost


def test_config_validation():
    with pytest.raises(ValueError):
        optimize.OptimizeConfig(t_horizon=0.0, omega0=1.0)
    with pytest.raises(ValueError):
        optimize.OptimizeConfig(t_horizon=1.0, omega0=1.0, lambda_mono=-1.0)
    with pytest.raises(ValueError):
        optimize.OptimizeConfig(t_horizon=1.0, omega0=1.0, grid_points=5)
    with pytest.raises(ValueError):
        optimize.OptimizeConfig(t_horizon=1.0, omega0=1.0,
                                initial_coefficients=(1.0, 2.0))


@pytest.mark.parametrize("field, bad", [
    ("t_horizon", np.inf), ("omega0", np.nan), ("omega0", np.inf),
    ("lambda_mono", np.nan), ("lambda_reg", np.nan), ("simplex_scale", np.nan),
    ("tolerance", np.nan), ("initial_coefficients", (0.0, np.nan, 0.0, 0.0)),
])
def test_config_refuses_non_finite_values(field, bad):
    # NaN weights, scale or tolerance ran to a NaN cost; a NaN or infinite
    # omega0 failed later as a flat flow
    data = {"t_horizon": 1.0, "omega0": 2.5, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        optimize.OptimizeConfig.from_dict(data)


def test_config_refuses_no_iterations_and_a_scale_that_is_not_positive():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^max_iterations must be >= 1$"):
            optimize.OptimizeConfig(t_horizon=1.0, omega0=2.5, max_iterations=bad)
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="^simplex_scale must be positive$"):
            optimize.OptimizeConfig(t_horizon=1.0, omega0=2.5, simplex_scale=bad)
    optimize.OptimizeConfig(t_horizon=1.0, omega0=2.5, max_iterations=1)


def test_optimize_refuses_non_finite_simplex_scales_before_any_cost(monkeypatch):
    evals = []
    monkeypatch.setattr(optimize, "cost", lambda *a: evals.append(1) or 0.0)
    config = optimize.OptimizeConfig(t_horizon=1e100, omega0=2.5)
    with pytest.raises(ValueError, match="^simplex_scale \\* omega0 / t_horizon\\^p must be"):
        optimize.optimize_polynomial(config)
    assert evals == []


def test_simplex_refuses_a_non_finite_initial_cost_without_a_warning():
    # scipy carries a NaN or infinite vertex cost along; omega0 = 1e308 gave
    # a_1 = 1e307 on the second vertex and an overflow in the cost's a * a
    config = optimize.OptimizeConfig(t_horizon=1.0, omega0=1e308)
    _, simplex = _initial_simplex(config)
    evals = []
    with pytest.raises(ValueError, match="^the cost is not finite on the initial simplex"):
        optimize._nelder_mead(lambda a: evals.append(1) or optimize.cost(a, config),
                              simplex, config.tolerance, 1e-15, 100, 1000)
    assert len(evals) == 5


def test_config_from_dict_roundtrip():
    data = {"t_horizon": 2.0, "omega0": 1.5, "lambda_mono": 0.7,
            "initial_coefficients": [0.1, 0.0, 0.0, 0.0]}
    config = optimize.OptimizeConfig.from_dict(data)
    assert config.t_horizon == 2.0
    assert config.initial_coefficients == (0.1, 0.0, 0.0, 0.0)
    with pytest.raises(KeyError):
        optimize.OptimizeConfig.from_dict({"omega0": 1.0})


def test_config_from_dict_takes_the_dataclass_defaults():
    # from_dict repeated every default; an absent key must give the field's own
    required = {"t_horizon": 1.0, "omega0": 2.5}
    assert optimize.OptimizeConfig.from_dict(required) == optimize.OptimizeConfig(**required)
    config = optimize.OptimizeConfig.from_dict(
        {**required, "grid_points": 40.0, "max_iterations": 7, "lambda_reg": 1})
    assert (config.grid_points, config.max_iterations) == (40, 7)
    assert type(config.grid_points) is int and type(config.lambda_reg) is float


@pytest.mark.parametrize("entry, message", [
    ({"lamda_mono": 0.0}, "unknown config keys: lamda_mono"),
    ({"grid_points": 20.9}, "grid_points must be a whole number, not 20.9"),
    ({"max_iterations": True}, "max_iterations must be a whole number, not True"),
    ({"initial_coefficients": 3.0}, "initial_coefficients must be a list of numbers"),
], ids=["unknown-key", "fractional-count", "boolean-count", "scalar-coefficients"])
def test_config_from_dict_refuses_unknown_keys_and_bad_values(entry, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        optimize.OptimizeConfig.from_dict({"t_horizon": 1.0, "omega0": 2.5, **entry})


def test_sta_alpha_report_rows():
    rows = optimize.sta_alpha_report([5.0, 1.0, 0.7], t_final=1.0)
    assert [r.alpha for r in rows] == [0.7, 1.0, 5.0]
    linear = rows[1]
    assert linear.mean == pytest.approx(1.0 - 2.0 / np.pi, rel=1e-9)
    assert linear.std == pytest.approx(np.sqrt(4.0 / np.pi - 12.0 / np.pi ** 2),
                                       rel=1e-9)
    assert rows[2].mean > rows[0].mean
    with pytest.raises(ValueError):
        optimize.sta_alpha_report([0.0], t_final=1.0)


def _initial_simplex(config):
    x0 = np.asarray(config.initial_coefficients, dtype=float)
    scales = [config.simplex_scale * config.omega0 / config.t_horizon ** (p + 1)
              for p in range(4)]
    return x0, np.vstack([x0] + [x0 + np.eye(4)[i] * scales[i] for i in range(4)])


def _scipy_nelder_mead(config, simplex, x0, maxiter, maxfev):
    from scipy.optimize import minimize

    return minimize(optimize.cost, x0, args=(config,), method="Nelder-Mead",
                    options=dict(initial_simplex=simplex, xatol=config.tolerance,
                                 fatol=1e-15, maxiter=maxiter, maxfev=maxfev))


SIMPLEX_CASES = {
    # the CLI test suite's and the benchmark's config
    "cli": optimize.OptimizeConfig(t_horizon=1.0, omega0=0.8 * np.pi,
                                   lambda_mono=1.0, lambda_reg=1e-8),
    "iteration_cap": optimize.OptimizeConfig(t_horizon=1.0, omega0=0.8 * np.pi,
                                             lambda_mono=1.0, lambda_reg=1e-8,
                                             max_iterations=50),
    "nonzero_start": optimize.OptimizeConfig(
        t_horizon=2.0, omega0=1.3, lambda_mono=0.5, lambda_reg=1e-4,
        initial_coefficients=(0.3, -0.1, 0.05, 0.01)),
    "shrinks": optimize.OptimizeConfig(t_horizon=1.0, omega0=2.0 * np.pi,
                                       lambda_mono=1.0, lambda_reg=0.0),
}


@pytest.mark.parametrize("name", sorted(SIMPLEX_CASES))
def test_simplex_matches_scipy_nelder_mead(name):
    config = SIMPLEX_CASES[name]
    x0, simplex = _initial_simplex(config)
    maxfev = max(4 * config.max_iterations, 1000)
    want = _scipy_nelder_mead(config, simplex, x0, config.max_iterations, maxfev)
    result = optimize.optimize_polynomial(config)
    assert np.array_equal(result.coefficients, want.x)
    assert result.cost == want.fun
    assert result.iterations == want.nit
    assert result.converged == want.success

    evals = []
    x, fun, nit, nfev, success = optimize._nelder_mead(
        lambda a: evals.append(1) or optimize.cost(a, config), simplex,
        config.tolerance, 1e-15, config.max_iterations, maxfev)
    assert nfev == len(evals) == want.nfev
    if name == "shrinks":
        # a step without a shrink costs one or two evaluations, so more than
        # the initial 5 plus 2 per step means a shrink was taken
        assert nfev > 5 + 2 * (nit - 1)
    if name == "iteration_cap":
        assert nit == 50 and not success


@pytest.mark.parametrize("maxfev", [3, 5, 6, 41, 50, 52, 83])
def test_simplex_evaluation_cap_matches_scipy(maxfev):
    # the cap falls in the initial simplex (3), right after it (5), after a
    # step (6, 41) or inside a shrink: evaluations 51-54 and 81-84 of this
    # run are shrink evaluations
    config = SIMPLEX_CASES["shrinks"]
    x0, simplex = _initial_simplex(config)
    want = _scipy_nelder_mead(config, simplex, x0, 1000, maxfev)
    x, fun, nit, nfev, success = optimize._nelder_mead(
        lambda a: optimize.cost(a, config), simplex, config.tolerance, 1e-15,
        1000, maxfev)
    assert np.array_equal(x, want.x)
    assert fun == want.fun
    assert (nit, nfev, success) == (want.nit, want.nfev, want.success)
