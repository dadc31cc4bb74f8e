import dataclasses
import math
import re

import numpy as np
import pytest

from tflow import dynamics, models, operators, tf
from tflow.dynamics import TimeGrid, constant_hamiltonian
from tflow.errors import DegenerateDistributionError, DimensionMismatchError


def _series(t_start, t_end, n, func):
    grid = TimeGrid(t_start, t_end, n)
    return tf.PopulationSeries(grid, func(grid.times))


def test_tf_from_population_sine_drive():
    series = _series(0.0, np.pi, 2001, lambda t: np.sin(t / 2.0) ** 2)
    dist = tf.tf_from_population(series)
    assert abs(np.sum(dist.density) * dist.dt - 1.0) <= 1e-9
    ref = 0.5 * np.sin(dist.times)
    assert np.max(np.abs(dist.density - ref)) <= 1e-5


def test_tf_from_population_linear_ramp_is_uniform():
    total = 2.0
    series = _series(0.0, total, 101, lambda t: t / total)
    dist = tf.tf_from_population(series)
    assert np.max(np.abs(dist.density - 1.0 / total)) <= 1e-12


def test_tf_from_population_exponential_decay():
    gamma = 1.0
    series = _series(0.0, 10.0, 4001,
                     lambda t: 0.5 * (1.0 - np.exp(-2.0 * gamma * t)))
    dist = tf.tf_from_population(series)
    ref = 2.0 * gamma * np.exp(-2.0 * gamma * dist.times)
    # O(dt^2) finite differences plus the renormalized truncation tail
    assert np.max(np.abs(dist.density - ref)) <= 1e-5


def test_tf_from_population_flat_series_raises():
    series = _series(0.0, 1.0, 50, lambda t: np.full_like(t, 0.25))
    with pytest.raises(DegenerateDistributionError):
        tf.tf_from_population(series)


def test_split_departure_then_arrival_boundary():
    # oracle: rate is (1/2) sin(t - pi/3), so the boundary sits at pi/3
    waveform = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=np.pi / 3, phi=np.pi / 2)
    grid = TimeGrid(0.0, np.pi, 2001)
    series = tf.PopulationSeries(
        grid, models.two_level_population(waveform, init, grid.times)
    )
    split = tf.split_toa_tod(series)
    kinds = [k for _, _, k in split.segments]
    assert kinds == [tf.KIND_TOD, tf.KIND_TOA]
    boundary = grid.times[split.segments[1][0]]
    assert abs(boundary - np.pi / 3.0) <= grid.dt
    assert split.tod is not None and split.toa is not None
    # weight identity: each normalization is the inverse of the probability
    # its support transfers, and their difference telescopes to the net change
    net = series.values[-1] - series.values[0]
    transferred = 1.0 / split.toa.normalization - 1.0 / split.tod.normalization
    assert abs(transferred - net) <= 1e-9


def test_split_monotone_series_single_segment():
    series = _series(0.0, np.pi, 500, lambda t: np.sin(t / 2.0) ** 2)
    split = tf.split_toa_tod(series)
    assert [k for _, _, k in split.segments] == [tf.KIND_TOA]
    assert split.tod is None
    assert abs(np.sum(split.toa.density) * split.toa.dt - 1.0) <= 1e-9


def test_split_alternating_phases_match_rate_roots():
    # oracle: sign changes of cos(th) sin(t) - sin(th) cos(t) sin(phi)
    theta, phi = np.pi / 3, np.pi / 4
    waveform = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=theta, phi=phi)
    t_end = 3.0 * np.pi
    grid = TimeGrid(0.0, t_end, 6001)
    series = tf.PopulationSeries(
        grid, models.two_level_population(waveform, init, grid.times)
    )
    split = tf.split_toa_tod(series)
    psi = np.arctan2(np.sin(theta) * np.sin(phi), np.cos(theta))
    roots = [psi + k * np.pi for k in range(4) if 0 < psi + k * np.pi < t_end]
    boundaries = [grid.times[i0] for i0, _, _ in split.segments[1:]]
    assert len(boundaries) == len(roots)
    for got, want in zip(boundaries, roots):
        assert abs(got - want) <= 2 * grid.dt


def _runs_per_point(kinds):
    """Reference segmentation: one pass over the per-interval kinds."""
    segments, start = [], 0
    for j in range(1, len(kinds) + 1):
        if j == len(kinds) or kinds[j] != kinds[start]:
            segments.append((start, j, kinds[start]))
            start = j
    return segments


@pytest.mark.parametrize("values", [
    [0.0, 0.1, 0.2, 0.2, 0.2, 0.3, 0.25, 0.25, 0.4, 0.4],  # plateaus
    [0.0, 0.2, 0.1, 0.3, 0.3, 0.2, 0.4, 0.5, 0.3],  # one-interval runs
    [0.3] * 6,  # all neutral
    np.cumsum(np.random.default_rng(3).choice([-0.01, 0.0, 0.01], 2000)),
])
def test_split_segments_match_per_point_reference(values):
    values = np.asarray(values, dtype=float)
    series = tf.PopulationSeries(TimeGrid(0.0, 1.0, values.size), values)
    band = 1e-9
    kinds = [tf.KIND_TOA if d > band else (tf.KIND_TOD if d < -band else tf.KIND_NEUTRAL)
             for d in np.diff(values)]
    segments = tf.split_toa_tod(series).segments
    assert segments == _runs_per_point(kinds)
    assert all(type(i0) is int and type(i1) is int and type(k) is str
               for i0, i1, k in segments)


def test_moments_sine_distribution():
    grid = TimeGrid(0.0, np.pi, 4001)
    density = 0.5 * np.sin(grid.times)
    density /= np.sum(density) * grid.dt
    dist = tf.TFDistribution(grid.times, density, grid.dt, 1.0)
    m = tf.moments(dist)
    assert abs(m.mean - np.pi / 2.0) <= 1e-6
    want_std = (np.pi / 2.0) * np.sqrt(1.0 - 8.0 / np.pi ** 2)
    assert abs(m.std - want_std) <= 1e-5


def test_moments_exponential_on_grid():
    gamma = 1.0
    series = _series(0.0, 10.0, 4001,
                     lambda t: 0.5 * (1.0 - np.exp(-2.0 * gamma * t)))
    m = tf.moments(tf.tf_from_population(series))
    assert abs(m.mean - 0.5) <= 0.005
    assert abs(m.std - 0.5) <= 0.005


def test_moments_uniform():
    total = 3.0
    grid = TimeGrid(0.0, total, 2001)
    series = tf.PopulationSeries(grid, grid.times / total)
    m = tf.moments(tf.tf_from_population(series))
    assert abs(m.mean - total / 2.0) <= 1e-9
    assert abs(m.std - total / np.sqrt(12.0)) <= 1e-5


def test_moments_bits():
    # bit for bit, as the reports print them
    grid = TimeGrid(0.0, 3.0, 2001)
    series = tf.PopulationSeries(grid, np.sin(grid.times) ** 2 / np.sin(3.0) ** 2)
    m = tf.moments(tf.tf_from_population(series))
    assert (m.mean, m.std) == (1.5559460089480832, 0.8478923047750374)


def test_grid_moments_far_from_t_0_match_shifted_time():
    # the raw form mu2 - mu1^2 about t = 0 read grid_std 0 for a pi window at
    # t = 1e8. The FD moments differ from the exact ones by O(dt^2), so the
    # reference is the same density's moments in shifted time
    rng = np.random.default_rng(22)
    for t0 in [0.0, 1e8, *10.0 ** rng.uniform(0.0, 8.0, 14)]:
        grid = TimeGrid(t0, t0 + 10.0 ** rng.uniform(-1.0, 1.0), int(rng.integers(50, 2000)))
        init = models.TwoLevelInitial(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        waveform = models.ControlWaveform.constant(10.0 ** rng.uniform(-0.5, 1.0))
        p = models.two_level_population(waveform, init, grid.times)
        dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
        tau, w = dist.times - t0, dist.density * dist.dt
        mean = float(np.sum(w * tau))
        std = math.sqrt(float(np.sum(w * tau * tau)) - mean * mean)
        m = tf.moments(dist)
        assert m.mean == pytest.approx(t0 + mean, rel=1e-9, abs=0.0)
        assert m.std == pytest.approx(std, rel=1e-9, abs=0.0)
        if t0 == 0.0:
            # where the raw form keeps its digits, the two agree to rounding
            assert m.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert m.std == pytest.approx(std, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e8, 1e15])
def test_step_statistics_keep_their_spread_far_from_t_0(offset):
    stats = tf.step_model_statistics([(offset + 1.0, 0.5), (offset + 2.0, 0.5)])
    assert (stats.tf.mean, stats.tf.std) == (offset + 1.5, 0.5)
    mixed = tf.step_model_statistics([(offset + 2.0, 0.5), (offset + 4.0, -0.25),
                                      (offset + 6.0, 0.75)])
    assert mixed.toa.std == pytest.approx(math.sqrt(0.4 * 0.6 * 16.0), rel=1e-12)
    assert mixed.tf.std == pytest.approx(math.sqrt(29.0) / 3.0, rel=1e-12)


def test_moments_hold_mean_and_std_only():
    assert [f.name for f in dataclasses.fields(tf.Moments)] == ["mean", "std"]


def test_tf_from_current_matches_finite_differences():
    # oracle: finite differences of the exact population
    omega0 = 1.0
    grid = TimeGrid(0.0, np.pi, 2000)
    schedule = constant_hamiltonian(0.5 * omega0 * operators.SIGMA_X)
    traj = dynamics.propagate_schrodinger(schedule, operators.basis_state(2, 0), grid)
    gamma_op = dynamics.current_operator(schedule(0.0), operators.projector(2, 1))
    p_exact = np.sin(omega0 * grid.times / 2.0) ** 2
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p_exact))
    mid = tf.tf_from_current(traj, gamma_op, align="midpoints")
    assert np.max(np.abs(mid.density - fd.density)) <= 5.0 * grid.dt
    on_grid = tf.tf_from_current(traj, gamma_op, align="grid")
    assert on_grid.times.shape == grid.times.shape
    assert abs(np.sum(on_grid.density) * grid.dt - 1.0) <= 1e-9


def test_tf_from_current_time_dependent_operator():
    config = models.STAConfig(alpha=1.0, t_final=1.0, omega0=5.0)
    grid = TimeGrid(0.0, 1.0, 801)
    traj = models.sta_propagate(config, grid)
    m_plus = operators.projector_from_state(operators.plus_state())
    hs = models.sta_hamiltonian(config).sample(traj.grid.times)
    currents = np.array([dynamics.current_operator(h, m_plus) for h in hs])
    dist = tf.tf_from_current(traj, currents, "midpoints")
    p = models.sta_population_closed(config, grid.times)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p))
    assert np.max(np.abs(dist.density - fd.density)) <= 5.0 * grid.dt


def test_tf_from_current_zero_current_raises():
    grid = TimeGrid(0.0, 1.0, 10)
    states = np.tile(operators.basis_state(2, 0), (10, 1))
    traj = dynamics.Trajectory(grid, states)
    with pytest.raises(DegenerateDistributionError):
        tf.tf_from_current(traj, operators.SIGMA_Y)


def test_step_statistics_two_equal_steps():
    stats = tf.step_model_statistics([(2.0, 0.5), (4.0, 0.5)])
    assert stats.toa.mean == pytest.approx(3.0, abs=1e-12)
    assert stats.toa.std == pytest.approx(1.0, abs=1e-12)
    assert stats.tod is None


def test_step_statistics_mixed_flow():
    stats = tf.step_model_statistics([(2.0, 0.5), (4.0, -0.25), (6.0, 0.75)])
    assert stats.toa.mean == pytest.approx(22.0 / 5.0, abs=1e-12)
    assert stats.toa.std == pytest.approx(4.0 * np.sqrt(6.0) / 5.0, abs=1e-12)
    assert stats.tod.mean == pytest.approx(4.0, abs=1e-12)
    assert stats.tod.std == pytest.approx(0.0, abs=1e-12)
    assert stats.tf.mean == pytest.approx(13.0 / 3.0, abs=1e-12)
    assert stats.tf.std == pytest.approx(np.sqrt(29.0) / 3.0, abs=1e-12)


def test_step_statistics_bits():
    # bit for bit, as the reports print them
    stats = tf.step_model_statistics([(2.0, 0.5), (4.0, -0.25), (6.0, 0.75)])
    assert (stats.toa.mean, stats.toa.std) == (4.4, 1.9595917942265424)
    assert (stats.tod.mean, stats.tod.std) == (4.0, 0.0)
    assert (stats.tf.mean, stats.tf.std) == (4.333333333333334, 1.7950549357115013)
    assert all(type(m) is tf.Moments for m in (stats.toa, stats.tod, stats.tf))


def test_step_statistics_single_step():
    stats = tf.step_model_statistics([(1.5, 1.0)])
    assert stats.toa.mean == 1.5
    assert stats.toa.std == 0.0


def test_step_statistics_validation():
    with pytest.raises(ValueError):
        tf.step_model_statistics([(2.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        tf.step_model_statistics([(1.0, 0.8), (2.0, 0.8)])
    with pytest.raises(ValueError):
        tf.step_model_statistics([])


@pytest.mark.parametrize("steps, name", [
    ([(np.nan, 0.5), (2.0, 0.5)], "step_times"),
    ([(1.0, 0.5), (np.inf, 0.5)], "step_times"),
    ([(1.0, np.nan), (2.0, 0.5)], "weights"),
], ids=["nan-time", "inf-time", "nan-weight"])
def test_step_statistics_refuse_non_finite_steps(steps, name):
    # they gave a NaN mean, an infinite mean with a NaN std, and a
    # DegenerateDistributionError
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        tf.step_model_statistics(steps)


def test_delta_pulse_limit_concentrates():
    t0 = 1.0
    for sigma in (0.2, 0.1, 0.05):
        waveform = models.ControlWaveform.gaussian_pulse(t0, sigma)
        grid = TimeGrid(0.0, 2.0, 8001)
        series = tf.PopulationSeries(
            grid,
            np.clip(models.two_level_population(
                waveform, models.TwoLevelInitial(), grid.times), 0.0, 1.0),
        )
        m = tf.moments(tf.tf_from_population(series))
        assert abs(m.mean - t0) <= 3.0 * sigma
        assert m.std <= 2.0 * sigma


def test_grid_refinement_second_order():
    # halving dt should cut the moment error by about 4; the asymmetric
    # decay model avoids the symmetry cancellation of the sine drive
    gamma = 1.0
    exact_func = lambda t: 0.5 * (1.0 - np.exp(-2.0 * gamma * t))
    errs = []
    for n in (201, 401):
        series = _series(0.0, 8.0, n, exact_func)
        m = tf.moments(tf.tf_from_population(series))
        errs.append(abs(m.mean - 0.5))
    assert errs[0] / errs[1] >= 3.5


def test_distribution_rejects_bad_density():
    grid = TimeGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        tf.TFDistribution(grid.times, np.ones(11), grid.dt, 1.0)  # integrates to ~1.1


# ---------------------------------------------------------------------------
# one builder per convention: every route gives the same bits as before


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_distribution(a: tf.TFDistribution, b: tf.TFDistribution) -> bool:
    return (_same_bits(a.times, b.times) and _same_bits(a.density, b.density)
            and a.normalization == b.normalization and a.dt == b.dt)


@pytest.mark.parametrize("align", ["grid", "midpoints"])
def test_tf_from_current_is_tf_from_rate_of_the_expectations(align):
    grid = TimeGrid(0.0, 2.0, 301)
    bundle = models.hadamard_model(3.0, 0.7)
    traj = dynamics.propagate_lindblad(bundle.model, operators.projector(2, 0), grid)
    rate = dynamics.expectation_series(traj, bundle.current_op)
    got = tf.tf_from_current(traj, bundle.current_op, align)
    assert _same_distribution(got, tf.tf_from_rate(grid, rate, align))
    # the arithmetic of the hand-written normalization it replaced
    raw = np.abs(rate if align == "grid" else 0.5 * (rate[1:] + rate[:-1]))
    assert _same_bits(got.density, raw / float(np.sum(raw) * grid.dt))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("window", [(0.0, 1.3), (0.2, 1.1)], ids=["full", "part"])
def test_sta_tf_closed_is_tf_from_population_of_the_flow_cdf(alpha, window):
    # on part of the sweep the mass is not 1, so the order of the divisions shows
    config = models.STAConfig(alpha=alpha, t_final=1.3, omega0=10.0)
    grid = TimeGrid(*window, 1001)
    dist, _ = models.sta_tf_closed(config, grid)
    cdf = models.sta_flow_cdf(config, grid.times)
    assert _same_distribution(
        dist, tf.tf_from_population(tf.PopulationSeries(grid, cdf)))
    mass = np.diff(cdf)
    assert _same_bits(dist.density, mass / grid.dt / float(np.sum(mass)))


def test_dephasing_distribution_is_tf_from_rate():
    gamma, grid = 0.8, TimeGrid(0.0, 9.0, 1201)
    analytics = models.dephasing_analytics(gamma, grid)
    raw = 2.0 * gamma * np.exp(-2.0 * gamma * grid.times)
    assert _same_distribution(analytics.distribution, tf.tf_from_rate(grid, raw))
    assert _same_bits(analytics.distribution.density,
                      raw / float(np.sum(raw) * grid.dt))


def test_point_kinds_and_split_classify_a_plateau_alike():
    # a rise, an exact plateau, a fall and a rise again on one grid
    grid = TimeGrid(0.0, 4.0, 401)
    t = grid.times
    p = np.clip(np.where(t < 1.0, 0.4 * t, np.where(t < 2.0, 0.4, 0.4 - 0.3 * (t - 2.0))),
                0.1, 1.0)
    p[t > 3.5] = 0.1 + 0.2 * (t[t > 3.5] - 3.5)
    split = tf.split_toa_tod(tf.PopulationSeries(grid, p))
    from_segments = np.concatenate([[kind] * (i1 - i0) for i0, i1, kind in split.segments])
    kinds = tf.point_kinds(np.diff(p), 1e-9)
    assert kinds.tolist() == from_segments.tolist()
    assert set(kinds.tolist()) == {tf.KIND_TOA, tf.KIND_TOD, tf.KIND_NEUTRAL}


def test_split_support_at_the_flatness_rule_is_none():
    # an arrival of 5e-13 in all is not above the one 1e-12 mass rule; it was
    # a distribution of its own. Every interval outside the dead-band carries
    # more than 1e-9, so such an arrival is now neutral before the rule applies
    grid = TimeGrid(0.0, 1.0, 11)
    p = np.linspace(0.9, 0.4, 11)
    p[3:5] = p[2]
    p[4] += 5e-13
    split = tf.split_toa_tod(tf.PopulationSeries(grid, p))
    assert split.toa is None
    assert split.tod is not None


def test_dephasing_window_without_flow_is_degenerate():
    # exp(-800) underflows, so the window carries no flow mass; this raised
    # ZeroDivisionError
    with pytest.raises(DegenerateDistributionError):
        models.dephasing_analytics(1.0, TimeGrid(400.0, 401.0, 11))


def test_distribution_refuses_nan():
    grid = TimeGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        tf.TFDistribution(grid.times, np.full(11, np.nan), grid.dt, 1.0)
    density = np.full(11, 1.0 / 1.1)
    density[3] = np.nan
    with pytest.raises(ValueError):
        tf.TFDistribution(grid.times, density, grid.dt, 1.0)
    with pytest.raises(DegenerateDistributionError):
        tf.tf_from_rate(grid, np.full(11, np.nan))


# each refusal that no other test reaches: its exception type and message
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: tf.PopulationSeries(TimeGrid(0.0, 1.0, 3), np.zeros(2)),
                 DimensionMismatchError,
                 "one probability per grid point required", id="series-length"),
    pytest.param(lambda: tf.TFDistribution(np.zeros(3), np.zeros(2), 0.5, 1.0),
                 DimensionMismatchError, "times/density length mismatch",
                 id="density-length"),
    pytest.param(lambda: tf.tf_from_rate(TimeGrid(0.0, 1.0, 3), np.ones(3), align="edges"),
                 ValueError, "align must be 'grid' or 'midpoints'", id="unknown-align"),
    pytest.param(lambda: tf.split_toa_tod(
                     tf.PopulationSeries(TimeGrid(0.0, 1.0, 2), np.array([0.0, 1.0]))),
                 ValueError, "need at least 3 samples to segment a flow",
                 id="two-sample-split"),
    pytest.param(lambda: tf.step_model_statistics([(0.0, 0.0)]),
                 DegenerateDistributionError, "the steps carry no flow mass",
                 id="weightless-step"),
])
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
