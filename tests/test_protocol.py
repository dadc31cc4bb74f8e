import re
import warnings

import numpy as np
import pytest

from tflow import models, operators, protocol, tf
from tflow.dynamics import TimeGrid, constant_hamiltonian
from tflow.errors import DegenerateDistributionError, GridMismatchError

M1 = operators.projector(2, 1)


def _constant_drive_populations(grid):
    return np.sin(grid.times / 2.0) ** 2


def _config(n_trials, grid, seed=0):
    return protocol.ProtocolConfig(n_trials=n_trials, grid=grid, seed=seed, target=M1)


def test_config_validation():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        protocol.ProtocolConfig(0, grid, 0, M1)
    with pytest.raises(ValueError):
        protocol.ProtocolConfig(5, TimeGrid(0.0, 1.0, 2), 0, M1)


def _per_point_reference(p, n_trials, seed):
    # the stream contract: point j draws from a fresh Philox keyed by the
    # uint64 words (seed mod 2**64, j)
    return np.array([
        np.random.Generator(np.random.Philox(
            key=np.array([seed % 2 ** 64, j], dtype=np.uint64))).binomial(n_trials, p[j])
        / n_trials
        for j in range(len(p))
    ])


def test_sampling_matches_per_point_streams():
    grid = TimeGrid(0.0, np.pi, 101)
    p = _constant_drive_populations(grid)
    f = protocol.sample_frequencies(p, 2000, seed=42)
    assert np.array_equal(f, _per_point_reference(p, 2000, 42))
    f_other = protocol.sample_frequencies(p, 2000, seed=43)
    assert not np.array_equal(f, f_other)


@pytest.mark.parametrize("seed", [-1, 0, 2 ** 63, 2 ** 63 + 12345, 2 ** 64 - 2 ** 11])
@pytest.mark.parametrize("n_trials", [1, 7, 1000])
def test_sampling_stream_edges(seed, n_trials):
    # negative seeds wrap (-1 keys as 2**64 - 1), seeds >= 2**63 key as
    # exact uint64 words; p of exactly 0 and 1 included
    p = np.array([0.0, 1.0, 0.5, 1.0, 0.0, 0.25, 1e-9, 1.0 - 1e-9])
    want = _per_point_reference(p, n_trials, seed)
    got = protocol.sample_frequencies(p, n_trials, seed)
    assert np.array_equal(got, want)
    assert got[0] == got[4] == 0.0 and got[1] == got[3] == 1.0


def test_sampling_seed_out_of_philox_range_raises():
    for seed in (2 ** 64, -2 ** 63 - 1):
        with pytest.raises(OverflowError):
            protocol.sample_frequencies(np.full(3, 0.5), 10, seed=seed)


def test_sampling_high_seeds_have_distinct_streams():
    # through a key list [seed, j], numpy casts seeds >= 2**63 via float64:
    # 2**63 and 2**63 + 5 would share one stream and 2**64 - 1 would warn
    p = np.full(64, 0.5)
    for seed in (-1, -2 ** 63, 0, 42, 2 ** 63 - 1):
        list_keyed = np.array([
            np.random.Generator(np.random.Philox(key=[seed, j])).binomial(1000, 0.5)
            / 1000 for j in range(p.size)])
        assert np.array_equal(protocol.sample_frequencies(p, 1000, seed), list_keyed)
    low = protocol.sample_frequencies(p, 1000, 2 ** 63)
    assert not np.array_equal(low, protocol.sample_frequencies(p, 1000, 2 ** 63 + 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = protocol.sample_frequencies(p, 1000, 2 ** 64 - 1)
    assert np.array_equal(top, protocol.sample_frequencies(p, 1000, -1))


@pytest.mark.parametrize("bad", [np.nan, -1e-12, 1.0 + 1e-12])
def test_sampling_refuses_a_probability_outside_the_unit_interval(bad):
    p = np.array([0.0, 0.5, bad, 1.0])
    with pytest.raises(ValueError, match=r"^p < 0, p > 1 or p is NaN$"):
        protocol.sample_frequencies(p, 100, seed=1)


def test_simulate_protocol_from_propagated_model():
    grid = TimeGrid(0.0, np.pi, 51)
    schedule = constant_hamiltonian(0.5 * operators.SIGMA_X)
    empirical = protocol.simulate_protocol(
        schedule, operators.basis_state(2, 0), _config(500, grid, seed=3)
    )
    assert empirical.frequencies.shape == (51,)
    assert abs(np.sum(empirical.density) * grid.dt - 1.0) <= 1e-9
    # rerunning reproduces the result bit for bit
    again = protocol.simulate_protocol(
        schedule, operators.basis_state(2, 0), _config(500, grid, seed=3)
    )
    assert np.array_equal(empirical.frequencies, again.frequencies)
    assert np.array_equal(empirical.density, again.density)


def test_simulate_protocol_accepts_open_models():
    gamma = 1.0
    grid = TimeGrid(0.0, 4.0, 41)
    config = protocol.ProtocolConfig(
        n_trials=200, grid=grid, seed=1,
        target=operators.projector_from_state(operators.minus_state()),
    )
    empirical = protocol.simulate_protocol(
        models.dephasing_model(gamma), operators.plus_state(), config
    )
    assert empirical.frequencies[0] <= 0.1
    assert empirical.frequencies[-1] == pytest.approx(0.5, abs=0.15)


def test_empirical_density_is_the_population_pipeline_of_its_frequencies():
    grid = TimeGrid(0.0, np.pi, 101)
    p = _constant_drive_populations(grid)
    empirical = protocol.empirical_from_populations(p, _config(1000, grid, seed=4))
    assert np.array_equal(empirical.frequencies, protocol.sample_frequencies(p, 1000, 4))
    dist = tf.tf_from_population(tf.PopulationSeries(grid, empirical.frequencies))
    assert np.array_equal(empirical.density, dist.density)


def test_flat_population_raises_with_guidance():
    grid = TimeGrid(0.0, 1.0, 21)
    with pytest.raises(DegenerateDistributionError, match="trials"):
        protocol.empirical_from_populations(np.zeros(21), _config(100, grid))


def test_frequencies_within_binomial_envelope():
    grid = TimeGrid(0.0, np.pi, 50)
    p = _constant_drive_populations(grid)
    n = 10 ** 5
    empirical = protocol.empirical_from_populations(p, _config(n, grid, seed=0))
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    report = protocol.convergence_report(empirical, dist, p_exact=p)
    assert report.freq_sup_error <= 5.0 / np.sqrt(n)
    assert report.binomial_flag is True


def test_convergence_report_exact_vs_exact():
    grid = TimeGrid(0.0, np.pi, 80)
    p = _constant_drive_populations(grid)
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    # the infinite-trials limit: the exact populations stand in for the frequencies
    empirical = protocol.EmpiricalTF(grid, p, dist.density, n_trials=10)
    report = protocol.convergence_report(empirical, dist, p_exact=p)
    assert report.sup_distance == 0.0
    assert report.l1_distance == 0.0
    assert report.freq_sup_error == 0.0
    assert report.binomial_flag is True


def test_convergence_report_grid_mismatch():
    grid_a = TimeGrid(0.0, np.pi, 50)
    grid_b = TimeGrid(0.0, np.pi, 60)
    p_a = _constant_drive_populations(grid_a)
    p_b = _constant_drive_populations(grid_b)
    empirical = protocol.empirical_from_populations(p_a, _config(10, grid_a))
    dist = tf.tf_from_population(tf.PopulationSeries(grid_b, p_b))
    with pytest.raises(GridMismatchError):
        protocol.convergence_report(empirical, dist, p_exact=p_a)


def _median_l1(n_trials, grid, p, dist, seeds):
    out = []
    for seed in seeds:
        empirical = protocol.empirical_from_populations(
            p, _config(n_trials, grid, seed=seed)
        )
        out.append(protocol.convergence_report(empirical, dist, p_exact=p).l1_distance)
    return float(np.median(out))


def test_l1_distance_shrinks_with_trials():
    # oracle: density noise scales as 1/sqrt(N), so 100x trials gives ~10x
    grid = TimeGrid(0.0, np.pi, 50)
    p = _constant_drive_populations(grid)
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    seeds = range(20)
    coarse = _median_l1(10 ** 3, grid, p, dist, seeds)
    fine = _median_l1(10 ** 5, grid, p, dist, seeds)
    assert coarse / fine >= 5.0


def test_l1_median_decreasing_in_trials_fixed_grid():
    grid = TimeGrid(0.0, np.pi, 100)
    p = _constant_drive_populations(grid)
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    seeds = range(20)
    medians = [_median_l1(n, grid, p, dist, seeds) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert medians[0] > medians[1] > medians[2]


def test_discretization_error_decreasing_in_grid_size():
    # in the infinite-trials limit the protocol's estimate is the
    # finite-difference density of the exact populations; the only error left
    # is discretization of the continuous density, which shrinks with the step
    sups = []
    for n_points in (25, 100, 400):
        grid = TimeGrid(0.0, np.pi, n_points)
        p = _constant_drive_populations(grid)
        limit = tf.tf_from_population(tf.PopulationSeries(grid, p))
        ref = 0.5 * np.sin(grid.midpoints)
        sups.append(float(np.max(np.abs(limit.density - ref))))
    assert sups[0] > sups[1] > sups[2]


def test_unbiasedness_over_seeds():
    grid = TimeGrid(0.0, np.pi, 21)
    p = _constant_drive_populations(grid)
    n_trials, n_seeds = 1000, 100
    freqs = np.array([
        protocol.sample_frequencies(p, n_trials, seed) for seed in range(n_seeds)
    ])
    mean_f = freqs.mean(axis=0)
    for j in (2, 6, 10, 14, 18):
        se = np.sqrt(p[j] * (1.0 - p[j]) / n_trials) / np.sqrt(n_seeds)
        assert abs(mean_f[j] - p[j]) <= 3.0 * se


def test_dephasing_convergence_within_frozen_thresholds():
    # thresholds from the 20-seed run in docs/protocol_calibration.md
    grid = TimeGrid(0.0, 5.0, 100)
    p = models.dephasing_population(1.0, grid.times)
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    empirical = protocol.empirical_from_populations(p, _config(10 ** 6, grid, seed=0))
    report = protocol.convergence_report(empirical, dist, p_exact=p)
    assert report.mean_abs_distance <= 0.05
    assert report.l1_distance <= 0.16


def test_snr_diagnostic_flags_flat_regions():
    gamma = 1.0
    grid = TimeGrid(0.0, 8.0, 100)
    p = models.dephasing_population(gamma, grid.times)
    dist = tf.tf_from_population(tf.PopulationSeries(grid, p))
    empirical = protocol.empirical_from_populations(p, _config(10 ** 4, grid, seed=5))
    report = protocol.convergence_report(empirical, dist, p_exact=p)
    # early bins carry real signal, late (flat) bins are noise dominated
    snr = dist.density / report.noise_density
    assert snr[0] > 5.0
    assert snr[-1] < 1.0


# each refusal that no other test reaches: its exception type and message
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: protocol.simulate_protocol(
                     operators.SIGMA_X, operators.basis_state(2, 0),
                     protocol.ProtocolConfig(100, TimeGrid(0.0, 1.0, 11), 0, M1)),
                 TypeError, "model must be a HamiltonianSchedule or LindbladModel",
                 id="matrix-as-model"),
])
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
