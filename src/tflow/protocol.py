"""Finite-sample simulation of the projective measurement protocol.

Each time point t_j gets its own batch of N independently prepared
systems; every system is measured once, so no trajectory is monitored
twice and the dynamics are never frozen by repeated observation. The
detection frequencies f(t_j) = N_k(t_j)/N estimate the populations, and
their forward differences |Delta f|/dt, normalized, estimate the flow
density.

Sampling draws a Binomial(N, p(t_j)) count per time point from a
counter-based Philox stream keyed by (seed mod 2**64, j), so each
point's draw depends on (seed, j, N, p(t_j)) alone and the result is
bit-identical for a given (seed, grid, N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import HamiltonianSchedule, LindbladModel, TimeGrid
from .errors import DegenerateDistributionError, GridMismatchError
from .tf import PopulationSeries, TFDistribution, tf_from_population


@dataclass(frozen=True)
class ProtocolConfig:
    """Trials per time point, sampling grid, stream seed in
    [-2**63, 2**64) and target projector."""

    n_trials: int
    grid: TimeGrid
    seed: int
    target: np.ndarray

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.grid.n_points < 3:
            raise ValueError("the protocol needs at least 3 time points")
        if not -2 ** 63 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed} lies outside [-2**63, 2**64)")


@dataclass(frozen=True)
class EmpiricalTF:
    """Detection frequencies and the flow density estimated from them."""

    grid: TimeGrid
    frequencies: np.ndarray
    density: np.ndarray  # at interval midpoints
    n_trials: int


def sample_frequencies(p: np.ndarray, n_trials: int, seed: int) -> np.ndarray:
    """Per-point binomial frequencies from independent (seed, j) streams.

    Point j draws from a Philox whose 128-bit key has the words
    (seed mod 2**64, j), as uint64, so every seed in [-2**63, 2**64) has
    its own stream (-1 keys as 2**64 - 1); other seeds raise
    OverflowError. One bit generator is re-keyed per point instead of
    built anew (construction draws OS entropy it then discards): before
    each draw it is assigned the state it has when fresh, counter 0 and an
    empty buffer, with the key's second word set to j. That state is one
    dict of plain Python ints, which numpy reads faster than the arrays
    its ``state`` returns.
    """
    seed = int(seed)
    if not -2 ** 63 <= seed < 2 ** 64:
        raise OverflowError(f"seed {seed} lies outside [-2**63, 2**64)")
    key = [seed % 2 ** 64, 0]
    bit_generator = np.random.Philox(key=np.array(key, dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = []
    for j, p_j in enumerate(np.asarray(p, dtype=float).tolist()):
        key[1] = j
        bit_generator.state = fresh
        out.append(rng.binomial(n_trials, p_j) / n_trials)
    return np.array(out, dtype=float)


def empirical_from_populations(p: np.ndarray, config: ProtocolConfig) -> EmpiricalTF:
    """Sample the protocol against known exact populations."""
    f = sample_frequencies(p, config.n_trials, config.seed)
    series = PopulationSeries(config.grid, f)
    try:
        dist = tf_from_population(series)
    except DegenerateDistributionError:
        raise DegenerateDistributionError(
            "no population change was detected; increase the number of trials "
            "or time points, or widen the observation window"
        )
    return EmpiricalTF(
        grid=config.grid,
        frequencies=f,
        density=dist.density,
        n_trials=config.n_trials,
    )


def simulate_protocol(model, initial_state, config: ProtocolConfig) -> EmpiricalTF:
    """Run the measurement protocol against propagated exact dynamics: the
    target's populations under a HamiltonianSchedule from a state vector,
    or under a LindbladModel from a state vector or density matrix."""
    state = np.asarray(initial_state, dtype=complex)
    if isinstance(model, LindbladModel):
        if state.ndim == 1:
            state = np.outer(state, state.conj())
        traj = dynamics.propagate_lindblad(model, state, config.grid)
    elif isinstance(model, HamiltonianSchedule):
        traj = dynamics.propagate_schrodinger(model, state, config.grid)
    else:
        raise TypeError("model must be a HamiltonianSchedule or LindbladModel")
    p = dynamics.population_series(traj, config.target)
    return empirical_from_populations(p, config)


@dataclass(frozen=True)
class ConvergenceReport:
    """Distances between an empirical flow density and a reference one.

    ``l1_distance`` is the integral of |pi_hat - pi| over the window and
    ``mean_abs_distance`` the same integral divided by the window length.
    ``noise_density`` estimates the per-bin sampling noise on the density,
    2 sqrt(p(1-p)) / (dt sqrt(N)) at the exact interval-mean population p.
    ``freq_sup_error`` is the largest |f - p| at the grid points, and
    ``binomial_flag`` whether it is within 5/sqrt(N).
    """

    sup_distance: float
    l1_distance: float
    mean_abs_distance: float
    noise_density: np.ndarray
    freq_sup_error: float
    binomial_flag: bool


def convergence_report(empirical: EmpiricalTF, exact: TFDistribution,
                       p_exact: np.ndarray) -> ConvergenceReport:
    """Compare an empirical density against an exact one on the same grid,
    and its frequencies against the exact populations ``p_exact``."""
    mid = empirical.grid.midpoints
    if exact.times.shape != mid.shape or np.max(np.abs(exact.times - mid)) > 1e-12:
        raise GridMismatchError("empirical and exact distributions use different grids")
    diff = np.abs(empirical.density - exact.density)
    dt = empirical.grid.dt
    window = empirical.grid.t_end - empirical.grid.t_start
    l1 = float(np.sum(diff) * dt)

    n = empirical.n_trials
    p_exact = np.asarray(p_exact, dtype=float)
    p_mid = 0.5 * (p_exact[1:] + p_exact[:-1])
    freq_sup = float(np.max(np.abs(empirical.frequencies - p_exact)))
    noise = 2.0 * np.sqrt(np.clip(p_mid * (1.0 - p_mid), 0.0, None) / n) / dt

    return ConvergenceReport(
        sup_distance=float(np.max(diff)),
        l1_distance=l1,
        mean_abs_distance=l1 / window,
        noise_density=noise,
        freq_sup_error=freq_sup,
        binomial_flag=bool(freq_sup <= 5.0 / np.sqrt(n)),
    )
