"""Time-of-flow distributions: construction, segmentation and moments.

The flow density of a target-state population p(t) is the normalized
magnitude of its rate of change, pi(t) = N |dp/dt|. On a grid it is
estimated by forward differences |p(t_{j+1}) - p(t_j)| / dt assigned to
interval midpoints, which is a second-order accurate estimator for the
moments. Where the population changes monotonically the density reads as
a time-of-arrival (increasing) or time-of-departure (decreasing)
distribution; ``split_toa_tod`` separates the two with a configurable
slope dead-band, excluding flat plateaus from both supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import TimeGrid, Trajectory
from .errors import DegenerateDistributionError, DimensionMismatchError

KIND_TF = "TF"
KIND_TOA = "TOA"
KIND_TOD = "TOD"
KIND_NEUTRAL = "neutral"
_KIND_OF_CODE = {1: KIND_TOA, -1: KIND_TOD, 0: KIND_NEUTRAL}

_FLAT_TOL = 1e-12


@dataclass(frozen=True)
class PopulationSeries:
    """Occupation probabilities sampled on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n_points:
            raise DimensionMismatchError("one probability per grid point required")

    @classmethod
    def from_trajectory(cls, traj: Trajectory, m: np.ndarray) -> "PopulationSeries":
        return cls(traj.grid, dynamics.population_series(traj, m))


@dataclass(frozen=True)
class TFDistribution:
    """Normalized flow density on (a subset of) a uniform grid.

    ``times`` may be grid points, interval midpoints, or a subset of
    midpoints (for a single TOA/TOD support); each sample owns a slot of
    width ``dt``, so sum(density) * dt == 1. ``normalization`` records
    the constant that was applied to the raw rates.
    """

    times: np.ndarray
    density: np.ndarray
    dt: float
    normalization: float
    kind: str = KIND_TF

    def __post_init__(self):
        if self.times.shape != self.density.shape:
            raise DimensionMismatchError("times/density length mismatch")
        if np.any(self.density < 0):
            raise ValueError("flow densities must be non-negative")
        total = float(np.sum(self.density) * self.dt)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density integrates to {total}, expected 1")

    @property
    def peak(self) -> float:
        return float(np.max(self.density))


@dataclass(frozen=True)
class Moments:
    """Mean, standard deviation and raw moments mu^(p) of a distribution."""

    mean: float
    std: float
    raw: np.ndarray  # raw[p-1] = mu^(p)


def tf_from_population(series: PopulationSeries) -> TFDistribution:
    """Flow distribution from forward differences of a population series."""
    p = np.asarray(series.values, dtype=float)
    if p.size < 3:
        raise ValueError("need at least 3 samples to estimate a flow density")
    dp = np.abs(np.diff(p))
    total_variation = float(np.sum(dp))
    if total_variation <= _FLAT_TOL:
        raise DegenerateDistributionError(
            f"population is flat (total variation {total_variation:.3e})"
        )
    dt = series.grid.dt
    density = dp / dt / total_variation
    return TFDistribution(
        times=series.grid.midpoints,
        density=density,
        dt=dt,
        normalization=1.0 / total_variation,
        kind=KIND_TF,
    )


@dataclass(frozen=True)
class SplitResult:
    """TOA/TOD segmentation of a population series.

    ``segments`` lists maximal runs of grid intervals as
    (first_interval, last_interval + 1, kind); ``toa``/``tod`` are the
    per-kind distributions normalized over their own support (None when
    that kind has no support), with 1/n_a and 1/n_d the respective
    supports' total probability transferred.
    """

    segments: list[tuple[int, int, str]]
    toa: TFDistribution | None
    tod: TFDistribution | None
    n_a: float
    n_d: float


def split_toa_tod(series: PopulationSeries,
                  slope_tolerance: float | None = None) -> SplitResult:
    """Partition grid intervals by the sign of the population change.

    Intervals with |delta p| <= slope_tolerance * dt are neutral and
    excluded from both supports; the default dead-band 1e-9/dt suppresses
    floating-point sign flips at extrema.
    """
    p = np.asarray(series.values, dtype=float)
    if p.size < 3:
        raise ValueError("need at least 3 samples to segment a flow")
    dt = series.grid.dt
    tol = (1e-9 / dt) if slope_tolerance is None else float(slope_tolerance)
    dp = np.diff(p)
    # 1 arrival, -1 departure, 0 neutral; runs end where the code changes
    code = (dp > tol * dt).astype(np.int8) - (dp < -tol * dt)
    ends = np.flatnonzero(code[1:] != code[:-1]) + 1
    starts = np.concatenate(([0], ends))
    segments: list[tuple[int, int, str]] = [
        (i0, i1, _KIND_OF_CODE[c]) for i0, i1, c in
        zip(starts.tolist(), [*ends.tolist(), code.size], code[starts].tolist())
    ]

    mid = series.grid.midpoints

    def _build(mask: np.ndarray, kind: str) -> tuple[TFDistribution | None, float]:
        weight = float(np.sum(np.abs(dp[mask])))
        if weight <= 0.0:
            return None, np.inf
        dist = TFDistribution(
            times=mid[mask],
            density=np.abs(dp[mask]) / dt / weight,
            dt=dt,
            normalization=1.0 / weight,
            kind=kind,
        )
        return dist, 1.0 / weight

    toa, n_a = _build(code == 1, KIND_TOA)
    tod, n_d = _build(code == -1, KIND_TOD)
    return SplitResult(segments=segments, toa=toa, tod=tod, n_a=n_a, n_d=n_d)


def moments(dist: TFDistribution, max_order: int = 2) -> Moments:
    """Raw moments mu^(p) = sum t^p density dt, mean and spread."""
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    raw = np.array([
        float(np.sum(dist.times ** p * dist.density) * dist.dt)
        for p in range(1, max_order + 1)
    ])
    mean = raw[0]
    var = max(raw[1] - mean * mean, 0.0)
    return Moments(mean=mean, std=float(np.sqrt(var)), raw=raw)


def tf_from_current(traj: Trajectory, op, align: str = "grid") -> TFDistribution:
    """Flow distribution from expectations of a current-like operator.

    ``op`` is the fixed matrix (or callable t -> matrix) whose
    expectation equals dp/dt. With ``align='grid'`` the density is
    |<op>(t_j)| at the grid points; ``align='midpoints'`` averages the
    signed expectations onto interval midpoints first, which matches the
    finite-difference estimator to O(dt^2) even across sign changes.
    """
    rate = dynamics.expectation_series(traj, op)
    dt = traj.grid.dt
    if align == "grid":
        times, raw = traj.grid.times, np.abs(rate)
    elif align == "midpoints":
        times, raw = traj.grid.midpoints, np.abs(0.5 * (rate[1:] + rate[:-1]))
    else:
        raise ValueError("align must be 'grid' or 'midpoints'")
    total = float(np.sum(raw) * dt)
    if total <= _FLAT_TOL:
        raise DegenerateDistributionError("current expectations vanish everywhere")
    return TFDistribution(
        times=times,
        density=raw / total,
        dt=dt,
        normalization=1.0 / total,
        kind=KIND_TF,
    )


# ---------------------------------------------------------------------------
# exact statistics of stepwise (delta-spike) populations


@dataclass(frozen=True)
class SpikeStats:
    """Exact mean/std of a renormalized set of weighted time spikes."""

    mean: float
    std: float
    total_weight: float


@dataclass(frozen=True)
class StepModelStats:
    toa: SpikeStats | None
    tod: SpikeStats | None
    tf: SpikeStats


def step_model_statistics(steps: list[tuple[float, float]]) -> StepModelStats:
    """Exact flow statistics of p(t) = sum_l a_l * theta(t - t_l).

    The flow density is a train of delta spikes, handled symbolically so
    no grid is involved: TOA statistics use the positive weights, TOD the
    magnitudes of negative weights, TF all magnitudes, each renormalized
    over its own set. Step times must be strictly increasing and every
    partial sum of the weights must stay inside [0, 1].
    """
    if not steps:
        raise ValueError("need at least one step")
    ts = np.array([t for t, _ in steps], dtype=float)
    ws = np.array([a for _, a in steps], dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("step times must be strictly increasing")
    partial = np.cumsum(ws)
    if np.any(partial < -1e-12) or np.any(partial > 1.0 + 1e-12):
        raise ValueError("cumulative occupation leaves [0, 1]")

    def _stats(mask: np.ndarray) -> SpikeStats | None:
        w = np.abs(ws[mask])
        total = float(np.sum(w))
        if total <= 0.0:
            return None
        t = ts[mask]
        mean = float(np.sum(w * t) / total)
        var = max(float(np.sum(w * t * t) / total) - mean * mean, 0.0)
        return SpikeStats(mean=mean, std=float(np.sqrt(var)), total_weight=total)

    toa = _stats(ws > 0)
    tod = _stats(ws < 0)
    tf = _stats(ws != 0)
    if tf is None:
        raise DegenerateDistributionError("all step weights are zero")
    return StepModelStats(toa=toa, tod=tod, tf=tf)
