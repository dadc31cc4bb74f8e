"""Time-of-flow distributions: construction, segmentation and moments.

The flow density of a target-state population p(t) is the normalized
magnitude of its rate of change, pi(t) = N |dp/dt|. A grid holds it in
one of two conventions, each with one builder:

* interval masses, ``tf_from_population``: (|delta p| / dt) / sum |delta p|
  at the interval midpoints, from forward differences (a second-order
  estimator of the moments) or from exact closed-form masses;
* rate samples, ``tf_from_rate``: |rate| / (sum |rate| * dt) of signed
  samples of dp/dt, at the grid points or averaged onto the midpoints.

Every distribution is made by ``_normalized``, which refuses a flow mass
not above 1e-12 as flat; its ``normalization`` is the inverse mass.
``split_toa_tod`` separates the time-of-arrival (increasing) and
time-of-departure (decreasing) parts, each normalized by the inverse of
the probability it transfers; an interval whose population changes by at
most ``DEAD_BAND`` is neutral, which excludes flat plateaus from both.

``Moments`` holds a mean and spread. ``moments`` and the stepwise-flow
statistics form both through ``_weighted_moments``: in units of the span
of the times from the first, and the spread about the mean, so that a
window far from t = 0 keeps the digits of its spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, operators
from .dynamics import TimeGrid, Trajectory
from .errors import DegenerateDistributionError, DimensionMismatchError

KIND_TOA = "TOA"
KIND_TOD = "TOD"
KIND_NEUTRAL = "neutral"
# indexed by a sign code: 0 neutral, 1 arrival, -1 (the last) departure
_KIND_OF_CODE = np.array([KIND_NEUTRAL, KIND_TOA, KIND_TOD])

_FLAT_TOL = 1e-12
# the population change per grid interval at or below which it is neutral;
# it suppresses floating-point sign flips at extrema
DEAD_BAND = 1e-9


@dataclass(frozen=True)
class PopulationSeries:
    """Occupation probabilities sampled on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n_points:
            raise DimensionMismatchError("one probability per grid point required")


@dataclass(frozen=True)
class TFDistribution:
    """Normalized flow density on (a subset of) a uniform grid.

    ``times`` may be grid points, interval midpoints, or a subset of
    midpoints (for a single TOA/TOD support); each sample owns a slot of
    width ``dt``, so sum(density) * dt == 1. ``normalization`` is the
    constant applied to the raw rates, the inverse of their flow mass:
    for one TOA/TOD support, the inverse of the probability it transfers.
    """

    times: np.ndarray
    density: np.ndarray
    dt: float
    normalization: float

    def __post_init__(self):
        if self.times.shape != self.density.shape:
            raise DimensionMismatchError("times/density length mismatch")
        # each test is written so that a NaN fails it
        if not np.all(self.density >= 0):
            raise ValueError("flow densities must be non-negative numbers")
        total = float(np.sum(self.density) * self.dt)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"density integrates to {total}, expected 1")

    @property
    def peak(self) -> float:
        return float(np.max(self.density))


@dataclass(frozen=True)
class Moments:
    """Mean and standard deviation of a flow distribution."""

    mean: float
    std: float


def _weighted_moments(t: np.ndarray, w: np.ndarray) -> Moments:
    """Mean and spread of the weights ``w`` (summing to 1) at the sorted
    times ``t``. Both are formed in x = (t - t[0]) / span, the spread about
    the mean: sqrt(mu2 - mu1^2) about t = 0 would cancel the spread of a
    window far from t = 0, and t^2 overflow for a huge one."""
    start = float(t[0])
    span = float(t[-1] - start) or 1.0
    x = (t - start) / span
    m = float(np.sum(w * x))
    return Moments(mean=start + span * m,
                   std=span * float(np.sqrt(np.sum(w * (x - m) ** 2))))


def _flow_mass(mass: float) -> float:
    """``mass``, refused as flat when it is not above _FLAT_TOL (NaN too)."""
    if not mass > _FLAT_TOL:
        raise DegenerateDistributionError(
            f"flow is flat: its mass {mass:.3e} is not above {_FLAT_TOL:.0e}"
        )
    return mass


def _normalized(times: np.ndarray, raw: np.ndarray, mass: float,
                dt: float) -> TFDistribution:
    """raw / mass, where ``mass`` is the flow mass of the density ``raw``."""
    mass = _flow_mass(mass)
    return TFDistribution(times=times, density=raw / mass, dt=dt,
                          normalization=1.0 / mass)


def tf_from_population(series: PopulationSeries) -> TFDistribution:
    """Interval-mass flow distribution from forward differences of a
    population series."""
    p = np.asarray(series.values, dtype=float)
    if p.size < 3:
        raise ValueError("need at least 3 samples to estimate a flow density")
    dp = np.abs(np.diff(p))
    dt = series.grid.dt
    return _normalized(series.grid.midpoints, dp / dt, float(np.sum(dp)), dt)


def tf_from_rate(grid: TimeGrid, rate, align: str = "grid") -> TFDistribution:
    """Flow distribution from signed samples of dp/dt at the grid points.

    ``align='midpoints'`` averages the signed rates onto the interval
    midpoints first, which matches the finite-difference estimator to
    O(dt^2) even across sign changes.
    """
    rate = np.asarray(rate, dtype=float)
    if align == "grid":
        times, raw = grid.times, np.abs(rate)
    elif align == "midpoints":
        times, raw = grid.midpoints, np.abs(0.5 * (rate[1:] + rate[:-1]))
    else:
        raise ValueError("align must be 'grid' or 'midpoints'")
    return _normalized(times, raw, float(np.sum(raw) * grid.dt), grid.dt)


def tf_from_current(traj: Trajectory, op, align: str = "grid") -> TFDistribution:
    """``tf_from_rate`` of the expectations of a current-like operator.

    ``op`` is the fixed matrix whose expectation equals dp/dt, or an
    (n, d, d) stack of a time-dependent one at the n grid times.
    """
    return tf_from_rate(traj.grid, dynamics.expectation_series(traj, op), align)


def _sign_codes(change: np.ndarray, band: float) -> np.ndarray:
    """1 above ``band``, -1 below ``-band``, 0 in between (and for NaN)."""
    return (change > band).astype(np.int8) - (change < -band)


def point_kinds(change: np.ndarray, band: float) -> np.ndarray:
    """Kind of each signed change: TOA above ``band``, TOD below ``-band``,
    neutral in between (and for NaN)."""
    return _KIND_OF_CODE[_sign_codes(change, band)]


@dataclass(frozen=True)
class SplitResult:
    """TOA/TOD segmentation of a population series.

    ``segments`` lists maximal runs of grid intervals as
    (first_interval, last_interval + 1, kind); ``toa``/``tod`` are the
    per-kind distributions normalized over their own support (None when
    that kind has no support), so each one's ``normalization`` is the
    inverse of the probability its support transfers.
    """

    segments: list[tuple[int, int, str]]
    toa: TFDistribution | None
    tod: TFDistribution | None


def split_toa_tod(series: PopulationSeries) -> SplitResult:
    """Partition grid intervals by the sign of the population change.

    Intervals with |delta p| <= DEAD_BAND are neutral and excluded from
    both supports.
    """
    p = np.asarray(series.values, dtype=float)
    if p.size < 3:
        raise ValueError("need at least 3 samples to segment a flow")
    dt = series.grid.dt
    dp = np.diff(p)
    # the classifier of point_kinds, on int codes: runs end where the code changes
    code = _sign_codes(dp, DEAD_BAND)
    ends = np.flatnonzero(code[1:] != code[:-1]) + 1
    starts = np.concatenate(([0], ends))
    segments = list(zip(starts.tolist(), [*ends.tolist(), code.size],
                        _KIND_OF_CODE[code[starts]].tolist()))
    mid = series.grid.midpoints

    def _support(sign: int) -> TFDistribution | None:
        mask = code == sign
        change = np.abs(dp[mask])
        try:
            return _normalized(mid[mask], change / dt, float(np.sum(change)), dt)
        except DegenerateDistributionError:
            return None

    return SplitResult(segments=segments, toa=_support(1), tod=_support(-1))


def moments(dist: TFDistribution) -> Moments:
    """Mean and spread of the density (``_weighted_moments``)."""
    return _weighted_moments(dist.times, dist.density * dist.dt)


# ---------------------------------------------------------------------------
# exact statistics of stepwise (delta-spike) populations


@dataclass(frozen=True)
class StepModelStats:
    toa: Moments | None
    tod: Moments | None
    tf: Moments


def step_model_statistics(steps: list[tuple[float, float]]) -> StepModelStats:
    """Exact flow statistics of p(t) = sum_l a_l * theta(t - t_l).

    The flow density is a train of delta spikes, handled symbolically so
    no grid is involved: TOA statistics use the positive weights, TOD the
    magnitudes of negative weights, TF all magnitudes, each renormalized
    over its own set. Step times and weights must be finite, the times
    strictly increasing, and every partial sum of the weights in [0, 1].
    """
    if not steps:
        raise ValueError("need at least one step")
    ts = np.array([t for t, _ in steps], dtype=float)
    ws = np.array([a for _, a in steps], dtype=float)
    operators.assert_finite(step_times=ts, weights=ws)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("step times must be strictly increasing")
    partial = np.cumsum(ws)
    if np.any(partial < -1e-12) or np.any(partial > 1.0 + 1e-12):
        raise ValueError("cumulative occupation leaves [0, 1]")

    def _stats(mask: np.ndarray) -> Moments | None:
        w = np.abs(ws[mask])
        total = float(np.sum(w))
        if not total > _FLAT_TOL:
            return None
        return _weighted_moments(ts[mask], w / total)

    toa = _stats(ws > 0)
    tod = _stats(ws < 0)
    tf = _stats(ws != 0)
    if tf is None:
        raise DegenerateDistributionError("the steps carry no flow mass")
    return StepModelStats(toa=toa, tod=tod, tf=tf)
