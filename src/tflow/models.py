"""Ready-made physical scenarios with their closed-form references.

Four families are bundled:

* a driven two-level transition H(t) = (w(t)/2) sigma_x with an arbitrary
  Bloch-sphere initial state, solvable for any drive waveform through the
  accumulated angle W(t) = int_0^t w;
* a counterdiabatic two-level sweep whose exact solution follows the
  instantaneous eigenstate of the bare part, parameterized by an angle
  schedule theta(t) = (pi/2)(t/T)^alpha;
* a three-level Lambda system with fixed Rabi couplings and a linear
  detuning ramp swept once through resonance;
* open-system examples: pure sigma_z dephasing, and a Hadamard-axis
  rotation with a dephasing channel.

Frequencies are angular (rad per time unit, hbar = 1); helpers accepting
cyclic MHz multiply by 2*pi at the boundary.

The closed-form moments of the constant drive and of the counterdiabatic
sweep are exact sums: closed forms over the pieces between the analytic
roots of the rate, and term-by-term integrals of Taylor series. The
polynomial and gaussian drives enumerate every sign change of the rate
exactly (zeros of the drive, and inversions of the monotone pieces of W)
and integrate between them with one fixed Gauss-Legendre rule. Custom
drives are probed on a grid. Nothing here imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import operators
from .dynamics import (
    DOUBLE_COMMUTATOR,
    GKS,
    HamiltonianSchedule,
    LindbladModel,
    TimeGrid,
    Trajectory,
    constant_hamiltonian,
    propagate_schrodinger,
)
from .errors import DegenerateDistributionError, IntegrationError
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z
from .tf import KIND_TF, KIND_TOA, Moments, PopulationSeries, TFDistribution

# Gauss-Legendre order of every quadrature below: the moment integrals
# over pieces spanning at most pi/8 of W, and the panels of a custom
# drive's cumulative (at most _PANEL long). 8 is the smallest order that
# holds the moments of the old adaptive quadrature to 1e-13 relative;
# 6 is off by up to 2e-9.
_GL_ORDER = 8
_PANEL = 2.0 ** -6
# W may span at most this much on a moment window: 2^20 pieces of pi/8
_MAX_ANGLE_SPAN = 2.0 ** 17 * np.pi
# pieces (or cumulative panels) integrated per numpy pass, which bounds the
# memory of a long window
_CHUNK = 2 ** 14
_SQRT_HALF = math.sqrt(0.5)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

# signed Taylor coefficients of cos (even n) and sin (odd n): (-1)^(n//2)/n!
_TAYLOR = np.array([(-1.0) ** (n // 2) / math.factorial(n) for n in range(50)])


# ---------------------------------------------------------------------------
# control waveforms


class ControlWaveform:
    """Drive frequency w(t) together with its accumulated angle W(t).

    W is in closed form for the constant, polynomial and gaussian kinds
    (the gaussian through ``_ndtr``); custom waveforms without a supplied
    antiderivative use composite Gauss-Legendre quadrature.
    """

    def __init__(self, kind: str, omega: Callable, cumulative: Callable,
                 params: dict):
        self.kind = kind
        self._omega = omega
        self._cumulative = cumulative
        self.params = dict(params)

    def omega(self, t):
        return self._omega(np.asarray(t, dtype=float))

    def cumulative(self, t):
        return self._cumulative(np.asarray(t, dtype=float))

    @classmethod
    def constant(cls, omega0: float) -> "ControlWaveform":
        return cls(
            "constant",
            lambda t: np.full_like(t, omega0, dtype=float),
            lambda t: omega0 * t,
            {"omega0": omega0},
        )

    @classmethod
    def polynomial(cls, omega0: float, coefficients) -> "ControlWaveform":
        """w(t) = omega0 + sum_p a_p t^p with a = (a_1, ..., a_4)."""
        a = np.asarray(coefficients, dtype=float)
        if a.shape != (4,):
            raise ValueError("expected exactly 4 polynomial coefficients")

        def omega(t):
            return omega0 + sum(a[p] * t ** (p + 1) for p in range(4))

        def cumulative(t):
            return omega0 * t + sum(a[p] * t ** (p + 2) / (p + 2) for p in range(4))

        return cls("polynomial", omega, cumulative,
                   {"omega0": omega0, "coefficients": tuple(a)})

    @classmethod
    def gaussian_pulse(cls, t0: float, sigma: float,
                       area: float = np.pi) -> "ControlWaveform":
        """Normalized gaussian drive of total angle ``area`` centered at t0."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        norm = area / np.sqrt(2.0 * np.pi * sigma * sigma)
        clipped = float(_ndtr(-t0 / sigma))

        def omega(t):
            return norm * np.exp(-((t - t0) ** 2) / (2.0 * sigma * sigma))

        def cumulative(t):
            return area * (_ndtr((t - t0) / sigma) - clipped)

        return cls("gaussian", omega, cumulative,
                   {"t0": t0, "sigma": sigma, "area": area})

    @classmethod
    def custom(cls, omega: Callable[[float], float],
               cumulative: Callable[[float], float] | None = None) -> "ControlWaveform":
        """A drive given by a scalar callable w(t).

        Without ``cumulative``, W(t) is composite Gauss-Legendre quadrature
        from 0 (``_GL_ORDER`` points on panels at most 2^-6 long), exact to
        rounding for drives smooth on that scale. The moments of a custom drive
        find its sign changes only where a probe grid brackets them (see
        ``two_level_moments_closed``).
        """
        omega_v = np.vectorize(omega, otypes=[float])
        if cumulative is None:
            def cumulative_v(t):
                out = _composite_cumulative(omega_v, t)
                return out if np.ndim(t) else float(out)
        else:
            cumulative_v = np.vectorize(cumulative, otypes=[float])
        return cls("custom", omega_v, cumulative_v, {})


def _ndtr(x):
    """Standard normal CDF 0.5 erfc(-x/sqrt 2), element-wise through
    ``math.erfc``; the lower tail keeps its relative accuracy."""
    z = np.asarray(x, dtype=float) * -_SQRT_HALF
    return 0.5 * np.asarray(_ERFC(z), dtype=float)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_ORDER-point rule on [-1, 1]."""
    from numpy.polynomial import legendre

    return legendre.leggauss(_GL_ORDER)


def _panel_integrals(omega: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_lo^hi omega for every pair, by one Gauss-Legendre panel each."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    return omega(0.5 * (hi + lo)[:, None] + half[:, None] * nodes) @ weights * half


def _composite_cumulative(omega: Callable, t) -> np.ndarray:
    """int_0^t omega for every entry of t, by composite Gauss-Legendre.

    0 and the sorted times cut the line into gaps; each gap is split into
    equal panels at most _PANEL long, and the panel integrals are summed
    cumulatively. Panels are integrated _CHUNK at a time, so memory does
    not grow with |t|.
    """
    t = np.asarray(t, dtype=float)
    knots = np.concatenate(([0.0], t.ravel()))
    order = np.argsort(knots, kind="stable")
    left = knots[order]
    gaps = np.diff(left)
    panels = np.maximum(np.ceil(gaps / _PANEL), 1).astype(int)
    width = gaps / panels
    ends = np.cumsum(panels)
    first = ends - panels  # index of each gap's first panel
    per_gap = np.zeros(gaps.size)
    for s in range(0, int(panels.sum()), _CHUNK):
        index = np.arange(s, min(s + _CHUNK, ends[-1]))
        gap = np.searchsorted(ends, index, side="right")
        start = left[gap] + width[gap] * (index - first[gap])
        per_gap += np.bincount(gap, _panel_integrals(omega, start, start + width[gap]),
                               minlength=gaps.size)
    out = np.empty_like(knots)
    out[order] = np.concatenate(([0.0], np.cumsum(per_gap)))
    return (out[1:] - out[0]).reshape(t.shape)


@dataclass(frozen=True)
class TwoLevelInitial:
    """Bloch angles of cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError("phi must lie in [0, 2 pi)")

    def state(self) -> np.ndarray:
        return np.array(
            [np.cos(self.theta / 2.0),
             np.exp(1j * self.phi) * np.sin(self.theta / 2.0)],
            dtype=complex,
        )


def two_level_hamiltonian(waveform: ControlWaveform) -> HamiltonianSchedule:
    """H(t) = (w(t)/2) sigma_x."""
    def batch(ts):
        w = np.atleast_1d(waveform.omega(ts))
        return 0.5 * w[:, None, None] * SIGMA_X

    return HamiltonianSchedule(
        2, lambda t: 0.5 * float(waveform.omega(t)) * SIGMA_X, batch=batch
    )


def two_level_population(waveform: ControlWaveform, init: TwoLevelInitial, t):
    """Occupation of |1> at time t for the sigma_x drive, in closed form:

    p_1 = sin^2(theta/2) cos^2(W/2) + cos^2(theta/2) sin^2(W/2)
          - (1/2) sin(theta) sin(W) sin(phi).
    """
    w = waveform.cumulative(t)
    th, ph = init.theta, init.phi
    return (
        np.sin(th / 2.0) ** 2 * np.cos(w / 2.0) ** 2
        + np.cos(th / 2.0) ** 2 * np.sin(w / 2.0) ** 2
        - 0.5 * np.sin(th) * np.sin(w) * np.sin(ph)
    )


def two_level_rate(waveform: ControlWaveform, init: TwoLevelInitial, t):
    """Signed dp_1/dt = (w/2)[cos(theta) sin(W) - sin(theta) cos(W) sin(phi)]."""
    return _rate(waveform.omega(t), waveform.cumulative(t), init)


def _rate(omega, angle, init: TwoLevelInitial):
    return 0.5 * omega * (
        np.cos(init.theta) * np.sin(angle)
        - np.sin(init.theta) * np.cos(angle) * np.sin(init.phi)
    )


def two_level_tf_closed(waveform: ControlWaveform, init: TwoLevelInitial,
                        grid: TimeGrid) -> TFDistribution:
    """Closed-form flow density |dp_1/dt| sampled at the grid points and
    renormalized over the window."""
    raw = np.abs(two_level_rate(waveform, init, grid.times))
    total = float(np.sum(raw) * grid.dt)
    if total <= 1e-12:
        raise DegenerateDistributionError("flow density vanishes on this window")
    return TFDistribution(
        times=grid.times,
        density=raw / total,
        dt=grid.dt,
        normalization=1.0 / total,
        kind=KIND_TF,
    )


def two_level_moments_closed(waveform: ControlWaveform, init: TwoLevelInitial,
                             t_start: float, t_end: float) -> Moments:
    """Mean and spread of the closed-form flow density |dp_1/dt| on a window.

    The rate is (w/2) R sin(W - delta) with R cos(delta) = cos(theta) and
    R sin(delta) = sin(theta) sin(phi), so it changes sign where W crosses
    delta + k pi and where w does. For a constant drive those roots are
    t = (delta + k pi)/w and the integrals of t^p |rate| (p = 0, 1, 2) are
    exact sums (``_constant_drive_integrals``), whatever the number of sign
    changes. For polynomial and gaussian drives ``_drive_cuts`` finds every
    sign change: the real roots of w, and the solutions of
    W = delta + k pi on each piece where W is monotone. A custom drive is
    probed on a grid on which W moves by at most pi/8 between points
    (``_probed_cuts``); its sign changes are found only where the probe
    brackets them, so two within one probe interval are missed. Between the
    cuts ``_piece_moments`` applies one Gauss-Legendre rule, and no scipy
    is involved. ``IntegrationError`` is raised when that needs more than
    2^20 pieces of pi/8: W spans more than 2^17 pi on the window, or a
    custom drive's probe needs more than 2^20 intervals.
    """
    if t_start < 0:
        raise ValueError("transfer windows start at t >= 0")
    if waveform.kind == "constant":
        integrals = _constant_drive_integrals(waveform.params["omega0"], init,
                                              t_start, t_end)
        mus = integrals[1:] / _flow_total(integrals[0])
        var = mus[1] - mus[0] ** 2
    else:
        if waveform.kind == "custom":
            cuts = _probed_cuts(waveform, init, t_start, t_end)
        else:
            delta = np.arctan2(np.sin(init.theta) * np.sin(init.phi),
                               np.cos(init.theta))
            cuts = _drive_cuts(waveform, delta, t_start, t_end)
        mean, var = _piece_moments(waveform, init, cuts)
        mus = np.array([mean, var + mean * mean])
    var = max(var, 0.0)
    return Moments(mean=float(mus[0]), std=float(np.sqrt(var)), raw=mus)


def _constant_drive_integrals(omega: float, init: TwoLevelInitial, t0: float,
                              t1: float) -> np.ndarray:
    """Integrals of t^p |rate| over [t0, t1], p = 0, 1, 2, for a constant drive.

    The rate is (omega/2) R sin(omega t - delta). Its roots
    t = (delta + k pi)/omega cut the window into pieces on which the sine
    keeps its sign. The interior pieces are full half periods whose centres
    form an arithmetic progression, so their sums are closed forms in the
    number of pieces; the two end pieces go through
    ``_sine_piece_integrals``. Time and memory do not grow with the number
    of sign changes.
    """
    if omega == 0.0:
        raise DegenerateDistributionError("a zero drive never moves the population")
    amplitude = np.hypot(np.cos(init.theta), np.sin(init.theta) * np.sin(init.phi))
    delta = np.arctan2(np.sin(init.theta) * np.sin(init.phi), np.cos(init.theta))
    w = abs(omega)
    d = delta if omega > 0 else -delta  # sin(omega t - delta) = -sin(w t + delta)
    k_lo = np.ceil((w * t0 - d) / np.pi)
    k_hi = np.floor((w * t1 - d) / np.pi)
    if k_hi < k_lo:
        sums = _sine_piece_integrals(np.array([t0]), np.array([t1]), w, d)
    else:
        r_lo, r_hi = np.clip((d + np.pi * np.array([k_lo, k_hi])) / w, t0, t1)
        ends = _sine_piece_integrals(np.array([t0, r_hi]), np.array([r_lo, t1]), w, d)
        # interior: m pieces of half-width pi/(2w), centred where |sin| = 1
        m = k_hi - k_lo
        a0, _, a2 = _even_part_integrals(np.array([0.5 * np.pi / w]), w)[:, 0]
        centre = 0.5 * (r_lo + r_hi)
        sum_c2 = m * centre * centre + (np.pi / w) ** 2 * (m ** 3 - m) / 12.0
        sums = ends + np.array([m * a0, m * centre * a0, sum_c2 * a0 + m * a2])
    return 0.5 * w * amplitude * sums


def _sine_piece_integrals(lo: np.ndarray, hi: np.ndarray, w: float,
                          d: float) -> np.ndarray:
    """Sums over pieces [lo, hi], on which sin(w t - d) keeps its sign, of
    the integrals of t^p |sin(w t - d)|, p = 0, 1, 2.

    With centre c, half-width h and t = c + x, sin(w t - d) is
    sin(u) cos(w x) + cos(u) sin(w x) with u = w c - d, and only the even
    parts of x^j cos(w x), x sin(w x), x^2 cos(w x) survive on [-h, h].
    """
    c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sin_u, cos_u = np.sin(w * c - d), np.cos(w * c - d)
    s, k = np.abs(sin_u), np.sign(sin_u) * cos_u
    a0, a1, a2 = _even_part_integrals(h, w)
    return np.array([
        np.sum(s * a0),
        np.sum(c * s * a0 + k * a1),
        np.sum(c * c * s * a0 + 2.0 * c * k * a1 + s * a2),
    ])


def _even_part_integrals(h: np.ndarray, w: float) -> np.ndarray:
    """Integrals over [-h, h] of cos(w x), x sin(w x) and x^2 cos(w x).

    Each is 2 h^(j+1) sum_n T_n z^n / (n + j + 1) over the n of the parity
    of j, with z = w h and T_n the Taylor coefficients of cos and sin. The
    pieces have z <= pi/2, where 50 terms reach rounding error; unlike the
    antiderivatives in sin and cos, the series does not cancel at small z.
    """
    n = np.arange(_TAYLOR.size)
    powers = np.power.outer(w * h, n)
    return np.array([
        2.0 * h ** (j + 1)
        * (powers[:, j % 2::2] @ (_TAYLOR[j % 2::2] / (n[j % 2::2] + j + 1)))
        for j in range(3)
    ])


def _drive_cuts(waveform: ControlWaveform, delta: float, t0: float,
                t1: float) -> np.ndarray:
    """Sorted cuts of [t0, t1] for a polynomial or gaussian drive: between
    neighbours the rate keeps its sign and W moves by at most pi/8.

    Breaks first cut the window into pieces on which W is monotone: the
    real roots of the quartic w (``np.roots``), or, for the gaussian
    (w > 0), the points t0 + j sigma with |j| <= 40, which resolve a pulse
    narrower than the window (beyond 38.6 sigma w underflows to 0). On
    each piece every solution of W(t) = delta + j pi/8 is added; those
    with j divisible by 8 are the sign changes of sin(W - delta).
    """
    if waveform.kind == "polynomial":
        # real parts of all roots: a near-double real root can come back as a
        # complex pair, and an extra break costs one piece. A root off by e
        # moves the integrals by O(e^2), so np.roots needs no polishing.
        inner = np.roots([*waveform.params["coefficients"][::-1],
                          waveform.params["omega0"]]).real
    else:
        p = waveform.params
        inner = p["t0"] + p["sigma"] * np.arange(-40.0, 41.0)
    breaks = np.concatenate(([t0], np.sort(inner[(inner > t0) & (inner < t1)]), [t1]))
    angle = waveform.cumulative(breaks)
    span = float(np.sum(np.abs(np.diff(angle))))
    if span > _MAX_ANGLE_SPAN:
        raise IntegrationError(
            f"the drive angle spans {span:.6g} rad on [{t0}, {t1}], more than 2^17 pi"
        )
    step = np.pi / 8.0
    low, high = np.minimum(angle[:-1], angle[1:]), np.maximum(angle[:-1], angle[1:])
    k_lo = np.ceil((low - delta) / step)
    counts = np.maximum(np.floor((high - delta) / step) - k_lo + 1, 0).astype(int)
    ends = np.cumsum(counts)
    cuts = np.empty(breaks.size + ends[-1])
    cuts[:breaks.size] = breaks
    # the lattice points, _CHUNK at a time: memory beyond the cuts is bounded
    for s in range(0, ends[-1], _CHUNK):
        index = np.arange(s, min(s + _CHUNK, ends[-1]))
        piece = np.searchsorted(ends, index, side="right")
        rank = index - (ends - counts)[piece]
        cuts[breaks.size + index] = _invert_angle(
            waveform, delta + step * (k_lo[piece] + rank), breaks[piece],
            breaks[piece + 1], angle[piece], angle[piece + 1])
    cuts.sort()
    return cuts


def _invert_angle(waveform: ControlWaveform, target: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, angle_lo: np.ndarray,
                  angle_hi: np.ndarray) -> np.ndarray:
    """Solve W(t) = target for every target at once, each on a bracket
    [lo, hi] over which W is monotone and covers it.

    Safeguarded Newton (W' = w): every iterate shrinks its bracket, and a
    step that leaves the bracket is replaced by bisection.
    """
    direction = np.where(angle_hi >= angle_lo, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((target - angle_lo) / (angle_hi - angle_lo), 0.0, 1.0)
        t = lo + (hi - lo) * frac
    t = np.where(np.isfinite(t), t, 0.5 * (lo + hi))
    for _ in range(100):
        f = (waveform.cumulative(t) - target) * direction
        lo, hi = np.where(f <= 0, t, lo), np.where(f >= 0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - f / (waveform.omega(t) * direction)
        newton = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        done = np.abs(newton - t) <= 4.0 * np.spacing(np.abs(t))
        t = newton
        if np.all(done):
            break
    return t


def _probed_cuts(waveform: ControlWaveform, init: TwoLevelInitial, t0: float,
                 t1: float) -> np.ndarray:
    """Cuts of [t0, t1] for a custom drive.

    The cuts are a probe grid on which W moves by at most pi/8 between
    points, plus the sign changes of the rate that it brackets, refined by
    50 bisections (below the rounding of t for any probe interval). Two
    sign changes inside one probe interval leave no trace on the probe and
    are missed.
    """
    intervals = 4096
    while True:
        probe = np.linspace(t0, t1, intervals + 1)
        angle = waveform.cumulative(probe)
        if np.max(np.abs(np.diff(angle))) <= np.pi / 8.0:
            break
        intervals *= 2
        if intervals > 2 ** 20:
            raise IntegrationError(
                "the drive angle moves by more than pi/8 between points of a "
                f"2^20-interval probe on [{t0}, {t1}]"
            )
    signs = np.sign(_rate(waveform.omega(probe), angle, init))
    nonzero = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nonzero[1:]] != signs[nonzero[:-1]])
    lo, hi = probe[nonzero[flips]], probe[nonzero[flips + 1]]
    side = signs[nonzero[flips]]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        same = np.sign(two_level_rate(waveform, init, mid)) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.sort(np.concatenate((probe, 0.5 * (lo + hi))))


def _piece_moments(waveform: ControlWaveform, init: TwoLevelInitial,
                   cuts: np.ndarray) -> tuple[float, float]:
    """Mean and variance of |rate| on [cuts[0], cuts[-1]], by one
    Gauss-Legendre rule on each piece between neighbouring cuts.

    The rate keeps its sign on each piece, so |rate| is smooth there. Each
    piece gives the integrals of (t - c)^p |rate| about its own centre c.
    Pieces are taken _CHUNK at a time, so memory beyond the cuts does not
    grow with their number: each chunk sums its pieces about the chunk's
    mean, and the chunks are summed about the overall mean (parallel axes
    at both levels), so a pulse far narrower than its distance from t = 0
    keeps its spread to rounding.
    """
    nodes, weights = _gauss_legendre()
    chunks = []  # (mass, mean, summed squared deviation) of each chunk
    for s in range(0, cuts.size - 1, _CHUNK):
        edge = cuts[s:s + _CHUNK + 1]
        centre, h = 0.5 * (edge[1:] + edge[:-1]), 0.5 * (edge[1:] - edge[:-1])[:, None]
        x = h * nodes
        rate = two_level_rate(waveform, init, centre[:, None] + x)
        f = np.abs(rate) * (h * weights)
        j0, j1, j2 = np.sum(f, axis=1), np.sum(x * f, axis=1), np.sum(x * x * f, axis=1)
        mass = np.sum(j0)
        if mass == 0.0:
            continue
        mean = (np.sum(centre * j0) + np.sum(j1)) / mass
        d = centre - mean
        chunks.append((mass, mean, np.sum(j2 + d * (2.0 * j1 + d * j0))))
    mass, mean, spread = np.array(chunks).reshape(-1, 3).T
    total = _flow_total(np.sum(mass))
    overall = np.sum(mass * mean) / total
    d = mean - overall
    return float(overall), float(np.sum(spread + mass * d * d) / total)


def _flow_total(total: float) -> float:
    if total <= 1e-14:
        raise DegenerateDistributionError("flow density vanishes on this window")
    return total


# ---------------------------------------------------------------------------
# counterdiabatic (exactly-following) two-level sweep


@dataclass(frozen=True)
class STAConfig:
    """Angle schedule theta(t) = (pi/2)(t/T)^alpha at splitting omega0."""

    alpha: float
    t_final: float
    omega0: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    def theta(self, t):
        return 0.5 * np.pi * (np.asarray(t, dtype=float) / self.t_final) ** self.alpha

    def theta_dot(self, t):
        a, big_t = self.alpha, self.t_final
        t = np.asarray(t, dtype=float)
        if a < 1.0 and np.any(t <= 0.0):
            raise ValueError(
                "theta_dot diverges at t = 0 for alpha < 1; "
                "start the grid at t > 0 (e.g. half a grid step)"
            )
        with np.errstate(divide="ignore"):
            return 0.5 * np.pi * (a / big_t) * (t / big_t) ** (a - 1.0)


def sta_hamiltonian(config: STAConfig) -> HamiltonianSchedule:
    """H(t) = (1/2)[-omega0(sin th sigma_x + cos th sigma_z) + th' sigma_y]."""
    w0 = config.omega0

    def batch(ts):
        th = np.atleast_1d(config.theta(ts))
        td = np.atleast_1d(config.theta_dot(ts))
        out = np.empty((th.size, 2, 2), dtype=complex)
        out[:] = 0.5 * (
            -w0 * (np.sin(th)[:, None, None] * SIGMA_X
                   + np.cos(th)[:, None, None] * SIGMA_Z)
            + td[:, None, None] * SIGMA_Y
        )
        return out

    return HamiltonianSchedule(2, lambda t: batch(np.array([t]))[0], batch=batch)


def sta_instantaneous_state(config: STAConfig, t: float) -> np.ndarray:
    """The tracked eigenstate cos(th/2)|0> + sin(th/2)|1> at time t."""
    th = float(config.theta(t))
    return np.array([np.cos(th / 2.0), np.sin(th / 2.0)], dtype=complex)


def sta_population_closed(config: STAConfig, t):
    """Exact target-state occupation p_+(t) = cos^2(theta(t)/2 - pi/4)."""
    return np.cos(config.theta(t) / 2.0 - np.pi / 4.0) ** 2


def sta_flow_cdf(config: STAConfig, t):
    """Accumulated flow F(t) = sin((pi/2)(t/T)^alpha), i.e. p_+ - p_+(0)
    rescaled to total mass 1."""
    return np.sin(0.5 * np.pi * (np.asarray(t, dtype=float) / config.t_final)
                  ** config.alpha)


def sta_tf_closed(config: STAConfig, grid: TimeGrid) -> tuple[TFDistribution, Moments]:
    """Arrival distribution of the sweep plus its closed-form moments.

    The density on the grid is assigned as exact per-interval flow mass
    (differences of the closed-form accumulated flow), which stays finite
    for alpha < 1 where the pointwise density diverges at t = 0. The
    moments come from sta_moments_closed, not from the grid.
    """
    if config.alpha == 0:
        raise DegenerateDistributionError("alpha = 0 freezes the sweep")
    if grid.t_start < 0 or grid.t_end > config.t_final * (1 + 1e-12):
        raise ValueError("grid must lie within [0, t_final]")
    f = sta_flow_cdf(config, grid.times)
    mass = np.diff(f)
    total = float(np.sum(mass))
    dist = TFDistribution(
        times=grid.midpoints,
        density=mass / grid.dt / total,
        dt=grid.dt,
        normalization=1.0 / total,
        kind=KIND_TOA,
    )
    return dist, sta_moments_closed(config)


def sta_moments_closed(config: STAConfig) -> Moments:
    """Mean and spread of the arrival distribution, as exact series.

    Integration by parts against the accumulated flow avoids the
    integrable density singularity at t = 0 for alpha < 1:
    mu1 = T - int F, mu2 = T^2 - 2 int t F. In u = (t/T)^alpha the Taylor
    series of F = sin(pi u/2) integrates term by term:

        int_0^T t^q F dt = T^(q+1) sum_k (-1)^k (pi/2)^(2k+1)
                           / ((2k+1)! (alpha (2k+1) + q + 1)),

    25 terms reach rounding error, and alpha = 0 gives the frozen limit.
    """
    big_t = config.t_final
    n = np.arange(1, _TAYLOR.size, 2)
    terms = _TAYLOR[n] * (0.5 * np.pi) ** n
    i0 = big_t * float(np.sum(terms / (config.alpha * n + 1.0)))
    i1 = big_t * big_t * float(np.sum(terms / (config.alpha * n + 2.0)))
    mu1 = big_t - i0
    mu2 = big_t * big_t - 2.0 * i1
    var = max(mu2 - mu1 * mu1, 0.0)
    return Moments(mean=mu1, std=float(np.sqrt(var)), raw=np.array([mu1, mu2]))


def sta_propagate(config: STAConfig, grid: TimeGrid,
                  substeps: int | None = None) -> Trajectory:
    """Numerically propagate the sweep, handling the alpha < 1 endpoint.

    For alpha < 1 the counterdiabatic term diverges at t = 0, so a grid
    starting there is shifted to begin at half a grid step, with the
    instantaneous eigenstate at that time as the initial state (the exact
    solution passes through it). The trajectory's grid records the times
    actually used.
    """
    if config.alpha < 1.0 and grid.t_start <= 0.0:
        grid = TimeGrid(grid.t_start + 0.5 * grid.dt, grid.t_end, grid.n_points)
    psi0 = sta_instantaneous_state(config, grid.t_start)
    return propagate_schrodinger(sta_hamiltonian(config), psi0, grid, substeps)


# ---------------------------------------------------------------------------
# three-level Lambda sweep


@dataclass(frozen=True)
class LambdaConfig:
    """Lambda system: couplings omega1 (|1>-|2|) and omega2 (|3>-|2>),
    single-photon detuning ramped linearly from delta_initial to
    delta_final over t_final. All rates angular."""

    omega1: float
    omega2: float
    delta_initial: float
    delta_final: float
    t_final: float

    def __post_init__(self):
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("couplings must be positive")
        if not (self.delta_initial < 0.0 < self.delta_final):
            raise ValueError("the ramp must cross resonance: delta_i < 0 < delta_f")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @classmethod
    def from_cyclic_mhz(cls, omega1, omega2, delta_initial, delta_final,
                        t_final) -> "LambdaConfig":
        """Convenience constructor taking frequencies in cyclic MHz."""
        two_pi = 2.0 * np.pi
        return cls(two_pi * omega1, two_pi * omega2, two_pi * delta_initial,
                   two_pi * delta_final, t_final)

    @property
    def omega_eff(self) -> float:
        return float(np.hypot(self.omega1, self.omega2))

    def detuning(self, t):
        return self.delta_initial + (self.delta_final - self.delta_initial) * (
            np.asarray(t, dtype=float) / self.t_final
        )


def lambda_hamiltonian(config: LambdaConfig) -> HamiltonianSchedule:
    """3x3 generator in the (|1>, |2>, |3>) ordering with linear ramp."""
    o1, o2 = 0.5 * config.omega1, 0.5 * config.omega2

    def batch(ts):
        d = np.atleast_1d(config.detuning(ts))
        out = np.zeros((d.size, 3, 3), dtype=complex)
        out[:, 0, 1] = out[:, 1, 0] = o1
        out[:, 1, 2] = out[:, 2, 1] = o2
        out[:, 1, 1] = d
        return out

    return HamiltonianSchedule(3, lambda t: batch(np.array([t]))[0], batch=batch)


def lambda_bright_state(config: LambdaConfig) -> np.ndarray:
    """(omega1 |1> + omega2 |3>)/omega_eff: couples to |2> at omega_eff."""
    return np.array([config.omega1, 0.0, config.omega2],
                    dtype=complex) / config.omega_eff


def lambda_dark_state(config: LambdaConfig) -> np.ndarray:
    """(omega2 |1> - omega1 |3>)/omega_eff: decoupled from |2> at all times."""
    return np.array([config.omega2, 0.0, -config.omega1],
                    dtype=complex) / config.omega_eff


def lambda_gamma(config: LambdaConfig) -> np.ndarray:
    """Current-like operator of the excited-state population,
    -(omega_eff/2)(-i|B><2| + i|2><B|); Hermitian, time-independent,
    annihilates the dark state."""
    bright = lambda_bright_state(config)
    ket2 = operators.basis_state(3, 1)
    sigma_y_b2 = -1j * np.outer(bright, ket2.conj()) + 1j * np.outer(ket2, bright.conj())
    return -(config.omega_eff / 2.0) * sigma_y_b2


def landau_zener_probability(config: LambdaConfig) -> float:
    """Non-adiabatic transition probability exp(-pi Weff^2 / (2 |dDelta/dt|))
    for the linear sweep."""
    ramp_rate = (config.delta_final - config.delta_initial) / config.t_final
    return float(np.exp(-np.pi * config.omega_eff ** 2 / (2.0 * ramp_rate)))


# ---------------------------------------------------------------------------
# open-system examples


def dephasing_model(gamma: float) -> LindbladModel:
    """Pure sigma_z dephasing, double-commutator convention:
    d rho/dt = -(gamma/2)[sigma_z, [sigma_z, rho]]."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return LindbladModel(
        hamiltonian=constant_hamiltonian(np.zeros((2, 2), dtype=complex)),
        channels=((SIGMA_Z, gamma),),
        form=DOUBLE_COMMUTATOR,
    )


@dataclass(frozen=True)
class DephasingAnalytics:
    """Closed-form quantities of the dephasing transition |+> -> |->.

    The population is p_-(t) = (1 - exp(-2 gamma t))/2 and the flow
    density 2 gamma exp(-2 gamma t); mean and spread both equal
    1/(2 gamma). The grid distribution is renormalized over the window
    and ``truncation_mass`` records the flow mass beyond it.
    """

    gamma: float
    population: PopulationSeries
    distribution: TFDistribution
    exact_mean: float
    exact_std: float
    delta_theta: float
    trace_term: float
    truncation_mass: float


def dephasing_population(gamma: float, t):
    return 0.5 * (1.0 - np.exp(-2.0 * gamma * np.asarray(t, dtype=float)))


def dephasing_analytics(gamma: float, grid: TimeGrid) -> DephasingAnalytics:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    times = grid.times
    pop = PopulationSeries(grid, dephasing_population(gamma, times))
    raw = 2.0 * gamma * np.exp(-2.0 * gamma * times)
    total = float(np.sum(raw) * grid.dt)
    dist = TFDistribution(
        times=times,
        density=raw / total,
        dt=grid.dt,
        normalization=1.0 / total,
        kind=KIND_TOA,
    )
    outside = float(
        np.exp(-2.0 * gamma * grid.t_end) + (1.0 - np.exp(-2.0 * gamma * grid.t_start))
    )
    return DephasingAnalytics(
        gamma=gamma,
        population=pop,
        distribution=dist,
        exact_mean=0.5 / gamma,
        exact_std=0.5 / gamma,
        delta_theta=0.5,
        trace_term=2.0 * gamma * gamma,
        truncation_mass=outside,
    )


@dataclass(frozen=True)
class HadamardModel:
    """Hadamard-axis rotation with a sigma_z dephasing channel.

    H = (omega0/2)(sigma_x + sigma_z)/sqrt(2) plus the gks channel
    (gamma/2)(sigma_z rho sigma_z - rho). The current-like operator of
    the |+> population is -(omega0/(2 sqrt 2)) sigma_y - (gamma/2) sigma_x
    and Tr[(L^dag M_+)^2] = omega0^2/4 + gamma^2/2.
    """

    omega0: float
    gamma: float
    model: LindbladModel
    current_op: np.ndarray
    trace_term: float
    target: np.ndarray


def hadamard_model(omega0: float, gamma: float = 0.0) -> HadamardModel:
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    h = 0.5 * omega0 * operators.hadamard()
    channels = ((SIGMA_Z, gamma),) if gamma > 0 else ()
    model = LindbladModel(
        hamiltonian=constant_hamiltonian(h), channels=channels, form=GKS
    )
    current = -(omega0 / (2.0 * np.sqrt(2.0))) * SIGMA_Y - 0.5 * gamma * SIGMA_X
    return HadamardModel(
        omega0=omega0,
        gamma=gamma,
        model=model,
        current_op=current,
        trace_term=omega0 ** 2 / 4.0 + gamma ** 2 / 2.0,
        target=operators.projector_from_state(operators.plus_state()),
    )
