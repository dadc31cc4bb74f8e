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

Frequencies are angular (rad per time unit, hbar = 1).

The closed-form moments of the constant drive and of the counterdiabatic
sweep are exact sums: closed forms over the pieces between the analytic
roots of the rate, and term-by-term integrals of Taylor series. The
polynomial and gaussian drives enumerate every sign change of the rate
exactly (zeros of the drive, and inversions of the monotone pieces of W)
and integrate between them with one fixed Gauss-Legendre rule. Nothing
here imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators, tf
from .dynamics import (
    HamiltonianSchedule,
    LindbladModel,
    TimeGrid,
    Trajectory,
    constant_hamiltonian,
    propagate_schrodinger,
)
from .errors import DegenerateDistributionError, IntegrationError
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z
from .tf import Moments, PopulationSeries, TFDistribution

# Gauss-Legendre order of the moment integrals over pieces spanning at
# most pi/8 of W. 8 is the smallest order that holds the moments of the
# old adaptive quadrature to 1e-13 relative; 6 is off by up to 2e-9.
_GL_ORDER = 8
# W may span at most this much on a moment window: 2^20 pieces of pi/8
_MAX_ANGLE_SPAN = 2.0 ** 17 * np.pi
# pieces integrated per numpy pass, which bounds the memory of a long window
_CHUNK = 2 ** 14
_SQRT_HALF = math.sqrt(0.5)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

# signed Taylor coefficients of cos (even n) and sin (odd n): (-1)^(n//2)/n!
_TAYLOR = np.array([(-1.0) ** (n // 2) / math.factorial(n) for n in range(50)])


# ---------------------------------------------------------------------------
# control waveforms


class ControlWaveform:
    """Drive frequency w(t) and angle W(t) = int_0^t w, in closed form from
    ``kind`` and ``params`` alone (the gaussian's W through ``_ndtr``). The
    classmethods validate and build the constant, polynomial and gaussian."""

    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = dict(params)

    def omega(self, t):
        t, p = np.asarray(t, dtype=float), self.params
        if self.kind == "constant":
            return np.full_like(t, p["omega0"], dtype=float)
        if self.kind == "polynomial":
            a = p["coefficients"]
            return p["omega0"] + sum(a[k] * t ** (k + 1) for k in range(4))
        t0, sigma = self._gaussian()
        return (p["area"] / math.sqrt(2.0 * math.pi * sigma * sigma)
                * np.exp(-((t - t0) ** 2) / (2.0 * sigma * sigma)))

    def cumulative(self, t):
        t, p = np.asarray(t, dtype=float), self.params
        if self.kind == "constant":
            return p["omega0"] * t
        if self.kind == "polynomial":
            a = p["coefficients"]
            return p["omega0"] * t + sum(a[k] * t ** (k + 2) / (k + 2) for k in range(4))
        t0, sigma = self._gaussian()
        clipped = 0.5 * math.erfc(t0 / sigma * _SQRT_HALF)  # _ndtr(-t0 / sigma), to the bit
        return p["area"] * (_ndtr((t - t0) / sigma) - clipped)

    def _gaussian(self) -> tuple[float, float]:
        if self.kind != "gaussian":
            raise ValueError(f"no closed form for a {self.kind!r} drive")
        return self.params["t0"], self.params["sigma"]

    @classmethod
    def constant(cls, omega0: float) -> "ControlWaveform":
        operators.assert_finite(omega0=omega0)
        return cls("constant", {"omega0": omega0})

    @classmethod
    def polynomial(cls, omega0: float, coefficients) -> "ControlWaveform":
        """w(t) = omega0 + sum_p a_p t^p with a = (a_1, ..., a_4)."""
        a = np.asarray(coefficients, dtype=float)
        if a.shape != (4,):
            raise ValueError("expected exactly 4 polynomial coefficients")
        operators.assert_finite(omega0=omega0, coefficients=a)
        return cls("polynomial", {"omega0": omega0, "coefficients": tuple(a)})

    @classmethod
    def gaussian_pulse(cls, t0: float, sigma: float,
                       area: float = np.pi) -> "ControlWaveform":
        """Normalized gaussian drive of total angle ``area`` centered at t0."""
        operators.assert_finite(t0=t0, sigma=sigma, area=area)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if sigma * sigma < np.finfo(float).tiny:  # the norm would divide by 0
            raise ValueError(f"sigma {sigma:g} is too small: its square underflows")
        return cls("gaussian", {"t0": t0, "sigma": sigma, "area": area})


def grid_phase(times: np.ndarray, drive) -> tuple[float, bool]:
    """The largest phase a drive turns by between neighbouring grid points,
    and whether the grid resolves it: whether that phase is below pi. It is
    W's step for a ``ControlWaveform``; for an (n, d, d) table of H (one
    matrix if constant), the largest eigenvalue spread times the step."""
    if isinstance(drive, ControlWaveform):
        phase = float(np.max(np.abs(np.diff(drive.cumulative(times)))))
    else:
        levels = np.linalg.eigvalsh(drive)
        phase = float(np.max(levels[:, -1] - levels[:, 0])) * float(times[1] - times[0])
    return phase, phase < np.pi


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
    return HamiltonianSchedule(
        2, batch=lambda ts: 0.5 * waveform.omega(ts)[:, None, None] * SIGMA_X)


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
    angle = waveform.cumulative(t)
    return 0.5 * waveform.omega(t) * (
        np.cos(init.theta) * np.sin(angle)
        - np.sin(init.theta) * np.cos(angle) * np.sin(init.phi)
    )


def two_level_moments_closed(waveform: ControlWaveform, init: TwoLevelInitial,
                             t_start: float, t_end: float) -> Moments:
    """Mean and spread of the closed-form flow density |dp_1/dt| on a window.

    The rate is (w/2) R sin(W - delta) with R cos(delta) = cos(theta) and
    R sin(delta) = sin(theta) sin(phi), so it changes sign where W crosses
    delta + k pi and where w does. For a constant drive those roots are
    t = (delta + k pi)/w and the integrals of t^p |rate| (p = 0, 1, 2) are
    exact sums (``_constant_drive_moments``), whatever the number of sign
    changes. For polynomial and gaussian drives ``_drive_cuts`` finds every
    sign change: the real roots of w, and the solutions of
    W = delta + k pi on each piece where W is monotone. Between the cuts
    ``_piece_moments`` applies one Gauss-Legendre rule, and no scipy is
    involved. ``IntegrationError`` is raised when W spans more than 2^17 pi
    on the window (more than 2^20 pieces of pi/8). A constant drive whose
    angle omega0 t is not finite on the window, and any other waveform
    kind, are refused with ``ValueError``.
    """
    if waveform.kind not in ("constant", "polynomial", "gaussian"):
        raise ValueError(f"no closed-form moments for a {waveform.kind!r} drive")
    if t_start < 0:
        raise ValueError("transfer windows start at t >= 0")
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")
    if waveform.kind == "constant":
        omega = waveform.params["omega0"]
        # the largest angle on the window, as Python floats: inf, not a warning
        if not math.isfinite(abs(float(omega)) * float(t_end)):
            raise ValueError(f"the drive angle omega0 t_end = {omega:g} * {t_end:g} "
                             "is not finite")
        return _constant_drive_moments(omega, init, t_start, t_end)
    delta = np.arctan2(np.sin(init.theta) * np.sin(init.phi), np.cos(init.theta))
    cuts = _drive_cuts(waveform, delta, t_start, t_end)
    mean, var = _piece_moments(waveform, init, cuts)
    return Moments(mean=mean, std=float(np.sqrt(max(var, 0.0))))


def _constant_drive_moments(omega: float, init: TwoLevelInitial, t0: float,
                            t1: float) -> Moments:
    """Mean and spread of |rate| on [t0, t1] for a constant drive.

    In s = (t - t0)/L on [0, 1], with L = t1 - t0, the rate is
    (omega/2) R sin(u0 + W s) up to its sign, where W = |omega| L and u0 is
    the phase at t0 reduced through its sine and cosine, so a window far
    from t = 0 keeps the digits of its phase. The roots s = (k pi - u0)/W
    cut [0, 1] into pieces on which the sine keeps its sign. The interior
    pieces are full half periods whose centres form an arithmetic
    progression, so their sums are closed forms in the number of pieces;
    the two end pieces go through ``_sine_piece_integrals``. The pieces are
    summed about the mean (``_about_mean``) in units of L, so the spread
    neither cancels nor overflows, and time and memory do not grow with
    the number of sign changes.
    """
    if omega == 0.0:
        raise DegenerateDistributionError("a zero drive never moves the population")
    amplitude = np.hypot(np.cos(init.theta), np.sin(init.theta) * np.sin(init.phi))
    delta = np.arctan2(np.sin(init.theta) * np.sin(init.phi), np.cos(init.theta))
    w = abs(omega)
    d = delta if omega > 0 else -delta  # sin(omega t - delta) = -sin(w t + delta)
    span = t1 - t0
    big_w = w * span
    u0 = _reduced_phase(w, t0, d)
    k_lo = np.ceil(u0 / np.pi)
    k_hi = np.floor((u0 + big_w) / np.pi)
    if k_hi < k_lo or big_w == 0.0:
        centre, j0, j1, j2 = _sine_piece_integrals(np.array([0.0]), np.array([1.0]),
                                                   big_w, -u0)
    else:
        r_lo, r_hi = np.clip((np.pi * np.array([k_lo, k_hi]) - u0) / big_w, 0.0, 1.0)
        centre, j0, j1, j2 = _sine_piece_integrals(np.array([0.0, r_hi]),
                                                   np.array([r_lo, 1.0]), big_w, -u0)
        m = k_hi - k_lo
        if m > 0:
            # m pieces of half-width pi/(2W), centred where |sin| = 1; their
            # centres lie pi/W apart, and m pi/W <= 1
            a0, _, a2 = _even_part_integrals(np.array([0.5 * np.pi / big_w]), big_w)[:, 0]
            centre = np.append(centre, 0.5 * (r_lo + r_hi))
            j0, j1 = np.append(j0, m * a0), np.append(j1, 0.0)
            j2 = np.append(j2, m * a2 + (np.pi / big_w * m) ** 2 * (m - 1.0 / m) / 12.0 * a0)
    tf._flow_mass(0.5 * big_w * amplitude * np.sum(j0))
    _, mean, spread = _about_mean(centre, j0, j1, j2)
    return Moments(mean=float(t0 + span * mean),
                   std=float(span * np.sqrt(max(spread / np.sum(j0), 0.0))))


def _reduced_phase(w: float, t0: float, d: float) -> float:
    """w t0 - d reduced through its sine and cosine, plus the rounding error
    of w t0 (Dekker's exact product, which needs no fused multiply-add) and
    of the difference: a window far from t = 0 keeps the digits of its
    phase that the rounding of w t0 would lose. A product too large to
    split keeps its rounding."""

    def halves(x: float) -> tuple[float, float]:
        c = 134217729.0 * x  # 2^27 + 1: a 26-bit high half
        return c - (c - x), x - (c - (c - x))

    p, v = w * t0, w * t0 - d
    (wh, wl), (th, tl) = halves(w), halves(t0)
    error = ((wh * th - p) + wh * tl + wl * th) + wl * tl + ((p - v) - d)
    return float(np.arctan2(np.sin(v), np.cos(v))) + (error if math.isfinite(error) else 0.0)


def _sine_piece_integrals(lo: np.ndarray, hi: np.ndarray, w: float,
                          d: float) -> tuple[np.ndarray, ...]:
    """Centres c of the pieces [lo, hi], on which sin(w t - d) keeps its
    sign, and on each the integrals of (t - c)^p |sin(w t - d)|, p = 0, 1, 2.

    With half-width h and t = c + x, sin(w t - d) is
    sin(u) cos(w x) + cos(u) sin(w x) with u = w c - d, and only the even
    parts of x^j cos(w x), x sin(w x), x^2 cos(w x) survive on [-h, h].
    """
    c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sin_u, cos_u = np.sin(w * c - d), np.cos(w * c - d)
    s = np.abs(sin_u)
    a0, a1, a2 = _even_part_integrals(h, w)
    return c, s * a0, np.sign(sin_u) * cos_u * a1, s * a2


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
        if np.sum(j0) > 0.0:
            chunks.append(_about_mean(centre, j0, j1, j2))
    mass, mean, spread = np.array(chunks).reshape(-1, 3).T
    total = tf._flow_mass(np.sum(mass))
    _, overall, spread = _about_mean(mean, mass, np.zeros_like(mass), spread)
    return float(overall), float(spread / total)


def _about_mean(centre: np.ndarray, j0: np.ndarray, j1: np.ndarray,
                j2: np.ndarray) -> tuple[float, float, float]:
    """Mass, mean and summed squared deviation about the mean of pieces
    with centres ``centre`` and integrals j_p of (t - centre)^p f, by
    parallel axes; the mass must be positive."""
    mass = np.sum(j0)
    mean = (np.sum(centre * j0) + np.sum(j1)) / mass
    d = centre - mean
    return mass, mean, np.sum(j2 + d * (2.0 * j1 + d * j0))


# ---------------------------------------------------------------------------
# counterdiabatic (exactly-following) two-level sweep


@dataclass(frozen=True)
class STAConfig:
    """Angle schedule theta(t) = (pi/2)(t/T)^alpha at splitting omega0."""

    alpha: float
    t_final: float
    omega0: float

    def __post_init__(self):
        operators.assert_finite(alpha=self.alpha, t_final=self.t_final,
                                omega0=self.omega0)
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
        th = config.theta(ts)[:, None, None]
        td = config.theta_dot(ts)[:, None, None]
        return 0.5 * (-w0 * (np.sin(th) * SIGMA_X + np.cos(th) * SIGMA_Z) + td * SIGMA_Y)

    return HamiltonianSchedule(2, batch=batch)


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

    The density on the grid is the interval-mass distribution of the
    closed-form accumulated flow (``tf_from_population`` of
    ``sta_flow_cdf``), which stays finite for alpha < 1 where the
    pointwise density diverges at t = 0; alpha = 0 leaves the flow flat.
    The moments come from sta_moments_closed, not from the grid.
    """
    if grid.t_start < 0 or grid.t_end > config.t_final * (1 + 1e-12):
        raise ValueError("grid must lie within [0, t_final]")
    flow = PopulationSeries(grid, sta_flow_cdf(config, grid.times))
    return tf.tf_from_population(flow), sta_moments_closed(config)


def sta_moments_closed(config: STAConfig) -> Moments:
    """Mean and spread of the arrival distribution, as exact series.

    In s = t/T the arrival is s = u^(1/alpha), where u has the density
    (pi/2) cos(pi u/2) on [0, 1], and the spread is formed about the end
    of [0, 1] the mass sits next to, so that it never cancels:

    * alpha < 1, mass near s = 0: in u = 1 - v the Beta integrals give

          E[s^p] = sum_k (-1)^k prod_{j=1}^{2k+2} (pi/2) alpha / (p + j alpha),

      and var = E[s^2] - E[s]^2, where E[s]^2 is the smaller term;
    * alpha >= 1, mass near s = 1: y = 1 - s has E[y] = int_0^1 F ds and
      E[y^2] = 2 int_0^1 (1 - s) F ds, where the Taylor series of
      F = sin(pi u/2) integrates term by term. In units of 1/alpha,
      alpha E[y] = sum_n c_n / (n + 1/alpha) and
      alpha^2 E[y^2] / 2 = sum_n c_n / ((n + 1/alpha)(n + 2/alpha)), with
      c_n = (-1)^k (pi/2)^n / n! over odd n = 2k + 1.

    25 terms reach rounding error either way, alpha = 0 gives the frozen
    limit, and no term overflows for any finite alpha.
    """
    alpha, big_t = config.alpha, config.t_final
    if alpha < 1.0:
        j = np.arange(1.0, _TAYLOR.size + 1.0)
        signs = (-1.0) ** np.arange(_TAYLOR.size // 2)
        e1, e2 = (float(np.cumprod(0.5 * np.pi * alpha / (p + j * alpha))[1::2] @ signs)
                  for p in (1.0, 2.0))
        return Moments(mean=big_t * e1, std=big_t * float(np.sqrt(max(e2 - e1 * e1, 0.0))))
    n = np.arange(1, _TAYLOR.size, 2)
    c = _TAYLOR[n] * (0.5 * np.pi) ** n
    a0 = float(np.sum(c / (n + 1.0 / alpha)))
    a2 = float(np.sum(c / ((n + 1.0 / alpha) * (n + 2.0 / alpha))))
    return Moments(mean=big_t * (1.0 - a0 / alpha),
                   std=big_t / alpha * float(np.sqrt(max(2.0 * a2 - a0 * a0, 0.0))))


def sta_grid(config: STAConfig, grid: TimeGrid) -> TimeGrid:
    """The grid on which H is finite: for alpha < 1, where the counterdiabatic
    term diverges at t = 0, a grid from there starts half a step in."""
    if config.alpha < 1.0 and grid.t_start <= 0.0:
        return TimeGrid(grid.t_start + 0.5 * grid.dt, grid.t_end, grid.n_points)
    return grid


def sta_propagate(config: STAConfig, grid: TimeGrid,
                  substeps: int | None = None) -> Trajectory:
    """Numerically propagate the sweep on ``sta_grid``, from the
    instantaneous eigenstate at its first time (the exact solution passes
    through it). The trajectory's grid records the times actually used."""
    grid = sta_grid(config, grid)
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
        operators.assert_finite(omega1=self.omega1, omega2=self.omega2,
                                delta_initial=self.delta_initial,
                                delta_final=self.delta_final, t_final=self.t_final)
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("couplings must be positive")
        if not (self.delta_initial < 0.0 < self.delta_final):
            raise ValueError("the ramp must cross resonance: delta_i < 0 < delta_f")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if not math.isfinite(self.delta_final - self.delta_initial):
            raise ValueError(f"the ramp from delta_initial {self.delta_initial:g} to "
                             f"delta_final {self.delta_final:g} spans more than the "
                             f"largest float")

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
        d = config.detuning(ts)
        out = np.zeros((d.size, 3, 3), dtype=complex)
        out[:, 0, 1] = out[:, 1, 0] = o1
        out[:, 1, 2] = out[:, 2, 1] = o2
        out[:, 1, 1] = d
        return out

    return HamiltonianSchedule(3, batch=batch)


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
    """Pure sigma_z dephasing, a sigma_z channel at rate gamma:
    d rho/dt = gamma (sigma_z rho sigma_z - rho)
    = -(gamma/2)[sigma_z, [sigma_z, rho]]."""
    operators.assert_finite(gamma=gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return LindbladModel(
        hamiltonian=constant_hamiltonian(np.zeros((2, 2), dtype=complex)),
        channels=((SIGMA_Z, gamma),),
    )


@dataclass(frozen=True)
class DephasingAnalytics:
    """Closed-form quantities of the dephasing transition |+> -> |->.

    The population is p_-(t) = (1 - exp(-2 gamma t))/2 and the flow
    density 2 gamma exp(-2 gamma t); mean and spread both equal
    1/(2 gamma). The grid distribution is renormalized over the window
    and ``truncation_mass`` records the flow mass beyond it. The trace
    term Tr[(L^dag M_-)^2] = 2 gamma^2 is not stored: the CLI forms it from
    L^dag(M) (``dynamics.adjoint_on_table``). The rate gamma is the
    argument of ``dephasing_analytics`` and is not stored either.
    """

    population: PopulationSeries
    distribution: TFDistribution
    exact_mean: float
    exact_std: float
    delta_theta: float
    truncation_mass: float


def dephasing_population(gamma: float, t):
    return 0.5 * (1.0 - np.exp(-2.0 * gamma * np.asarray(t, dtype=float)))


def dephasing_analytics(gamma: float, grid: TimeGrid) -> DephasingAnalytics:
    operators.assert_finite(gamma=gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    times = grid.times
    pop = PopulationSeries(grid, dephasing_population(gamma, times))
    dist = tf.tf_from_rate(grid, 2.0 * gamma * np.exp(-2.0 * gamma * times))
    outside = float(
        np.exp(-2.0 * gamma * grid.t_end) + (1.0 - np.exp(-2.0 * gamma * grid.t_start))
    )
    return DephasingAnalytics(
        population=pop,
        distribution=dist,
        exact_mean=0.5 / gamma,
        exact_std=0.5 / gamma,
        delta_theta=0.5,
        truncation_mass=outside,
    )


@dataclass(frozen=True)
class HadamardModel:
    """Hadamard-axis rotation with a sigma_z dephasing channel.

    H = (omega0/2)(sigma_x + sigma_z)/sqrt(2) plus a sigma_z channel at
    rate gamma/2, (gamma/2)(sigma_z rho sigma_z - rho). The current-like
    operator of the |+> population is
    -(omega0/(2 sqrt 2)) sigma_y - (gamma/2) sigma_x, a closed-form
    reference for L^dag(M_+), and Tr[(L^dag M_+)^2] = omega0^2/4 +
    gamma^2/2. The CLI forms both from L^dag(M) itself
    (``dynamics.adjoint_on_table``). omega0 and gamma are the arguments
    of ``hadamard_model`` and are not stored.
    """

    model: LindbladModel
    current_op: np.ndarray
    target: np.ndarray


def hadamard_model(omega0: float, gamma: float = 0.0) -> HadamardModel:
    """The Hadamard rotation at omega0, its sigma_z channel at rate gamma/2."""
    operators.assert_finite(omega0=omega0, gamma=gamma)
    if not omega0 > 0:
        raise ValueError("omega0 must be positive")
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    h = 0.5 * omega0 * operators.hadamard()
    channels = ((SIGMA_Z, 0.5 * gamma),) if gamma > 0 else ()
    model = LindbladModel(hamiltonian=constant_hamiltonian(h), channels=channels)
    current = -(omega0 / (2.0 * np.sqrt(2.0))) * SIGMA_Y - 0.5 * gamma * SIGMA_X
    return HadamardModel(
        model=model,
        current_op=current,
        target=operators.projector_from_state(operators.plus_state()),
    )
