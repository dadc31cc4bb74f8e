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
roots of the rate, and term-by-term integrals of Taylor series. Only
drives without analytic roots (polynomial, gaussian, custom) use scipy's
adaptive quadrature, which is imported there and nowhere else in this
module.
"""

from __future__ import annotations

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

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)

# signed Taylor coefficients of cos (even n) and sin (odd n): (-1)^(n//2)/n!
_TAYLOR = np.array([(-1.0) ** (n // 2) / math.factorial(n) for n in range(50)])


# ---------------------------------------------------------------------------
# control waveforms


class ControlWaveform:
    """Drive frequency w(t) together with its accumulated angle W(t).

    W is in closed form for the constant, polynomial and gaussian kinds;
    custom waveforms without a supplied antiderivative fall back to
    adaptive quadrature (absolute error <= 1e-10).
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
        from scipy.special import ndtr

        norm = area / np.sqrt(2.0 * np.pi * sigma * sigma)

        def omega(t):
            return norm * np.exp(-((t - t0) ** 2) / (2.0 * sigma * sigma))

        def cumulative(t):
            return area * (ndtr((t - t0) / sigma) - ndtr(-t0 / sigma))

        return cls("gaussian", omega, cumulative,
                   {"t0": t0, "sigma": sigma, "area": area})

    @classmethod
    def custom(cls, omega: Callable[[float], float],
               cumulative: Callable[[float], float] | None = None) -> "ControlWaveform":
        omega_v = np.vectorize(omega, otypes=[float])
        if cumulative is None:
            from scipy.integrate import quad

            def cumulative_v(t):
                flat = np.atleast_1d(np.asarray(t, dtype=float))
                out = np.array([quad(omega, 0.0, x, **_QUAD_OPTS)[0] for x in flat])
                return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])
        else:
            cumulative_v = np.vectorize(cumulative, otypes=[float])
        return cls("custom", omega_v, cumulative_v, {})


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
    changes. Other drives are probed on a grid fine enough that W moves by
    at most pi/8 between neighbouring points; each sign change found is
    refined by brentq and each piece integrated by adaptive quadrature.
    ``IntegrationError`` is raised when that needs more than 2^20 probe
    intervals.
    """
    if t_start < 0:
        raise ValueError("transfer windows start at t >= 0")
    if waveform.kind == "constant":
        integrals = _constant_drive_integrals(waveform.params["omega0"], init,
                                              t_start, t_end)
    else:
        integrals = _probed_integrals(waveform, init, t_start, t_end)
    total = integrals[0]
    if total <= 1e-14:
        raise DegenerateDistributionError("flow density vanishes on this window")
    mus = integrals[1:] / total
    var = max(mus[1] - mus[0] ** 2, 0.0)
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


def _probed_integrals(waveform: ControlWaveform, init: TwoLevelInitial,
                      t0: float, t1: float) -> np.ndarray:
    """Integrals of t^p |rate| (p = 0, 1, 2) for a drive without closed-form
    roots, between sign changes bracketed on a probe grid."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

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

    def rate(t):
        return two_level_rate(waveform, init, t)

    signs = np.sign(_rate(waveform.omega(probe), angle, init))
    nonzero = np.flatnonzero(signs)
    flips = signs[nonzero[1:]] != signs[nonzero[:-1]]
    roots = [brentq(rate, probe[i], probe[j], xtol=1e-14)
             for i, j in zip(nonzero[:-1][flips], nonzero[1:][flips])]
    cuts = sorted({t0, t1, *roots})

    # within a segment t^p * rate has the constant sign of rate (t >= 0),
    # so |rate| integrals are signed integrals flipped segment-wise
    integrals = np.zeros(3)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        seg = np.array([quad(lambda t, p=p: t ** p * rate(t), lo, hi, **_QUAD_OPTS)[0]
                        for p in range(3)])
        integrals += seg if seg[0] >= 0 else -seg
    return integrals


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
