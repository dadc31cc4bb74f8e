"""Reference values computed apart from tflow.

Nothing here imports tflow: every function solves the physics again with
numpy/scipy from the model's definition, so a checker that compares a
tflow output against these numbers is not comparing the program with
itself. The references are computed once per run, before the timed
region.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.special import ndtr

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CHEB = 1.0 / (3.0 * np.sqrt(3.0))


# ---------------------------------------------------------------------------
# constant drive H = (w/2) sigma_x: the rate is a shifted sinusoid


def two_level_state(omega: float, theta: float, phi: float, t) -> np.ndarray:
    """psi(t) = exp(-i w t sigma_x / 2) psi0, as an (n, 2) array."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    c0 = np.cos(theta / 2.0)
    c1 = np.exp(1j * phi) * np.sin(theta / 2.0)
    c, s = np.cos(omega * t / 2.0), np.sin(omega * t / 2.0)
    return np.stack([c * c0 - 1j * s * c1, c * c1 - 1j * s * c0], axis=1)


def two_level_p1(omega, theta, phi, t) -> np.ndarray:
    return np.abs(two_level_state(omega, theta, phi, t)[:, 1]) ** 2


def two_level_rate(omega, theta, phi, t) -> np.ndarray:
    """dp_1/dt = 2 Re(conj(psi_1) dpsi_1/dt) with dpsi_1/dt = -i (w/2) psi_0."""
    psi = two_level_state(omega, theta, phi, t)
    return omega * np.imag(np.conj(psi[:, 1]) * psi[:, 0])


def _sin_power_antiderivative(p: int, w: float, delta: float, t):
    """Antiderivative of t^p sin(w t - delta) for p = 0, 1, 2."""
    u = w * t - delta
    if p == 0:
        return -np.cos(u) / w
    if p == 1:
        return -t * np.cos(u) / w + np.sin(u) / w ** 2
    return -t * t * np.cos(u) / w + 2.0 * t * np.sin(u) / w ** 2 + 2.0 * np.cos(u) / w ** 3


def abs_sin_moments(w: float, delta: float, t0: float, t1: float):
    """Mean and std of the density proportional to |sin(w t - delta)| on
    [t0, t1], summed exactly over the pieces between the roots
    t = (delta + k pi) / w."""
    k_lo = np.ceil((w * t0 - delta) / np.pi)
    k_hi = np.floor((w * t1 - delta) / np.pi)
    roots = (delta + np.pi * np.arange(k_lo, k_hi + 1)) / w
    cuts = np.concatenate([[t0], roots[(roots > t0) & (roots < t1)], [t1]])
    lo, hi = cuts[:-1], cuts[1:]
    sign = np.sign(np.sin(w * 0.5 * (lo + hi) - delta))
    mu = [float(np.sum(sign * (_sin_power_antiderivative(p, w, delta, hi)
                               - _sin_power_antiderivative(p, w, delta, lo))))
          for p in range(3)]
    mean = mu[1] / mu[0]
    return mean, float(np.sqrt(max(mu[2] / mu[0] - mean * mean, 0.0)))


def constant_drive_moments(omega, theta, phi, t0, t1):
    """Exact closed-form TF moments of the constant sigma_x drive.

    The rate (w/2)[cos(th) sin(wt) - sin(th) sin(ph) cos(wt)] is
    (w/2) R sin(wt - delta) with R cos(delta) = cos(th) and
    R sin(delta) = sin(th) sin(ph).
    """
    delta = np.arctan2(np.sin(theta) * np.sin(phi), np.cos(theta))
    return abs_sin_moments(omega, delta, t0, t1)


# ---------------------------------------------------------------------------
# polynomial and gaussian drives


def polynomial_angle(omega0: float, coefficients, t) -> np.ndarray:
    """W(t) = int_0^t (w0 + sum_p a_p s^p) ds, term by term."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(coefficients, dtype=float)
    return omega0 * t + sum(a[p] * t ** (p + 2) / (p + 2) for p in range(a.size))


def gaussian_pulse_p1(t0: float, sigma: float, t, area: float = np.pi):
    """p_1 = sin^2(W/2) for a gaussian pulse of the given area from |0>."""
    w = area * (ndtr((np.asarray(t, dtype=float) - t0) / sigma) - ndtr(-t0 / sigma))
    return np.sin(w / 2.0) ** 2


# ---------------------------------------------------------------------------
# counterdiabatic sweep


def sta_population(alpha, t_final, t) -> np.ndarray:
    theta = 0.5 * np.pi * (np.asarray(t, dtype=float) / t_final) ** alpha
    return np.cos(theta / 2.0 - np.pi / 4.0) ** 2


def sta_flow_cdf(alpha, t_final, t) -> np.ndarray:
    return np.sin(0.5 * np.pi * (np.asarray(t, dtype=float) / t_final) ** alpha)


def sta_moments(alpha: float, t_final: float):
    """Arrival moments of F(t) = sin((pi/2)(t/T)^alpha).

    alpha = 1 is in closed form. Otherwise quadrature in u = (t/T)^alpha,
    where dF = (pi/2) cos(pi u / 2) du is smooth and t = T u^(1/alpha).
    """
    if alpha == 1.0:
        mean = t_final * (1.0 - 2.0 / np.pi)
        second = t_final ** 2 * (1.0 - 8.0 / np.pi ** 2)
    else:
        def mu(p):
            val, _ = quad(lambda u: u ** (p / alpha) * 0.5 * np.pi * np.cos(0.5 * np.pi * u),
                          0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
            return t_final ** p * val
        mean, second = mu(1), mu(2)
    return mean, float(np.sqrt(max(second - mean * mean, 0.0)))


# ---------------------------------------------------------------------------
# open systems


def dephasing_population(gamma, t) -> np.ndarray:
    return 0.5 * (1.0 - np.exp(-2.0 * gamma * np.asarray(t, dtype=float)))


def hadamard_bloch(omega0: float, gamma: float, t):
    """Bloch vector under H = (w0/2)(sx + sz)/sqrt 2 with sigma_z dephasing
    at gks rate gamma, from |0>: r(t) = expm(A t) (0, 0, 1).

    dr/dt = W x r - gamma (x, y, 0) with W = w0 (1, 0, 1)/sqrt 2.
    Returns r and its first and third time derivatives, each (n, 3).
    """
    wx = wz = omega0 / np.sqrt(2.0)
    a = np.array([[-gamma, -wz, 0.0], [wz, -gamma, -wx], [0.0, wx, 0.0]])
    r0 = np.array([0.0, 0.0, 1.0])
    t = np.atleast_1d(np.asarray(t, dtype=float))
    step = expm(a * (t[1] - t[0])) if t.size > 1 else None
    r = np.empty((t.size, 3))
    r[0] = expm(a * t[0]) @ r0
    for i in range(1, t.size):
        # uniform grids only: one propagator reused for every step
        r[i] = step @ r[i - 1]
    return r, r @ a.T, r @ np.linalg.matrix_power(a, 3).T


def hadamard_trace_term(omega0: float, gamma: float) -> float:
    """|Tr(L^dag(M_+)^2)| with L^dag(M) = i[H, M] + (g/2)(sz M sz - M)."""
    h = 0.5 * omega0 * (SX + SZ) / np.sqrt(2.0)
    m = 0.5 * (np.eye(2) + SX)
    c = 1j * (h @ m - m @ h) + 0.5 * gamma * (SZ @ m @ SZ - m)
    return abs(float(np.real(np.trace(c @ c))))


def dephasing_trace_term(gamma: float) -> float:
    """|Tr(L^dag(M_-)^2)| for -(g/2)[sz, [sz, rho]] acting on M_-."""
    m = 0.5 * (np.eye(2) - SX)
    c = -0.5 * gamma * (SZ @ (SZ @ m - m @ SZ) - (SZ @ m - m @ SZ) @ SZ)
    return abs(float(np.real(np.trace(c @ c))))


# ---------------------------------------------------------------------------
# three-level Lambda ramp


def lambda_solution(omega1, omega2, delta_i, delta_f, t_final, times):
    """Tight-tolerance DOP853 solution of the Lambda ramp from |1>.

    Returns (populations (n, 3), dp_2/dt (n,), d^3 p_2/dt^3 bound): the
    rate is <psi| i[H, P_2] |psi>, and max |d^2/dt^2 (dp_2/dt)| comes from
    second differences of the rate on a grid four times finer.
    """
    ramp = (delta_f - delta_i) / t_final

    def ham(t):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = h[1, 0] = 0.5 * omega1
        h[1, 2] = h[2, 1] = 0.5 * omega2
        h[1, 1] = delta_i + ramp * t
        return h

    def rhs(t, y):
        psi = y[:3] + 1j * y[3:]
        d = -1j * (ham(t) @ psi)
        return np.concatenate([d.real, d.imag])

    times = np.asarray(times, dtype=float)
    fine = np.linspace(times[0], times[-1], 4 * (times.size - 1) + 1)
    sol = solve_ivp(rhs, (times[0], times[-1]), [1.0, 0, 0, 0, 0, 0],
                    method="DOP853", t_eval=fine, rtol=1e-12, atol=1e-13)
    psi = (sol.y[:3] + 1j * sol.y[3:]).T
    p2 = np.zeros((3, 3))
    p2[1, 1] = 1.0
    rate = np.array([np.real(np.vdot(s, 1j * (ham(t) @ p2 - p2 @ ham(t)) @ s))
                     for t, s in zip(fine, psi)])
    h = fine[1] - fine[0]
    curvature = float(np.max(np.abs(rate[2:] - 2.0 * rate[1:-1] + rate[:-2]))) / h ** 2
    pops = np.abs(psi[::4]) ** 2
    return pops, rate[::4], curvature


# ---------------------------------------------------------------------------
# grid estimators, written out again from their definitions


def fd_density(p, dt):
    """|p_{j+1} - p_j| / dt normalized to unit mass (interval midpoints)."""
    dp = np.abs(np.diff(np.asarray(p, dtype=float)))
    return dp / dt / float(np.sum(dp))


def grid_moments(times, density, dt):
    mean = float(np.sum(times * density) * dt)
    second = float(np.sum(times * times * density) * dt)
    return mean, float(np.sqrt(max(second - mean * mean, 0.0)))


def midpoints(times):
    times = np.asarray(times, dtype=float)
    return 0.5 * (times[1:] + times[:-1])
