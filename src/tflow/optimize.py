"""Derivative-free shaping of polynomial drive waveforms.

The drive w(t) = omega0 + sum_p a_p t^p steers the two-level transfer
|0> -> |1>, whose final population and monotonicity enter the cost

    J(a) = (p_1(T) - 1)^2 + lambda_mono * N_false + lambda_reg * sum a_p^2,

with N_false the number of grid intervals on which the population does
not increase. N_false is an integer count, so the cost is deliberately
non-smooth; a Nelder-Mead simplex handles it where gradient methods
would stall. Runs are deterministic for a given configuration (the
initial simplex is built explicitly).

The simplex is a private numpy transcription of scipy's unbounded,
non-adaptive Nelder-Mead (``scipy.optimize.minimize(method="Nelder-Mead")``),
so shaping a drive imports no scipy. It takes the same steps in the same
floating-point order, and tests/test_optimize.py checks that its
coefficients, cost, iteration count and success flag equal scipy's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import models, operators
from .tf import Moments


@dataclass(frozen=True)
class OptimizeConfig:
    t_horizon: float
    omega0: float
    lambda_mono: float = 1.0
    lambda_reg: float = 0.0
    grid_points: int = 200
    initial_coefficients: tuple = (0.0, 0.0, 0.0, 0.0)
    max_iterations: int = 2000
    simplex_scale: float = 0.1
    tolerance: float = 1e-10

    def __post_init__(self):
        operators.assert_finite(
            t_horizon=self.t_horizon, omega0=self.omega0,
            lambda_mono=self.lambda_mono, lambda_reg=self.lambda_reg,
            initial_coefficients=self.initial_coefficients,
            simplex_scale=self.simplex_scale, tolerance=self.tolerance)
        if self.t_horizon <= 0:
            raise ValueError("t_horizon must be positive")
        if self.lambda_mono < 0 or self.lambda_reg < 0:
            raise ValueError("penalty weights must be >= 0")
        if self.grid_points < 10:
            raise ValueError("grid_points must be >= 10")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.simplex_scale <= 0:
            raise ValueError("simplex_scale must be positive")
        if len(self.initial_coefficients) != 4:
            raise ValueError("expected 4 initial coefficients")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizeConfig":
        """The config of a JSON object; an absent field keeps its default. A
        missing required key raises KeyError, an unknown key or a value not
        of its field's kind (``_field_value``) ValueError."""
        if not isinstance(data, dict):
            raise ValueError("the config must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for name, f in fields.items():
            if f.default is dataclasses.MISSING and name not in data:
                raise KeyError(name)
        return cls(**{k: _field_value(k, fields[k].type, v) for k, v in data.items()})


_KINDS = {"float": "a number", "int": "a whole number", "tuple": "a list of numbers"}


def _field_value(name: str, kind: str, value):
    """``value`` as a float, a whole-number int or a tuple of floats, by ``kind``."""
    try:
        if kind == "tuple":
            return tuple(float(c) for c in value)
        if kind == "int" and (isinstance(value, bool) or not float(value).is_integer()):
            raise ValueError
        return int(value) if kind == "int" else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {_KINDS[kind]}, not {value!r}") from None


def _grid(config: OptimizeConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_horizon, config.grid_points)


def _population(coefficients, config: OptimizeConfig, times: np.ndarray) -> np.ndarray:
    waveform = models.ControlWaveform.polynomial(config.omega0, coefficients)
    return models.two_level_population(waveform, models.TwoLevelInitial(), times)


def _refuse_aliasing(config: OptimizeConfig) -> None:
    """Refuse an initial drive that the cost grid does not resolve
    (``models.grid_phase``): p_1 = sin^2(W/2) has period 2 pi in W, so a
    grid on which W turns by pi or more aliases the population it scores."""
    waveform = models.ControlWaveform.polynomial(config.omega0,
                                                 config.initial_coefficients)
    step, resolved = models.grid_phase(_grid(config), waveform)
    if not resolved:
        raise ValueError(
            f"the initial drive turns by {step:.3g} rad between neighbouring points "
            f"of the {config.grid_points}-point cost grid, which samples only turns "
            "below pi; raise grid_points or lower omega0")


def n_false(coefficients, config: OptimizeConfig,
            times: np.ndarray | None = None) -> int:
    """Grid intervals on which p_1 fails to increase (delta p <= 0)."""
    ts = _grid(config) if times is None else times
    p1 = _population(coefficients, config, ts)
    return int(np.sum(np.diff(p1) <= 0.0))


def cost(coefficients, config: OptimizeConfig) -> float:
    a = np.asarray(coefficients, dtype=float)
    ts = _grid(config)
    p1 = _population(a, config, ts)
    miss = (p1[-1] - 1.0) ** 2
    return float(
        miss
        + config.lambda_mono * np.sum(np.diff(p1) <= 0.0)
        + config.lambda_reg * np.sum(a * a)
    )


class _EvaluationLimit(Exception):
    """The next cost evaluation would exceed the evaluation budget."""


def _nelder_mead(func, simplex, xatol: float, fatol: float, maxiter: int,
                 maxfev: int, start=None) -> tuple[np.ndarray, float, int, int, bool]:
    """Minimize ``func`` from an (n+1, n) simplex; (x, fun, nit, nfev, success).

    Reflection, expansion, outside and inside contraction and shrink use
    rho = 1, chi = 2, psi = sigma = 1/2 in the arithmetic form scipy
    uses, the vertices are re-sorted with ``np.argsort`` after each step,
    and an evaluation that would exceed ``maxfev`` ends the run before it
    is made, as in scipy. Unlike scipy, it refuses an initial vertex whose
    cost is not finite, evaluated without numpy's floating-point warnings,
    and then calls ``start()``, if given, before the first step.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationLimit
        nfev += 1
        return func(x)

    fsim = np.full(n + 1, np.inf)
    try:
        with np.errstate(all="ignore"):
            for k in range(n + 1):
                fsim[k] = f(sim[k])
    except _EvaluationLimit:
        pass
    if not np.all(np.isfinite(fsim[:nfev])):
        raise ValueError("the cost is not finite on the initial simplex of "
                         "initial_coefficients, simplex_scale, omega0 and t_horizon")
    if start is not None:
        start()
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _EvaluationLimit:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(np.min(fsim)), nit, nfev, nfev < maxfev and nit < maxiter


@dataclass(frozen=True)
class OptimizationResult:
    coefficients: np.ndarray
    cost: float
    p1_final: float
    n_false: int
    iterations: int
    converged: bool


def optimize_polynomial(config: OptimizeConfig) -> OptimizationResult:
    """Nelder-Mead over (a_1, ..., a_4) from an explicit initial simplex.

    Vertex p displaces coefficient a_p by simplex_scale * omega0 / T^p,
    which keeps the perturbations dimensionally commensurate. Stops on
    simplex size below ``tolerance`` or on the iteration cap; the best
    point found so far is returned either way, flagged by ``converged``.
    """
    x0 = np.asarray(config.initial_coefficients, dtype=float)
    try:
        scales = [config.simplex_scale * config.omega0 / config.t_horizon ** (p + 1)
                  for p in range(4)]
    except (ZeroDivisionError, OverflowError):
        scales = [np.inf]
    if not all(0 < abs(scale) < np.inf for scale in scales):
        raise ValueError(
            "simplex_scale * omega0 / t_horizon^p must be finite and nonzero")
    simplex = np.vstack([x0] + [x0 + np.eye(4)[i] * scales[i] for i in range(4)])

    a, fun, nit, _, success = _nelder_mead(
        lambda x: cost(x, config), simplex,
        xatol=config.tolerance,
        fatol=1e-15,
        maxiter=config.max_iterations,
        maxfev=max(4 * config.max_iterations, 1000),
        start=lambda: _refuse_aliasing(config),
    )

    p1 = _population(a, config, _grid(config))
    return OptimizationResult(
        coefficients=a,
        cost=fun,
        p1_final=float(p1[-1]),
        n_false=int(np.sum(np.diff(p1) <= 0.0)),
        iterations=nit,
        converged=success,
    )


@dataclass(frozen=True)
class AlphaRow:
    alpha: float
    mean: float
    std: float


def sta_alpha_report(alphas, t_final: float,
                     omega0: float = 1.0) -> list[AlphaRow]:
    """Arrival mean/spread of the counterdiabatic sweep per exponent,
    sorted by alpha; moments from the closed-form series."""
    rows = []
    for alpha in sorted(float(a) for a in alphas):
        if alpha <= 0:
            raise ValueError("alpha values must be positive")
        m: Moments = models.sta_moments_closed(
            models.STAConfig(alpha=alpha, t_final=t_final, omega0=omega0)
        )
        rows.append(AlphaRow(alpha=alpha, mean=m.mean, std=m.std))
    return rows
