"""Closed- and open-system propagation on uniform time grids.

The integrators are classic fixed-step RK4 with a substep refinement
factor chosen automatically from the generator's magnitude (and doubled
on retry if the measured norm/trace drift exceeds budget), so results
are reproducible for a given grid. Each doubling, with the drift that
caused it, and a final failure are logged at INFO level by the
``tflow.dynamics`` logger. Trajectories are immutable value
objects: a grid plus one state per grid point.

Current-like operators: for a projector M and generator L, the rate of
population change is d/dt Tr(rho M) = Tr(rho L^dag(M)); the closed-system
special case L^dag(M) = i[H, M] (hbar = 1) is exposed separately with an
explicit sign argument, since both sign conventions of -i[H, M] appear in
practice and only the magnitude matters for flow distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels, operators
from .errors import (
    DimensionMismatchError,
    IntegrationError,
    OperatorConstraintError,
)

DOUBLE_COMMUTATOR = "double_commutator"
GKS = "gks"

_DRIFT_BUDGET = 1e-8
_ASYM_BUDGET = 1e-10
_EIG_FLOOR = -1e-6
_LOCAL_ERROR_TARGET = 1e-9
_MAX_RETRIES = 5
_MAX_SUBSTEPS = 4096


def _log(message: str, *args) -> None:
    """Log at INFO level; logging is imported on the first retry, not with tflow."""
    import logging

    logging.getLogger(__name__).info(message, *args)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_points times on [t_start, t_end]."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("a time grid needs at least 2 points")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def midpoints(self) -> np.ndarray:
        t = self.times
        return 0.5 * (t[1:] + t[:-1])


class HamiltonianSchedule:
    """Hermitian generator H(t) of a fixed dimension.

    ``func(t)`` returns the (d, d) matrix at a scalar time. An optional
    ``batch(ts)`` evaluator returning (n, d, d) speeds up table sampling;
    ``constant=True`` short-circuits sampling entirely, and the
    propagators then build the map of one grid interval and reuse it.
    """

    def __init__(self, dim: int, func: Callable[[float], np.ndarray], *,
                 batch: Callable[[np.ndarray], np.ndarray] | None = None,
                 constant: bool = False):
        self.dim = dim
        self._func = func
        self._batch = batch
        self.constant = constant

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self._func(t), dtype=complex)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.constant:
            h = self(ts.flat[0] if ts.size else 0.0)
            return np.broadcast_to(h, (ts.size,) + h.shape)
        if self._batch is not None:
            return np.asarray(self._batch(ts), dtype=complex)
        out = np.empty((ts.size, self.dim, self.dim), dtype=complex)
        for i, t in enumerate(ts):
            out[i] = self(t)
        return out


def constant_hamiltonian(h: np.ndarray) -> HamiltonianSchedule:
    h = np.asarray(h, dtype=complex)
    operators.assert_hermitian(h, name="Hamiltonian")
    return HamiltonianSchedule(h.shape[0], lambda t: h, constant=True)


@dataclass(frozen=True)
class LindbladModel:
    """Generator of Markovian dynamics: Hamiltonian plus decay channels.

    Two dissipator conventions are supported. With channels (L_j, g_j):

    * ``double_commutator``: D(rho) = -sum_j g_j/2 [L_j, [L_j, rho]]
      (requires Hermitian L_j);
    * ``gks``: D(rho) = sum_j g_j/2 (L_j rho L_j^dag - {L_j^dag L_j, rho}/2).

    For Hermitian L the double-commutator form at rate g equals the gks
    form at rate 2g; e.g. a sigma_z channel at double-commutator rate g
    decays coherences as exp(-2 g t), the same channel at gks rate g as
    exp(-g t). Rates are pinned by the propagation tests.
    """

    hamiltonian: HamiltonianSchedule
    channels: Sequence[tuple[np.ndarray, float]] = field(default_factory=tuple)
    form: str = DOUBLE_COMMUTATOR

    def __post_init__(self):
        if self.form not in (DOUBLE_COMMUTATOR, GKS):
            raise ValueError(f"unknown Lindblad form {self.form!r}")
        for op, rate in self.channels:
            if rate < 0:
                raise ValueError("channel rates must be non-negative")
            if self.form == DOUBLE_COMMUTATOR:
                operators.assert_hermitian(op, name="double-commutator channel")
            if np.asarray(op).shape != (self.dim, self.dim):
                raise DimensionMismatchError("channel dimension mismatch")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def scaled_jumps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A_j stack, A_j^dag stack, B/2) with A_j = sqrt(g_eff) L_j so the
        dissipator is sum A rho A^dag - (B/2) rho - rho (B/2)."""
        d = self.dim
        mats, dags = [], []
        half_b = np.zeros((d, d), dtype=complex)
        for op, rate in self.channels:
            g_eff = rate if self.form == DOUBLE_COMMUTATOR else 0.5 * rate
            a = np.sqrt(g_eff) * np.asarray(op, dtype=complex)
            mats.append(a)
            dags.append(a.conj().T)
            half_b += 0.5 * (a.conj().T @ a)
        if mats:
            return np.array(mats), np.array(dags), half_b
        empty = np.zeros((0, d, d), dtype=complex)
        return empty, empty.copy(), half_b


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid; (n, d) pure or (n, d, d) density."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n_points:
            raise DimensionMismatchError("one state per grid point required")

    @property
    def is_pure(self) -> bool:
        return self.states.ndim == 2

    @property
    def dim(self) -> int:
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# propagators


def _generator_table(schedule: HamiltonianSchedule, grid: TimeGrid,
                     substeps: int) -> np.ndarray:
    """H at every half-step node; a constant H needs one grid interval's."""
    n_steps = substeps if schedule.constant else (grid.n_points - 1) * substeps
    half = grid.dt / (2 * substeps)
    ts = grid.t_start + half * np.arange(2 * n_steps + 1)
    table = schedule.sample(ts)
    defect = _hermitian_defect(table)
    if defect > operators.HERMITIAN_TOL:
        raise OperatorConstraintError(
            f"schedule is not Hermitian on the grid (defect {defect:.3e})"
        )
    return table


def _hermitian_defect(table: np.ndarray) -> float:
    """max |H - H^dag| over a (n, d, d) table.

    Each of the d(d + 1)/2 pairs i <= j gives H[:, i, j] - conj(H[:, j, i])
    (its mirror pair has the same modulus); the squared moduli are formed
    from real and imaginary parts, so no table-sized temporary is made.
    """
    re, im = table.real, table.imag
    d = table.shape[-1]
    worst = [np.max(np.square(re[:, i, j] - re[:, j, i])
                    + np.square(im[:, i, j] + im[:, j, i]))
             for i in range(d) for j in range(i, d)]
    return math.sqrt(np.max(worst))


def _auto_substeps(scale: float, grid: TimeGrid) -> int:
    """Substep refinement targeting ~1e-9 accumulated RK4 error.

    The per-step truncation of RK4 on a generator of magnitude w is
    ~(w h)^5 / 120; summed over all steps and solved for the refinement.
    """
    if scale <= 0.0:
        return 1
    steps = grid.n_points - 1
    budget = steps * (scale * grid.dt) ** 5 / (120.0 * _LOCAL_ERROR_TARGET)
    r = int(np.ceil(max(budget, 1.0) ** 0.25))
    return min(max(r, 1), _MAX_SUBSTEPS)


def _schedule_scale(schedule: HamiltonianSchedule, grid: TimeGrid) -> float:
    sample = schedule.sample(grid.times)
    return float(np.sqrt(np.max(np.sum(np.abs(sample) ** 2, axis=(1, 2)))))


def propagate_schrodinger(schedule: HamiltonianSchedule, psi0: np.ndarray,
                          grid: TimeGrid, substeps: int | None = None) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi across the grid.

    With ``substeps=None`` the refinement is chosen from the generator's
    magnitude and doubled until the measured norm drift at grid points is
    at most 1e-8; the returned states are renormalized there. A drift
    that cannot be brought under budget raises IntegrationError.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (schedule.dim,):
        raise DimensionMismatchError(
            f"state shape {psi0.shape} vs schedule dim {schedule.dim}"
        )
    operators.assert_unit_norm(psi0)

    auto = substeps is None
    r = _auto_substeps(_schedule_scale(schedule, grid), grid) if auto else int(substeps)
    if r < 1:
        raise ValueError("substeps must be >= 1")

    attempts = _MAX_RETRIES if auto else 1
    for attempt in range(1, attempts + 1):
        table = _generator_table(schedule, grid, r)
        out = np.empty((grid.n_points, schedule.dim), dtype=complex)
        kernels.schrodinger_steps(table, psi0, r, grid.dt / r, out,
                                  constant=schedule.constant)
        norms = np.linalg.norm(out, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        if drift <= _DRIFT_BUDGET:
            out /= norms[:, None]
            return Trajectory(grid, out)
        if attempt < attempts and r < _MAX_SUBSTEPS:
            retry = min(2 * r, _MAX_SUBSTEPS)
            _log("norm drift %.3e over budget at substeps=%d; retrying at %d",
                 drift, r, retry)
            r = retry
        else:
            break
    message = (f"norm drift {drift:.3e} exceeds budget {_DRIFT_BUDGET:.0e} "
               f"at substeps={r}; refine the grid or raise substeps")
    _log(message)
    raise IntegrationError(message)


def propagate_lindblad(model: LindbladModel, rho0: np.ndarray, grid: TimeGrid,
                       substeps: int | None = None) -> Trajectory:
    """Integrate the master equation d rho/dt = L(rho) across the grid.

    The state is propagated unsymmetrized. At every grid point its
    asymmetry 0.5 * max|rho - rho^dag| must stay below 1e-10 and its
    trace drift below 1e-8; the stored states are then symmetrized and
    trace-renormalized. Eigenvalues dipping under -1e-6 abort with
    IntegrationError.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.dim, model.dim):
        raise DimensionMismatchError(
            f"state shape {rho0.shape} vs model dim {model.dim}"
        )
    operators.assert_density_matrix(rho0, name="initial state")

    jumps, jump_dags, half_b = model.scaled_jumps()
    scale = _schedule_scale(model.hamiltonian, grid) + 4.0 * float(
        np.real(np.trace(half_b))
    )
    auto = substeps is None
    r = _auto_substeps(scale, grid) if auto else int(substeps)
    if r < 1:
        raise ValueError("substeps must be >= 1")

    attempts = _MAX_RETRIES if auto else 1
    for attempt in range(1, attempts + 1):
        table = _generator_table(model.hamiltonian, grid, r)
        out = np.empty((grid.n_points, model.dim, model.dim), dtype=complex)
        max_asym = kernels.lindblad_steps(
            table, jumps, jump_dags, half_b, rho0, r, grid.dt / r, out,
            constant=model.hamiltonian.constant,
        )
        traces = np.real(np.trace(out, axis1=1, axis2=2))
        drift = float(np.max(np.abs(traces - 1.0)))
        if drift <= _DRIFT_BUDGET and max_asym <= _ASYM_BUDGET:
            out /= traces[:, None, None]
            lo = float(np.min(np.linalg.eigvalsh(out)))
            if lo < _EIG_FLOOR:
                message = f"density matrix eigenvalue {lo:.3e} below {_EIG_FLOOR:.0e}"
                _log(message)
                raise IntegrationError(message)
            return Trajectory(grid, out)
        if attempt < attempts and r < _MAX_SUBSTEPS:
            retry = min(2 * r, _MAX_SUBSTEPS)
            _log("trace drift %.3e, asymmetry %.3e over budget at substeps=%d; "
                 "retrying at %d", drift, max_asym, r, retry)
            r = retry
        else:
            break
    message = (f"trace drift {drift:.3e} exceeds budget {_DRIFT_BUDGET:.0e} "
               f"at substeps={r}; refine the grid or raise substeps")
    _log(message)
    raise IntegrationError(message)


# ---------------------------------------------------------------------------
# current-like operators and observables


def current_operator(h: np.ndarray, m: np.ndarray, sign: int = +1) -> np.ndarray:
    """sign * i [H, M] for Hermitian H and measurement operator M (hbar = 1).

    With sign=+1 its expectation equals d/dt Tr(rho M) under closed
    evolution, matching ``lindblad_adjoint`` at zero coupling; sign=-1
    selects the opposite convention, which also circulates. Flow
    densities take the magnitude, so the choice never affects them.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    h = np.asarray(h, dtype=complex)
    m = np.asarray(m, dtype=complex)
    operators.assert_hermitian(h, name="Hamiltonian")
    operators.assert_hermitian(m, name="measurement operator")
    return sign * 1.0j * operators.commutator(h, m)


def dissipator_adjoint(model: LindbladModel, m: np.ndarray) -> np.ndarray:
    """Adjoint dissipator D^dag(M) for the model's channel convention."""
    m = np.asarray(m, dtype=complex)
    jumps, _, half_b = model.scaled_jumps()
    out = -(half_b @ m + m @ half_b)
    for a in jumps:
        out = out + a.conj().T @ m @ a
    return out


def lindblad_adjoint(model: LindbladModel, m: np.ndarray,
                     t: float | None = None) -> np.ndarray:
    """L^dag(M) = i[H(t), M] + D^dag(M); Tr(L(rho) M) = Tr(rho L^dag(M)).

    A time must be supplied when the Hamiltonian schedule is not
    constant.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (model.dim, model.dim):
        raise DimensionMismatchError("measurement operator dimension mismatch")
    if t is None:
        if not model.hamiltonian.constant:
            raise ValueError("time-dependent model: supply the evaluation time t")
        t = 0.0
    h = model.hamiltonian(t)
    return 1.0j * operators.commutator(h, m) + dissipator_adjoint(model, m)


def lindblad_rhs(model: LindbladModel, rho: np.ndarray,
                 t: float = 0.0) -> np.ndarray:
    """L(rho) at time t; the forward generator dual to lindblad_adjoint."""
    rho = np.asarray(rho, dtype=complex)
    jumps, jump_dags, half_b = model.scaled_jumps()
    return kernels.lindblad_rhs_dense(
        model.hamiltonian(t), rho, jumps, jump_dags, half_b
    )


def population_series(traj: Trajectory, m: np.ndarray) -> np.ndarray:
    """p(t_j) = Tr(rho_j M) (or <psi_j|M|psi_j>), clamped to [0, 1]."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (traj.dim, traj.dim):
        raise DimensionMismatchError("measurement operator dimension mismatch")
    if traj.is_pure:
        vals = np.einsum("ti,ij,tj->t", traj.states.conj(), m, traj.states)
    else:
        vals = np.einsum("tij,ji->t", traj.states, m)
    return np.clip(np.real(vals), 0.0, 1.0)


def expectation_series(traj: Trajectory, op) -> np.ndarray:
    """Real expectation of a Hermitian operator along a trajectory.

    ``op`` may be a fixed matrix or a callable t -> matrix for
    time-dependent current operators.
    """
    times = traj.grid.times
    if callable(op):
        mats = np.array([np.asarray(op(t), dtype=complex) for t in times])
    else:
        mats = np.broadcast_to(
            np.asarray(op, dtype=complex), (times.size, traj.dim, traj.dim)
        )
    if traj.is_pure:
        vals = np.einsum("ti,tij,tj->t", traj.states.conj(), mats, traj.states)
    else:
        vals = np.einsum("tij,tji->t", traj.states, mats)
    return np.real(vals)
