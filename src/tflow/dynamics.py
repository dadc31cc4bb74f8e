"""Closed- and open-system propagation on uniform time grids.

Both propagators are classic fixed-step RK4 run by one driver,
``_integrate``. Its substep refinement factor is chosen automatically
from the generator's magnitude and doubled on retry while any of the
propagator's checks (norm or trace drift, asymmetry) is over budget, so
results are reproducible for a given grid; an open attempt aborts on a
state eigenvalue under -1e-6. Each doubling and a final failure are
logged at INFO level by the ``tflow.dynamics`` logger, and name every
check over budget.

The driver keeps one entry: the last propagation that passed every check,
as its propagator (closed or open), grid, substeps, generator table,
initial operands (psi0; or rho0, the jump stack and B/2) and a copy of
its grid states. A table the schedule sampled into memory of its own is
kept as it is; the other parts are copied. Each attempt samples its
table first. When every one of these parts equals the entry's bit for
bit (0.0 and -0.0 differ) and the table does not share the kept one's
memory, the attempt returns a copy of the stored states and skips the
table check, the stepping and the attempt's checks, whose results are
already known. Only the initial-state check and the substep choice run
on every call; each reuse is logged at INFO level. An attempt that
passes replaces the entry; a failed propagation leaves it. So
``protocol.simulate_protocol`` after a propagation of the same inputs
does not step again, and the entry holds one table and one state array.

Current-like operators: for a projector M and generator L, the rate of
population change is d/dt Tr(rho M) = Tr(rho L^dag(M)), built by
``lindblad_adjoint``. Its closed-system case L^dag(M) = i[H, M] (hbar = 1),
``current_operator``, is ``lindblad_adjoint`` of the model with no channels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels, operators
from .errors import (
    DimensionMismatchError,
    IntegrationError,
    OperatorConstraintError,
)

_DRIFT_BUDGET = 1e-8
_ASYM_BUDGET = 1e-10
_EIG_FLOOR = -1e-6
_LOCAL_ERROR_TARGET = 1e-9
_MAX_RETRIES = 5
_MAX_SUBSTEPS = 4096


def _log(message: str, *args) -> None:
    """Log at INFO level; logging is imported on the first message, not with tflow."""
    import logging

    logging.getLogger(__name__).info(message, *args)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_points times on [t_start, t_end]."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        operators.assert_finite(t_start=self.t_start, t_end=self.t_end)
        if self.n_points < 2:
            raise ValueError("a time grid needs at least 2 points")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        # a subnormal step has lost digits and overflows 1/dt; an infinite
        # one comes from a window wider than the largest float
        if not sys.float_info.min <= self.dt < math.inf:
            raise ValueError(f"the grid step {self.dt:.3g} is not a normal float")

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

    ``batch(ts)`` returns the (n, d, d) stack of H at n times; ``sample``
    refuses any other shape. The read-only ``constant`` is True exactly on
    a schedule of ``constant_hamiltonian``, whose H is one matrix, and the
    propagators then build the map of one grid interval and reuse it.
    """

    def __init__(self, dim: int, *, batch: Callable[[np.ndarray], np.ndarray]):
        self.dim = dim
        self._batch = batch
        self._constant = False

    @property
    def constant(self) -> bool:
        return self._constant

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def sample(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        table = np.asarray(self._batch(ts), dtype=complex)
        shape = (len(ts), self.dim, self.dim)
        if table.shape != shape:
            raise DimensionMismatchError(f"schedule gave shape {table.shape}, not {shape}")
        return table


def constant_hamiltonian(h: np.ndarray) -> HamiltonianSchedule:
    h = np.asarray(h, dtype=complex)
    operators.assert_hermitian(h, name="Hamiltonian")
    schedule = HamiltonianSchedule(
        h.shape[0], batch=lambda ts: np.broadcast_to(h, (len(ts),) + h.shape))
    schedule._constant = True
    return schedule


@dataclass(frozen=True)
class LindbladModel:
    """Generator of Markovian dynamics: Hamiltonian plus decay channels.

    A channel (L_j, g_j) adds the GKSL term
    g_j (L_j rho L_j^dag - {L_j^dag L_j, rho}/2). For a Hermitian L this
    is the double commutator -(g/2)[L, [L, rho]]; e.g. a sigma_z channel
    at rate g decays coherences as exp(-2 g t). Rates are pinned by the
    propagation tests.
    """

    hamiltonian: HamiltonianSchedule
    channels: Sequence[tuple[np.ndarray, float]] = field(default_factory=tuple)

    def __post_init__(self):
        for j, (op, rate) in enumerate(self.channels):
            if not rate >= 0:  # NaN fails this too
                raise ValueError(f"channel rates must be non-negative, not {rate}")
            if not math.isfinite(rate):
                raise ValueError(f"channel rates must be finite, not {rate}")
            if np.asarray(op).shape != (self.dim, self.dim):
                raise DimensionMismatchError("channel dimension mismatch")
            operators.assert_finite(**{f"channel {j} operator": op})

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def scaled_jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """(A_j stack, B/2) with A_j = sqrt(g_j) L_j so the dissipator is
        sum A rho A^dag - (B/2) rho - rho (B/2)."""
        d = self.dim
        mats = []
        half_b = np.zeros((d, d), dtype=complex)
        for op, rate in self.channels:
            a = np.sqrt(rate) * np.asarray(op, dtype=complex)
            mats.append(a)
            half_b += 0.5 * (a.conj().T @ a)
        return np.array(mats, dtype=complex).reshape(len(mats), d, d), half_b


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


def _sample_table(schedule: HamiltonianSchedule, grid: TimeGrid,
                  substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-step nodes and H at each; a constant H needs one grid interval's."""
    n_steps = substeps if schedule.constant else (grid.n_points - 1) * substeps
    half = grid.dt / (2 * substeps)
    ts = grid.t_start + half * np.arange(2 * n_steps + 1)
    return ts, schedule.sample(ts)


def check_table(table: np.ndarray, ts: np.ndarray) -> None:
    """Refuse a table that is not Hermitian, naming a non-finite node's time."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, caught below
        defect = _hermitian_defect(table)
    # a NaN defect fails this test too; the bad time is looked up only then
    if not defect <= operators.HERMITIAN_TOL:
        _raise_if_not_finite(table, ts)
        raise OperatorConstraintError(
            f"schedule is not Hermitian on the grid (defect {defect:.3e})"
        )


def _raise_if_not_finite(values: np.ndarray, ts: np.ndarray) -> None:
    """Name the first time whose entries of ``values`` are not all finite."""
    bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if bad.any():
        t = float(ts[np.argmax(bad)])
        raise OperatorConstraintError(f"schedule is not finite at t = {t:.10g}")


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


def _auto_substeps(schedule: HamiltonianSchedule, grid: TimeGrid,
                   dissipation: float) -> int:
    """Substep refinement targeting ~1e-9 accumulated RK4 error.

    The generator's magnitude w is the largest Frobenius norm of H at the
    grid points, whose entries must be finite, plus ``dissipation``. Each
    norm is formed as m sqrt(sum |H/m|^2), m the largest entry modulus, so
    it overflows only where the norm itself exceeds the largest float. The
    per-step truncation of RK4 is ~(w h)^5 / 120; summed over all steps and
    solved for the refinement. A w too large to step raises IntegrationError.
    """
    ts = grid.times
    with np.errstate(over="ignore", invalid="ignore"):
        samples = schedule.sample(ts)
        moduli = np.abs(samples)
        largest = float(np.max(moduli))
        # a NaN or inf largest gives a NaN scale
        scale = largest * math.sqrt(float(np.max(np.sum(
            np.square(moduli / largest), axis=(1, 2))))) if largest != 0.0 else 0.0
    if not math.isfinite(scale):
        # a NaN or inf entry is named; a norm that overflows is too large
        # for any dt below
        _raise_if_not_finite(samples, ts)
        scale = math.inf
    scale += dissipation
    if scale <= 0.0:
        return 1
    steps = grid.n_points - 1
    try:
        budget = steps * (scale * grid.dt) ** 5 / (120.0 * _LOCAL_ERROR_TARGET)
    except OverflowError:
        budget = math.inf
    if budget == math.inf:
        # r would exceed 1e77: no attempt can pass, nor any feasible grid
        raise IntegrationError(f"generator scale {scale:.3e} is too large to step across "
                               f"the window [{grid.t_start:.6g}, {grid.t_end:.6g}]")
    r = int(np.ceil(max(budget, 1.0) ** 0.25))
    return min(max(r, 1), _MAX_SUBSTEPS)


# the last propagation that passed: (propagator, substeps, (grid, table,
# *operands), states); the propagator fixes the operands' layout
_last: tuple | None = None


def _same_bits(xs: tuple, ys: tuple) -> bool:
    """Whether paired float or complex arrays agree in shape and in every raw
    64-bit word, so 0.0 and -0.0 differ."""
    return all(np.array_equal(np.ascontiguousarray(x).view(np.int64),
                              np.ascontiguousarray(y).view(np.int64))
               for x, y in zip(xs, ys))


def _integrate(schedule: HamiltonianSchedule, grid: TimeGrid, substeps: int | None,
               dissipation: float, propagator: str, operands: tuple,
               attempt: Callable) -> np.ndarray:
    """Grid states from ``attempt(table, r)``, which raises to abort or
    returns them with its checks, (name, value, budget) triples; it passes
    when every value is at most its budget (a NaN is not). An automatic r
    is doubled on failure; a fixed r has one try. The error names every
    check over budget. An attempt whose propagator, r, grid, table and
    ``operands`` equal the last pass's bit for bit returns its states.
    """
    global _last
    if substeps is None:
        r, attempts = _auto_substeps(schedule, grid, dissipation), _MAX_RETRIES
    else:
        r, attempts = int(substeps), 1
    if r < 1:
        raise ValueError("substeps must be >= 1")
    grid_key = np.array([grid.t_start, grid.t_end, grid.n_points], dtype=float)
    for attempt_no in range(1, attempts + 1):
        ts, table = _sample_table(schedule, grid, r)
        key = (grid_key, table) + operands
        entry = _last  # read once: a concurrent pass replaces it whole
        # a table in the kept one's memory (a batch evaluator that returns
        # its own array again) may have changed with it, so it never matches
        if (entry is not None and entry[:2] == (propagator, r)
                and not np.may_share_memory(table, entry[2][1])
                and _same_bits(entry[2], key)):
            _log("reusing the last %s propagation at substeps=%d", propagator, r)
            return entry[3].copy()
        check_table(table, ts)
        # a failed attempt may overflow to inf or NaN; its checks reject it
        with np.errstate(all="ignore"):
            states, checks = attempt(table, r)
        over = [check for check in checks if not check[1] <= check[2]]
        if not over:
            # a view (a constant H's) is copied; a new table is kept, not doubled
            held = table if table.flags.owndata else table.copy()
            inputs = (grid_key, held) + tuple(a.copy() for a in operands)
            _last = (propagator, r, inputs, states.copy())
            return states
        if attempt_no == attempts or r >= _MAX_SUBSTEPS:
            break
        retry = min(2 * r, _MAX_SUBSTEPS)
        _log("%s over budget at substeps=%d; retrying at %d",
             ", ".join(f"{name} {value:.3e}" for name, value, _ in over), r, retry)
        r = retry
    message = ", ".join(f"{name} {value:.3e} exceeds budget {budget:.0e}"
                        for name, value, budget in over)
    message += f" at substeps={r}; refine the grid or raise substeps"
    _log(message)
    raise IntegrationError(message)


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

    def attempt(table, r):
        out = np.empty((grid.n_points, schedule.dim), dtype=complex)
        kernels.schrodinger_steps(table, psi0, r, grid.dt / r, out)
        norms = np.linalg.norm(out, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        out /= norms[:, None]
        return out, [("norm drift", drift, _DRIFT_BUDGET)]

    states = _integrate(schedule, grid, substeps, 0.0, "closed", (psi0,), attempt)
    return Trajectory(grid, states)


def propagate_lindblad(model: LindbladModel, rho0: np.ndarray, grid: TimeGrid,
                       substeps: int | None = None) -> Trajectory:
    """Integrate the master equation d rho/dt = L(rho) across the grid.

    The state is propagated unsymmetrized. At every grid point its
    asymmetry 0.5 * max|rho - rho^dag| must stay below 1e-10 and its
    trace drift below 1e-8; the stored states are then symmetrized and
    trace-renormalized. Once both are within budget, an eigenvalue under
    -1e-6 aborts the attempt, unretried, with IntegrationError.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (model.dim, model.dim):
        raise DimensionMismatchError(
            f"state shape {rho0.shape} vs model dim {model.dim}"
        )
    operators.assert_density_matrix(rho0, name="initial state")

    jumps, half_b = model.scaled_jumps()

    def attempt(table, r):
        raw = np.empty((grid.n_points, model.dim, model.dim), dtype=complex)
        kernels.lindblad_steps(table, jumps, half_b, rho0, r, grid.dt / r, raw)
        raw_dag = raw.conj().transpose(0, 2, 1)
        asym = 0.5 * float(np.max(np.abs(raw - raw_dag)))
        out = 0.5 * (raw + raw_dag)
        traces = np.real(np.trace(out, axis1=1, axis2=2))
        drift = float(np.max(np.abs(traces - 1.0)))
        out /= traces[:, None, None]
        if drift <= _DRIFT_BUDGET and asym <= _ASYM_BUDGET:  # so out is finite
            lo = float(np.min(np.linalg.eigvalsh(out)))
            if lo < _EIG_FLOOR:  # no retry: a finer r can pass it and be wrong
                message = f"density matrix eigenvalue {lo:.3e} below {_EIG_FLOOR:.0e}"
                _log(message)
                raise IntegrationError(message)
        return out, [("trace drift", drift, _DRIFT_BUDGET),
                     ("asymmetry", asym, _ASYM_BUDGET)]

    dissipation = 4.0 * float(np.real(np.trace(half_b)))
    return Trajectory(grid, _integrate(model.hamiltonian, grid, substeps, dissipation,
                                       "open", (rho0, jumps, half_b), attempt))


# ---------------------------------------------------------------------------
# current-like operators and observables


def current_operator(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """i [H, M] for Hermitian H and measurement operator M (hbar = 1): the
    ``lindblad_adjoint`` of the closed model of a constant H, whose
    expectation equals d/dt Tr(rho M) under closed evolution."""
    return lindblad_adjoint(LindbladModel(constant_hamiltonian(h)), m)


def _adjoint_stack(model: LindbladModel, m: np.ndarray, times,
                   what: str) -> tuple[np.ndarray, np.ndarray]:
    """The table of H at ``times``, sampled in one call and passed by
    ``check_table``, and ``adjoint_on_table`` on it. No times means a
    constant H's one time, t = 0; a time-dependent model is then refused,
    asking for the evaluation ``what``, and so is an empty ``what``. M is
    refused, as the sampled H is, if not Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (model.dim, model.dim):
        raise DimensionMismatchError("measurement operator dimension mismatch")
    operators.assert_hermitian(m, name="measurement operator")
    if times is None:
        if not model.hamiltonian.constant:
            raise ValueError(f"time-dependent model: supply the evaluation {what}")
        times = [0.0]
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError(f"no evaluation {what} given")
    hs = model.hamiltonian.sample(times)
    check_table(hs, times)
    return hs, adjoint_on_table(model, m, hs)


def adjoint_on_table(model: LindbladModel, m: np.ndarray,
                     hs: np.ndarray) -> np.ndarray:
    """L^dag(M) = i[H, M] + D^dag(M) at each H of a table that ``check_table``
    passed, D^dag(M) = sum A^dag M A - (B/2) M - M (B/2)."""
    jumps, half_b = model.scaled_jumps()
    dissipator = -(half_b @ m + m @ half_b)
    for a in jumps:
        dissipator = dissipator + a.conj().T @ m @ a
    return 1j * (hs @ m - m @ hs) + dissipator


def lindblad_adjoint(model: LindbladModel, m: np.ndarray,
                     t: float | None = None) -> np.ndarray:
    """L^dag(M) = i[H(t), M] + D^dag(M); Tr(L(rho) M) = Tr(rho L^dag(M)).

    A time must be supplied when the Hamiltonian schedule is not
    constant.
    """
    return _adjoint_stack(model, m, None if t is None else [t], "time t")[1][0]


def population_series(traj: Trajectory, m: np.ndarray) -> np.ndarray:
    """p(t_j) = Tr(rho_j M) (or <psi_j|M|psi_j>), clamped to [0, 1]."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (traj.dim, traj.dim):
        raise DimensionMismatchError("measurement operator dimension mismatch")
    return np.clip(expectation_series(traj, m), 0.0, 1.0)


def expectation_series(traj: Trajectory, op) -> np.ndarray:
    """Real expectation of a Hermitian operator along a trajectory.

    ``op`` is one (d, d) matrix for every grid time, or an (n, d, d) stack
    of a time-dependent current operator at the n grid times.
    """
    op = np.asarray(op, dtype=complex)
    t = "" if op.ndim == 2 else "t"  # one matrix is contracted as it is
    if traj.is_pure:
        return np.real(np.einsum(f"ti,{t}ij,tj->t", traj.states.conj(), op, traj.states))
    return np.real(np.einsum(f"tij,{t}ji->t", traj.states, op))
