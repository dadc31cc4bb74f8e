"""Speed limits and spread bounds for population-transfer timing.

For a net transfer delta_theta = |p(T) - p(0)| of the population of a
projector M under a generator L, the transfer time obeys

    T >= tau_tf = delta_theta / sqrt(|Tr(L^dag(M)^2)|),

and the spread of the flow distribution obeys both the peak bound
Delta T >= 1/(3 sqrt(3) pi_max) and the combined bound
Delta T >= tau_tf / (3 sqrt(3)). For closed dynamics the trace term
reduces to twice the squared Hamiltonian deviation in the target state,
|Tr((i[H, M_k])^2)| = 2 (Delta_k H)^2, giving tau_tf =
delta_theta / (sqrt(2) Delta_k H); the variant with a plain factor 2 in
the denominator circulates as well, so both are reported, explicitly
labeled. The product form Delta T * Delta_k H >= eta with
eta = delta_theta / (6 sqrt(3)) holds for closed dynamics (hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, operators
from .dynamics import LindbladModel
from .errors import OperatorConstraintError
from .tf import Moments

CHEBYSHEV_FACTOR = 1.0 / (3.0 * np.sqrt(3.0))
# eta = |delta_theta| / _ETA_DIVISOR in Delta T * Delta_k H >= eta
_ETA_DIVISOR = 6.0 * np.sqrt(3.0)
# relative slack of every "satisfied" flag: a measured value passes its
# bound when it is at least bound * (1 - _BOUND_TOL)
_BOUND_TOL = 1e-9


def _holds(value: float, bound: float) -> bool:
    return bool(value >= bound * (1.0 - _BOUND_TOL))


def _target_vector(dim: int, target) -> np.ndarray:
    if isinstance(target, (int, np.integer)):
        return operators.basis_state(dim, int(target))
    vec = np.asarray(target, dtype=complex)
    operators.assert_unit_norm(vec)
    return vec


def hamiltonian_std(h: np.ndarray, target) -> float:
    """Delta_k H = |(H - <k|H|k>)|k>|, which is sqrt(<k|H^2|k> - <k|H|k>^2)
    without its cancellation, for a basis index or a normalized state
    vector."""
    h = np.asarray(h, dtype=complex)
    operators.assert_hermitian(h, name="Hamiltonian")
    vec = _target_vector(h.shape[0], target)
    hv = h @ vec
    return float(np.linalg.norm(hv - np.real(np.vdot(vec, hv)) * vec))


def tf_qsl_open(model: LindbladModel, m: np.ndarray, delta_theta: float,
                times=None) -> float:
    """Transfer-time bound delta_theta / sqrt(|Tr(L^dag(M)^2)|).

    For time-dependent Hamiltonians supply ``times`` (at least one); the
    largest trace term along them keeps the bound valid over the window. A
    constant Hamiltonian needs none (its one time is t = 0). H is sampled,
    checked and turned into L^dag(M) on the CLI pipeline's route,
    ``dynamics._adjoint_stack``, and the trace term obeys the rule of
    ``build_bounds_report``: 0 (M frozen) gives +inf, and one that is not a
    normal float is refused with OperatorConstraintError.
    """
    if not 0.0 < delta_theta <= 1.0:
        raise ValueError("delta_theta must lie in (0, 1]")
    operators.assert_projector(m, name="measurement operator")
    _, adj = dynamics._adjoint_stack(model, m, times, "times")
    return _tau_tf(delta_theta, largest_trace_term(adj))


def _tau_tf(delta_theta: float, term: float) -> float:
    """delta_theta / sqrt(term), +inf for a term of 0. Any other term that is
    not a normal float is refused: a subnormal one has lost digits."""
    if not (term == 0.0 or np.finfo(float).tiny <= term < np.inf):
        raise OperatorConstraintError(f"the trace term {term:g} is not a normal float")
    return delta_theta / np.sqrt(term) if term > 0.0 else np.inf


def largest_trace_term(adj: np.ndarray) -> float:
    """The largest |Tr(L^dag(M)^2)| over an (n, d, d) stack of L^dag(M)."""
    return float(np.max(np.abs(np.real(np.einsum("nij,nji->n", adj, adj)))))


@dataclass(frozen=True)
class ClosedQslBound:
    """Both circulating closed-system prefactors, labeled by provenance.

    ``derived`` (delta_theta / (sqrt(2) Delta_k H)) follows from the
    trace identity and matches the open-system bound at zero coupling;
    ``printed`` carries the factor-2 denominator.
    """

    printed: float
    derived: float


def tf_qsl_closed(h: np.ndarray, target, delta_theta: float) -> ClosedQslBound:
    return _closed_bound(hamiltonian_std(h, target), delta_theta)


def _closed_bound(dev: float, delta_theta: float) -> ClosedQslBound:
    """Both closed-system bounds from the deviation Delta_k H."""
    if not 0.0 < delta_theta <= 1.0:
        raise ValueError("delta_theta must lie in (0, 1]")
    if dev <= 0.0:
        # target is an eigenstate: its population never moves
        return ClosedQslBound(printed=np.inf, derived=np.inf)
    return ClosedQslBound(
        printed=delta_theta / (2.0 * dev),
        derived=delta_theta / (np.sqrt(2.0) * dev),
    )


def chebyshev_spread_bound(pi_max: float) -> float:
    """Minimal spread 1/(3 sqrt(3) pi_max) enforced by the density peak."""
    if not 0.0 < pi_max < np.inf:  # NaN fails this too
        raise ValueError("pi_max must be positive and finite")
    return CHEBYSHEV_FACTOR / pi_max


def spread_bound_from_qsl(tau_tf: float) -> float:
    """Minimal spread tau_tf / (3 sqrt(3)) from the transfer-time bound."""
    if not 0.0 < tau_tf < np.inf:
        raise ValueError("tau_tf must be positive and finite")
    return CHEBYSHEV_FACTOR * tau_tf


@dataclass(frozen=True)
class UncertaintyResult:
    product: float
    eta: float
    satisfied: bool


def uncertainty_check(delta_t: float, h: np.ndarray, target,
                      delta_theta: float) -> UncertaintyResult:
    """Evaluate Delta T * Delta_k H >= eta = delta_theta/(6 sqrt 3), hbar=1."""
    if not np.isfinite(delta_t) or delta_t < 0:
        raise ValueError("delta_t must be a finite non-negative time")
    if not abs(delta_theta) <= 1.0:
        raise ValueError("delta_theta must lie in [-1, 1]")
    eta = abs(delta_theta) / _ETA_DIVISOR
    product = delta_t * hamiltonian_std(h, target)
    return UncertaintyResult(product=product, eta=eta, satisfied=_holds(product, eta))


def mt_dephasing_bound(gamma: float) -> float:
    """Fidelity-based comparison value 1/(sqrt(2) gamma) for the pure
    dephasing transition; quoted, not re-derived."""
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    return 1.0 / (np.sqrt(2.0) * gamma)


def build_bounds_report(*, delta_theta: float, trace_term: float,
                        measured: Moments, pi_max: float,
                        hamiltonian: np.ndarray | None = None, target=None,
                        mt_bound: float | None = None) -> dict:
    """Assemble the bound set from precomputed scalars as a report dict.

    ``hamiltonian``, with the ``target`` basis index or state of the
    transfer, enables the closed-system variants and the product check;
    leave it None for purely dissipative generators, where those forms do
    not apply. ``mt_bound`` adds the fidelity-based comparison value and
    the ratio of the measured spread to the QSL spread bound.

    Values are kept as computed, so a frozen target's tau_tf is +inf (a
    trace term of 0); a form that does not apply is None. The CLI's JSON
    writer turns every non-finite value into null. A ``trace_term`` that
    is not 0 or a normal float (NaN, infinite, negative or subnormal) is
    refused as ``tf_qsl_open`` refuses it, with the reason the CLI writes,
    and so is a ``delta_theta`` outside [0, 1], NaN included.
    """
    if not 0.0 <= delta_theta <= 1.0:
        raise ValueError("delta_theta must lie in [0, 1]")
    tau = _tau_tf(delta_theta, trace_term)
    cheb = chebyshev_spread_bound(pi_max)
    qsl_spread = spread_bound_from_qsl(tau) if 0.0 < tau < np.inf else 0.0
    eta = abs(delta_theta) / _ETA_DIVISOR

    closed_printed = closed_derived = product = None
    if hamiltonian is not None:
        deviation = hamiltonian_std(hamiltonian, target)
        if deviation > 0:
            product = measured.std * deviation
            if delta_theta > 0:
                closed = _closed_bound(deviation, delta_theta)
                closed_printed, closed_derived = closed.printed, closed.derived

    satisfied = {
        "spread_chebyshev": _holds(measured.std, cheb),
        "spread_qsl": _holds(measured.std, qsl_spread),
    }
    if product is not None:
        satisfied["uncertainty"] = _holds(product, eta)
    report = {
        "delta_theta": delta_theta,
        "trace_term": trace_term,
        "tau_tf": tau,
        "tau_tf_closed_printed": closed_printed,
        "tau_tf_closed_derived": closed_derived,
        "spread_bound_chebyshev": cheb,
        "spread_bound_qsl": qsl_spread,
        "uncertainty_eta": eta,
        "uncertainty_product": product,
        "measured": {"mean": measured.mean, "std": measured.std, "pi_max": pi_max},
        "satisfied": satisfied,
    }
    if mt_bound is not None:
        satisfied["mt_comparison_ratio_half"] = bool(abs(tau / mt_bound - 0.5) < 1e-9)
        report["mt_bound"] = mt_bound
        # rounded as std / (C dtheta / sqrt(trace)), the tau_tf of a transfer
        # C dtheta, not std / qsl_spread, so the ratio repeats bit for bit
        # across report versions
        report["std_over_qsl_spread_bound"] = measured.std / _tau_tf(
            CHEBYSHEV_FACTOR * delta_theta, trace_term)
    return report
