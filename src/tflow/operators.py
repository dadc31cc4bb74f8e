"""Dense complex matrix primitives for 2- and 3-level systems.

States are plain numpy arrays: a 1-d complex vector is a pure state, a
2-d complex matrix is a density matrix. Operators are 2-d complex
matrices. Everything is small (dim 2 or 3) and dense; validators below
enforce the constraints the rest of the toolkit relies on. All angular
frequencies are in rad per time unit and hbar = 1 throughout.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import OperatorConstraintError, StateConstraintError

HERMITIAN_TOL = 1e-12
PROJECTOR_TOL = 1e-12
NORM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

def hadamard() -> np.ndarray:
    """The 2x2 Hadamard operator (sigma_x + sigma_z)/sqrt(2)."""
    return (SIGMA_X + SIGMA_Z) / np.sqrt(2.0)


def basis_state(dim: int, k: int) -> np.ndarray:
    """Computational basis vector |k> of the given dimension."""
    if not 0 <= k < dim:
        raise IndexError(f"basis index {k} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[k] = 1.0
    return psi


def plus_state() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def minus_state() -> np.ndarray:
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def projector(dim: int, k: int) -> np.ndarray:
    """Rank-1 projector |k><k| onto a computational basis state."""
    if not 0 <= k < dim:
        raise IndexError(f"basis index {k} out of range for dim {dim}")
    p = np.zeros((dim, dim), dtype=complex)
    p[k, k] = 1.0
    return p


def projector_from_state(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| for an arbitrary normalized pure state."""
    psi = np.asarray(psi, dtype=complex)
    assert_unit_norm(psi)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# validators: each comparison is written so that a NaN fails it


def assert_finite(**values) -> None:
    """Refuse a NaN or infinite number, or array entry (real or complex),
    by its name."""
    for name, value in values.items():
        if not all(map(cmath.isfinite, np.ravel(value).tolist())):
            raise ValueError(f"{name} must be finite, not {value}")


def assert_hermitian(a: np.ndarray, name: str = "operator"):
    a = np.asarray(a)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if not defect <= HERMITIAN_TOL:
        raise OperatorConstraintError(f"{name} is not Hermitian (defect {defect:.3e})")


def assert_projector(a: np.ndarray, name: str = "operator"):
    a = np.asarray(a, dtype=complex)
    idem = float(np.max(np.abs(a @ a - a)))
    if not (idem <= PROJECTOR_TOL and abs(np.trace(a) - 1.0) <= PROJECTOR_TOL):
        raise OperatorConstraintError(f"{name} is not a rank-1 projector")


def assert_unit_norm(psi: np.ndarray):
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise StateConstraintError(f"state norm {norm} deviates from 1 by > {NORM_TOL}")


def assert_density_matrix(rho: np.ndarray, name: str = "density matrix"):
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    assert_hermitian(rho, name)
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateConstraintError(f"{name} trace {tr} deviates from 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= -EIGENVALUE_TOL:
        raise StateConstraintError(f"{name} has negative eigenvalue {lo:.3e}")
