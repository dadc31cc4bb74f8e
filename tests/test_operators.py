import numpy as np
import pytest

from tflow import dynamics, operators
from tflow.errors import OperatorConstraintError, StateConstraintError


PAULI = (operators.SIGMA_X, operators.SIGMA_Y, operators.SIGMA_Z)


def test_pauli_matrices_literal():
    assert np.array_equal(operators.SIGMA_X, [[0, 1], [1, 0]])
    assert np.array_equal(operators.SIGMA_Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(operators.SIGMA_Z, [[1, 0], [0, -1]])


def test_pauli_algebra():
    for s in PAULI:
        assert abs(np.trace(s)) == 0
        assert np.allclose(s @ s, np.eye(2))
        operators.assert_hermitian(s)


def test_commutator_self_and_pauli_cycle():
    # [s, s] = 0, and the cycle [sigma_x, sigma_y] = 2i sigma_z and its
    # shifts, also through current_operator, which is i[H, M]
    for s in PAULI:
        assert np.max(np.abs(dynamics.current_operator(s, s))) == 0
    for a, b, c in (PAULI, PAULI[1:] + PAULI[:1], PAULI[2:] + PAULI[:2]):
        assert np.array_equal(a @ b - b @ a, 2j * c)
        assert np.array_equal(dynamics.current_operator(a, b), -2 * c)


def test_projector_basis():
    assert np.array_equal(operators.projector(2, 1), np.diag([0, 1]).astype(complex))
    assert np.array_equal(operators.projector(3, 1), np.diag([0, 1, 0]).astype(complex))


def test_projector_out_of_range():
    with pytest.raises(IndexError):
        operators.projector(2, 2)
    with pytest.raises(IndexError):
        operators.basis_state(3, -1)


def test_projector_from_plus_state():
    p = operators.projector_from_state(operators.plus_state())
    assert np.allclose(p, 0.5 * np.ones((2, 2)))
    operators.assert_projector(p)


def test_projector_from_random_states_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = raw / np.linalg.norm(raw)
        p = operators.projector_from_state(psi)
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert abs(np.trace(p) - 1.0) <= 1e-12


def test_expectation_pure_and_mixed():
    # expectations are read through dynamics.expectation_series
    def value(state, op):
        grid = dynamics.TimeGrid(0.0, 1.0, 2)
        return dynamics.expectation_series(
            dynamics.Trajectory(grid, np.array([state, state])), op)[0]

    assert value(operators.basis_state(2, 0), operators.SIGMA_Z) == 1.0
    assert abs(value(operators.plus_state(), operators.SIGMA_X) - 1.0) <= 1e-15
    mixed = 0.5 * np.eye(2, dtype=complex)
    for s in PAULI:
        assert abs(value(mixed, s)) <= 1e-15


def test_expectation_hermitian_has_real_value():
    # the real part that expectation_series keeps is the whole <psi|A|psi>
    rng = np.random.default_rng(9)
    grid = dynamics.TimeGrid(0.0, 1.0, 20)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a + a.conj().T
    raw = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    psis = raw / np.linalg.norm(raw, axis=1)[:, None]
    got = dynamics.expectation_series(dynamics.Trajectory(grid, psis), a)
    want = np.einsum("ti,ij,tj->t", psis.conj(), a, psis)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_density_matrix_validation():
    operators.assert_density_matrix(0.5 * np.eye(2, dtype=complex))
    operators.assert_density_matrix(
        operators.projector_from_state(operators.plus_state())
    )
    with pytest.raises(OperatorConstraintError):
        operators.assert_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex))
    with pytest.raises(StateConstraintError):
        operators.assert_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(StateConstraintError):
        operators.assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_unit_norm_validation():
    with pytest.raises(StateConstraintError):
        operators.assert_unit_norm(np.array([1.0, 1.0]))


def test_hadamard_maps_computational_to_diagonal():
    h = operators.hadamard()
    assert np.max(np.abs(h @ operators.basis_state(2, 0) - operators.plus_state())) <= 1e-15
    assert np.max(np.abs(h @ operators.basis_state(2, 1) - operators.minus_state())) <= 1e-15


def test_four_level_density_matrix_validation():
    # any dimension: the eigenvalue floor is checked with eigvalsh; the
    # (0, 3) block [[0.6, 0.05], [0.05, -0.1]] has 0.25 - sqrt(0.125)
    operators.assert_density_matrix(np.eye(4, dtype=complex) / 4)
    rho = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.05
    with pytest.raises(StateConstraintError, match=r"negative eigenvalue -1\.036e-01"):
        operators.assert_density_matrix(rho)


def test_validators_refuse_nan():
    # a NaN compared false against every tolerance and passed each check
    with pytest.raises(OperatorConstraintError):
        operators.assert_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(StateConstraintError):
        operators.assert_unit_norm(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        operators.assert_density_matrix(np.diag([np.nan, 1.0]).astype(complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, (0.0, np.nan)])
def test_assert_finite_refuses_by_name(value):
    with pytest.raises(ValueError, match="^rate must be finite, not "):
        operators.assert_finite(omega=1.0, rate=value)
    operators.assert_finite(omega=1.0, rate=0.0, coefficients=(0.0, -1e300))
