import numpy as np
import pytest

from tflow import dynamics, models, operators
from tflow.dynamics import (
    DOUBLE_COMMUTATOR,
    GKS,
    LindbladModel,
    TimeGrid,
    constant_hamiltonian,
)
from tflow.errors import DimensionMismatchError, IntegrationError

PLUS = operators.plus_state()
MINUS = operators.minus_state()
M_PLUS = operators.projector_from_state(PLUS)
M_MINUS = operators.projector_from_state(MINUS)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 1.0, 11)
    assert g.dt == pytest.approx(0.1)
    assert np.allclose(np.diff(g.times), g.dt)
    assert g.midpoints[0] == pytest.approx(0.05)


def test_constant_drive_full_transfer():
    omega0 = 1.0
    grid = TimeGrid(0.0, np.pi / omega0, 801)
    schedule = constant_hamiltonian(0.5 * omega0 * operators.SIGMA_X)
    traj = dynamics.propagate_schrodinger(schedule, operators.basis_state(2, 0), grid)
    p1 = dynamics.population_series(traj, operators.projector(2, 1))
    assert abs(p1[-1] - 1.0) <= 1e-8
    assert np.max(np.abs(p1 - np.sin(omega0 * grid.times / 2.0) ** 2)) <= 1e-8


def test_zero_hamiltonian_is_frozen():
    grid = TimeGrid(0.0, 3.0, 50)
    schedule = constant_hamiltonian(np.zeros((2, 2), dtype=complex))
    psi0 = PLUS
    traj = dynamics.propagate_schrodinger(schedule, psi0, grid)
    assert np.max(np.abs(traj.states - psi0)) <= 1e-14


def test_sta_schedule_hits_target():
    # oracle: exact population cos^2(theta/2 - pi/4)
    config = models.STAConfig(alpha=1.0, t_final=1.0, omega0=10.0)
    grid = TimeGrid(0.0, 1.0, 501)
    traj = dynamics.propagate_schrodinger(
        models.sta_hamiltonian(config), operators.basis_state(2, 0), grid
    )
    p_plus = dynamics.population_series(traj, M_PLUS)
    assert abs(p_plus[-1] - 1.0) <= 1e-6
    ref = models.sta_population_closed(config, grid.times)
    assert np.max(np.abs(p_plus - ref)) <= 1e-6


def test_norm_conservation_and_renormalization():
    config = models.STAConfig(alpha=2.0, t_final=1.0, omega0=20.0)
    grid = TimeGrid(0.0, 1.0, 1001)
    traj = dynamics.propagate_schrodinger(
        models.sta_hamiltonian(config), operators.basis_state(2, 0), grid
    )
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-12


def test_explicit_substeps_drift_failure():
    schedule = constant_hamiltonian(100.0 * operators.SIGMA_X)
    grid = TimeGrid(0.0, 1.0, 5)
    with pytest.raises(IntegrationError):
        dynamics.propagate_schrodinger(
            schedule, operators.basis_state(2, 0), grid, substeps=1
        )


def test_lindblad_eigenvalue_floor_failure(caplog):
    # RK4 keeps the trace exactly, but with 2 gamma h = 3 each step scales the
    # coherence by 1.375; after two steps rho has eigenvalue 0.5 - 0.5 * 1.375^2
    grid = TimeGrid(0.0, 3.0, 3)
    caplog.set_level("INFO", logger="tflow.dynamics")
    with pytest.raises(IntegrationError, match="eigenvalue -4.453e-01"):
        dynamics.propagate_lindblad(models.dephasing_model(1.0), M_PLUS, grid,
                                    substeps=1)
    assert [r.getMessage() for r in caplog.records] == [
        "density matrix eigenvalue -4.453e-01 below -1e-06"]


def test_fourth_order_convergence():
    omega0 = 3.0
    grid = TimeGrid(0.0, np.pi, 101)
    schedule = constant_hamiltonian(0.5 * omega0 * operators.SIGMA_X)
    ref = np.sin(omega0 * grid.times / 2.0) ** 2
    errs = []
    for r in (1, 2):
        traj = dynamics.propagate_schrodinger(
            schedule, operators.basis_state(2, 0), grid, substeps=r
        )
        p = dynamics.population_series(traj, operators.projector(2, 1))
        errs.append(np.max(np.abs(p - ref)))
    assert errs[0] / errs[1] >= 12.0


def test_dephasing_population_matches_exponential():
    gamma = 1.0
    grid = TimeGrid(0.0, 5.0, 801)
    traj = dynamics.propagate_lindblad(models.dephasing_model(gamma), M_PLUS, grid)
    p_minus = dynamics.population_series(traj, M_MINUS)
    ref = 0.5 * (1.0 - np.exp(-2.0 * gamma * grid.times))
    assert np.max(np.abs(p_minus - ref)) <= 1e-7


def test_lindblad_zero_rates_match_schrodinger():
    h = 0.5 * 2.0 * operators.SIGMA_X
    grid = TimeGrid(0.0, 2.0, 301)
    model = LindbladModel(constant_hamiltonian(h), ((operators.SIGMA_Z, 0.0),),
                          DOUBLE_COMMUTATOR)
    rho_traj = dynamics.propagate_lindblad(
        model, operators.projector(2, 0).astype(complex), grid
    )
    psi_traj = dynamics.propagate_schrodinger(
        constant_hamiltonian(h), operators.basis_state(2, 0), grid
    )
    p_rho = dynamics.population_series(rho_traj, operators.projector(2, 1))
    p_psi = dynamics.population_series(psi_traj, operators.projector(2, 1))
    assert np.max(np.abs(p_rho - p_psi)) <= 1e-8


def test_hadamard_rotation_closed_limit():
    # oracle: pure-state propagation of the same Hamiltonian
    bundle = models.hadamard_model(2.0 * np.pi, 0.0)
    grid = TimeGrid(0.0, 1.0, 501)
    rho_traj = dynamics.propagate_lindblad(
        bundle.model, operators.projector(2, 0).astype(complex), grid
    )
    psi_traj = dynamics.propagate_schrodinger(
        bundle.model.hamiltonian, operators.basis_state(2, 0), grid
    )
    p_rho = dynamics.population_series(rho_traj, M_PLUS)
    p_psi = dynamics.population_series(psi_traj, M_PLUS)
    assert np.max(np.abs(p_rho - p_psi)) <= 1e-7


def test_double_commutator_equals_gks_at_doubled_rate():
    gamma = 0.8
    h = 0.3 * operators.SIGMA_X
    grid = TimeGrid(0.0, 3.0, 301)
    rho0 = M_PLUS
    dc = LindbladModel(constant_hamiltonian(h), ((operators.SIGMA_Z, gamma),),
                       DOUBLE_COMMUTATOR)
    gks = LindbladModel(constant_hamiltonian(h), ((operators.SIGMA_Z, 2.0 * gamma),),
                        GKS)
    t1 = dynamics.propagate_lindblad(dc, rho0, grid)
    t2 = dynamics.propagate_lindblad(gks, rho0, grid)
    assert np.max(np.abs(t1.states - t2.states)) <= 1e-10


def test_trace_conservation_open_system():
    bundle = models.hadamard_model(2 * np.pi * 10.0, 2 * np.pi * 5.0)
    grid = TimeGrid(0.0, 0.1, 501)
    traj = dynamics.propagate_lindblad(
        bundle.model, operators.projector(2, 0).astype(complex), grid
    )
    traces = np.real(np.trace(traj.states, axis1=1, axis2=2))
    assert np.max(np.abs(traces - 1.0)) <= 1e-12


def test_current_operator_sigma_x_drive():
    omega = 2.0
    h = 0.5 * omega * operators.SIGMA_X
    got = dynamics.current_operator(h, operators.projector(2, 1), sign=-1)
    assert np.max(np.abs(got - 0.5 * omega * operators.SIGMA_Y)) <= 1e-12
    flipped = dynamics.current_operator(h, operators.projector(2, 1), sign=+1)
    assert np.max(np.abs(flipped + got)) <= 1e-15


def test_current_operator_identity_is_zero():
    h = 0.7 * operators.SIGMA_Z
    got = dynamics.current_operator(h, np.eye(2, dtype=complex))
    assert np.max(np.abs(got)) == 0


def test_current_operator_lambda_model():
    # the detuning term commutes with |2><2|, so the ramp drops out
    config = models.LambdaConfig(1.3, 0.7, -5.0, 5.0, 2.0)
    schedule = models.lambda_hamiltonian(config)
    gamma = models.lambda_gamma(config)
    for t in (0.0, 0.77, 2.0):
        got = dynamics.current_operator(schedule(t), operators.projector(3, 1), sign=+1)
        assert np.max(np.abs(got - gamma)) <= 1e-12


def test_lindblad_adjoint_dephasing():
    model = models.dephasing_model(1.0)
    adj = dynamics.lindblad_adjoint(model, M_MINUS)
    assert np.max(np.abs(adj - operators.SIGMA_X)) <= 1e-12


def test_lindblad_adjoint_hadamard():
    omega0, gamma = 2 * np.pi, 1.3
    bundle = models.hadamard_model(omega0, gamma)
    adj = dynamics.lindblad_adjoint(bundle.model, M_PLUS)
    want = -(omega0 / (2 * np.sqrt(2))) * operators.SIGMA_Y - 0.5 * gamma * operators.SIGMA_X
    assert np.max(np.abs(adj - want)) <= 1e-12


def test_lindblad_adjoint_closed_limit_is_current_operator():
    h = 0.9 * operators.SIGMA_Y + 0.2 * operators.SIGMA_Z
    model = LindbladModel(constant_hamiltonian(h), (), DOUBLE_COMMUTATOR)
    m = operators.projector(2, 0)
    adj = dynamics.lindblad_adjoint(model, m)
    want = dynamics.current_operator(h, m, sign=+1)
    assert np.max(np.abs(adj - want)) <= 1e-12


def test_lindblad_adjoint_requires_time_for_schedules():
    config = models.LambdaConfig(1.0, 1.0, -5.0, 5.0, 2.0)
    model = LindbladModel(models.lambda_hamiltonian(config), (), DOUBLE_COMMUTATOR)
    with pytest.raises(ValueError):
        dynamics.lindblad_adjoint(model, operators.projector(3, 1))
    adj = dynamics.lindblad_adjoint(model, operators.projector(3, 1), t=1.0)
    operators.assert_hermitian(adj)


@pytest.mark.parametrize("form,channels", [
    (DOUBLE_COMMUTATOR, ((operators.SIGMA_Z, 0.7),)),
    (GKS, ((operators.SIGMA_Z, 1.1), (operators.SIGMA_X, 0.4))),
])
def test_adjoint_duality(form, channels):
    # oracle: Tr(L(rho) M) == Tr(rho L^dag(M)) for random rho, M
    rng = np.random.default_rng(17)
    h = 0.5 * operators.SIGMA_X + 0.25 * operators.SIGMA_Z
    model = LindbladModel(constant_hamiltonian(h), channels, form)
    for _ in range(50):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = operators.projector_from_state(vec / np.linalg.norm(vec))
        lhs = np.trace(dynamics.lindblad_rhs(model, rho) @ m)
        rhs = np.trace(rho @ dynamics.lindblad_adjoint(model, m))
        assert abs(lhs - rhs) <= 1e-10


def test_closed_system_trace_identity():
    # oracle: direct matrix evaluation of 2 (Delta_k H)^2
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        for _ in range(50):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = raw + raw.conj().T
            k = rng.integers(dim)
            model = LindbladModel(constant_hamiltonian(h), (), DOUBLE_COMMUTATOR)
            adj = dynamics.lindblad_adjoint(model, operators.projector(dim, k))
            trace_term = abs(np.real(np.trace(adj @ adj)))
            e1 = np.real(h[k, k])
            e2 = np.real((h @ h)[k, k])
            assert abs(trace_term - 2.0 * (e2 - e1 * e1)) <= 1e-10 * max(1.0, trace_term)


def test_population_series_completeness_lambda():
    config = models.LambdaConfig(2 * np.pi, 2 * np.pi, -20 * np.pi, 20 * np.pi, 4.0)
    grid = TimeGrid(0.0, 4.0, 501)
    traj = dynamics.propagate_schrodinger(
        models.lambda_hamiltonian(config), operators.basis_state(3, 0), grid
    )
    total = sum(
        dynamics.population_series(traj, operators.projector(3, k)) for k in range(3)
    )
    assert np.max(np.abs(total - 1.0)) <= 1e-8


def test_population_series_constant_trajectory():
    grid = TimeGrid(0.0, 1.0, 20)
    states = np.tile(operators.basis_state(2, 0), (20, 1))
    traj = dynamics.Trajectory(grid, states)
    p = dynamics.population_series(traj, operators.projector(2, 0))
    assert np.array_equal(p, np.ones(20))


def test_population_series_dim_mismatch():
    grid = TimeGrid(0.0, 1.0, 5)
    traj = dynamics.Trajectory(grid, np.tile(operators.basis_state(2, 0), (5, 1)))
    with pytest.raises(DimensionMismatchError):
        dynamics.population_series(traj, operators.projector(3, 0))


def test_expectation_series_time_dependent_operator():
    grid = TimeGrid(0.0, 1.0, 30)
    states = np.tile(operators.basis_state(2, 0), (30, 1))
    traj = dynamics.Trajectory(grid, states)
    vals = dynamics.expectation_series(traj, lambda t: t * operators.SIGMA_Z)
    assert np.allclose(vals, grid.times)


# ---------------------------------------------------------------------------
# retries are logged, and the table check covers every half-step node


def _narrow_pulse():
    wf = models.ControlWaveform.gaussian_pulse(0.505, 0.001)
    return models.two_level_hamiltonian(wf), TimeGrid(0.0, 1.0, 101)


def test_schrodinger_retries_are_logged(caplog):
    # the pulse sits between grid points, so the starting scale sees none of
    # it: four doublings follow, and the last attempt, at 16, still drifts
    schedule, grid = _narrow_pulse()
    caplog.set_level("INFO", logger="tflow.dynamics")
    with pytest.raises(IntegrationError, match="at substeps=16;"):
        dynamics.propagate_schrodinger(schedule, operators.basis_state(2, 0), grid)
    messages = [r.getMessage() for r in caplog.records if r.name == "tflow.dynamics"]
    assert [m.split(" over budget at ")[1] for m in messages[:-1]] == [
        f"substeps={r}; retrying at {2 * r}" for r in (1, 2, 4, 8)]
    assert messages[0].startswith("norm drift 5.943e+00 ")
    assert messages[-1].startswith("norm drift 7.961e-05 exceeds budget 1e-08 "
                                   "at substeps=16;")


def test_lindblad_retries_are_logged(caplog, monkeypatch):
    # an asymmetry over its 1e-10 budget on the first attempt is one doubling
    steps = dynamics.kernels.lindblad_steps
    calls = []

    def asymmetric_once(*args, **kwargs):
        asym = steps(*args, **kwargs)
        calls.append(args[5])
        return 1e-9 if len(calls) == 1 else asym

    monkeypatch.setattr(dynamics.kernels, "lindblad_steps", asymmetric_once)
    caplog.set_level("INFO", logger="tflow.dynamics")
    dynamics.propagate_lindblad(models.dephasing_model(1.0), M_PLUS,
                                TimeGrid(0.0, 1.0, 51))
    r = calls[0]
    assert calls == [r, 2 * r]
    [record] = [r for r in caplog.records if r.name == "tflow.dynamics"]
    assert record.levelname == "INFO"
    assert record.getMessage().endswith(
        f"asymmetry 1.000e-09 over budget at substeps={r}; retrying at {2 * r}")


@pytest.mark.parametrize("entry", [(0, 1), (0, 2), (2, 1), (1, 1)])
def test_table_check_sees_a_defect_at_one_half_step_node(entry):
    # Hermitian at every grid point; at the one half-step node t = 0.125
    # (substeps = 2 on a 0.1 grid) an anti-Hermitian part of size `defect`
    # sits at `entry` (on the diagonal it is imaginary: defect 2 x size)
    from tflow.errors import OperatorConstraintError

    tol = operators.HERMITIAN_TOL
    base = np.array([[0.0, 1.0, 0.2j], [1.0, 0.5, 0.7], [-0.2j, 0.7, -1.3]])
    grid = TimeGrid(0.0, 1.0, 11)
    node = grid.t_start + grid.dt / 4 * 5

    def schedule_with(size):
        def batch(ts):
            out = np.repeat(base[None].astype(complex), np.size(ts), axis=0)
            out[np.asarray(ts) == node, entry[0], entry[1]] += 1j * size
            return out
        return dynamics.HamiltonianSchedule(3, lambda t: batch(np.array([t]))[0],
                                            batch=batch)

    size = 10 * tol / (2 if entry[0] == entry[1] else 1)
    assert dynamics._hermitian_defect(schedule_with(size).sample(grid.times)) == 0.0
    psi0 = operators.basis_state(3, 0)
    with pytest.raises(OperatorConstraintError, match=r"defect 1\.000e-11"):
        dynamics.propagate_schrodinger(schedule_with(size), psi0, grid, substeps=2)
    dynamics.propagate_schrodinger(schedule_with(size / 100), psi0, grid, substeps=2)
    # a Lindblad model samples the same table
    model = LindbladModel(schedule_with(size))
    with pytest.raises(OperatorConstraintError, match=r"defect 1\.000e-11"):
        dynamics.propagate_lindblad(model, operators.projector(3, 0).astype(complex),
                                    grid, substeps=2)
