import numpy as np
import pytest

from tflow import dynamics, kernels, models, operators

# ---------------------------------------------------------------------------
# reference: plain per-step RK4 loops, one stage at a time


def reference_schrodinger_steps(h_table, psi0, substeps, h, out):
    n_grid = out.shape[0]
    psi = psi0.copy()
    out[0] = psi
    for g in range(n_grid - 1):
        for s in range(substeps):
            b = 2 * (g * substeps + s)
            h0 = h_table[b]
            hm = h_table[b + 1]
            h1 = h_table[b + 2]
            k1 = -1j * (h0 @ psi)
            k2 = -1j * (hm @ (psi + (0.5 * h) * k1))
            k3 = -1j * (hm @ (psi + (0.5 * h) * k2))
            k4 = -1j * (h1 @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[g + 1] = psi


def reference_lindblad_steps(h_table, jump_ops, half_b, rho0, substeps, h, out):
    """Symmetrizes rho after every step; returns the largest removed defect."""
    n_grid = out.shape[0]
    rho = rho0.copy()
    out[0] = rho
    max_asym = 0.0

    def rhs(node, x):
        h = h_table[node]
        out = -1j * (h @ x - x @ h) - (half_b @ x + x @ half_b)
        for a in jump_ops:
            out = out + a @ (x @ a.conj().T)
        return out

    for g in range(n_grid - 1):
        for s in range(substeps):
            b = 2 * (g * substeps + s)
            k1 = rhs(b, rho)
            k2 = rhs(b + 1, rho + (0.5 * h) * k1)
            k3 = rhs(b + 1, rho + (0.5 * h) * k2)
            k4 = rhs(b + 2, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            max_asym = max(max_asym, 0.5 * float(np.max(np.abs(rho - rho.conj().T))))
            rho = 0.5 * (rho + rho.conj().T)
        out[g + 1] = rho
    return max_asym


def _half_step_table(schedule, grid, r):
    half = grid.dt / (2 * r)
    ts = grid.t_start + half * np.arange(2 * (grid.n_points - 1) * r + 1)
    return np.ascontiguousarray(schedule.sample(ts))


def _lambda_case(n_points):
    cfg = models.LambdaConfig(2 * np.pi, 2 * np.pi, -20 * np.pi, 20 * np.pi, 4.0)
    return models.lambda_hamiltonian(cfg), dynamics.TimeGrid(0.0, 4.0, n_points)


def _run_schrodinger(n_points, r):
    schedule, grid = _lambda_case(n_points)
    table = _half_step_table(schedule, grid, r)
    psi0 = operators.basis_state(3, 0)
    got = np.empty((grid.n_points, 3), dtype=complex)
    want = np.empty_like(got)
    kernels.schrodinger_steps(table, psi0, r, grid.dt / r, got)
    reference_schrodinger_steps(table, psi0, r, grid.dt / r, want)
    return got, want


def _hadamard_case(n_points):
    model = models.hadamard_model(2 * np.pi, 3.0).model
    return model, dynamics.TimeGrid(0.0, 0.5, n_points)


def _run_lindblad(model, grid, r):
    jumps, half_b = model.scaled_jumps()
    table = _half_step_table(model.hamiltonian, grid, r)
    rho0 = operators.projector(model.dim, 0).astype(complex)
    got = np.empty((grid.n_points, model.dim, model.dim), dtype=complex)
    want = np.empty_like(got)
    args = (jumps, half_b, rho0, r, grid.dt / r)
    kernels.lindblad_steps(table, *args, got)
    reference_lindblad_steps(table, *args, want)
    # the kernel leaves the grid states unsymmetrized
    asym = 0.5 * np.max(np.abs(got - got.conj().transpose(0, 2, 1)))
    return got, want, asym


# ---------------------------------------------------------------------------
# batched kernels against the reference


def test_schrodinger_lambda_ramp_matches_reference():
    got, want = _run_schrodinger(201, 4)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_lindblad_hadamard_matches_reference():
    got, want, asym = _run_lindblad(*_hadamard_case(151), 2)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert asym <= 1e-12


def test_lindblad_time_dependent_three_level_matches_reference():
    schedule, grid = _lambda_case(101)
    model = dynamics.LindbladModel(schedule, ((operators.projector(3, 1), 2.0),))
    got, want, asym = _run_lindblad(model, grid, 3)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert asym <= 1e-12


@pytest.mark.parametrize("r", [3, 14])
def test_odd_refinement_matches_reference(r):
    got, want = _run_schrodinger(201, r)
    assert np.max(np.abs(got - want)) <= 1e-12
    got, want, asym = _run_lindblad(*_hadamard_case(151), r)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert asym <= 1e-12


def test_interval_count_off_batch_multiple_matches_reference():
    # r = 4 gives 256 intervals per batch: 1200 = 4 * 256 + 176
    assert 1200 % (kernels._BATCH_STEPS // 4)
    got, want = _run_schrodinger(1201, 4)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("r", [3, 10])
def test_batch_edges_match_reference(monkeypatch, r):
    # with 7 steps per batch, r = 3 packs 2 intervals per batch, so the 31
    # intervals end on a partial batch; r = 10 makes each interval a batch
    # of its own, longer than 7 steps
    monkeypatch.setattr(kernels, "_BATCH_STEPS", 7)
    got, want = _run_schrodinger(32, r)
    assert np.max(np.abs(got - want)) <= 1e-12
    got, want, asym = _run_lindblad(*_hadamard_case(32), r)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert asym <= 1e-12


def test_fold_orders_products_in_time():
    # (D, D, m, r) stacks, batch axes last
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4, 9):
        for r in range(1, 12):
            maps = (rng.normal(size=(d, d, 3, r))
                    + 1j * rng.normal(size=(d, d, 3, r))) / (2.0 * np.sqrt(d))
            want = np.broadcast_to(np.eye(d), (3, d, d))
            for s in range(r):
                want = maps[..., s].transpose(2, 0, 1) @ want
            got = kernels._fold(maps)
            assert got.shape == (d, d, 3)
            err = np.max(np.abs(got.transpose(2, 0, 1) - want))
            assert err <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_batched_eigenvalue_floor_matches_closed_form():
    gamma = 1.0
    grid = dynamics.TimeGrid(0.0, 5.0, 401)
    rho0 = operators.projector_from_state(operators.plus_state())
    traj = dynamics.propagate_lindblad(models.dephasing_model(gamma), rho0, grid)
    batched = np.linalg.eigvalsh(traj.states).min(axis=1)
    exact = 0.5 * (1.0 - np.exp(-2.0 * gamma * grid.times))
    assert np.max(np.abs(batched - exact)) <= 1e-7


# ---------------------------------------------------------------------------
# constant generators fold one interval map


def _unflagged(schedule):
    """The same H as a schedule that does not declare itself constant."""
    h = schedule(0.0)
    return dynamics.HamiltonianSchedule(
        schedule.dim, batch=lambda ts: np.repeat(h[None], np.size(ts), axis=0))


def _constant_schrodinger_cases():
    two = dynamics.constant_hamiltonian(0.5 * 7.0 * operators.SIGMA_X
                                        + 0.3 * operators.SIGMA_Z)
    three = dynamics.constant_hamiltonian(np.array(
        [[0.0, 1.0, 0.2j], [1.0, 0.5, 0.7], [-0.2j, 0.7, -1.3]]))
    return [(two, dynamics.TimeGrid(0.0, 2.0, 61)),
            (three, dynamics.TimeGrid(0.0, 3.0, 41))]


def _constant_lindblad_cases():
    return [(models.hadamard_model(2 * np.pi, 3.0).model, dynamics.TimeGrid(0.0, 0.5, 51)),
            (models.dephasing_model(1.3), dynamics.TimeGrid(0.0, 2.0, 41))]


@pytest.mark.parametrize("substeps", [None, 3, 4, 10])
def test_constant_schedule_matches_unflagged_schrodinger(monkeypatch, substeps):
    if substeps == 10:  # longer than a batch of 7: one interval per batch
        monkeypatch.setattr(kernels, "_BATCH_STEPS", 7)
    for schedule, grid in _constant_schrodinger_cases():
        psi0 = operators.basis_state(schedule.dim, 0)
        got = dynamics.propagate_schrodinger(schedule, psi0, grid, substeps)
        want = dynamics.propagate_schrodinger(_unflagged(schedule), psi0, grid, substeps)
        assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("substeps", [None, 3, 4, 10])
def test_constant_schedule_matches_unflagged_lindblad(monkeypatch, substeps):
    if substeps == 10:
        monkeypatch.setattr(kernels, "_BATCH_STEPS", 7)
    for model, grid in _constant_lindblad_cases():
        unflagged = dynamics.LindbladModel(_unflagged(model.hamiltonian),
                                           model.channels)
        rho0 = operators.projector(model.dim, 0).astype(complex)
        got = dynamics.propagate_lindblad(model, rho0, grid, substeps)
        want = dynamics.propagate_lindblad(unflagged, rho0, grid, substeps)
        assert np.array_equal(got.states, want.states)


def test_constant_table_holds_one_interval(monkeypatch):
    lengths = []
    steps = kernels.schrodinger_steps

    def recording(table, *args, **kwargs):
        lengths.append(len(table))
        return steps(table, *args, **kwargs)

    monkeypatch.setattr(kernels, "schrodinger_steps", recording)
    schedule, grid = _constant_schrodinger_cases()[0]
    psi0 = operators.basis_state(2, 0)
    dynamics.propagate_schrodinger(schedule, psi0, grid, 5)
    dynamics.propagate_schrodinger(_unflagged(schedule), psi0, grid, 5)
    assert lengths == [2 * 5 + 1, 2 * 5 * (grid.n_points - 1) + 1]


# ---------------------------------------------------------------------------
# step-scaled generators: a time-rescaled problem gives the same maps


def test_rescaled_dephasing_matches_the_unit_rate_run():
    # products of unscaled generators overflowed at gamma = 1e200: five NaN
    # attempts, the last at substeps = 1776; measured equal bit for bit
    rho0 = operators.projector_from_state(operators.plus_state())
    minus = operators.projector_from_state(operators.minus_state())
    fast = dynamics.propagate_lindblad(models.dephasing_model(1e200), rho0,
                                       dynamics.TimeGrid(0.0, 1e-199, 50))
    unit = dynamics.propagate_lindblad(models.dephasing_model(1.0), rho0,
                                       dynamics.TimeGrid(0.0, 10.0, 50))
    got = dynamics.population_series(fast, minus)
    want = dynamics.population_series(unit, minus)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_rescaled_rotation_matches_the_unit_run():
    # H = 1e160 sigma_x squared to inf in every product; measured 3.3e-16
    psi0 = operators.basis_state(2, 0)
    fast = dynamics.propagate_schrodinger(
        dynamics.constant_hamiltonian(1e160 * operators.SIGMA_X), psi0,
        dynamics.TimeGrid(0.0, 1e-160, 50), substeps=8)
    unit = dynamics.propagate_schrodinger(
        dynamics.constant_hamiltonian(operators.SIGMA_X), psi0,
        dynamics.TimeGrid(0.0, 1.0, 50), substeps=8)
    assert np.max(np.abs(fast.states - unit.states)) <= 1e-15


def test_rescaled_rotation_with_automatic_substeps_matches_the_unit_run():
    # the automatic start squared the entries of H, so 1e160 sigma_x was
    # refused as a scale too large for dt; both runs now start at r = 2
    psi0 = operators.basis_state(2, 0)
    fast = dynamics.propagate_schrodinger(
        dynamics.constant_hamiltonian(1e160 * operators.SIGMA_X), psi0,
        dynamics.TimeGrid(0.0, 1e-160, 50))
    unit = dynamics.propagate_schrodinger(
        dynamics.constant_hamiltonian(operators.SIGMA_X), psi0,
        dynamics.TimeGrid(0.0, 1.0, 50))
    assert np.max(np.abs(fast.states - unit.states)) <= 1e-15


# ---------------------------------------------------------------------------
# unrolled products of tiny matrices


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_unrolled_product_matches_matmul(d):
    # (D, D, ...) stacks with the batch axes last, broadcast against each other
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d, 4, 1)) + 1j * rng.normal(size=(d, d, 4, 1))
    b = rng.normal(size=(d, d, 1, 5)) + 1j * rng.normal(size=(d, d, 1, 5))
    cases = ((a, b), (a[..., 0], b[:, :, 0, :4]), (a[:, :, 0], b[:, :, 0]),
             (a[:, :, 0, 0], b[:, :, 0, 0]))
    for x, y in cases:
        got = kernels._mm(x, y)
        want = np.moveaxis(np.moveaxis(x, (0, 1), (-2, -1))
                           @ np.moveaxis(y, (0, 1), (-2, -1)), (-2, -1), (0, 1))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# blocked application of the interval maps


@pytest.mark.parametrize("n_points", [2, 3, 5, 12, 17, 401])
def test_blocked_application_matches_reference(n_points):
    # n intervals go in blocks of isqrt(n // 4) + 1: 1, 2x1, 2x2, 6x2 (the
    # last block padded by one identity map), 6x3 (padded by two) and 37x11
    # (padded by seven); the steps stay 0.01 / r long
    schedule = _lambda_case(2)[0]
    grid = dynamics.TimeGrid(0.0, 0.01 * (n_points - 1), n_points)
    for r in (1, 3):
        table = _half_step_table(schedule, grid, r)
        psi0 = operators.basis_state(3, 0)
        got = np.empty((n_points, 3), dtype=complex)
        want = np.empty_like(got)
        kernels.schrodinger_steps(table, psi0, r, grid.dt / r, got)
        reference_schrodinger_steps(table, psi0, r, grid.dt / r, want)
        assert np.max(np.abs(got - want)) <= 1e-12
    model = models.hadamard_model(2 * np.pi, 3.0).model
    grid = dynamics.TimeGrid(0.0, 0.002 * (n_points - 1), n_points)
    got, want, asym = _run_lindblad(model, grid, 2)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert asym <= 1e-12


def test_blocked_application_orders_products_in_time():
    # the state at g is maps[g-1] @ ... @ maps[0] @ y0, for non-commuting maps
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 9):
        for n in (1, 2, 3, 4, 5, 10, 17):
            maps = np.eye(d)[..., None] + 0.3 * (rng.normal(size=(d, d, n))
                                                 + 1j * rng.normal(size=(d, d, n)))
            y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
            out = np.empty((n + 1, d), dtype=complex)
            blocked, slots = kernels._blocked(d, n)
            blocked.reshape(d, d, -1)[..., slots] = maps
            kernels._apply(blocked, y0, out)
            y = y0
            assert np.array_equal(out[0], y0)
            for g in range(n):
                y = maps[..., g] @ y
                assert np.max(np.abs(out[g + 1] - y)) <= 1e-13 * max(1.0, np.max(np.abs(y)))
