"""Fixed-step RK4 kernels behind the propagators.

RK4 applied to a linear ODE y' = A(t) y advances the state by one fixed
matrix per step,

    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = A0,  K2 = Am (I + h/2 K1),  K3 = Am (I + h/2 K2),  K4 = A1 (I + h K3),

with A0, Am and A1 the generator at the start, middle and end of the
step. The kernels build these maps for a batch of steps in one broadcast
expression, fold the ``substeps`` maps of each grid interval into one
with pairwise batched products, and apply the interval maps to the state
in order: one small matrix-vector product per grid point. At most
``_BATCH_STEPS`` step maps are held at a time; an interval with more
substeps than that is folded batch by batch. Closed systems use A = -iH
on the state vector; open systems use the d^2 x d^2 Lindblad
superoperator on the row-major vectorized density matrix.

Products of the step maps go through ``_mm``: for D <= 3 (closed two-
and three-level systems) it sums D broadcast outer products, which on
stacks of tiny complex matrices is 2-5x faster than ``np.matmul``; the
superoperators (D >= 4) keep matmul, which is faster there.

Kernels consume a pre-sampled generator table ``h_table`` holding H(t)
at every half-step node (2*n_steps + 1 matrices for n_steps RK4 steps),
so no Python callback happens during stepping. With ``constant=True``
the generator does not depend on time: the table holds only the 2r + 1
nodes of the first grid interval, its map is built once and applied at
every grid point. Every interval's map would be the same fold of the
same r step maps, so the states are bit-for-bit those of the full table.
Kernels do the arithmetic only: drift accounting, renormalization and
retries live in ``tflow.dynamics``.

The density matrix is not symmetrized while it is propagated. The
asymmetry that ``lindblad_steps`` returns is measured at the grid points,
on the unsymmetrized states, and only the stored grid states are then
symmetrized.
"""

from __future__ import annotations

import numpy as np

_BATCH_STEPS = 2048  # RK4 step maps held at once; bounds the kernels' memory


def lindblad_rhs_dense(hmat, rho, jump_ops, jump_dags, half_b):
    """-i[H, rho] + sum_j A_j rho A_j^dag - (B/2) rho - rho (B/2).

    One-shot evaluation used outside the stepping kernels (adjoint
    duality checks, diagnostics).
    """
    dr = -1j * (hmat @ rho - rho @ hmat) - (half_b @ rho + rho @ half_b)
    for j in range(jump_ops.shape[0]):
        dr = dr + jump_ops[j] @ (rho @ jump_dags[j])
    return dr


def _mm(a, b):
    """a @ b on stacks of (D, D) matrices, unrolled for D <= 3."""
    d = a.shape[-1]
    if d > 3:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, d):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def _step_maps(gens, h):
    """RK4 step maps (n, D, D) from generators at 2n + 1 half-step nodes."""
    a0, am, a1 = gens[:-1:2], gens[1::2], gens[2::2]
    k2 = am + (0.5 * h) * _mm(am, a0)
    k3 = am + (0.5 * h) * _mm(am, k2)
    k4 = a1 + h * _mm(a1, k3)
    maps = (h / 6.0) * (a0 + 2.0 * (k2 + k3) + k4)
    diag = np.arange(maps.shape[-1])
    maps[:, diag, diag] += 1.0
    return maps


def _fold(maps):
    """Time-ordered product of each row of an (m, r, D, D) stack of maps.

    Returns (m, D, D) with out[i] = maps[i, r-1] @ ... @ maps[i, 0],
    formed by pairwise batched products. On a level with an odd count,
    the last map is set aside and applied after the rest.
    """
    tail = None
    while maps.shape[1] > 1:
        if maps.shape[1] % 2:
            tail = maps[:, -1] if tail is None else _mm(tail, maps[:, -1])
            maps = maps[:, :-1]
        maps = _mm(maps[:, 1::2], maps[:, ::2])
    return maps[:, 0] if tail is None else _mm(tail, maps[:, 0])


def _interval_maps(generators, g0, g1, r, h):
    """Maps across grid intervals g0..g1-1, each folded from r RK4 steps.

    ``generators(lo, hi)`` returns the generators at half-step nodes
    lo..hi-1.
    """
    if r <= _BATCH_STEPS:
        maps = _step_maps(generators(2 * g0 * r, 2 * g1 * r + 1), h)
        return _fold(maps.reshape((g1 - g0, r) + maps.shape[1:]))
    # one interval longer than a batch (g1 == g0 + 1): fold it batch by batch
    total = None
    for k0 in range(g0 * r, g1 * r, _BATCH_STEPS):
        k1 = min(k0 + _BATCH_STEPS, g1 * r)
        part = _fold(_step_maps(generators(2 * k0, 2 * k1 + 1), h)[None])[0]
        total = part if total is None else part @ total
    return total[None]


def _propagate(generators, y0, r, h, out, constant):
    """Fill out[g] (shape (n_grid, D)) with the state at grid point g."""
    n_intervals = out.shape[0] - 1
    y = out[0] = y0
    if constant:
        m = _interval_maps(generators, 0, 1, r, h)[0]
        for g in range(1, n_intervals + 1):
            y = out[g] = m @ y
        return
    per_batch = max(1, _BATCH_STEPS // r)
    for g0 in range(0, n_intervals, per_batch):
        g1 = min(g0 + per_batch, n_intervals)
        for g, m in enumerate(_interval_maps(generators, g0, g1, r, h), g0 + 1):
            y = out[g] = m @ y


def schrodinger_steps(h_table, psi0, substeps, h, out, constant=False):
    """RK4 for i dpsi/dt = H(t) psi; out (n_grid, d) receives psi at grid points."""
    _propagate(lambda lo, hi: -1j * h_table[lo:hi], psi0, substeps, h, out, constant)


def lindblad_steps(h_table, jump_ops, jump_dags, half_b, rho0, substeps, h, out,
                   constant=False):
    """RK4 for the master equation; out (n_grid, d, d) receives rho at grid points.

    Returns the largest asymmetry 0.5 * max|rho - rho^dag| over the grid
    states, measured before they are symmetrized.
    """
    d = rho0.shape[0]
    eye = np.eye(d)
    # row-major vec: vec(X rho Y) = (X kron Y^T) vec(rho)
    dissipator = -np.kron(half_b, eye) - np.kron(eye, half_b.T)
    for a, a_dag in zip(jump_ops, jump_dags):
        dissipator = dissipator + np.kron(a, a_dag.T)

    def superoperators(lo, hi):
        hs = h_table[lo:hi]
        comm = (np.einsum("nac,bd->nabcd", hs, eye)
                - np.einsum("ac,ndb->nabcd", eye, hs))
        return -1j * comm.reshape(-1, d * d, d * d) + dissipator

    flat = np.empty((out.shape[0], d * d), dtype=complex)
    _propagate(superoperators, rho0.reshape(d * d), substeps, h, flat, constant)
    rhos = flat.reshape(out.shape)
    rhos_dag = rhos.conj().transpose(0, 2, 1)
    out[:] = 0.5 * (rhos + rhos_dag)
    return 0.5 * float(np.max(np.abs(rhos - rhos_dag)))
