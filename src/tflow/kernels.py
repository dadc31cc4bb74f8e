"""Fixed-step RK4 kernels behind the propagators.

RK4 applied to a linear ODE y' = A(t) y advances the state by one fixed
matrix per step,

    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = A0,  K2 = Am (I + h/2 K1),  K3 = Am (I + h/2 K2),  K4 = A1 (I + h K3),

with A0, Am and A1 the generator at the start, middle and end of the
step. The kernels build these maps for a batch of steps in one broadcast
expression, fold the ``substeps`` maps of each grid interval into one
with pairwise batched products, and apply the n interval maps in blocks
(``_apply``): prefix products inside blocks of about sqrt(n)/2 maps,
formed for all blocks at once, one matrix-vector product per block to
carry the state across, and one batched contraction for every grid
state, so O(sqrt(n)) Python steps in all. At most ``_BATCH_STEPS`` step
maps are held at a time; an interval with more substeps than that is
folded batch by batch. The interval maps are written straight into one
(D, D, n) stack (``_blocked``) and turned into prefix products in place,
so the blocked application holds O(n D^2) memory: 16 n D^2 bytes, 1.3 GB
for D = 9 and a million grid points. Closed systems use A = -iH on the
state vector; open systems use the d^2 x d^2 Lindblad superoperator on
the row-major vectorized density matrix.

Stacks of D x D matrices keep their batch axes last, (D, D, n), so every
ufunc runs over one contiguous batch axis instead of inner loops of
length D. The generator table arrives as (n, d, d) rows and is
transposed one batch at a time, never as a whole. Every product goes
through ``_mm``, a sum of D broadcast products: on stacks of 2 x 2 to
4 x 4 complex matrices it is faster than ``np.matmul``; at D = 9 (open
three-level systems) it is slower, the price of one product path: about
6x on a 2048-stack (7.6 against 1.3 ms, one BLAS thread) and about 4x on
the 1024 step maps of one batch. A whole ``propagate_lindblad`` of a
driven three-level model takes about 1.4x as long as it did with
matmul.

Kernels consume a pre-sampled generator table ``h_table`` holding H(t)
at every half-step node (2*n_steps + 1 matrices for n_steps RK4 steps),
so no Python callback happens during stepping. With ``constant=True``
the generator does not depend on time: the table holds only the 2r + 1
nodes of the first grid interval, and its map is built once and
written to every grid interval's slot of the blocked stack. Every
interval's map would be the same fold of the same r step maps, so the
states are bit-for-bit those of the full table.
Kernels do the arithmetic only: drift accounting, renormalization and
retries live in ``tflow.dynamics``.

The density matrix is not symmetrized while it is propagated. The
asymmetry that ``lindblad_steps`` returns is measured at the grid points,
on the unsymmetrized states, and only the stored grid states are then
symmetrized.
"""

from __future__ import annotations

import math

import numpy as np

# RK4 step maps held at once; bounds the memory of building and folding
# them (the blocked application holds the n interval maps). A library-sweep
# round took about 4,000 minor page faults at 2048 (its 3 x 3 stacks of
# 300 kB were freed to the OS and faulted in again) and about one at 1024.
_BATCH_STEPS = 1024


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
    """a @ b on (D, D, ...) stacks, batch axes last: a sum of D broadcast
    products, each one ufunc over the contiguous batch."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _step_maps(gens, h):
    """RK4 step maps (D, D, n) from generators (D, D, 2n + 1) at half-step nodes."""
    a0, am, a1 = gens[..., :-1:2], gens[..., 1::2], gens[..., 2::2]
    k2 = am + (0.5 * h) * _mm(am, a0)
    k3 = am + (0.5 * h) * _mm(am, k2)
    k4 = a1 + h * _mm(a1, k3)
    maps = (h / 6.0) * (a0 + 2.0 * (k2 + k3) + k4)
    diag = np.arange(maps.shape[0])
    maps[diag, diag] += 1.0
    return maps


def _fold(maps):
    """Time-ordered product over the last axis of a (D, D, m, r) stack.

    Returns (D, D, m) with out[..., i] = maps[..., i, r-1] @ ... @
    maps[..., i, 0], formed by pairwise batched products. On a level with
    an odd count, the last map is set aside and applied after the rest.
    """
    tail = None
    while maps.shape[-1] > 1:
        if maps.shape[-1] % 2:
            tail = maps[..., -1] if tail is None else _mm(tail, maps[..., -1])
            maps = maps[..., :-1]
        maps = _mm(maps[..., 1::2], maps[..., ::2])
    return maps[..., 0] if tail is None else _mm(tail, maps[..., 0])


def _interval_maps(generators, g0, g1, r, h):
    """Maps (D, D, g1 - g0) across grid intervals g0..g1-1, each folded
    from r RK4 steps.

    ``generators(lo, hi)`` returns the generators (D, D, hi - lo) at
    half-step nodes lo..hi-1.
    """
    if r <= _BATCH_STEPS:
        maps = _step_maps(generators(2 * g0 * r, 2 * g1 * r + 1), h)
        return _fold(maps.reshape(maps.shape[:2] + (g1 - g0, r)))
    # one interval longer than a batch (g1 == g0 + 1): fold it batch by batch
    total = None
    for k0 in range(g0 * r, g1 * r, _BATCH_STEPS):
        k1 = min(k0 + _BATCH_STEPS, g1 * r)
        part = _fold(_step_maps(generators(2 * k0, 2 * k1 + 1), h)[:, :, None])
        total = part if total is None else _mm(part, total)
    return total


def _blocked(d, n):
    """An empty (D, D, size, blocks) stack for n interval maps, and the
    flat positions of the intervals in it.

    The n maps are cut into blocks of size = isqrt(n // 4) + 1: in
    ``_apply`` a carry step costs about a quarter of a prefix step, hence
    sqrt(n/4), not sqrt(n). Interval g = b * size + j sits at [..., j, b],
    that is at flat position j * blocks + b of ``stack.reshape(d, d, -1)``,
    so each position j is one contiguous batch over the blocks. Identity
    maps pad the last block.
    """
    size = math.isqrt(n // 4) + 1
    blocks = -(-n // size)
    stack = np.empty((d, d, size, blocks), dtype=complex)
    stack[:, :, n - (blocks - 1) * size:, -1] = np.eye(d)[..., None]
    g = np.arange(n)
    return stack, g % size * blocks + g // size


def _apply(maps, y0, out):
    """out[g] = M[g-1] @ ... @ M[0] @ y0 for every grid point g, with the
    interval maps M laid out in ``maps`` by ``_blocked``.

    The prefix products inside every block are formed in place, for all
    blocks together, one position at a time; the state is carried from
    block to block by one matrix-vector product each, and every grid
    state is then one batched contraction of the prefix products with its
    block's starting state.
    """
    d, size, blocks = maps.shape[1:]
    for j in range(1, size):
        maps[:, :, j] = _mm(maps[:, :, j], maps[:, :, j - 1])
    starts = np.empty((blocks, d), dtype=complex)
    y = y0
    for b, block in enumerate(maps[:, :, -1].transpose(2, 0, 1)):
        starts[b] = y
        y = block @ y
    states = maps[:, 0] * starts[:, 0]
    for k in range(1, d):
        states += maps[:, k] * starts[:, k]
    out[0] = y0
    out[1:] = states.transpose(2, 1, 0).reshape(blocks * size, d)[:out.shape[0] - 1]


def _propagate(generators, y0, r, h, out, constant):
    """Fill out[g] (shape (n_grid, D)) with the state at grid point g."""
    d, n_intervals = y0.shape[0], out.shape[0] - 1
    maps, slots = _blocked(d, n_intervals)
    flat = maps.reshape(d, d, -1)
    if constant:
        flat[..., slots] = _interval_maps(generators, 0, 1, r, h)
    else:
        per_batch = max(1, _BATCH_STEPS // r)
        for g0 in range(0, n_intervals, per_batch):
            g1 = min(g0 + per_batch, n_intervals)
            flat[..., slots[g0:g1]] = _interval_maps(generators, g0, g1, r, h)
    _apply(maps, y0, out)


def _batch_last(table):
    """(k, d, d) table rows as a contiguous complex (d, d, k) stack."""
    return np.ascontiguousarray(table.transpose(1, 2, 0), dtype=complex)


def schrodinger_steps(h_table, psi0, substeps, h, out, constant=False):
    """RK4 for i dpsi/dt = H(t) psi; out (n_grid, d) receives psi at grid points."""
    def generators(lo, hi):
        gens = _batch_last(h_table[lo:hi])
        gens *= -1j
        return gens

    _propagate(generators, psi0, substeps, h, out, constant)


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
    dissipator = dissipator[..., None]

    def superoperators(lo, hi):
        # row-major vec: -i (H kron I - I kron H^T), indices (a, b, c, e)
        hs = _batch_last(h_table[lo:hi])
        comm = np.zeros((d, d, d, d, hi - lo), dtype=complex)
        for k in range(d):
            comm[:, k, :, k] = hs
        for k in range(d):
            comm[k, :, k, :] -= hs.transpose(1, 0, 2)
        comm = comm.reshape(d * d, d * d, hi - lo)
        comm *= -1j
        comm += dissipator
        return comm

    flat = np.empty((out.shape[0], d * d), dtype=complex)
    _propagate(superoperators, rho0.reshape(d * d), substeps, h, flat, constant)
    rhos = flat.reshape(out.shape)
    rhos_dag = rhos.conj().transpose(0, 2, 1)
    out[:] = 0.5 * (rhos + rhos_dag)
    return 0.5 * float(np.max(np.abs(rhos - rhos_dag)))
