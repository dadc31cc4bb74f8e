"""Fixed-step RK4 kernels behind the propagators.

RK4 applied to a linear ODE y' = A(t) y advances the state by one fixed
matrix per step. The kernels receive the generator already multiplied by
the step, B = h A, at the start, middle and end of the step:

    M = I + (B0 + 2 K2 + 2 K3 + K4) / 6,
    K2 = Bm (I + B0/2),  K3 = Bm (I + K2/2),  K4 = B1 (I + K3),

so every product is one of h A factors and cannot overflow while h A is
of order one (a time-rescaled problem gives the same maps). The kernels
build these maps for a batch of steps in one broadcast expression, fold
the ``substeps`` maps of each grid interval into one with pairwise
batched products, and apply the n interval maps in blocks (``_apply``):
prefix products inside blocks of about sqrt(n)/2 maps, formed for all
blocks at once, one matrix-vector product per block to carry the state
across, and one batched contraction for every grid state, so O(sqrt(n))
Python steps in all. One fold path serves every r: the step maps of
whole intervals, about ``_BATCH_STEPS`` at a time, are built and folded
together, so an interval with more substeps is a batch of its own, at
most ``dynamics._MAX_SUBSTEPS`` maps. The interval maps are written
straight into one (D, D, n) stack (``_blocked``) and turned into prefix
products in place, so the blocked application holds O(n D^2) memory:
16 n D^2 bytes, 1.3 GB for D = 9 and a million grid points. Closed
systems use B = -i h H on the state vector; open systems use h times the
d^2 x d^2 Lindblad superoperator on the row-major vectorized density
matrix.

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
so no Python callback happens during stepping; each batch of rows is
scaled into B as it is transposed. A table of 2r + 1 rows for r
substeps holds the one grid interval of a time-independent generator:
its map, the same fold of the same r step maps as with the full table,
is built once and written to every interval's slot of the blocked stack.
Kernels do the arithmetic only: they write the raw grid states into
``out`` and return nothing; checks, symmetrization, renormalization and
retries live in ``tflow.dynamics``.
"""

from __future__ import annotations

import math

import numpy as np

# RK4 step maps of whole intervals (at least one) built and folded at once;
# bounds the memory of building and folding them (the blocked application
# holds the n interval maps). A library-sweep round took about 4,000 minor
# page faults at 2048 (its 3 x 3 stacks of 300 kB were freed to the OS and
# faulted in again) and about one at 1024.
_BATCH_STEPS = 1024


def _mm(a, b):
    """a @ b on (D, D, ...) stacks, batch axes last: a sum of D broadcast
    products, each one ufunc over the contiguous batch."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _step_maps(gens):
    """RK4 step maps (D, D, n) from step-scaled generators B = h A (D, D, 2n + 1)
    at half-step nodes."""
    b0, bm, b1 = gens[..., :-1:2], gens[..., 1::2], gens[..., 2::2]
    k2 = bm + 0.5 * _mm(bm, b0)
    k3 = bm + 0.5 * _mm(bm, k2)
    k4 = b1 + _mm(b1, k3)
    maps = (b0 + 2.0 * (k2 + k3) + k4) / 6.0
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


def _interval_maps(generators, h_table, g0, g1, r):
    """Maps (D, D, g1 - g0) across grid intervals g0..g1-1, each folded
    from r RK4 steps.

    ``generators(rows)`` returns the step-scaled generators (D, D, k) of k
    table rows.
    """
    maps = _step_maps(generators(h_table[2 * g0 * r:2 * g1 * r + 1]))
    return _fold(maps.reshape(maps.shape[:2] + (g1 - g0, r)))


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


def _propagate(generators, h_table, y0, r, out):
    """Fill out[g] (shape (n_grid, D)) with the state at grid point g."""
    d, n_intervals = y0.shape[0], out.shape[0] - 1
    maps, slots = _blocked(d, n_intervals)
    flat = maps.reshape(d, d, -1)
    if len(h_table) == 2 * r + 1:  # one interval: its map serves every slot
        flat[..., slots] = _interval_maps(generators, h_table, 0, 1, r)
    else:
        per_batch = max(1, _BATCH_STEPS // r)
        for g0 in range(0, n_intervals, per_batch):
            g1 = min(g0 + per_batch, n_intervals)
            flat[..., slots[g0:g1]] = _interval_maps(generators, h_table, g0, g1, r)
    _apply(maps, y0, out)


def _batch_last(table):
    """(k, d, d) table rows as a new contiguous complex (d, d, k) stack, which
    the caller may scale in place (for d = 1 the transpose is contiguous)."""
    return np.array(table.transpose(1, 2, 0), dtype=complex, order="C")


def schrodinger_steps(h_table, psi0, substeps, h, out):
    """RK4 for i dpsi/dt = H(t) psi; out (n_grid, d) receives psi at grid points."""
    def generators(rows):
        gens = _batch_last(rows)
        gens *= -1j * h
        return gens

    _propagate(generators, h_table, psi0, substeps, out)


def lindblad_steps(h_table, jump_ops, half_b, rho0, substeps, h, out):
    """RK4 for the master equation; the contiguous out (n_grid, d, d) receives
    the unsymmetrized rho at grid points."""
    d = rho0.shape[0]
    eye = np.eye(d)
    # row-major vec: vec(X rho Y) = (X kron Y^T) vec(rho), so A rho A^dag
    # is A kron conj(A)
    dissipator = -np.kron(half_b, eye) - np.kron(eye, half_b.T)
    for a in jump_ops:
        dissipator = dissipator + np.kron(a, a.conj())
    dissipator = h * dissipator[..., None]

    def superoperators(rows):
        # row-major vec: -i h (H kron I - I kron H^T), indices (a, b, c, e)
        hs = _batch_last(rows)
        comm = np.zeros((d, d, d, d, len(rows)), dtype=complex)
        for k in range(d):
            comm[:, k, :, k] = hs
        for k in range(d):
            comm[k, :, k, :] -= hs.transpose(1, 0, 2)
        comm = comm.reshape(d * d, d * d, len(rows))
        comm *= -1j * h
        comm += dissipator
        return comm

    _propagate(superoperators, h_table, rho0.reshape(d * d), substeps,
               out.reshape(out.shape[0], d * d))
