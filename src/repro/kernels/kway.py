"""Shared setup for the k-way FM kernels (direct k-way partitioning).

The 2-way FM kernels track two pin counts per net (``pc0``/``pc1``) and a
single cut-gain per vertex.  Their k-way generalization — used by
:mod:`repro.core.kway` — optimizes the *connectivity-(λ−1)* metric
directly, which needs richer state:

``occ``
    Per-net part-occupancy counts (``nnets x k``): ``occ[n, p]`` is the
    number of pins of net ``n`` in part ``p``.  ``λ_n`` is the number of
    nonzero entries of row ``n``.
``connect``
    Per-vertex part-connectivity weights (``nverts x k``):
    ``connect[v, t] = sum(cost[n] for n ∋ v if occ[n, t] > 0)``.
``base``
    ``gain_leave[v] - C_v`` where ``gain_leave[v] = sum(cost[n] for n ∋ v
    if occ[n, part[v]] == 1)`` (the connectivity drop of removing ``v``
    from its part) and ``C_v = sum(cost[n] for n ∋ v)``.  The exact gain
    of moving ``v`` to part ``t`` is then ``base[v] + connect[v, t]``.
``best_to`` / ``best_gain``
    Each vertex's cached best move: the target part maximizing
    ``connect[v, t]`` over ``t != part[v]`` (ties to the lowest part id)
    and its gain.  The move loops keep these caches *exact* after every
    move, so the gain-bucket key is always the true best gain.

All of it is computed here vectorized, shared by the ``"python"`` and
``"native"`` backends — only the sequential move loop differs, which is
what makes the backends bit-compatible.  (The 2-way pass set-up,
:func:`repro.kernels.state.compute_fm_setup`, is the reference for a C
port inside the native move loop; this one has no C port yet.)

The gain bound of the 2-way pass carries over: ``|base[v] +
connect[v, t]| <= C_v <= max_vertex_net_cost``, so the k-way buckets
reuse ``FMPassState.max_gain`` / ``nbuckets`` unchanged (one bucket
array instead of one per side — k-way selection has no "side").
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["compute_kway_setup"]


def compute_kway_setup(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    boundary_only: bool,
) -> tuple[np.ndarray, ...]:
    """Vectorized per-pass k-way FM setup, shared by every backend.

    Returns ``(occ, pw, base, connect, best_to, best_gain, insert_mask)``
    as described in the module docstring; ``pw`` is the part-weight
    vector and ``insert_mask`` the bucket-seeding mask (all vertices, or
    only vertices on nets with ``λ >= 2`` when ``boundary_only``).  An
    *infeasible* start (some part over its ceiling) always seeds every
    vertex: rebalancing must be able to move interior vertices — with a
    fully interior overweight part there would be no boundary at all.
    Requires ``nparts >= 2``.
    """
    k = int(nparts)
    net_ids = h.net_ids()
    pin_parts = parts[h.pins]
    occ = np.zeros((h.nnets, k), dtype=np.int64)
    np.add.at(occ, (net_ids, pin_parts), 1)
    pw = np.bincount(parts, weights=h.vwgt, minlength=k).astype(np.int64)

    costs = h.ncost[net_ids]
    sole = occ[net_ids, pin_parts] == 1
    gain_leave = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(gain_leave, h.pins, costs * sole)
    cv = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(cv, h.pins, costs)
    base = gain_leave - cv

    present = occ > 0
    connect = np.zeros((h.nverts, k), dtype=np.int64)
    np.add.at(connect, h.pins, costs[:, None] * present[net_ids])

    # Best admissible-ignoring move per vertex: argmax over t != part[v]
    # of connect[v, t]; np.argmax resolves ties to the lowest part id,
    # the discipline the move loops preserve incrementally.
    vids = np.arange(h.nverts, dtype=np.int64)
    masked = connect.copy()
    if h.nverts:
        masked[vids, parts] = -1
    best_to = (
        masked.argmax(axis=1).astype(np.int64)
        if h.nverts
        else np.empty(0, dtype=np.int64)
    )
    # connect >= 0 and k >= 2, so the best non-own entry is >= 0.
    best_conn = masked[vids, best_to] if h.nverts else best_to
    best_gain = base + np.maximum(best_conn, 0)

    if boundary_only and bool(np.all(pw <= np.asarray(ceilings))):
        cut_net = present.sum(axis=1) >= 2
        boundary = np.zeros(h.nverts, dtype=bool)
        np.logical_or.at(boundary, h.pins, cut_net[net_ids])
        insert_mask = boundary
    else:
        insert_mask = np.ones(h.nverts, dtype=bool)
    return occ, pw, base, connect, best_to, best_gain, insert_mask
