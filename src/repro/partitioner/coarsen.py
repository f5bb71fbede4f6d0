"""Multilevel coarsening: matching and contraction.

Coarsening pairs up strongly connected vertices and contracts each pair into
one coarse vertex, shrinking the hypergraph until it is cheap to partition
directly.  Two matching scores are provided (selected by
``PartitionerConfig.matching``):

* ``"hcm"`` — heavy-connectivity matching: a candidate's score is the total
  cost of nets shared with the seed vertex (Mondriaan-style);
* ``"absorption"`` — PaToH-style absorption score ``cost / (|net| - 1)``,
  which discounts large nets.

Contraction maps pins through the cluster map, deduplicates and sorts
them within each net, drops nets that shrink below two pins (they can
never be cut), and — optionally — merges nets with identical pin sets,
adding their costs, which both shrinks the problem and sharpens FM gains
on the coarse levels.

The matching sweep, the pin contraction and the identical-net merge are
kernel-backend calls (:mod:`repro.kernels`), so the native backend
accelerates coarsening exactly as it does FM refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import KernelBackend, resolve_backend
from repro.partitioner.config import PartitionerConfig

__all__ = ["match_vertices", "contract", "coarsen_level", "CoarseLevel"]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the fine hypergraph and the vertex map into the
    coarse one (``cmap[fine_vertex] = coarse_vertex``)."""

    fine: Hypergraph
    cmap: np.ndarray
    coarse: Hypergraph


def match_vertices(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    restrict_parts: np.ndarray | None = None,
    backend: KernelBackend | None = None,
) -> np.ndarray:
    """Greedy matching; returns ``match`` with ``match[v]`` the partner of
    ``v`` or ``-1`` for unmatched vertices.

    Vertices are visited in random order; each unmatched vertex scores all
    unmatched neighbours sharing a (not too large) net and takes the best,
    subject to the pair weight not exceeding ``max_cluster_weight``.

    ``restrict_parts`` enables hMetis-style *restricted* coarsening: only
    vertices in the same part may match, so any partitioning constant on
    the clusters projects exactly (used by V-cycle refinement).

    The candidate-scoring sweep runs on the kernel backend selected by
    ``config.kernel_backend`` (or the explicit ``backend``); the RNG is
    consumed here, identically for every backend.
    """
    nverts = h.nverts
    if nverts == 0 or h.npins == 0:
        return np.full(nverts, -1, dtype=np.int64)
    if backend is None:
        backend = resolve_backend(config.kernel_backend)
    order = rng.permutation(nverts)
    return backend.match_vertices(
        backend.fm_state(h),
        order,
        config.matching == "absorption",
        config.max_net_size_matching,
        max_cluster_weight,
        restrict_parts,
    )


def contract(
    h: Hypergraph,
    match: np.ndarray,
    *,
    merge_identical_nets: bool = True,
    backend: KernelBackend | None = None,
) -> tuple[np.ndarray, Hypergraph]:
    """Contract matched pairs; returns ``(cmap, coarse_hypergraph)``.

    ``cmap`` maps each fine vertex to its coarse id; matched pairs share an
    id, unmatched vertices keep their own.  Coarse vertex weights are the
    sums over their clusters.
    """
    nverts = h.nverts
    ids = np.arange(nverts, dtype=np.int64)
    match = np.asarray(match, dtype=np.int64)
    # A vertex is a representative if unmatched or the smaller id of its pair.
    is_rep = (match < 0) | (ids < match)
    cmap = np.empty(nverts, dtype=np.int64)
    cmap[is_rep] = np.cumsum(is_rep)[is_rep] - 1
    nonrep = ~is_rep
    cmap[nonrep] = cmap[match[nonrep]]
    ncoarse = int(is_rep.sum())

    cvwgt = np.zeros(ncoarse, dtype=np.int64)
    np.add.at(cvwgt, cmap, h.vwgt)

    if backend is None:
        # No config reaches a bare contract() call: default to the
        # reference backend (predictable, and every backend must be
        # bit-identical to it anyway) rather than "auto".
        backend = resolve_backend("python")
    xpins, pins, ncost = backend.contract_pins(h, cmap)
    if merge_identical_nets and xpins.size > 2:
        xpins, pins, ncost = backend.merge_identical(xpins, pins, ncost)

    coarse = Hypergraph(
        ncoarse, xpins, pins, vwgt=cvwgt, ncost=ncost, validate=False
    )
    return cmap, coarse


def coarsen_level(
    h: Hypergraph,
    config: PartitionerConfig,
    rng: np.random.Generator,
    max_cluster_weight: int,
    backend: KernelBackend | None = None,
    restrict_parts: np.ndarray | None = None,
) -> CoarseLevel:
    """Run one matching + contraction step (restricted to same-part
    pairs when ``restrict_parts`` is given, see :func:`match_vertices`)."""
    if backend is None:
        backend = resolve_backend(config.kernel_backend)
    match = match_vertices(
        h, config, rng, max_cluster_weight,
        restrict_parts=restrict_parts, backend=backend,
    )
    cmap, coarse = contract(
        h,
        match,
        merge_identical_nets=config.merge_identical_nets,
        backend=backend,
    )
    return CoarseLevel(fine=h, cmap=cmap, coarse=coarse)
