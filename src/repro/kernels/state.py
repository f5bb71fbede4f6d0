"""Reusable per-hypergraph state for the FM / matching kernels.

:class:`FMPassState` owns every buffer an FM pass (or a matching sweep)
needs beyond the partition vector itself: the Python-list mirrors of the
CSR arrays used by the ``"python"`` backend, the flat scratch arrays
handed to the compiled loops of the ``"native"`` backend, the gain-bucket
storage, and the derived scalars (gain bound, transit slack, total
weight).

The state is keyed on the hypergraph and cached in ``Hypergraph._cache``
— hypergraphs are immutable, so the state is **never invalidated**.  The
contract for callers:

* a state object may be reused across any number of FM passes, refinement
  calls, and matching sweeps on *the same hypergraph*;
* the topology mirrors are read-only; the scratch buffers are reset at
  the start of every pass, so concurrent passes on one state are not
  allowed (the partitioner is sequential, as is the paper's);
* results are bit-identical whether a state is fresh or reused — the
  equivalence is pinned by ``tests/kernels/test_state.py``.

The native backend also caches the checked addresses of the topology
arrays here (:attr:`topology`); they cannot go stale, because the arrays
are read-only and the state dies with its hypergraph.

Repeated refinement (multilevel per-level calls, V-cycles, Algorithm-2
iterations, ``n_initial`` restarts at the coarsest level) therefore pays
the ``tolist()`` conversions and the ``net_ids`` expansion once per
hypergraph instead of once per call.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["FMPassState", "compute_fm_setup"]

_STATE_KEY = "fm_pass_state"


class FMPassState:
    """Persistent kernel buffers for one hypergraph + backend pair.

    Use :meth:`for_hypergraph` (or ``backend.fm_state(h)``) rather than
    the constructor; both return the cached instance when one exists.
    """

    __slots__ = (
        "_href",
        "backend_name",
        "max_gain",
        "nbuckets",
        "slack",
        "total_weight",
        "lists",
        "arrays",
        "kway",
        "topology",
    )

    def __init__(self, h: Hypergraph, backend_name: str) -> None:
        # A weak reference: the state is cached on ``h`` itself, and a
        # strong back-reference would make every hypergraph (and its
        # list mirrors) wait for the cyclic garbage collector.
        self._href = weakref.ref(h)
        self.backend_name = backend_name
        self.max_gain = h.max_vertex_net_cost()
        self.nbuckets = 2 * self.max_gain + 1
        self.slack = int(h.vwgt.max(initial=0))
        self.total_weight = h.total_weight()
        #: Python-list mirrors (built on demand by the python backend).
        self.lists: dict | None = None
        #: Flat scratch arrays (built on demand by the native backend).
        self.arrays: dict | None = None
        #: k-way bucket/move scratch (built on demand, see
        #: :meth:`kway_arrays`).
        self.kway: dict | None = None
        #: Checked topology addresses (set by the native backend).
        self.topology: tuple | None = None

    @property
    def h(self) -> Hypergraph:
        """The hypergraph this state belongs to."""
        return self._href()

    # ------------------------------------------------------------------ #
    @classmethod
    def for_hypergraph(cls, h: Hypergraph, backend_name: str) -> "FMPassState":
        """Cached state for ``h`` under the named backend."""
        cached = h._cache.get((_STATE_KEY, backend_name))
        if cached is None:
            cached = cls(h, backend_name)
            h._cache[(_STATE_KEY, backend_name)] = cached
        return cached

    # ------------------------------------------------------------------ #
    def list_mirrors(self) -> dict:
        """Python-list mirrors of the CSR topology (built once, reused).

        Single-element reads on plain lists are 2–3x faster than NumPy
        scalar indexing, which is what the scalar move loop does millions
        of times; the conversion cost is paid once per hypergraph.
        """
        if self.lists is None:
            h = self.h
            self.lists = {
                "xpins": h.xpins.tolist(),
                "pins": h.pins.tolist(),
                "xnets": h.xnets.tolist(),
                "vnets": h.vnets.tolist(),
                "cost": h.ncost.tolist(),
                "vwgt": h.vwgt.tolist(),
                "sizes": h.net_sizes().tolist(),
            }
        return self.lists

    def flat_arrays(self) -> dict:
        """Reusable flat scratch arrays for the native backend.

        All int64 / uint8 / float64 (the C loops' element types), sized
        once per hypergraph: the per-net pin counts, gains and seeding
        mask the compiled pass set-up writes, bucket heads and links,
        lock flags, the move log, and the matching scores.
        """
        if self.arrays is None:
            h = self.h
            n = h.nverts
            self.arrays = {
                "pc0": np.empty(h.nnets, dtype=np.int64),
                "pc1": np.empty(h.nnets, dtype=np.int64),
                "bgain": np.empty(n, dtype=np.int64),
                "insert_mask": np.empty(n, dtype=np.uint8),
                "head": np.empty((2, self.nbuckets), dtype=np.int64),
                "nxt": np.empty(n, dtype=np.int64),
                "prv": np.empty(n, dtype=np.int64),
                "inside": np.empty(n, dtype=np.uint8),
                "locked": np.empty(n, dtype=np.uint8),
                "moved": np.empty(n, dtype=np.int64),
                "score": np.empty(n, dtype=np.float64),
                "touched": np.empty(n, dtype=np.int64),
            }
        return self.arrays

    def kway_arrays(self) -> dict:
        """Reusable bucket/move scratch for the k-way FM kernels.

        Only the buffers the vectorized setup does *not* produce live
        here (bucket chains, lock flags, the move log — all independent
        of ``nparts``); the ``k``-wide state (occupancy, connectivity,
        part weights, cached best moves) is freshly allocated by
        :func:`repro.kernels.kway.compute_kway_setup` each pass and
        handed to the move loop directly — copying it into cached
        buffers would be pure overhead.
        """
        if self.kway is None:
            n = self.h.nverts
            self.kway = {
                "head": np.empty(self.nbuckets, dtype=np.int64),
                "nxt": np.empty(n, dtype=np.int64),
                "prv": np.empty(n, dtype=np.int64),
                "inside": np.empty(n, dtype=np.uint8),
                "locked": np.empty(n, dtype=np.uint8),
                "moved": np.empty(n, dtype=np.int64),
                "moved_from": np.empty(n, dtype=np.int64),
            }
        return self.kway


def compute_fm_setup(
    h: Hypergraph, parts: np.ndarray, boundary_only: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-pass FM setup of the ``"python"`` reference.

    Returns ``(pc0, pc1, gain, insert_mask)``: per-net pin counts on each
    side, the initial move gain per vertex, and the bucket-seeding mask
    (all vertices, or only boundary vertices when ``boundary_only``).
    The arithmetic is integer-only; the native backend computes the
    same arrays in C inside its move-loop call (``repro_fm_setup``).
    """
    net_ids = h.net_ids()
    pin_parts = parts[h.pins]
    pc1 = np.zeros(h.nnets, dtype=np.int64)
    np.add.at(pc1, net_ids, pin_parts)
    pc0 = h.net_sizes() - pc1
    own = np.where(pin_parts == 0, pc0[net_ids], pc1[net_ids])
    other = np.where(pin_parts == 0, pc1[net_ids], pc0[net_ids])
    contrib = h.ncost[net_ids] * (
        (own == 1).astype(np.int64) - (other == 0).astype(np.int64)
    )
    gain = np.zeros(h.nverts, dtype=np.int64)
    np.add.at(gain, h.pins, contrib)
    if boundary_only:
        cut_net = (pc0 > 0) & (pc1 > 0)
        boundary = np.zeros(h.nverts, dtype=bool)
        np.logical_or.at(boundary, h.pins, cut_net[net_ids])
        insert_mask = boundary
    else:
        insert_mask = np.ones(h.nverts, dtype=bool)
    return pc0, pc1, gain, insert_mask
