"""The multilevel engine: one coarsen → solve → refine-up driver.

Coarsen until the hypergraph is small (or matching stalls), partition the
coarsest level, then project the partition back up level by level,
refining at each level — the scheme shared by Mondriaan, PaToH, hMetis,
and MLpart (paper Section II).

One driver, :func:`run_multilevel`, serves both arities and both uses:

* **construction** (no input partitioning): unrestricted coarsening, the
  coarsest level solved from scratch — :func:`multilevel_bipartition`
  and :func:`multilevel_kway`;
* **V-cycle** (an input partitioning): coarsening restricted to
  same-part merges, so the input projects exactly to every level and
  the coarsest level is solved by refining that projection —
  :mod:`repro.partitioner.vcycle`.

Everything that differs between two parts and k parts lives in a small
*refiner* object, :class:`Bisection` or :class:`KWay`: the per-level FM
variant, the coarsest-level construction, the cluster cap and coarse
target, the per-level pass budget, the span and metric labels, and the
rule that decides whether a V-cycle's result replaces the incumbent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.coarsen import CoarseLevel, coarsen_level
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import (
    FMResult,
    _check_ceilings,
    _parts_feasible,
    fm_refine,
    kway_rebalance,
    kway_refine,
)
from repro.partitioner.initial import (
    greedy_kway_grow,
    greedy_kway_vertex_parts,
    initial_partition,
)
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "Bisection",
    "KWay",
    "MultilevelRun",
    "run_multilevel",
    "multilevel_bipartition",
    "multilevel_kway",
    "recursive_kway_parts",
]

# Observability (see docs/observability.md): coarsening depth per
# engine, never consulted by the algorithm.
_COARSEN_LEVELS = _metrics.counter(
    "repro_coarsen_levels_total",
    "Coarsening levels built by the multilevel engines",
    ("engine",),
)


class Bisection:
    """Refiner for two parts under per-side ceilings ``max_weights``.

    FM with cut-net gains (:func:`~repro.partitioner.fm.fm_refine`) at
    every level, the best-of-``n_initial`` construction
    (:func:`~repro.partitioner.initial.initial_partition`) at the
    coarsest, and a V-cycle that keeps each cycle's result and stops at
    the first cycle that does not lower the cut.

    The class attributes and methods below are the refiner protocol
    :func:`run_multilevel` and the V-cycle loop rely on.
    """

    kind = "bi"  # metric label
    label = "multilevel"  # span prefix
    keep_best = False
    cap_divisor = 1  # of the cluster cap when constructing
    coarse_floor = 0  # construction coarsens to max(coarse_target, this)
    level_passes = (None, None)  # (intermediate, finest); None = config's

    def __init__(self, max_weights: tuple[int, int]) -> None:
        self.max_weights = max_weights
        self.min_ceiling = min(max_weights[0], max_weights[1])

    def refine(self, h, parts, cfg, rng, backend, deadline=None,
               max_passes=None) -> FMResult:
        """FM-refine ``parts`` on ``h``."""
        return fm_refine(
            h, parts, self.max_weights, cfg, rng, max_passes,
            backend=backend, deadline=deadline,
        )

    def solve(self, h, cfg, rng, backend, deadline):
        """Partition the coarsest level from scratch; returns the
        :class:`FMResult` and whether a deadline cut the solve short."""
        with _trace.span("multilevel.initial"):
            result = initial_partition(
                h, self.max_weights, cfg, rng, backend=backend
            )
        return result, False

    def feasible(self, h: Hypergraph, parts: np.ndarray) -> bool:
        """Do the part weights of ``parts`` fit the ceilings?"""
        return _parts_feasible(h, parts, 2, self.max_weights)

    def can_cycle(self, h: Hypergraph) -> bool:
        """Is there anything for a V-cycle on ``h`` to do?"""
        return True

    def verdict(self, cand: tuple, best: tuple) -> tuple[bool, bool]:
        """``(take, go_on)`` for a V-cycle candidate; keys are
        ``(feasible, -cut)``.  Always take it; go on while the cut
        drops."""
        return True, cand[1] > best[1]


class KWay:
    """Refiner for ``nparts`` parts under per-part ``ceilings``.

    k-way FM with connectivity-λ gains
    (:func:`~repro.partitioner.fm.kway_refine`) at every level, ranked
    construction candidates plus the swap-capable weight repair at the
    coarsest, and a keep-best V-cycle.  Constructing, it clusters more
    finely than bisection (a quarter of the cap, at least 8 coarsest
    vertices per part, or the coarsest level cannot place k boundaries
    anywhere useful) and gives intermediate levels one FM pass, the
    finest two: the hierarchy itself revisits every vertex at each of
    the O(log n) levels, so extra same-level passes buy little cut for
    a lot of time.
    """

    kind = "kway"
    label = "multilevel_kway"
    keep_best = True
    cap_divisor = 4
    level_passes = (1, 2)

    def __init__(self, nparts: int, ceilings: np.ndarray) -> None:
        self.nparts = nparts
        self.ceilings = ceilings
        self.min_ceiling = int(ceilings.min())
        self.coarse_floor = 8 * nparts

    def refine(self, h, parts, cfg, rng, backend, deadline=None,
               max_passes=None) -> FMResult:
        """k-way-FM-refine ``parts`` on ``h``."""
        return kway_refine(
            h, parts, self.nparts, self.ceilings, cfg, rng, max_passes,
            backend=backend, deadline=deadline,
        )

    def solve(self, h, cfg, rng, backend, deadline):
        """Coarsest-level construction: one recursive-bisection candidate
        (hierarchically nested boundaries — the quality anchor) plus
        cheap restarts alternating net growing (topology — connected,
        low-cut parts) and the weight-only greedy spread (balance — fits
        snug ceilings the others can overshoot), ranked by (overshoot,
        cut) *after* the swap-capable weight repair — a topology-aware
        candidate a few percent overweight almost always beats a
        balanced-but-scattered one once repaired, so ranking raw
        overshoot first would throw the best cuts away.  The coarsest
        level is small, so repairing and scoring every candidate's exact
        connectivity cut is cheap.  An expired ``deadline`` keeps the
        best candidate so far (or one greedy spread)."""
        nparts, ceilings = self.nparts, self.ceilings
        cut_short = False
        best: np.ndarray | None = None
        best_key: tuple | None = None
        initial_span = _trace.span("multilevel_kway.initial")
        for attempt in range(max(2, cfg.n_initial)):
            if deadline is not None and deadline.expired():
                cut_short = True
                if best is None:
                    # Never return empty-handed: the weight-only greedy
                    # spread is near-instant and always yields a
                    # complete assignment; the repair keeps it as
                    # balanced as single moves and swaps can.
                    best = greedy_kway_vertex_parts(h, nparts, ceilings, rng)
                    kway_rebalance(h, best, nparts, ceilings)
                break
            if attempt == 0:
                cand = recursive_kway_parts(
                    h, nparts, ceilings, cfg, rng, backend=backend
                )
            elif attempt % 2 == 1:
                cand = greedy_kway_grow(h, nparts, ceilings, rng)
            else:
                cand = greedy_kway_vertex_parts(
                    h, nparts, ceilings, rng,
                    strategy="balance" if (attempt // 2) % 2 == 1 else "pack",
                )
            kway_rebalance(h, cand, nparts, ceilings)
            over = int(
                (part_weights(h, cand, nparts) - ceilings).max(initial=0)
            )
            key = (over, connectivity_volume(h, cand))
            if best_key is None or key < best_key:
                best, best_key = cand, key
        initial_span.end()
        assert best is not None
        with _trace.span("multilevel_kway.coarsest_refine"):
            result = self.refine(h, best, cfg, rng, backend, deadline)
        return result, cut_short or result.degraded is not None

    def feasible(self, h: Hypergraph, parts: np.ndarray) -> bool:
        """Do the part weights of ``parts`` fit the ceilings?"""
        return _parts_feasible(h, parts, self.nparts, self.ceilings)

    def can_cycle(self, h: Hypergraph) -> bool:
        """Two or more parts, a nonempty ``h``, and a total weight the
        ceilings can hold (no sequence of moves repairs more)."""
        return (
            self.nparts >= 2
            and h.nverts > 0
            and h.total_weight() <= int(self.ceilings.sum())
        )

    def verdict(self, cand: tuple, best: tuple) -> tuple[bool, bool]:
        """Keep-best: take the candidate and go on only when it wins the
        lexicographic ``(feasible, -cut)`` order."""
        better = cand > best
        return better, better


@dataclasses.dataclass
class MultilevelRun:
    """Outcome of one :func:`run_multilevel` call.

    ``result`` is the last refinement's :class:`FMResult` — it describes
    a coarser level than ``parts`` when a deadline skipped the finest
    refinements.  ``refined``/``skipped`` count uncoarsening levels;
    ``cut_short`` is set when coarsening or the coarsest-level solve
    stopped at a deadline.
    """

    parts: np.ndarray
    result: FMResult
    refined: int
    skipped: int
    cut_short: bool


def _span(label: str | None, stage: str, **attrs):
    return (
        _trace.span(f"{label}.{stage}", **attrs) if label else _trace.NULL_SPAN
    )


def run_multilevel(
    h: Hypergraph,
    refiner: Bisection | KWay,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    backend: KernelBackend,
    deadline: Deadline | None = None,
    parts: np.ndarray | None = None,
) -> MultilevelRun:
    """Coarsen ``h``, solve the coarsest level, project and refine up.

    Without ``parts`` this is a construction: unrestricted matching down
    to ``max(coarse_target, refiner.coarse_floor)`` vertices, clusters
    capped at ``cluster_weight_frac`` of the minimum ceiling divided by
    ``refiner.cap_divisor``, the coarsest level solved by
    ``refiner.solve``, ``refiner.level_passes`` FM passes per level, and
    one span per phase.  With ``parts`` it is one V-cycle: matching
    restricted to same-part pairs (the partitioning projects to every
    level with an identical cut) down to ``coarse_target``, the
    undivided cap, the coarsest projection refined instead of solved,
    the config's full pass budget everywhere, and no phase spans.

    ``deadline`` is checked before each coarsening step and each
    uncoarsening level: an expiry stops coarsening, and projects the
    remaining levels *without* refining them — the assignment stays
    complete and its part weights unchanged; only the polish is lost.
    """
    cycle = parts is not None
    base_cap = int(cfg.cluster_weight_frac * refiner.min_ceiling)
    if cycle:
        cap, target = max(1, base_cap), cfg.coarse_target
        label, level_passes = None, (None, None)
    else:
        cap = max(1, base_cap // refiner.cap_divisor)
        target = max(cfg.coarse_target, refiner.coarse_floor)
        label, level_passes = refiner.label, refiner.level_passes

    # ------------------------------------------------------------------ #
    # Coarsening.
    # ------------------------------------------------------------------ #
    cut_short = False
    levels: list[CoarseLevel] = []
    cur, cur_parts = h, parts
    with _span(label, "coarsen") as sp:
        while cur.nverts > target and len(levels) < cfg.max_levels:
            if deadline is not None and deadline.expired():
                cut_short = True
                _trace.event("deadline", where="coarsen")
                break  # partition whatever granularity we reached
            level = coarsen_level(
                cur, cfg, rng, cap, backend=backend, restrict_parts=cur_parts
            )
            # Matching stalled: further levels would be wasted work.  The
            # two forms are equal in exact arithmetic but round apart at
            # some ``min_reduction`` values; each path keeps its own.
            if cycle:
                stalled = level.coarse.nverts > (
                    (1.0 - cfg.min_reduction) * cur.nverts
                )
            else:
                stalled = (
                    1.0 - level.coarse.nverts / cur.nverts < cfg.min_reduction
                )
            if stalled:
                break
            if cycle:
                # Constant on clusters by construction.
                coarse_parts = np.empty(level.coarse.nverts, dtype=np.int64)
                coarse_parts[level.cmap] = cur_parts
                cur_parts = coarse_parts
            levels.append(level)
            cur = level.coarse
        sp.set(levels=len(levels), coarse_nverts=cur.nverts)
    if not cycle:
        _COARSEN_LEVELS.labels(engine=refiner.kind).inc(len(levels))

    # ------------------------------------------------------------------ #
    # The coarsest level.
    # ------------------------------------------------------------------ #
    if cycle:
        result = refiner.refine(cur, cur_parts, cfg, rng, backend, deadline)
    else:
        result, solve_short = refiner.solve(cur, cfg, rng, backend, deadline)
        cut_short = cut_short or solve_short
    parts = result.parts

    # ------------------------------------------------------------------ #
    # Uncoarsening: project and refine at every level.
    # ------------------------------------------------------------------ #
    refined = skipped = 0
    for i, level in enumerate(reversed(levels)):
        parts = parts[level.cmap]
        if deadline is not None and deadline.expired():
            skipped += 1
            _trace.event("level_skipped", level=i)
            continue
        with _span(label, "uncoarsen_level", level=i,
                   nverts=level.fine.nverts):
            result = refiner.refine(
                level.fine, parts, cfg, rng, backend, deadline,
                level_passes[i == len(levels) - 1],
            )
        parts = result.parts
        refined += 1
    return MultilevelRun(parts, result, refined, skipped, cut_short)


def multilevel_bipartition(
    h: Hypergraph,
    max_weights: tuple[int, int],
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    backend: KernelBackend | None = None,
) -> FMResult:
    """Bipartition ``h`` under per-side weight ceilings ``max_weights``.

    Returns an :class:`~repro.partitioner.fm.FMResult` for the finest level
    (``parts`` has one entry per vertex of ``h``).  The kernel backend is
    resolved once (from ``config.kernel_backend`` unless given) and shared
    by every matching sweep and FM call of the run.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    if backend is None:
        backend = resolve_backend(cfg.kernel_backend)
    return run_multilevel(h, Bisection(max_weights), cfg, rng, backend).result


def recursive_kway_parts(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig,
    rng: np.random.Generator,
    backend: KernelBackend | None = None,
) -> np.ndarray:
    """Recursive-bisection construction of an initial k-way assignment.

    Splits the part range ``[0, nparts)`` in half, bipartitions ``h``
    under side ceilings summed from each half's per-part ceilings,
    induces the two sub-hypergraphs
    (:meth:`~repro.hypergraph.hypergraph.Hypergraph.induce`), and
    recurses — depth-first, left side first, so the vertex order and
    RNG stream are deterministic.  Sub-hypergraphs above
    ``config.coarse_target`` vertices are bipartitioned with the full
    multilevel engine (:func:`multilevel_bipartition`); smaller ones
    with the flat 2-way initial machinery (:func:`~repro.partitioner.
    initial.initial_partition`).  Hierarchically nested boundaries make
    this by far the strongest k-way construction on structured
    instances; it is meant for the *coarse* hypergraphs of the k-way
    multilevel engine's coarsest level, where the FM work is cheap.

    The bisections run under a lightened search budget (two initial
    attempts, at most two FM passes): the construction only has to
    place boundaries approximately — every level of the k-way
    uncoarsening refines them afterwards.
    """
    config = dataclasses.replace(
        config,
        n_initial=2,
        fm_max_passes=min(2, config.fm_max_passes),
    )
    parts = np.zeros(h.nverts, dtype=np.int64)

    def split(sub: Hypergraph, ids: np.ndarray, lo: int, hi: int) -> None:
        k = hi - lo
        if k <= 1 or ids.size == 0:
            parts[ids] = lo
            return
        k0 = k // 2
        cap0 = int(np.sum(ceilings[lo : lo + k0]))
        cap1 = int(np.sum(ceilings[lo + k0 : hi]))
        if sub.total_weight() > cap0 + cap1:
            # An ancestor bisection overflowed this subtree's combined
            # ceilings (FM kept an infeasible side).  No feasible
            # bisection exists; split by weight alone and let the
            # candidate ranking / FM rebalancing judge the result.
            two = greedy_kway_vertex_parts(
                sub, 2, np.array([cap0, cap1], dtype=np.int64), rng
            )
            left = two == 0
        elif sub.nverts > config.coarse_target:
            result = multilevel_bipartition(
                sub, (cap0, cap1), config, rng, backend=backend
            )
            left = result.parts == 0
        else:
            result = initial_partition(
                sub, (cap0, cap1), config, rng, backend=backend
            )
            left = result.parts == 0
        lids, rids = ids[left], ids[~left]
        split(sub.induce(np.flatnonzero(left)), lids, lo, lo + k0)
        split(sub.induce(np.flatnonzero(~left)), rids, lo + k0, hi)

    split(h, np.arange(h.nverts, dtype=np.int64), 0, int(nparts))
    return parts


def multilevel_kway(
    h: Hypergraph,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    backend: KernelBackend | None = None,
    deadline: Deadline | None = None,
) -> FMResult:
    """Partition ``h`` into ``nparts`` parts under per-part ``ceilings``.

    The direct k-way analogue of :func:`multilevel_bipartition`: coarsen
    with *unrestricted* matching until at most
    ``max(config.coarse_target, 8 * nparts)`` vertices remain (enough
    headroom that the coarsest level stays k-way partitionable), build
    the coarsest partitioning from ranked construction candidates
    (recursive bisection, net growing, greedy spread — see
    :meth:`KWay.solve`) plus k-way FM
    (:func:`~repro.partitioner.fm.kway_refine`), then project up level
    by level, k-way-refining each.  The connectivity-(λ−1) cut is the
    objective throughout — no intermediate two-sided proxy.

    Returns an :class:`~repro.partitioner.fm.FMResult` for the finest
    level.  Requires ``nparts >= 2`` (``nparts == 1`` has nothing to
    optimize — callers short-circuit it).

    An expired ``deadline`` degrades each phase at its natural boundary:
    coarsening stops adding levels, the construction keeps the cheapest
    feasible-ish candidate instead of ranking every restart, and
    uncoarsening projects the remaining levels *without* refining them —
    always returning a complete finest-level assignment, flagged via the
    result's ``degraded`` record.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    nparts = int(nparts)
    if nparts < 2:
        raise PartitioningError(
            f"multilevel_kway needs nparts >= 2, got {nparts}"
        )
    ceilings = _check_ceilings(ceilings, nparts)
    if backend is None:
        backend = resolve_backend(cfg.kernel_backend)
    if h.nverts == 0:
        return FMResult(
            parts=np.zeros(0, dtype=np.int64),
            cut=0,
            feasible=True,
            passes=0,
            improvement=0,
        )
    refiner = KWay(nparts, ceilings)
    run = run_multilevel(h, refiner, cfg, rng, backend, deadline)
    if not (run.skipped or run.cut_short):
        return run.result
    # ``run.result`` may describe a coarser level than ``run.parts`` (a
    # skipped refinement leaves only the projection); rebuild the
    # outcome from the finest-level vector with its true cut.
    return FMResult(
        parts=run.parts,
        cut=connectivity_volume(h, run.parts),
        feasible=refiner.feasible(h, run.parts),
        passes=run.result.passes,
        improvement=run.result.improvement,
        degraded=Degraded(
            "multilevel", completed=run.refined, skipped=run.skipped
        ),
    )
