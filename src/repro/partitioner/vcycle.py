"""hMetis-style V-cycle refinement.

The paper (Section III-C) contrasts its iterative refinement with "the
so-called V-cycle refinement included in hMetis, which is a multi-level
postprocessing procedure with a restricted coarsening (respecting the
current partitioning) followed by Kernighan–Lin refinement at all levels".
This module implements that procedure, both as a quality option for the
partitioner and as the comparator for the IR-vs-V-cycle ablation.

One V-cycle:

1. coarsen with *restricted* matching — only vertices of the same part
   may merge — so the current partitioning projects to every level with
   an identical cut;
2. refine the coarsest projection with FM;
3. uncoarsen, FM-refining at every level.

Like Algorithm 2, the result is monotonically non-increasing in the cut;
unlike it, a cycle re-coarsens (paying coarsening time) and can move whole
clusters across the cut at the coarse levels.

:func:`vcycle_refine` (two parts) and :func:`kway_vcycle_refine` (k
parts — restricted matching only merges vertices with *equal* part ids,
so it works for arbitrary part vectors unchanged) are validation fronts
over one cycle loop.  Each cycle is one run of the multilevel driver
(:func:`repro.partitioner.multilevel.run_multilevel`) from the
incumbent, and the arity's refiner decides whether the cycle's result
replaces it: the 2-way cycles keep every result, the k-way cycles keep
the best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import _check_ceilings, _check_parts
from repro.partitioner.multilevel import Bisection, KWay, run_multilevel
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator

__all__ = ["VCycleResult", "vcycle_refine", "kway_vcycle_refine"]

# Observability (see docs/observability.md): cycle counts and the
# keep-best verdict per cycle; never consulted by the algorithm.
_VCYCLE_CYCLES = _metrics.counter(
    "repro_vcycle_cycles_total", "V-cycles executed", ("kind",)
)
_VCYCLE_KEEP_BEST = _metrics.counter(
    "repro_vcycle_keep_best_total",
    "Keep-best decisions at k-way V-cycle boundaries",
    ("decision",),
)


@dataclass
class VCycleResult:
    """Outcome of V-cycle refinement.

    Attributes
    ----------
    parts:
        Refined part vector (fresh array).
    cut:
        Connectivity-1 cut of ``parts``.
    cycles:
        Number of V-cycles executed.
    cuts:
        Cut after each cycle (index 0 is the input cut); non-increasing.
    feasible:
        Whether the weight ceilings hold.
    degraded:
        A :class:`~repro.utils.deadline.Degraded` record when a deadline
        stopped the cycles early, else ``None``.
    """

    parts: np.ndarray
    cut: int
    cycles: int
    cuts: list[int]
    feasible: bool
    degraded: Degraded | None = None


def vcycle_refine(
    h: Hypergraph,
    parts: np.ndarray,
    max_weights: tuple[int, int],
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_cycles: int = 3,
) -> VCycleResult:
    """Refine a bipartitioning of ``h`` with repeated V-cycles.

    Each cycle's result is kept; the cycles stop early when one fails to
    improve the cut.  The input must be a 0/1 part vector; it is not
    modified.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    parts = _check_parts(
        h, parts, 2, "vcycle_refine expects a 0/1 part vector"
    )
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")
    return _vcycles(
        h, parts, Bisection(max_weights), cfg, rng,
        resolve_backend(cfg.kernel_backend), max_cycles,
    )


def kway_vcycle_refine(
    h: Hypergraph,
    parts: np.ndarray,
    nparts: int,
    ceilings: np.ndarray,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    max_cycles: int = 3,
    *,
    backend: KernelBackend | None = None,
    deadline: Deadline | None = None,
) -> VCycleResult:
    """Refine a k-way partitioning of ``h`` with repeated V-cycles.

    The k-way generalization of :func:`vcycle_refine`: each cycle
    re-coarsens with *restricted* matching (only same-part vertices may
    merge, so the k-way assignment projects to every level with an
    identical connectivity-(λ−1) cut), refines the coarsest projection
    with :func:`~repro.partitioner.fm.kway_refine`, then uncoarsens,
    k-way-refining at every level.  ``parts`` holds ids in
    ``[0, nparts)``; ``ceilings`` the per-part weight ceilings (length
    ``nparts``).  The input array is not modified.

    Keep-best contract: a cycle's outcome replaces the incumbent only
    when it wins the lexicographic ``(feasible, -cut)`` order, so from a
    feasible input the reported ``cuts`` are monotonically
    non-increasing and the result is never worse than the input.  An
    *infeasible* input is repaired on the way (``kway_refine`` falls
    back to the swap-capable ``kway_rebalance``), which may raise the
    cut once in exchange for feasibility — never silently kept: the
    ``feasible`` flag always reports the returned vector's true state.

    ``max_cycles=0`` is a pure no-op returning the input cut; so are
    ``nparts=1`` and empty hypergraphs (nothing to refine).

    The keep-best contract is what makes an optional ``deadline`` safe
    here: the incumbent is a complete, scored partitioning before every
    cycle, so an expiry observed at a cycle boundary (or inside a
    cycle's per-level refinements) simply ends the loop with the best
    vector found so far and a ``degraded`` record on the result.
    """
    cfg = get_config(config)
    rng = as_generator(seed)
    nparts = int(nparts)
    if nparts < 1:
        raise PartitioningError(
            f"kway_vcycle_refine needs nparts >= 1, got {nparts}"
        )
    parts = _check_parts(
        h, parts, nparts,
        f"kway_vcycle_refine expects part ids in [0, {nparts})",
    )
    ceilings = _check_ceilings(ceilings, nparts)
    if max_cycles < 0:
        raise PartitioningError("max_cycles must be non-negative")
    if backend is None:
        backend = resolve_backend(cfg.kernel_backend)
    return _vcycles(
        h, parts, KWay(nparts, ceilings), cfg, rng, backend, max_cycles,
        deadline,
    )


def _vcycles(
    h: Hypergraph,
    parts: np.ndarray,
    refiner: Bisection | KWay,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    backend: KernelBackend,
    max_cycles: int,
    deadline: Deadline | None = None,
) -> VCycleResult:
    """Up to ``max_cycles`` restricted-coarsen / refine-up cycles
    (:func:`~repro.partitioner.multilevel.run_multilevel` from the
    incumbent); ``refiner.verdict`` decides whether each cycle's result
    replaces the incumbent and whether to run another cycle."""
    best = parts
    best_cut = connectivity_volume(h, best)
    best_feasible = refiner.feasible(h, best)
    cuts = [best_cut]
    cycles = 0
    degraded = None
    if refiner.can_cycle(h):
        for _ in range(max_cycles):
            if deadline is not None and deadline.expired():
                degraded = Degraded(
                    "vcycle", completed=cycles,
                    skipped=max_cycles - cycles,
                )
                _trace.event("deadline", where="vcycle", completed=cycles)
                break
            with _trace.span("vcycle.cycle", kind=refiner.kind,
                             cycle=cycles) as sp:
                cand = run_multilevel(
                    h, refiner, cfg, rng, backend, deadline, parts=best
                ).parts
                cand_cut = connectivity_volume(h, cand)
                cand_feasible = refiner.feasible(h, cand)
                cycles += 1
                take, go_on = refiner.verdict(
                    (cand_feasible, -cand_cut), (best_feasible, -best_cut)
                )
                sp.set(improved=go_on, cut=cand_cut)
            _VCYCLE_CYCLES.labels(kind=refiner.kind).inc()
            if refiner.keep_best:
                _VCYCLE_KEEP_BEST.labels(
                    decision="improved" if take else "kept"
                ).inc()
            if take:
                best, best_cut = cand, cand_cut
                best_feasible = cand_feasible
            cuts.append(best_cut)
            if not go_on:
                break
    return VCycleResult(
        parts=best,
        cut=best_cut,
        cycles=cycles,
        cuts=cuts,
        feasible=best_feasible,
        degraded=degraded,
    )
