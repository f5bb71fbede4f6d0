"""Algorithm 2: iterative refinement of a bipartitioning.

Any bipartitioning ``(A0, A1)`` can be re-encoded as a medium-grain
instance: direction 0 puts the part-0 nonzeros in ``Ar`` and the part-1
nonzeros in ``Ac`` (direction 1 swaps them).  In the resulting composite
hypergraph the current bipartitioning is exactly representable — every row
group is pure part-0 and every column group pure part-1 — so one
single-level Kernighan–Lin/FM run can only keep or lower the communication
volume (the volume of the hypergraph partitioning *is* the volume of the
matrix partitioning, eqn (6)).

The procedure alternates directions: refine in the current direction until
the volume stops dropping, switch, and stop once *both* directions
stagnate (``V_k == V_{k-2}``, Algorithm 2 line 21).  The volume sequence is
monotonically non-increasing, which makes this a safe, cheap
post-processing step for *any* bipartitioning method — the LB+IR and FG+IR
columns of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.medium_grain import build_medium_grain
from repro.core.split import split_from_bipartition, split_from_kway
from repro.core.volume import check_nonzero_parts, communication_volume
from repro.errors import PartitioningError
from repro.kernels import KernelBackend, resolve_backend
from repro.partitioner.config import PartitionerConfig, get_config
from repro.partitioner.fm import fm_refine, kway_refine
from repro.sparse.matrix import SparseMatrix
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import Deadline, Degraded
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_eps

__all__ = [
    "iterative_refine",
    "RefinementTrace",
    "vcycle_refine_bipartition",
]


@dataclass
class RefinementTrace:
    """Diagnostics of one :func:`iterative_refine` call.

    Attributes
    ----------
    volumes:
        ``V_0, V_1, ...`` — the volume after each iteration (``V_0`` is the
        input volume).  Monotonically non-increasing.
    directions:
        The direction (0/1) used by each iteration (length
        ``len(volumes) - 1``).
    iterations:
        Number of refinement iterations executed.
    converged:
        True when the loop ended by the Algorithm-2 stopping rule rather
        than the ``max_iterations`` safety cap.
    degraded:
        A :class:`~repro.utils.deadline.Degraded` record when a deadline
        stopped the loop before either rule fired, else ``None``.
    """

    volumes: list[int] = field(default_factory=list)
    directions: list[int] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    degraded: Degraded | None = None

    @property
    def initial_volume(self) -> int:
        return self.volumes[0]

    @property
    def final_volume(self) -> int:
        return self.volumes[-1]


def iterative_refine(
    matrix: SparseMatrix,
    parts: np.ndarray,
    eps: float = 0.03,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    *,
    nparts: int | None = None,
    max_weights=None,
    max_iterations: int = 64,
    start_direction: int = 0,
    alternate: bool = True,
    backend: KernelBackend | None = None,
    initial_volume: int | None = None,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, RefinementTrace]:
    """Iteratively refine a partitioning (Algorithm 2, generalized).

    Parameters
    ----------
    matrix:
        The partitioned matrix.
    parts:
        Part id per canonical nonzero; not modified.
    eps:
        Load-imbalance fraction defining the per-part ceilings when
        ``max_weights`` is not given.
    config, seed:
        Partitioner preset (its FM settings drive the KL runs) and RNG.
    nparts:
        Number of parts.  ``None`` (default) or ``2`` runs the paper's
        Algorithm 2 on a bipartitioning, unchanged.  ``nparts > 2``
        drives the k-way generalization: each iteration re-encodes the
        best partitioning with a *majority* split
        (:func:`repro.core.split.split_from_kway` — no split can express
        an arbitrary k-way partitioning exactly), lifts the impure side
        by group majority, runs one k-way FM refinement
        (:func:`repro.partitioner.fm.kway_refine`), and keeps the result
        under a balance-first lexicographic rule: restored feasibility
        always wins, then strictly lower volume.  The traced best-so-far
        volume sequence is monotone non-increasing (up to one jump when
        feasibility is first restored); the direction alternation and
        the double-stagnation stopping rule carry over verbatim.
    max_weights:
        Explicit per-part nonzero-count ceilings: a ``(maxW0, maxW1)``
        pair for bipartitionings (recursive bisection hands down its
        budget here), a length-``nparts`` sequence for ``nparts > 2``.
    max_iterations:
        Safety cap; Algorithm 2 as published always terminates (monotone
        integer sequence), but each iteration costs an FM run, so runaway
        plateaus are cut off.
    start_direction:
        Which encoding to try first (0: ``Ar <- A0``, the paper's choice;
        for k parts: rows take their majority part first).
    alternate:
        The paper's policy switches the encoding direction whenever an
        iteration stagnates (default).  ``alternate=False`` keeps a single
        direction and stops at its first stagnation — the weaker variant
        the ablation benchmark compares against.
    backend:
        Pre-resolved kernel backend shared by all KL runs; defaults to
        ``config.kernel_backend``.
    initial_volume:
        The communication volume of ``parts``, when the caller already
        knows it (a multilevel run's connectivity-1 cut *is* the matrix
        volume by eqn (6), so e.g. the full iterative method hands it
        down instead of paying one redundant volume evaluation per
        iteration).  ``None`` computes it.
    deadline:
        Optional cooperative deadline, checked **between** iterations.
        Algorithm 2 keeps a valid partitioning at every boundary, so an
        expired deadline just ends the loop early with the incumbent and
        a ``trace.degraded`` record; each iteration's inner FM run also
        receives the deadline so a single oversized iteration cannot
        overshoot by more than one pass.

    Returns
    -------
    (parts, trace):
        The refined part vector (fresh array) and a
        :class:`RefinementTrace`.
    """
    k = 2 if nparts is None else int(nparts)
    if k < 1:
        raise PartitioningError(f"nparts must be positive, got {nparts}")
    parts = check_nonzero_parts(matrix, parts, k).copy()
    if k == 2 and parts.size and int(parts.max()) > 1:
        raise PartitioningError("iterative_refine expects a bipartitioning")
    cfg = get_config(config)
    rng = as_generator(seed)
    if start_direction not in (0, 1):
        raise PartitioningError(
            f"start_direction must be 0 or 1, got {start_direction}"
        )
    if k == 1:
        trace = RefinementTrace(converged=True)
        trace.volumes = [
            int(initial_volume)
            if initial_volume is not None
            else communication_volume(matrix, parts)
        ]
        return parts, trace
    if max_weights is None:
        check_eps(eps)
        ceiling = max_allowed_part_size(matrix.nnz, k, eps)
        max_weights = (
            (ceiling, ceiling) if k == 2
            else np.full(k, ceiling, dtype=np.int64)
        )
    steps = _TwoWaySteps(max_weights) if k == 2 else _KWaySteps(k, max_weights)
    if backend is None:
        backend = resolve_backend(cfg.kernel_backend)
    if initial_volume is None:
        initial_volume = communication_volume(matrix, parts)

    trace = RefinementTrace()
    volumes = [int(initial_volume)]
    best = parts
    best_feasible = steps.keep_best and steps.feasible(best)
    direction = start_direction
    k = 1
    while k <= max_iterations:
        if deadline is not None and deadline.expired():
            trace.degraded = Degraded(
                "iterate", completed=k - 1,
                skipped=max_iterations - (k - 1),
            )
            break
        instance, vparts = steps.encode(matrix, best, direction)
        result = steps.refine(
            instance.hypergraph, vparts, cfg, rng, backend, deadline
        )
        cand = instance.nonzero_parts(result.parts)
        vk = communication_volume(matrix, cand)
        if steps.keep_best:
            # Balance first: a feasible candidate always replaces an
            # infeasible best (even at higher volume — restoring eqn (1)
            # is worth volume, the same priority the FM pass itself
            # applies); within equal feasibility only a strictly lower
            # volume wins.
            cand_feasible = steps.feasible(cand)
            if (cand_feasible, -vk) > (best_feasible, -volumes[k - 1]):
                best, best_feasible = cand, cand_feasible
            else:
                vk = volumes[k - 1]
        else:
            best = cand
        volumes.append(vk)
        trace.directions.append(direction)
        if vk == volumes[k - 1]:
            if not alternate:
                trace.converged = True
                k += 1
                break
            direction = 1 - direction
        if k > 1 and vk == volumes[k - 2]:
            trace.converged = True
            k += 1
            break
        k += 1

    trace.volumes = volumes
    trace.iterations = len(trace.directions)
    return best, trace


class _TwoWaySteps:
    """Algorithm 2 as published: an exact re-encoding, 2-way FM, and
    each iteration's result kept (FM never raises the volume)."""

    keep_best = False

    def __init__(self, max_weights) -> None:
        self.max_weights = max_weights

    def encode(self, matrix: SparseMatrix, parts: np.ndarray, direction: int):
        split = split_from_bipartition(matrix, parts, direction)
        instance = build_medium_grain(split)
        return instance, instance.vertex_parts_from_nonzero(parts)

    def refine(self, h, vparts, cfg, rng, backend, deadline):
        return fm_refine(
            h, vparts, self.max_weights, cfg, rng,
            backend=backend, deadline=deadline,
        )


class _KWaySteps:
    """The k-way generalization: a majority re-encoding, which may not
    reproduce the incumbent exactly — an iteration can regress in volume
    or balance — so the best result is kept."""

    keep_best = True

    def __init__(self, nparts: int, max_weights) -> None:
        self.nparts = nparts
        self.ceilings = np.ascontiguousarray(max_weights, dtype=np.int64)
        if self.ceilings.shape != (nparts,):
            raise PartitioningError(
                f"max_weights must have length {nparts}, "
                f"got shape {self.ceilings.shape}"
            )

    def encode(self, matrix: SparseMatrix, parts: np.ndarray, direction: int):
        split = split_from_kway(matrix, parts, direction, nparts=self.nparts)
        instance = build_medium_grain(split)
        return instance, instance.vertex_parts_majority(parts, self.nparts)

    def refine(self, h, vparts, cfg, rng, backend, deadline):
        return kway_refine(
            h, vparts, self.nparts, self.ceilings, cfg, rng,
            backend=backend, deadline=deadline,
        )

    def feasible(self, parts: np.ndarray) -> bool:
        return bool(
            (np.bincount(parts, minlength=self.nparts) <= self.ceilings).all()
        )


def vcycle_refine_bipartition(
    matrix: SparseMatrix,
    parts: np.ndarray,
    eps: float = 0.03,
    config: PartitionerConfig | str = "mondriaan",
    seed: SeedLike = None,
    *,
    max_weights: tuple[int, int] | None = None,
    max_cycles: int = 3,
) -> tuple[np.ndarray, list[int]]:
    """hMetis-style V-cycle post-processing of a matrix bipartitioning.

    The comparator the paper discusses against Algorithm 2 (Section
    III-C): run restricted-coarsening V-cycles on the *fine-grain*
    hypergraph of ``matrix`` starting from the given nonzero
    partitioning.  Monotonically non-increasing like Algorithm 2, but
    pays coarsening time each cycle and does not exploit the
    medium-grain re-encoding freedom.

    Returns the refined nonzero part vector and the per-cycle volume
    list (index 0 = input volume).
    """
    from repro.hypergraph.models import fine_grain_model
    from repro.partitioner.vcycle import vcycle_refine

    parts = check_nonzero_parts(matrix, parts, 2).copy()
    cfg = get_config(config)
    if max_weights is None:
        check_eps(eps)
        ceiling = max_allowed_part_size(matrix.nnz, 2, eps)
        max_weights = (ceiling, ceiling)
    model = fine_grain_model(matrix)
    result = vcycle_refine(
        model.hypergraph,
        parts,  # fine-grain vertices ARE the nonzeros
        max_weights,
        cfg,
        seed,
        max_cycles=max_cycles,
    )
    return model.nonzero_parts(result.parts), result.cuts
