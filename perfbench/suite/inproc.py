"""The in-process workloads: ``bisect_p2`` and ``recursive_p16``.

Each run repeats *rounds*: one operation per input, every operation with
its own partition seed derived from the workload seed, its round and its
input.  Operations are timed one by one; their answers are checked after
the clock stops.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from . import common, oracle, spans

EPS = 0.03
#: Pool size of ``recursive_p16``.
JOBS = 2
#: Seconds of untimed operations on the real inputs before the clock
#: starts: the first few operations of a process run up to 1.7x slower
#: (its heap is still growing).
WARMUP_S = 3.0


class _NoSpans:
    """Stand-in recorder for untraced runs: spans cost nothing."""

    @staticmethod
    def span(name):
        return nullcontext()


@dataclass
class Op:
    """One answered operation."""

    index: tuple[int, int]  # (round, input)
    seconds: float
    volume: int
    digest: str
    nnz: int
    iterations: int = 0
    useful: int = 0


@dataclass
class InProcess:
    name: str
    nparts: int
    #: ``(seed, tiny) -> [(label, matrices)]``: one operation per label
    #: in every round; round ``r`` takes ``matrices[r % len(matrices)]``.
    make_inputs: Callable
    #: ``(matrix, seed, recorder) -> (result, extra)``
    run_op: Callable
    #: Rounds every run completes, whatever ``--seconds`` says; the
    #: volume geomean is taken over exactly these rounds, so it does not
    #: depend on how many rounds fit the time.
    min_rounds: int
    medium_grain: bool
    pool: bool = False


# --------------------------------------------------------------------- #
# bisect_p2: the paper's headline operation and the pipeline after it
# --------------------------------------------------------------------- #
#: Chung-Lu matrices per run, taken in turn by the rounds.  Their cost
#: differs by up to 30% from one random matrix to the next; a run that
#: saw only one would inherit its luck.
CHUNG_LU_VARIANTS = 8


def _bisect_inputs(seed: int, tiny: bool):
    from repro.sparse import generators as gen

    def chung_lu(n, nnz, variants):
        return tuple(gen.chung_lu(n, n, nnz, common.derive_seed(seed, k))
                     for k in range(variants))

    if tiny:
        return [("grid2d_20x20", (gen.grid2d_laplacian(20, 20),)),
                ("chung_lu_300", chung_lu(300, 1500, 2))]
    return [("grid2d_100x100", (gen.grid2d_laplacian(100, 100),)),
            ("chung_lu_5000", chung_lu(5000, 25000, CHUNG_LU_VARIANTS))]


def _bisect_op(matrix, seed: int, rec):
    from repro import bipartition
    from repro.core.volume import communication_volume
    from repro.spmv.bsp import bsp_cost
    from repro.spmv.simulate import simulate_spmv
    from repro.spmv.vector_dist import distribute_vectors

    res = bipartition(matrix, "mediumgrain", eps=EPS, refine=True, seed=seed)
    with rec.span("core.volume"):
        volume = communication_volume(matrix, res.parts)
    with rec.span("spmv.vector_dist"):
        dist = distribute_vectors(matrix, res.parts, 2)
    with rec.span("spmv.simulate"):
        sim = simulate_spmv(matrix, res.parts, 2, dist=dist)
    with rec.span("spmv.bsp"):
        bsp_cost(matrix, res.parts, 2, dist=dist)
    trace = res.refinement
    useful = sum(
        1 for a, b in zip(trace.volumes, trace.volumes[1:]) if b < a
    )
    pipeline = {"communication_volume": volume, "simulate_spmv": sim.volume}
    return res, {"iterations": trace.iterations, "useful": useful,
                 "pipeline": pipeline}


# --------------------------------------------------------------------- #
# recursive_p16: many small bisections dispatched through the executor
# --------------------------------------------------------------------- #
RECURSIVE_INSTANCES = ("sym_grid2d_l", "sqr_band_l", "sqr_cl_m",
                       "rec_td_med_b")
TINY_RECURSIVE_INSTANCES = ("sym_grid2d_s", "sqr_cl_s")


def _recursive_inputs(seed: int, tiny: bool):
    from repro import load_instance

    names = TINY_RECURSIVE_INSTANCES if tiny else RECURSIVE_INSTANCES
    return [(name, (load_instance(name),)) for name in names]


def _recursive_op(matrix, seed: int, rec, jobs: int = JOBS):
    from repro import partition

    with rec.span("core.recursive"):
        res = partition(matrix, 16, eps=EPS, algo="recursive", jobs=jobs,
                        seed=seed)
    return res, {}


WORKLOADS = {
    "bisect_p2": InProcess("bisect_p2", 2, _bisect_inputs, _bisect_op,
                           min_rounds=CHUNG_LU_VARIANTS,
                           medium_grain=True),
    "recursive_p16": InProcess("recursive_p16", 16, _recursive_inputs,
                               _recursive_op, min_rounds=3,
                               medium_grain=False, pool=True),
}


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #
def _setup(wl: InProcess, seed: int, tiny: bool):
    """Make the inputs and finish lazy start-up: imports, and for the
    pool workload a started, warmed process pool."""
    from repro import bipartition, partition
    from repro.sparse import generators as gen
    from repro.utils.executor import shutdown_pools

    inputs = wl.make_inputs(seed, tiny)
    warm = gen.grid2d_laplacian(12, 12)
    if wl.pool:
        shutdown_pools(wait=True)
        partition(warm, 4, algo="recursive", jobs=2, seed=0)
    else:
        bipartition(warm, "mediumgrain", refine=True, seed=0)
    return inputs


def _round(inputs, r: int):
    """``(label, matrix)`` of each operation of round ``r``."""
    return [(label, ms[r % len(ms)]) for label, ms in inputs]


def _warm_up(wl, inputs, seed) -> None:
    """Untimed, unchecked rounds for ``WARMUP_S`` seconds, at least one,
    with partition seeds that no measured operation uses."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < WARMUP_S:
        for i, (_, matrix) in enumerate(_round(inputs, r)):
            wl.run_op(matrix, common.derive_seed(seed, r, i, 1), _NoSpans)
        r += 1


def _measure(wl, inputs, seed, rounds_or_seconds, rec, out,
             peaks=None) -> list[Op]:
    """Run rounds until ``min_rounds`` are done and the time is up (or
    exactly ``rounds`` rounds when given an int), checking every answer
    after its clock stops.  Given a list ``peaks``, append to it the
    peak memory of each round (of the first round only where the peak
    cannot be reset)."""
    ops: list[Op] = []
    fixed = isinstance(rounds_or_seconds, int)
    start = time.perf_counter()
    r = 0
    while True:
        if fixed and r >= rounds_or_seconds:
            break
        if (not fixed and r >= wl.min_rounds
                and time.perf_counter() - start >= rounds_or_seconds):
            break
        reset = peaks is not None and common.reset_peak_rss(os.getpid())
        for i, (label, matrix) in enumerate(_round(inputs, r)):
            pseed = common.derive_seed(seed, r, i)
            out.attempted += 1
            # Each operation starts from a collected heap.  Otherwise the
            # cyclic garbage of earlier operations lingers until a full
            # collection, and peak memory grows with the number of
            # operations run before (250 MB to 500 MB over six).
            gc.collect()
            t0 = time.perf_counter()
            try:
                with rec.span("bench.op"):
                    res, extra = wl.run_op(matrix, pseed, rec)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out.fail(f"{label} round {r}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            out.fail(*(f"{label} round {r}: {p}"
                       for p in _check(wl, matrix, res, extra)))
            ops.append(Op((r, i), dt, int(res.volume),
                          common.parts_digest(res.parts), matrix.nnz,
                          extra.get("iterations", 0),
                          extra.get("useful", 0)))
        if peaks is not None and (reset or r == 0):
            peaks.append(common.peak_rss_mb(os.getpid()))
        r += 1
    return ops


def _check(wl, matrix, res, extra) -> list[str]:
    try:
        problems = oracle.check_answer(matrix, res.parts, wl.nparts,
                                       res.volume, wl.medium_grain, EPS)
    except Exception as exc:  # noqa: BLE001 - a crashing check fails
        return [f"oracle raised {type(exc).__name__}: {exc}"]
    for route, value in extra.get("pipeline", {}).items():
        if int(value) != int(res.volume):
            problems.append(f"pipeline {route} {value} != {res.volume}")
    return problems


def run(name: str, seed: int, seconds: float, traced: bool,
        tiny: bool = False) -> common.Outcome:
    wl = WORKLOADS[name]
    out = common.Outcome(name, seed, traced)
    setups = []
    inputs = None
    for _ in range(common.SETUPS):
        inputs = None  # release the previous copy before re-making it
        t0 = time.perf_counter()
        inputs = _setup(wl, seed, tiny)
        setups.append(time.perf_counter() - t0)
    out.provenance = common.provenance(
        seed, {label: [common.describe(m) for m in ms]
               for label, ms in inputs}
    )
    try:
        _warm_up(wl, inputs, seed)
        if traced:
            _traced(wl, inputs, seed, seconds, out)
        else:
            _untraced(wl, inputs, seed, seconds, out, setups)
    finally:
        if wl.pool:
            from repro.utils import executor

            executor.shutdown_pools(wait=True)
            executor.close_matrix_stores()
            _stop_resource_tracker()
    return out


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the pool
    started, instead of leaving it to notice this process's exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _untraced(wl, inputs, seed, seconds, out, setups) -> None:
    m = out.metrics

    # Peak memory per round, reset before each round.  A round's peak
    # grows with the refinement iterations of its worst operation (their
    # garbage waits for a full collection), so the maximum over a run
    # would mostly measure how unlucky the worst seed was; the median
    # over rounds does not.
    peaks: list[float] = []
    ops = _measure(wl, inputs, seed, seconds, _NoSpans, out, peaks)
    if wl.pool:
        _check_serial_identity(wl, inputs, seed, ops, out)
    rounds: dict[int, list[Op]] = {}
    for op in ops:
        rounds.setdefault(op.index[0], []).append(op)
    # Per-round rates, then their median: one slow round (a noisy
    # neighbour, an unlucky seed) does not move the figure.
    m["nnz_per_s"] = common.median([
        sum(op.nnz for op in rd) / sum(op.seconds for op in rd)
        for rd in rounds.values()
    ])
    m["requests_per_s"] = common.median([
        len(rd) / sum(op.seconds for op in rd) for rd in rounds.values()
    ])
    # A latency sample is a round's mean operation latency: the inputs'
    # latencies differ by a factor of two or more, and pooling them
    # would put the median between two clusters.
    lat_ms = [
        1e3 * sum(op.seconds for op in rd) / len(rd)
        for rd in rounds.values()
    ]
    m["setup_s"] = common.median(setups)
    m["volume_geomean"] = common.geomean(
        [op.volume for op in ops if op.index[0] < wl.min_rounds]
    )
    m["cold_latency_p50_ms"] = common.median(lat_ms)
    m["peak_rss_mb"] = common.median(peaks)
    m["cold_latency_tail_ms"], out.notes["cold_latency_tail_ms"] = (
        common.segmented_tail(lat_ms, common.SLICES)
    )
    out.notes["cold_latency_p50_ms"] = (
        f"{len(lat_ms)} rounds of {len(inputs)} operations"
    )
    out.notes["setup_s"] = f"median of {len(setups)} set-ups"
    out.notes["hit_latency_p50_ms"] = "no result cache in this workload"
    out.notes["volume_geomean"] = f"over the first {wl.min_rounds} rounds"
    out.notes["peak_rss_mb"] = (
        (f"median over {len(peaks)} rounds, reset before each"
         if len(peaks) > 1 else "after the first round")
        + (", with the pool workers" if wl.pool else "")
    )
    out.notes["nnz_per_s"] = f"median over {len(rounds)} rounds"


def _check_serial_identity(wl, inputs, seed, ops, out) -> None:
    """``jobs=2`` must be bit-identical to ``jobs=1`` (once, untimed)."""
    first = {op.index[1]: op for op in ops if op.index[0] == 0}
    for i, (label, matrix) in enumerate(_round(inputs, 0)):
        if i not in first:
            continue  # the operation itself failed and was counted
        out.attempted += 1
        res, _ = _recursive_op(matrix, common.derive_seed(seed, 0, i),
                               _NoSpans, jobs=1)
        if common.parts_digest(res.parts) != first[i].digest:
            out.fail(f"{label}: jobs=2 parts differ from jobs=1")


def _traced(wl, inputs, seed, seconds, out) -> None:
    """Untraced rounds for half the time, then the same rounds traced:
    answers must match bit for bit; the time ratio is the overhead."""
    from repro.obs import metrics as registry
    from repro.utils.executor import payload_audit

    plain = _measure(wl, inputs, seed, seconds / 2.0, _NoSpans, out)
    rounds = 1 + max(op.index[0] for op in plain)
    rec = spans.Recorder()
    patches = spans.Patches()
    before = registry.snapshot()
    spans.install_partition_shims(rec, patches)
    try:
        with payload_audit():
            traced = _measure(wl, inputs, seed, rounds, rec, out)
    finally:
        patches.restore()
    after = registry.snapshot()

    def delta(name: str) -> float:
        return common.counter_delta(before, after, name)

    plain_by = {op.index: op for op in plain}
    for op in traced:
        ref = plain_by.get(op.index)
        if ref is None or (ref.volume, ref.digest) != (op.volume, op.digest):
            out.fail(f"traced answer {op.index} differs from untraced")
    path = common.trace_path(wl.name, seed)
    rec.dump(path)
    rows = spans.fold(path)
    n = max(1, len(traced))
    m = out.metrics
    for name in common.LAYER:
        m[name] = 0.0

    def total(name):
        row = rows.get(name)
        return row.total if row else 0.0

    for name in common.SELF_TIME_SPANS:
        if name in rows:
            m[name + ".s"] = rows[name].self_time / n
    for name in ("kernels.match_vertices", "kernels.fm_pass"):
        if name in rows:
            m[name + ".calls"] = rows[name].count / n
    levels = [r["attrs"] for r in rec.records
              if r["name"] == "partitioner.coarsen"]
    if levels:
        m["partitioner.coarsen.reduction"] = sum(
            a["coarse"] / a["fine"] for a in levels
        ) / len(levels)
    passes = delta("repro_fm_passes_total")
    if passes:
        m["partitioner.fm.moves_per_pass"] = (
            delta("repro_fm_moves_total") / passes
        )
    iterations = sum(op.iterations for op in traced)
    if iterations:
        m["core.refine.iterations"] = iterations / n
        m["core.refine.useful_ratio"] = (
            sum(op.useful for op in traced) / iterations
        )
    if "core.recursive" in rows:
        m["core.recursive.s"] = total("core.recursive") / n
        m["core.recursive.parent_s"] = (
            total("core.recursive") - total("utils.executor.map")
        ) / n
    if "utils.executor.map" in rows:
        task = rows.get("utils.executor.task")
        m["utils.executor.map_s"] = total("utils.executor.map") / n
        m["utils.executor.tasks"] = (task.count if task else 0) / n
        m["utils.executor.task_s"] = total("utils.executor.task") / n
        m["utils.executor.busy_ratio"] = total("utils.executor.task") / (
            JOBS * total("utils.executor.map")
        )
        m["utils.executor.retries"] = (
            delta("repro_executor_retries_total") / n
        )
        m["utils.executor.payload_bytes"] = (
            delta("repro_executor_payload_bytes_total") / n
        )
    m["bench.trace_overhead"] = (
        sum(op.seconds for op in traced) / sum(op.seconds for op in plain)
    )
    out.notes["bench.trace_overhead"] = (
        f"traced / untraced time over the same {len(traced)} operations"
    )
    if wl.pool:
        out.notes["core.recursive.s"] = (
            "per operation; layers inside pool workers are not traced"
        )

