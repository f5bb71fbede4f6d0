"""Tiny-input self-test of the benchmark itself.

Checks that every workload prints every metric with its unit, that the
traced and untraced runs agree, and that the oracle catches a corrupted
part vector and a wrong served volume.
"""

from __future__ import annotations

import io
import json

import numpy as np

from . import WORKLOADS, common, oracle, serve_load

#: Per-layer metrics that must be non-zero on each workload's traced run.
ACTIVE_LAYERS = {
    "bisect_p2": (
        "core.split.s", "core.medium_grain.s", "core.refine.s",
        "core.refine.iterations", "partitioner.coarsen.contract.s",
        "partitioner.coarsen.reduction", "kernels.match_vertices.s",
        "kernels.match_vertices.calls", "partitioner.fm.s",
        "kernels.fm_pass.s", "kernels.fm_pass.calls",
        "partitioner.fm.moves_per_pass", "core.volume.s",
        "spmv.vector_dist.s", "spmv.simulate.s", "spmv.bsp.s",
    ),
    "recursive_p16": (
        "core.recursive.s", "core.recursive.parent_s",
        "utils.executor.map_s", "utils.executor.tasks",
        "utils.executor.task_s", "utils.executor.payload_bytes",
        "utils.executor.busy_ratio",
    ),
    "serve_kway": (
        "serve.worker_ms", "serve.overhead_ms", "serve.hit_overhead_ms",
        "serve.cache.hit_ratio", "utils.executor.tasks",
        "utils.executor.task_s", "utils.executor.busy_ratio",
    ),
}


def _run(name: str, traced: bool, problems: list[str]) -> None:
    from . import run_workload

    out = run_workload(name, seed=7, seconds=1.0, traced=traced, tiny=True)
    buf = io.StringIO()
    out.emit(buf)
    lines = buf.getvalue().splitlines()
    where = f"{name} {'traced' if traced else 'untraced'}"
    catalog = common.LAYER if traced else {**common.E2E, **common.E2E_REPORT}
    for metric, unit in catalog.items():
        if not any(line.split()[:1] == [metric] and unit in line.split()
                   for line in lines):
            problems.append(f"{where}: {metric} [{unit}] not printed")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    gated = common.LAYER if traced else common.E2E
    if {k: v["unit"] for k, v in result["metrics"].items()} != gated:
        problems.append(f"{where}: result metrics differ from the catalog")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: not correct: {out.errors}")
    if traced:
        for metric in ACTIVE_LAYERS[name] + ("bench.trace_overhead",):
            if not result["metrics"][metric]["value"] > 0:
                problems.append(f"{where}: {metric} is not positive")
    else:
        for metric, entry in result["metrics"].items():
            if not entry["value"] > 0:
                problems.append(f"{where}: {metric} is not positive")


def _oracle_catches(problems: list[str]) -> None:
    from repro import bipartition, load_instance

    matrix = load_instance("sqr_cl_s")
    res = bipartition(matrix, "mediumgrain", refine=True, seed=3)
    if oracle.check_answer(matrix, res.parts, 2, res.volume, True):
        problems.append("oracle rejects a correct bipartition")
    out_of_range = res.parts.copy()
    out_of_range[0] = 2
    corrupt = {
        "part id out of range": out_of_range,
        "everything in part 0": np.zeros_like(res.parts),
    }
    for what, parts in corrupt.items():
        if not oracle.check_answer(matrix, parts, 2, res.volume, True):
            problems.append(f"oracle misses a corrupted parts vector "
                            f"({what})")
    if not oracle.check_answer(matrix, res.parts, 2, res.volume + 1, True):
        problems.append("oracle misses a wrong reported volume")


def _served_volume_caught(problems: list[str]) -> None:
    from repro import load_instance

    matrix = load_instance("sym_grid2d_s")
    seed = 5
    refs = serve_load.references(matrix, [seed])
    volume = refs[seed][0]
    parts = serve_load.partition_in_process(matrix, seed).parts.astype(
        np.int8)
    for shift, want_fail in ((0, False), (1, True)):
        loop = serve_load.Loop(None, "sym_grid2d_s")
        loop.replies.append(serve_load.Reply(
            "cold", 0, seed, 0.0, volume=volume + shift, parts=parts,
        ))
        out = common.Outcome("serve_kway", 0, False)
        serve_load._check_replies(loop, matrix, out, False, refs)
        if bool(out.failed) != want_fail:
            problems.append(
                f"served volume off by {shift}: failed={out.failed}"
            )


def _declared(problems: list[str]) -> None:
    """``BENCHMARK.json`` declares exactly the metrics the runs print."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for key, catalog in (("end_to_end", common.E2E),
                         ("per_layer", common.LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != catalog:
            problems.append(f"BENCHMARK.json {key} differs from the "
                            f"benchmark's catalog")


def main() -> int:
    problems: list[str] = []
    _declared(problems)
    _oracle_catches(problems)
    _served_volume_caught(problems)
    for name in WORKLOADS:
        for traced in (False, True):
            _run(name, traced, problems)
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0
