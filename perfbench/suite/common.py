"""Shared pieces: the metric catalog, statistics, provenance, output."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: End-to-end metrics every workload reports in an untraced run
#: (``BENCHMARK.json`` gates each of them).
E2E = {
    "setup_s": "s",
    "nnz_per_s": "nnz/s",
    "volume_geomean": "words",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "cold_latency_p50_ms": "ms",
    "cold_latency_tail_ms": "ms",
}

#: End-to-end figures that are printed in the report but not gated:
#: ``failure_rate`` is 0 on a correct run (the gate would divide by
#: it); it travels as ``failed / attempted`` in the result line.
#: ``hit_latency_p50_ms`` exists only where a result cache answers
#: (``serve_kway``); the in-process workloads have no hits.
E2E_REPORT = {
    "failure_rate": "ratio",
    "hit_latency_p50_ms": "ms",
}

#: Per-layer metrics, reported by traced runs.  ``.s`` metrics are self
#: seconds (span time minus child spans) per operation; counts are per
#: operation too.  A layer that does no work in a workload reads 0.
LAYER = {
    "core.split.s": "s",
    "core.medium_grain.s": "s",
    "core.refine.s": "s",
    "core.refine.iterations": "count",
    "core.refine.useful_ratio": "ratio",
    "partitioner.coarsen.s": "s",
    "partitioner.coarsen.contract.s": "s",
    "partitioner.coarsen.reduction": "ratio",
    "kernels.match_vertices.s": "s",
    "kernels.match_vertices.calls": "count",
    "kernels.merge_identical.s": "s",
    "partitioner.initial.s": "s",
    "partitioner.fm.s": "s",
    "kernels.fm_pass.s": "s",
    "kernels.fm_pass.calls": "count",
    "partitioner.fm.moves_per_pass": "count",
    "core.volume.s": "s",
    "spmv.vector_dist.s": "s",
    "spmv.simulate.s": "s",
    "spmv.bsp.s": "s",
    "core.recursive.s": "s",
    "core.recursive.parent_s": "s",
    "utils.executor.map_s": "s",
    "utils.executor.tasks": "count",
    "utils.executor.task_s": "s",
    "utils.executor.retries": "count",
    "utils.executor.payload_bytes": "B",
    "utils.executor.busy_ratio": "ratio",
    "serve.worker_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.hit_overhead_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.failed": "count",
    "serve.client_retries": "count",
    "bench.trace_overhead": "ratio",
}

#: Spans whose self time is reported as ``<name>.s``.
SELF_TIME_SPANS = (
    "core.split", "core.medium_grain", "core.refine",
    "partitioner.coarsen", "partitioner.coarsen.contract",
    "kernels.match_vertices", "kernels.merge_identical",
    "partitioner.initial", "partitioner.fm", "kernels.fm_pass",
    "core.volume", "spmv.vector_dist", "spmv.simulate", "spmv.bsp",
)


ROOT = Path(__file__).resolve().parents[2]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Consecutive time slices of a run: a latency tail (and, served, a
#: rate) is the median over slices, so one stall of the machine lifts
#: one slice only.
SLICES = 5


def work_dir() -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans."""
    return str(work_dir() / f"trace-{workload}-{seed}-{time.time_ns()}.jsonl")


def counter_delta(before: dict, after: dict, name: str,
                  suffix: str = "") -> float:
    """Change of a ``repro.obs.metrics`` series between two snapshots,
    summed over its labels."""

    def total(snap):
        return sum(s["value"] for s in snap.get(name, {}).get("samples", ())
                   if s["suffix"] == suffix)

    return total(after) - total(before)


def derive_seed(*key: int) -> int:
    """A 31-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample, at percentile ``100 (n - 11) / (n -
    1)`` by linear interpolation.  Below 21 samples that percentile
    would not even reach the median, so the maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return float(xs[-1]), f"max of {n} (fewer than 21 samples)"
    pct = 100.0 * (n - 11) / (n - 1)
    return float(xs[n - 11]), f"p{pct:.1f} of {n} (10 beyond)"


def segmented_tail(values, segments: int) -> tuple[float, str]:
    """:func:`tail` of each of ``segments`` consecutive slices of the
    samples (in completion order), and the median of those tails: a
    stall of the machine lifts the tail of one slice, not the result.
    With fewer samples than slices, every sample is a slice."""
    segments = min(segments, len(values))
    parts = [tail(list(chunk)) for chunk in np.array_split(
        np.asarray(values, dtype=float), segments)]
    value = median([v for v, _ in parts])
    return value, (f"median over {segments} time slices of: "
                   + "; ".join(note for _, note in parts))


def geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def parts_digest(parts) -> str:
    import hashlib

    arr = np.ascontiguousarray(np.asarray(parts, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    pids = []
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, ()))
    return pids


def peak_rss_mb(root_pid: int) -> float:
    """Summed peak resident set (VmHWM) of ``root_pid`` and every live
    descendant, in MB."""
    total_kb = 0
    for pid in _process_tree(root_pid):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def reset_peak_rss(root_pid: int) -> bool:
    """Lower the peak resident set (VmHWM) of ``root_pid`` and its live
    descendants to their current resident set, so the next
    :func:`peak_rss_mb` reads the peak since now.  False where the
    kernel refuses (``/proc/<pid>/clear_refs`` needs Linux 4.0)."""
    for pid in _process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except FileNotFoundError:
            continue  # the process has ended since the listing
        except OSError:
            return False
    return True


def provenance(seed: int, inputs: dict) -> dict:
    """What every number is tied to: machine, toolchain, backends."""
    from repro.kernels import numba_available, resolve_backend
    from repro.partitioner.config import get_config
    from repro.utils.executor import resolve_exec_backend

    cfg = get_config("mondriaan")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": bool(numba_available()),
        "kernel_backend": resolve_backend(cfg.kernel_backend).name,
        "exec_backend": resolve_exec_backend(cfg.exec_backend),
        "inputs": inputs,
    }


def describe(matrix) -> dict:
    return {"shape": list(matrix.shape), "nnz": int(matrix.nnz)}


class Outcome:
    """Everything one run reports."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.provenance: dict = {}

    def fail(self, *problems: str) -> None:
        """Count one failed operation, with what was wrong with it."""
        if problems:
            self.failed += 1
            self.errors.extend(problems[:max(0, 20 - len(self.errors))])

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def emit(self, out=sys.stdout) -> None:
        """The human-readable report, then the one-line JSON result."""
        catalog = dict(LAYER) if self.traced else {**E2E, **E2E_REPORT}
        if not self.traced:
            self.metrics["failure_rate"] = self.failed / max(1, self.attempted)
        print(f"workload {self.workload}  seed {self.seed}  "
              f"{'traced' if self.traced else 'untraced'}", file=out)
        print("provenance " + json.dumps(self.provenance, sort_keys=True),
              file=out)
        for name, unit in catalog.items():
            value = self.metrics.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            note = self.notes.get(name, "")
            print(f"  {name:<34} {shown:>16} {unit:<6} {note}".rstrip(),
                  file=out)
        for err in self.errors:
            print(f"  CHECK FAILED: {err}", file=out)
        gated = LAYER if self.traced else E2E
        result = {
            "correct": self.correct,
            "attempted": int(max(1, self.attempted)),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in gated.items()
            },
        }
        print(json.dumps(result), file=out, flush=True)
