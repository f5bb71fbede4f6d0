"""Direct k-way vs recursive bisection, and the execution-layer smoke.

The repository's timing benchmark is ``perfbench/`` (see
``BENCHMARK.json``).  This harness keeps the two things it does not do:

**The k-way head-to-heads** (``python -m benchmarks.bench_e2e``).  Per
(matrix, p) on the bench set plus the k-diagonal structured instance,
the direct k-way partitioner (``algo="kway"`` — :mod:`repro.core.kway`)
runs against recursive bisection at the same p, twice:

``kway``
    The flat single-level pipeline (``kway_vcycles=0``).  Records the
    volume ratio ``kway / recursive`` and the speedup; not gated.
``kway_ml``
    The multilevel engine (``kway_vcycles=KWAY_ML_VCYCLES``).  *Gated at
    generation time*: geomean volume ratio <= ``KWAY_ML_RATIO_GATE`` AND
    geomean speedup >= ``KWAY_ML_SPEEDUP_GATE``.
    ``tests/test_bench_e2e.py`` re-asserts the committed numbers.

Before any timing is trusted, every cell checks that the k-way
partition is bit-identical across every kernel backend, execution
backend and ``jobs`` value (the partitioner has no recursion tree, so
the knobs must be exact no-ops) and that every part respects the
eqn-(1) ceiling.  Timings are interleaved min-of wall clocks.  The
result is written to the ``kway`` and ``kway_ml`` sections of
``BENCH_e2e.json``.

**The CI smoke** (``--smoke``): tiny instances, every kernel backend on
the process pool with ``--jobs`` workers, gated on completion and
bit-identity only, plus one injected-crash retry run and the watchdog
overhead gate.

Usage::

    python -m benchmarks.bench_e2e              # write BENCH_e2e.json
    python -m benchmarks.bench_e2e --smoke      # CI smoke, no JSON
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.recursive import partition
from repro.core.volume import max_allowed_part_size
from repro.eval.geomean import geometric_mean as _geomean
from repro.eval.sweep import RunSpec, run_sweep
from repro.kernels import available_backends, resolve_backend
from repro.partitioner.config import get_config
from repro.sparse.collection import build_collection, load_instance
from repro.utils.executor import JobsBudget
from repro.utils.rng import spawn_seeds

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_e2e.json"
#: One matrix per paper class plus the matching-heavy Chung-Lu square.
DEFAULT_MATRICES = ("sym_grid2d_l", "sqr_band_l", "rec_td_med_b", "sqr_cl_m")
#: Extra instances for the k-way stages on top of the bench set: the
#: structured k-diagonal case — long off-diagonals are where
#: contiguous-block bisection and direct k-way genuinely diverge.
KWAY_EXTRA_MATRICES = ("sym_kdiag_m",)
BASE_SEED = 2014
#: Part counts of the k-way stages (the paper's Fig. 6b / Table II run
#: at p = 64; 4 and 16 chart how the trade-off moves with p).
KWAY_PARTS = (4, 16, 64)

#: V-cycle count of the multilevel k-way (``kway_ml``) rows: one full
#: multilevel construction, no extra restricted V-cycles.  Measured as
#: the knee of the quality/speed curve on the bench set — ``vcycles=2``
#: buys ~3% more volume for roughly half the speed advantage, dropping
#: below the 2x gate.
KWAY_ML_VCYCLES = 1
#: Generation-time gates of the kway_ml stage: the multilevel engine
#: must land within 10% of recursive bisection's volume (geomean over
#: every (matrix, p) cell) while running at least twice as fast.
KWAY_ML_RATIO_GATE = 1.1
KWAY_ML_SPEEDUP_GATE = 2.0


def _class_of(name: str) -> str:
    for entry in build_collection():
        if entry.name == name:
            return entry.matrix_class.short
    raise KeyError(f"unknown collection instance {name!r}")


def make_specs(name: str, seeds: list[int]) -> list[RunSpec]:
    """The end-to-end work items for one matrix: MG+IR at every seed,
    with the downstream vector distribution + verified SpMV included."""
    cls = _class_of(name)
    return [
        RunSpec(
            index=i,
            instance=name,
            matrix_class=cls,
            label="MG+IR",
            method="mediumgrain",
            refine=True,
            seed=seed,
            verify_spmv=True,
        )
        for i, seed in enumerate(seeds)
    ]


def _kway_tag(kway_vcycles: int) -> str:
    """Key suffix of a k-way stage: ``kway`` (flat) or ``kway_ml``."""
    return "kway_ml" if kway_vcycles else "kway"


def bench_kway_matrix(
    name: str, ps, repeats: int, jobs: int, kway_vcycles: int
) -> dict:
    """Direct k-way (``kway_vcycles`` as given) vs recursive bisection
    on one matrix.

    Gates before any timing is trusted, per p:

    * the k-way partition is **bit-identical** across every available
      kernel backend, every execution backend, and ``jobs`` in
      ``{1, jobs}`` (no recursion tree — the knobs must change nothing);
    * every part respects the eqn-(1) ceiling (``feasible``).

    Timings are interleaved min-of wall clocks of the two algorithms;
    ``volume_ratio`` (k-way / recursive) records the quality side of the
    trade-off.  Cell keys carry the stage's :func:`_kway_tag` suffix.
    """
    tag = _kway_tag(kway_vcycles)
    matrix = load_instance(name)
    cfg = dataclasses.replace(
        get_config("mondriaan"), kway_vcycles=kway_vcycles
    )

    def run_kway(p, config=cfg, **kwargs):
        return partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED,
            config=config, algo="kway", **kwargs,
        )

    def run_recursive(p):
        return partition(
            matrix, p, method="mediumgrain", seed=BASE_SEED, jobs=1
        )

    entry: dict = {"nnz": matrix.nnz, "by_p": {}}
    for p in ps:
        rec = run_recursive(p)
        kw = run_kway(p)
        ceiling = max_allowed_part_size(matrix.nnz, p, 0.03)
        if not kw.feasible or kw.max_part > ceiling:
            raise AssertionError(
                f"{name} p={p}: {tag} max part {kw.max_part} exceeds the "
                f"eqn-(1) ceiling {ceiling}"
            )
        variants = [
            (f"kernel backend {kb!r}",
             {"config": dataclasses.replace(cfg, kernel_backend=kb)})
            for kb in available_backends()
        ] + [
            (f"jobs={jv} exec_backend={eb}", {"jobs": jv, "exec_backend": eb})
            for jv, eb in ((1, "serial"), (jobs, "process"))
        ]
        for label, kwargs in variants:
            if not np.array_equal(kw.parts, run_kway(p, **kwargs).parts):
                raise AssertionError(
                    f"{name} p={p}: {tag} partition differs under {label}"
                )
        best_kw = float("inf")
        best_rec = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_kway(p)
            best_kw = min(best_kw, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_recursive(p)
            best_rec = min(best_rec, time.perf_counter() - t0)
        cell = {
            f"volume_{tag}": kw.volume,
            "volume_recursive": rec.volume,
            "volume_ratio": round(kw.volume / rec.volume, 3)
            if rec.volume
            else float("inf"),
            f"{tag}_s": round(best_kw, 6),
            "recursive_s": round(best_rec, 6),
            f"speedup_{tag}": round(best_rec / best_kw, 3)
            if best_kw > 0
            else float("inf"),
            f"max_part_{tag}": kw.max_part,
            f"imbalance_{tag}": round(kw.imbalance, 6),
            "ceiling": ceiling,
            "feasible": True,
            "bit_identical": True,
        }
        if kway_vcycles:
            cell["method"] = kw.method
        entry["by_p"][str(p)] = cell
    return entry


def bench_kway_section(
    names, ps, repeats: int, jobs: int, kway_vcycles: int
) -> dict:
    """One k-way stage over every (matrix, p): the cells plus geomeans."""
    tag = _kway_tag(kway_vcycles)
    section: dict = {
        "method": "mediumgrain",
        "baseline": "recursive",
        "current": tag.replace("_", "-"),
    }
    if kway_vcycles:
        section["kway_vcycles"] = kway_vcycles
    section["ps"] = [int(p) for p in ps]
    section["eps"] = 0.03
    if kway_vcycles:
        section["ratio_gate"] = KWAY_ML_RATIO_GATE
        section["speedup_gate"] = KWAY_ML_SPEEDUP_GATE
    section["matrices"] = {}
    for name in names:
        entry = bench_kway_matrix(name, ps, repeats, jobs, kway_vcycles)
        section["matrices"][name] = entry
        for p in ps:
            e = entry["by_p"][str(p)]
            print(
                f"  {name:14s} p={p:<3d} {tag} vol "
                f"{e[f'volume_{tag}']:>6d} ({e[f'{tag}_s']:7.3f} s)   "
                f"recursive vol {e['volume_recursive']:>6d} "
                f"({e['recursive_s']:7.3f} s)  ratio x{e['volume_ratio']:.2f}"
                f"  speed x{e[f'speedup_{tag}']:.2f}"
            )
    cells = [
        section["matrices"][m]["by_p"][str(p)] for m in names for p in ps
    ]
    if kway_vcycles:
        section["geomean_volume_ratio"] = round(
            _geomean([c["volume_ratio"] for c in cells]), 3
        )
    section["geomean_volume_ratio_by_p"] = {
        str(p): round(
            _geomean([
                section["matrices"][m]["by_p"][str(p)]["volume_ratio"]
                for m in names
            ]), 3,
        )
        for p in ps
    }
    section[f"geomean_speedup_{tag}"] = round(
        _geomean([c[f"speedup_{tag}"] for c in cells]), 3
    )
    return section


def run_benchmarks(
    matrices=DEFAULT_MATRICES,
    repeats: int = 3,
    jobs: int = 2,
    ps=KWAY_PARTS,
) -> dict:
    """Run both k-way stages; returns the report dict.

    Raises ``AssertionError`` when the ``kway_ml`` stage misses its
    quality or speed gate.
    """
    names = tuple(dict.fromkeys(tuple(matrices) + KWAY_EXTRA_MATRICES))
    report = {
        "schema": 1,
        "backend": resolve_backend("auto").name,
        "repeats": repeats,
        "base_seed": BASE_SEED,
        "kway": bench_kway_section(names, ps, repeats, jobs, 0),
        "kway_ml": bench_kway_section(
            names, ps, repeats, jobs, KWAY_ML_VCYCLES
        ),
    }
    ml = report["kway_ml"]
    if ml["geomean_volume_ratio"] > KWAY_ML_RATIO_GATE:
        raise AssertionError(
            f"kway-ml geomean volume ratio {ml['geomean_volume_ratio']} "
            f"exceeds the {KWAY_ML_RATIO_GATE} gate — the multilevel "
            f"engine lost its quality contract"
        )
    if ml["geomean_speedup_kway_ml"] < KWAY_ML_SPEEDUP_GATE:
        raise AssertionError(
            f"kway-ml geomean speedup {ml['geomean_speedup_kway_ml']} is "
            f"below the {KWAY_ML_SPEEDUP_GATE}x gate — the multilevel "
            f"engine lost its speed contract"
        )
    return report


#: The --smoke instance set: one tiny matrix per paper class, enough to
#: drive every pipeline stage in seconds.
SMOKE_MATRICES = ("sym_grid2d_s", "rec_td_small_a", "sqr_er_s")


def run_smoke(jobs: int) -> int:
    """CI smoke: completion + bit-identity across every kernel backend.

    Runs the whole-pipeline sweep, a p=4 recursive bisection, a p=4 flat
    direct k-way partitioning (``--algo kway``), and a p=4 *multilevel*
    k-way partitioning (``kway_vcycles=2`` — one multilevel construction
    plus one restricted V-cycle, so both halves of the multilevel engine
    execute) on tiny instances with ``--jobs`` workers on the process
    pool, under every available kernel backend, asserting the results
    equal the serial reference and (for both k-way flavours) that every
    part respects the eqn-(1) ceiling.  **No wall-clock gating** — this
    exists so a cold CI runner proves the parallel plumbing end to end,
    not to race it.
    """
    kernel_backends = list(available_backends())
    seeds = spawn_seeds(BASE_SEED, 1)
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    failures = 0
    for kb in kernel_backends:
        cfg = dataclasses.replace(get_config("mondriaan"), kernel_backend=kb)
        ml_cfg = dataclasses.replace(cfg, kway_vcycles=2)
        for name in SMOKE_MATRICES:
            matrix = load_instance(name)
            specs = [
                dataclasses.replace(s, backend=kb)
                for s in make_specs(name, seeds)
            ]
            serial_records = list(run_sweep(specs, jobs=1))
            for sweep_jobs in (jobs, JobsBudget(jobs)):
                records = list(run_sweep(specs, jobs=sweep_jobs))
                if strip(records) != strip(serial_records):
                    print(f"FAIL sweep {name} kernel={kb} jobs={sweep_jobs}")
                    failures += 1
            run = lambda config, **kw: partition(
                matrix, 4, method="mediumgrain", seed=BASE_SEED,
                config=config, **kw,
            )
            serial = run(cfg, jobs=1)
            kway_serial = run(cfg, jobs=1, algo="kway")
            ml_serial = run(ml_cfg, jobs=1, algo="kway")
            ceiling = max_allowed_part_size(matrix.nnz, 4, 0.03)
            if kway_serial.max_part > ceiling:
                print(f"FAIL kway ceiling {name} kernel={kb}")
                failures += 1
            if ml_serial.max_part > ceiling:
                print(f"FAIL kway-ml ceiling {name} kernel={kb}")
                failures += 1
            res = run(cfg, jobs=jobs, exec_backend="process")
            ok = np.array_equal(serial.parts, res.parts)
            kres = run(cfg, jobs=jobs, exec_backend="process", algo="kway")
            kok = np.array_equal(kway_serial.parts, kres.parts)
            mres = run(ml_cfg, jobs=jobs, exec_backend="process", algo="kway")
            mok = np.array_equal(ml_serial.parts, mres.parts)
            failures += (not ok) + (not kok) + (not mok)
            print(
                f"  {name:14s} kernel={kb:6s} "
                f"volume={res.volume:<6d} "
                f"{'ok' if ok else 'MISMATCH'}  "
                f"kway={kres.volume:<6d} "
                f"{'ok' if kok else 'MISMATCH'}  "
                f"kway-ml={mres.volume:<6d} "
                f"{'ok' if mok else 'MISMATCH'}"
            )
    failures += _smoke_retry_path(jobs)
    print(
        f"\nsmoke: {len(kernel_backends)} kernel backend(s) x "
        f"{len(SMOKE_MATRICES)} matrices x (recursive + kway + kway-ml + "
        f"retry-path), jobs={jobs} on the process pool "
        f"(auto kernel backend: {resolve_backend('auto').name}); "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def _smoke_retry_path(jobs: int) -> int:
    """Hardened-path smoke: one injected-crash run plus the happy-path
    watchdog overhead gate.

    The retry-path run SIGKILLs the first sweep chunk worker (a real
    kill, fired once across all processes via the harness's filesystem
    token, created in a temporary directory that is removed afterwards)
    and asserts the hardened sweep still streams records bit-identical
    to the serial reference, with failure briefs recorded.  The overhead
    gate then times the same sweep plain vs armed (deadline + retries
    configured, nothing failing) and requires the armed path to stay
    within 2% of the plain one plus a small absolute slack for CI timer
    noise — min over repeats, so pool warm-up cancels out.
    """
    from repro.utils import faults
    from repro.utils.executor import shutdown_pools

    failures = 0
    seeds = spawn_seeds(BASE_SEED, 1)
    specs = [
        spec
        for name in SMOKE_MATRICES
        for spec in make_specs(name, seeds)
    ]
    strip = lambda rs: [
        dataclasses.replace(r, seconds=0.0, failures=()) for r in rs
    ]
    serial = list(run_sweep(specs, jobs=1))

    with tempfile.TemporaryDirectory(prefix="repro-smoke-fault-") as tmp:
        rule = faults.FaultRule(
            point="sweep.chunk", kind="crash", hits=(1,),
            once_token=os.path.join(tmp, "token"),
        )
        with faults.install([rule]):
            hardened = list(
                run_sweep(specs, jobs=jobs, task_timeout=60.0, retries=2)
            )
    if strip(hardened) != strip(serial):
        print("FAIL retry-path records differ from the serial reference")
        failures += 1
    if not any(r.failures for r in hardened):
        print("FAIL retry-path run recorded no failure briefs")
        failures += 1
    else:
        briefs = sorted({b for r in hardened for b in r.failures})
        print(f"  retry-path: recovered, briefs={briefs}")

    def best(run_kwargs: dict) -> float:
        t = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            list(run_sweep(specs, jobs=jobs, **run_kwargs))
            t = min(t, time.perf_counter() - t0)
        return t

    shutdown_pools()
    plain = best({})
    armed = best({"task_timeout": 60.0, "retries": 2})
    budget = plain * 1.02 + 0.25
    ok = armed <= budget
    print(
        f"  watchdog overhead: plain {plain:.3f}s vs armed {armed:.3f}s "
        f"(budget {budget:.3f}s) {'ok' if ok else 'OVER'}"
    )
    failures += not ok
    return failures


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(
        prog="bench_e2e",
        description="direct k-way vs recursive bisection, and the "
                    "execution-layer smoke",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: tiny instances, every kernel "
                             "backend on the process pool, gate on "
                             "completion and bit-identity only (no "
                             "timings, no JSON)")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--matrices", default=",".join(DEFAULT_MATRICES),
                        help="comma-separated collection instance names "
                             f"(plus {','.join(KWAY_EXTRA_MATRICES)})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (min is kept)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the bit-identity "
                             "checks and the smoke")
    parser.add_argument("--pway-parts", default=",".join(map(str, KWAY_PARTS)),
                        help="comma-separated p values of the k-way stages")
    args = parser.parse_args(argv)

    if args.smoke:
        print(f"execution-layer smoke (jobs={args.jobs})")
        return run_smoke(args.jobs)

    matrices = tuple(m for m in args.matrices.split(",") if m)
    ps = tuple(int(p) for p in args.pway_parts.split(",") if p)
    out = Path(args.out)
    print(f"timing direct k-way vs recursive bisection on "
          f"{', '.join(matrices)} at p in {ps} (min of {args.repeats} runs)")
    report = run_benchmarks(matrices, args.repeats, args.jobs, ps)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"geomean kway speedup over recursive bisection: "
          f"x{report['kway']['geomean_speedup_kway']} at volume ratio "
          f"{report['kway']['geomean_volume_ratio_by_p']}")
    print(f"geomean kway-ml (vcycles={KWAY_ML_VCYCLES}) speedup: "
          f"x{report['kway_ml']['geomean_speedup_kway_ml']} at volume ratio "
          f"{report['kway_ml']['geomean_volume_ratio']} "
          f"(gates: ratio <= {KWAY_ML_RATIO_GATE}, "
          f"speed >= {KWAY_ML_SPEEDUP_GATE}x)")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
