"""Chaos suite for anytime degradation and journal disk-pressure.

Four stories:

* a request whose soft deadline expires almost immediately still gets a
  **200** — ``degraded: true``, a complete partition passing full
  validation, and the ``Degraded[...]`` briefs — instead of a 504;
* degraded results are never cached: the same key re-asked with
  headroom recomputes at full quality and only *that* answer memoizes;
* ENOSPC on the partition cache's journal append degrades the cache to
  pass-through (in-memory hits keep working, ``/stats`` says
  ``read_only``) while the daemon keeps serving;
* ENOSPC on the sweep checkpoint's journal append lets the sweep run to
  completion unjournaled, with exactly one record carrying the
  ``CheckpointWriteError`` brief and the stream itself bit-identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.validate import validate_partition
from repro.eval.runner import PAPER_METHODS
from repro.eval.sweep import build_runspecs, run_sweep
from repro.serve.client import DegradedResult
from repro.serve.testing import start_daemon
from repro.sparse.collection import build_collection, load_instance
from repro.utils import faults
from repro.utils.balance import max_allowed_part_size

pytestmark = pytest.mark.chaos

INSTANCE = "sym_grid2d_s"
#: The overload test needs a p=8 partitioning that takes well over the
#: 50 ms overload deadline floor, or no queued request ever degrades.
#: With the compiled kernels that rules out INSTANCE (about 50 ms);
#: this one takes about 0.3 s (1.2 s on the python kernels).
OVERLOAD_INSTANCE = "sqr_cl_l"


def _plan(point, kind, *, hits=(1,), scope="worker", token=None):
    return faults.plan_to_env([
        faults.FaultRule(
            point=point, kind=kind, hits=tuple(hits), scope=scope,
            once_token=str(token) if token else None,
        )
    ])


@pytest.fixture
def daemon(tmp_path):
    handles = []

    def _start(*args, **kwargs):
        handle = start_daemon(tmp_path, *args, **kwargs)
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.kill()


# --------------------------------------------------------------------- #
# 1. Expired soft deadline -> 200 + degraded incumbent, not a 504
# --------------------------------------------------------------------- #
def test_expired_deadline_answers_200_with_valid_partition(tmp_path, daemon):
    # 1 ms of soft budget expires before the first boundary check; the
    # generous grace keeps the watchdog's hard kill out of the story.
    handle = daemon("--deadline-grace", "120")
    result = handle.client().partition(
        instance=INSTANCE, nparts=8, seed=7, timeout=0.001,
    )
    assert isinstance(result, DegradedResult)
    assert result["degraded"] is True
    assert result.briefs, result.get("failures")

    # The degraded answer is a *complete, feasible* partition — every
    # reported metric must survive recomputation from the parts.
    matrix = load_instance(INSTANCE)
    ceiling = max_allowed_part_size(matrix.nnz, 8, 0.03)
    validate_partition(
        matrix, np.asarray(result["parts"], dtype=np.int64), 8,
        volume=result["volume"], max_part=result["max_part"],
        feasible=result["feasible"], ceiling=ceiling,
        context="degraded-200",
    )
    assert result["feasible"] is True

    stats = handle.client().stats()
    assert stats["degraded_responses"] >= 1
    assert stats["deadline_misses"] >= 1
    assert handle.alive()


def test_expired_deadline_kway_engines_degrade_too(tmp_path, daemon):
    handle = daemon("--deadline-grace", "120")
    result = handle.client().partition(
        instance=INSTANCE, nparts=4, seed=7, timeout=0.001,
        algo="kway", kway_vcycles=2,
    )
    assert isinstance(result, DegradedResult)
    matrix = load_instance(INSTANCE)
    validate_partition(
        matrix, np.asarray(result["parts"], dtype=np.int64), 4,
        volume=result["volume"], context="degraded-kway",
    )
    assert handle.alive()


# --------------------------------------------------------------------- #
# 2. Degraded results are never cached
# --------------------------------------------------------------------- #
def test_degraded_result_is_not_cached(tmp_path, daemon):
    handle = daemon(
        "--deadline-grace", "120",
        "--cache", str(tmp_path / "anytime.cache"),
    )
    client = handle.client()
    cut = client.partition(
        instance=INSTANCE, nparts=4, seed=11, timeout=0.001,
    )
    assert isinstance(cut, DegradedResult)
    assert cut["cached"] is False

    # Same cache key, real headroom: the full-quality answer must be
    # recomputed (a cached degraded incumbent would be served here).
    full = client.partition(instance=INSTANCE, nparts=4, seed=11)
    assert not isinstance(full, DegradedResult)
    assert full["cached"] is False
    assert not any(
        b.startswith("Degraded") for b in full.get("failures", ())
    )

    # ... and only the full-quality answer memoizes.
    again = client.partition(instance=INSTANCE, nparts=4, seed=11)
    assert again["cached"] is True
    assert again["parts"] == full["parts"]
    assert handle.alive()


# --------------------------------------------------------------------- #
# 3. Overload rung: shorter deadlines before any shedding
# --------------------------------------------------------------------- #
def test_overload_degrades_queued_requests_instead_of_failing(
    tmp_path, daemon
):
    from concurrent.futures import ThreadPoolExecutor

    from repro.errors import RequestRejected, ServeError

    # One lane, a short queue, and an overload factor that shrinks the
    # soft deadline of anything admitted above the high-water mark to
    # the 50 ms floor: queued requests must come back degraded —
    # 200s — rather than as 504s or worker kills.
    handle = daemon(
        "--max-inflight", "1", "--queue-cap", "4",
        "--deadline-grace", "120",
        "--overload-deadline-factor", "0.000001",
    )

    def submit(seed):
        try:
            return handle.client(retries=0).partition(
                instance=OVERLOAD_INSTANCE, nparts=8, seed=seed,
                include_parts=False,
            )
        except ServeError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=5) as pool:
        outcomes = list(pool.map(submit, range(300, 305)))

    served = [o for o in outcomes if isinstance(o, dict)]
    shed = [o for o in outcomes if isinstance(o, RequestRejected)]
    hard_failures = [
        o for o in outcomes
        if isinstance(o, Exception) and not isinstance(o, RequestRejected)
    ]
    assert not hard_failures, hard_failures
    assert len(served) + len(shed) == 5
    assert served, "admitted requests must all be answered"
    assert any(isinstance(o, DegradedResult) for o in served)
    assert handle.alive()


# --------------------------------------------------------------------- #
# 4. ENOSPC on the partition cache journal
# --------------------------------------------------------------------- #
def test_enospc_on_cache_write_keeps_daemon_serving(tmp_path, daemon):
    env = {"REPRO_FAULTS": _plan(
        "cache.write", "disk", hits=(1,), scope="any",
    )}
    handle = daemon("--cache", str(tmp_path / "full-disk.cache"), env=env)
    client = handle.client()

    # The first journal append hits ENOSPC: the response still succeeds
    # and carries the one-shot degradation brief.
    first = client.partition(instance=INSTANCE, nparts=2, seed=1)
    assert first["feasible"] in (True, False)
    assert "CacheWriteError[ENOSPC]" in first["failures"]

    # Later responses stay clean — the brief is surfaced once; /stats
    # carries the sticky state instead.
    second = client.partition(instance=INSTANCE, nparts=2, seed=2)
    assert not any("CacheWriteError" in b for b in second["failures"])
    stats = client.stats()
    assert stats["cache"]["read_only"] is True

    # The in-memory LRU survived the journal: hits keep serving.
    warm = client.partition(instance=INSTANCE, nparts=2, seed=1)
    assert warm["cached"] is True
    assert warm["parts"] == first["parts"]
    assert handle.alive()


# --------------------------------------------------------------------- #
# 5. ENOSPC on the sweep checkpoint journal
# --------------------------------------------------------------------- #
def _specs():
    table = {e.name: e for e in build_collection()}
    return build_runspecs([table[INSTANCE]], PAPER_METHODS[:2], nruns=2)


def _strip(records):
    return [
        dataclasses.replace(r, seconds=0.0, failures=())
        for r in records
    ]


def test_enospc_on_checkpoint_write_sweep_completes(tmp_path):
    specs = _specs()
    reference = _strip(run_sweep(specs, jobs=1))

    # Hit 1 is the journal header; hit 2 — the first record append —
    # raises ENOSPC.  The sweep must keep streaming unjournaled.
    path = tmp_path / "full-disk.jsonl"
    rule = faults.FaultRule(
        point="checkpoint.write", kind="disk", hits=(2,), scope="any",
    )
    with faults.install([rule]):
        records = list(run_sweep(specs, jobs=1, checkpoint=path))

    assert _strip(records) == reference
    annotated = [
        r for r in records
        if any("CheckpointWriteError[ENOSPC]" in b for b in r.failures)
    ]
    assert len(annotated) == 1  # exactly the record whose append failed
    # The journal holds only the header the failed sweep left behind...
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1
    # ...so a later resume simply recomputes everything, bit-identically.
    resumed = list(run_sweep(specs, jobs=1, checkpoint=path))
    assert _strip(resumed) == reference
