"""The ``serve_kway`` workload: a closed loop against a real daemon.

Two client threads each send their next request only after the previous
one returned (``submit`` callers wait for their reply).  About three in
four requests carry a fresh seed and are computed by the daemon's pool
(cold: compute plus a journal write); the rest repeat a key already
answered and come from the partition cache (hits).
"""

from __future__ import annotations

import http.client
import itertools
import json
import shutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import common, oracle, spans

NPARTS = 8
EPS = 0.03
CLIENTS = 2
#: Pool size of the daemon (``start_daemon`` passes ``--jobs 2``).
DAEMON_JOBS = 2
#: Every ``HIT_EVERY``-th request of a client repeats a key (a hit), so
#: the hit share is fixed rather than drawn.
HIT_EVERY = 4
#: Hits repeat one of the most recently answered keys.  The daemon's
#: cache is an LRU of 512 entries (its default ``--cache-cap``), so a
#: key from this window is always still cached.
HIT_WINDOW = 256
#: Cold answers every run completes; the volume geomean is taken over
#: exactly the first ``MIN_COLD`` fresh seeds, whose in-process answers
#: are precomputed during set-up.
MIN_COLD = 32
TINY_MIN_COLD = 6


def _request(seed: int, instance: str) -> dict:
    return dict(instance=instance, nparts=NPARTS, eps=EPS, algo="kway",
                kway_vcycles=1, seed=int(seed), include_parts=True)


@dataclass
class Reply:
    kind: str  # "cold" or "hit": what the loop asked for
    index: int  # position of the seed in the fresh-seed sequence
    seed: int
    latency: float
    done: float = 0.0  # perf_counter() when the reply arrived
    worker_s: float = 0.0
    cached: bool = False
    volume: int = -1
    parts: np.ndarray | None = None
    error: str = ""


@dataclass
class Loop:
    """Closed-loop load; either generates requests (``seed`` given) or
    replays a recorded list of ``(kind, index, seed)`` in order."""

    port_client: object
    instance: str
    seed: int = 0
    replay: list | None = None
    min_cold: int = MIN_COLD
    #: The warm-up request's seed, never drawn as a fresh seed.
    warm_seed: int = -1
    replies: list = field(default_factory=list)
    issued: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._answered: list[tuple[int, int]] = []
        self._next = 0
        self._cold_done = 0

    def _fresh(self) -> tuple[int, int]:
        with self._lock:
            while True:
                index = self._next
                self._next += 1
                seed = common.derive_seed(self.seed, 1, index)
                if seed != self.warm_seed:
                    return index, seed

    def _pick(self, rng, n: int, stop_at: float):
        if self.replay is not None:
            with self._lock:
                if self._next >= len(self.replay):
                    return None
                item = self.replay[self._next]
                self._next += 1
                return item
        with self._lock:
            done = self._cold_done >= self.min_cold
        if done and time.perf_counter() >= stop_at:
            return None
        with self._lock:
            answered = self._answered[-HIT_WINDOW:]
        if answered and n % HIT_EVERY == HIT_EVERY - 1:
            index, seed = answered[int(rng.integers(len(answered)))]
            return "hit", index, seed
        return ("cold",) + self._fresh()

    def _client(self, c: int, stop_at: float) -> None:
        client = self.port_client()
        rng = np.random.default_rng([self.seed, 2, c])
        for n in itertools.count():
            item = self._pick(rng, n, stop_at)
            if item is None:
                return
            kind, index, seed = item
            with self._lock:
                self.issued.append(item)
            t0 = time.perf_counter()
            try:
                body = client.partition(**_request(seed, self.instance))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                t1 = time.perf_counter()
                reply = Reply(kind, index, seed, t1 - t0, t1,
                              error=f"{type(exc).__name__}: {exc}")
            else:
                t1 = time.perf_counter()
                reply = Reply(
                    kind, index, seed, t1 - t0, t1,
                    worker_s=float(body["seconds"]),
                    cached=bool(body["cached"]),
                    volume=int(body["volume"]),
                    parts=np.asarray(body["parts"], dtype=np.int8),
                )
            with self._lock:
                self.replies.append(reply)
                if kind == "cold" and not reply.error:
                    self._answered.append((index, seed))
                    self._cold_done += 1

    def run(self, seconds: float) -> float:
        """Drive the loop; returns the wall time it took."""
        self.started = start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(c, start + seconds))
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start


class Daemon:
    """One daemon with its own on-disk cache, started and warmed."""

    def __init__(self, directory, instance: str, warm_seed: int) -> None:
        from repro.serve.testing import start_daemon

        directory.mkdir(parents=True)
        self.handle = start_daemon(
            directory, "--cache", str(directory / "cache.jsonl")
        )
        try:
            # The first request pays the pool start; keep it out of the
            # measured window.
            self.handle.client().partition(
                **_request(warm_seed, instance)
            )
        except BaseException:
            self.handle.kill()
            raise

    def client(self):
        return self.handle.client()

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.handle.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def stats(self) -> dict:
        return json.loads(self.get("/stats"))

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` folded to one total per sample name."""
        totals: dict[str, float] = {}
        for line in self.get("/metrics").splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            name = name.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def stop(self) -> None:
        if self.handle.alive():
            try:
                self.handle.terminate(timeout=30)
            except Exception:  # noqa: BLE001 - fall through to the kill
                pass
        self.handle.kill()


def partition_in_process(matrix, seed: int):
    """What the daemon computes for one request, run in this process."""
    import dataclasses

    from repro import partition
    from repro.partitioner.config import get_config

    cfg = dataclasses.replace(get_config("mondriaan"), kway_vcycles=1)
    return partition(matrix, NPARTS, eps=EPS, algo="kway", config=cfg,
                     seed=seed, jobs=1)


def references(matrix, seeds) -> dict[int, tuple[int, str]]:
    """In-process answers, ``seed -> (volume, digest)``."""
    out = {}
    for seed in seeds:
        res = partition_in_process(matrix, seed)
        out[seed] = (int(res.volume), common.parts_digest(res.parts))
    return out


def _check_replies(loop: Loop, matrix, out, expect_cache: bool,
                   refs: dict) -> dict[int, tuple[int, str]]:
    """Every reply against the oracle, hits against their cold answer,
    answers for the precomputed seeds against in-process
    ``partition()``."""
    answers: dict[int, tuple[int, str]] = {}
    for r in loop.replies:
        out.attempted += 1
        if r.error:
            out.fail(f"seed {r.seed} ({r.kind}): {r.error}")
            continue
        problems = []
        if expect_cache and r.cached != (r.kind == "hit"):
            problems.append(f"{r.kind} request came back cached={r.cached}")
        answer = (r.volume, common.parts_digest(r.parts))
        if r.seed in answers:
            if answers[r.seed] != answer:
                problems.append("repeat answer differs from the first")
        else:
            answers[r.seed] = answer
            if r.seed in refs and refs[r.seed] != answer:
                problems.append("served answer differs from in-process "
                                "partition()")
            try:
                problems += oracle.check_answer(matrix, r.parts.astype(
                    np.int64), NPARTS, r.volume, eps=EPS)
            except Exception as exc:  # noqa: BLE001 - a crashing check
                problems.append(f"oracle raised {type(exc).__name__}")
        out.fail(*(f"seed {r.seed} ({r.kind}): {p}" for p in problems))
    return answers


def run(seed: int, seconds: float, traced: bool,
        tiny: bool = False) -> common.Outcome:
    from repro import load_instance

    out = common.Outcome("serve_kway", seed, traced)
    instance = "sym_grid2d_s" if tiny else "sym_grid2d_m"
    min_cold = TINY_MIN_COLD if tiny else MIN_COLD
    work = common.work_dir() / f"serve-{seed}-{time.time_ns()}"
    warm_seed = common.derive_seed(seed, 0, 0)
    daemons: list[Daemon] = []
    try:
        setups = []
        matrix = None
        for k in range(common.SETUPS):
            for d in daemons:
                d.stop()
            t0 = time.perf_counter()
            matrix = load_instance(instance)
            daemons.append(Daemon(work / f"setup{k}", instance, warm_seed))
            setups.append(time.perf_counter() - t0)
        daemon = daemons[-1]
        out.provenance = common.provenance(
            seed, {instance: common.describe(matrix)}
        )
        out.provenance["daemon"] = {"jobs": DAEMON_JOBS, "clients": CLIENTS,
                                    "hit_every": HIT_EVERY}
        # The oracle's in-process answers for the first fresh seeds.
        refs = references(matrix, [
            common.derive_seed(seed, 1, i) for i in range(min_cold)
        ])
        loop = Loop(daemon.client, instance, seed, min_cold=min_cold,
                    warm_seed=warm_seed)
        if traced:
            wall = loop.run(seconds / 2.0)
            daemon.stop()
            _traced(loop, wall, work, instance, matrix, warm_seed, daemons,
                    refs, out)
        else:
            wall = loop.run(seconds)
            out.metrics["peak_rss_mb"] = common.peak_rss_mb(
                daemon.handle.proc.pid
            )
            daemon.stop()
            _check_replies(loop, matrix, out, True, refs)
            _untraced(loop, wall, matrix, setups, min_cold, out)
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)
    return out


def _untraced(loop, wall, matrix, setups, min_cold, out) -> None:
    ok = [r for r in loop.replies if not r.error]
    cold = [1e3 * r.latency for r in ok if r.kind == "cold"]
    hits = [1e3 * r.latency for r in ok if r.kind == "hit"]
    m = out.metrics
    m["setup_s"] = common.median(setups)
    # Rates per time slice, then their median: a stall of the machine
    # slows one slice, not the figure.
    edges = np.linspace(loop.started, loop.started + wall, common.SLICES + 1)

    def rate(replies) -> float:
        counts = np.histogram([r.done for r in replies], bins=edges)[0]
        return float(np.median(counts)) / (wall / common.SLICES)

    m["requests_per_s"] = rate(ok)
    m["nnz_per_s"] = rate([r for r in ok if r.kind == "cold"]) * matrix.nnz
    m["volume_geomean"] = common.geomean(
        [r.volume for r in ok if r.kind == "cold" and r.index < min_cold]
    )
    m["cold_latency_p50_ms"] = common.median(cold)
    m["cold_latency_tail_ms"], out.notes["cold_latency_tail_ms"] = (
        common.segmented_tail(cold, common.SLICES)
    )
    m["hit_latency_p50_ms"] = common.median(hits)
    out.notes["cold_latency_p50_ms"] = f"{len(cold)} cold requests"
    out.notes["hit_latency_p50_ms"] = f"{len(hits)} cache hits"
    out.notes["requests_per_s"] = (
        f"{len(ok)} requests, closed loop of {CLIENTS} clients, "
        f"{wall:.1f} s, median over {common.SLICES} time slices"
    )
    out.notes["setup_s"] = f"median of {len(setups)} set-ups"
    out.notes["volume_geomean"] = f"over the first {min_cold} fresh seeds"
    out.notes["peak_rss_mb"] = "daemon plus its pool workers"


def _traced(loop, wall, work, instance, matrix, warm_seed, daemons,
            refs, out) -> None:
    """Replay the untraced half's requests, in order, against a fresh
    daemon with the client shims installed."""
    plain = _check_replies(loop, matrix, out, True, refs)
    daemon = Daemon(work / "traced", instance, warm_seed)
    daemons.append(daemon)
    stats0, prom0 = daemon.stats(), daemon.metrics()  # after the warm-up
    rec = spans.Recorder()
    patches = spans.Patches()
    spans.install_client_shims(rec, patches)
    try:
        replay = Loop(daemon.client, instance, replay=list(loop.issued))
        traced_wall = replay.run(0.0)
    finally:
        patches.restore()
    stats, prom = daemon.stats(), daemon.metrics()
    daemon.stop()

    def delta(name: str) -> float:
        return prom.get(name, 0.0) - prom0.get(name, 0.0)

    traced = _check_replies(replay, matrix, out, False, refs)
    if traced != plain:
        out.fail("traced answers differ from untraced answers")

    path = common.trace_path("serve_kway", out.seed)
    rec.dump(path)
    rows = spans.fold(path)
    ok = [r for r in replay.replies if not r.error]
    cold = [r for r in ok if not r.cached]
    hits = [r for r in ok if r.cached]
    n = max(1, len(ok))
    m = out.metrics
    for name in common.LAYER:
        m[name] = 0.0
    m["serve.worker_ms"] = common.median([1e3 * r.worker_s for r in cold])
    m["serve.overhead_ms"] = common.median(
        [1e3 * (r.latency - r.worker_s) for r in cold]
    )
    if hits:
        m["serve.hit_overhead_ms"] = common.median(
            [1e3 * r.latency for r in hits]
        )
    hits_n = stats["cache"]["hits"] - stats0["cache"]["hits"]
    misses_n = stats["cache"]["misses"] - stats0["cache"]["misses"]
    m["serve.cache.hit_ratio"] = hits_n / max(1, hits_n + misses_n)
    m["serve.shed"] = stats["shed"] - stats0["shed"]
    m["serve.failed"] = stats["failed"] - stats0["failed"]
    attempts = rows.get("serve.client.attempt")
    requests = rows.get("serve.request")
    m["serve.client_retries"] = (
        (attempts.count if attempts else 0)
        - (requests.count if requests else 0)
    )
    task_sum = delta("repro_executor_task_seconds_sum")
    m["utils.executor.tasks"] = delta("repro_executor_tasks_total") / n
    m["utils.executor.task_s"] = task_sum / n
    m["utils.executor.retries"] = delta("repro_executor_retries_total") / n
    m["utils.executor.payload_bytes"] = (
        delta("repro_executor_payload_bytes_total") / n
    )
    m["utils.executor.busy_ratio"] = task_sum / (DAEMON_JOBS * traced_wall)
    m["bench.trace_overhead"] = traced_wall / wall
    out.notes["bench.trace_overhead"] = (
        f"replay of the same {len(loop.issued)} requests on a fresh "
        f"daemon, traced / untraced wall time"
    )
    out.notes["utils.executor.task_s"] = "daemon /metrics, per request"
    out.notes["utils.executor.payload_bytes"] = (
        "daemon /metrics; the daemon runs no payload audit"
    )
