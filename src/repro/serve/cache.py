"""Crash-safe, content-addressed partition cache.

The memoization point of the serving daemon: results are keyed by
:meth:`repro.serve.protocol.PartitionRequest.cache_key` — ``(matrix
digest, nparts, eps, method, refine, algo, seed, config)`` — so a cache
hit is *guaranteed* bit-identical to recomputation (partitioning is
deterministic in the seed; speed-only knobs never enter the key).

Entries persist in a :mod:`repro.utils.journal` journal, so a SIGKILLed
daemon restarts warm with zero corrupted entries.  The cache's policy
on top of it: an unusable journal is moved aside (``<path>.corrupt``)
and service starts cold — a cache must come up, not refuse to; the
journal is compacted once LRU-evicted lines outnumber live entries;
and a journal degraded by disk pressure leaves an in-memory LRU
(**pass-through mode**) with one :attr:`PartitionCache.write_error`
brief for the daemon to surface.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.utils import faults
from repro.utils.journal import Journal

__all__ = ["PartitionCache"]

_HEADER = {"partition_cache": 2}


class PartitionCache:
    """In-memory LRU of partition results, persisted via a JSONL journal.

    ``path=None`` disables persistence (a pure in-memory LRU — the
    daemon's ``--cache ''`` spelling).  ``cap`` bounds the number of
    *live* entries; eviction is LRU on access order.

    Results are plain JSON-able dicts (the daemon stores the partition
    metrics plus the part vector as a list); the cache never interprets
    them beyond round-tripping.
    """

    def __init__(self, path=None, cap: int = 512) -> None:
        if cap < 1:
            raise ValueError(f"cache cap must be >= 1, got {cap}")
        self.path = Path(path) if path else None
        self.cap = cap
        self.hits = 0
        self.misses = 0
        #: Journal lines appended since the last compaction that no
        #: longer correspond to a live entry (eviction/overwrite debt).
        self._dead = 0
        self._live: OrderedDict[str, dict] = OrderedDict()
        self._journal = None
        if self.path is not None:
            self._journal = Journal(self.path, _HEADER, fault="cache.write",
                                    error="CacheWriteError")
            # An unreadable or foreign journal is moved aside and
            # service starts cold: a cache must come up, not refuse to.
            for key, result in self._journal.open(
                lambda entry: (entry["key"], entry["result"]),
                accept=lambda header: header == _HEADER,
            ):
                self._store(key, result)
            if self._dead > max(16, len(self._live)):
                # A restart replaying mostly-dead lines: compact now,
                # while nothing is being served.
                self._compact()

    def _store(self, key: str, result: dict) -> None:
        if key in self._live:
            self._live.pop(key)
            self._dead += 1
        self._live[key] = result
        while len(self._live) > self.cap:
            self._live.popitem(last=False)
            self._dead += 1

    def _compact(self) -> None:
        self._journal.compact(
            {"key": key, "result": result}
            for key, result in self._live.items()
        )
        self._dead = 0

    @property
    def write_error(self) -> str | None:
        """``"CacheWriteError[ERRNO]"`` once the journal degraded."""
        return self._journal.error if self._journal else None

    @property
    def read_only(self) -> bool:
        """True once a journal write failure dropped persistence."""
        return self.write_error is not None

    # ------------------------------------------------------------------ #
    # The cache API
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: str) -> bool:
        return key in self._live

    def get(self, key: str):
        """The stored result for ``key`` (LRU-touched), else ``None``."""
        result = self._live.get(key)
        if result is None:
            self.misses += 1
            return None
        self._live.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: str, result: dict) -> None:
        """Store ``result`` under ``key`` (journaled before returning).

        The ``serve.cache`` fault point sits *before* the append so
        chaos tests can kill the daemon mid-write — the torn line the
        kill leaves is exactly what a journal replay drops.
        """
        self._store(key, result)
        if self._journal is None or self.read_only:
            return
        faults.fault_point("serve.cache")
        self._journal.append({"key": key, "result": result})
        if self._dead > max(64, 2 * len(self._live)):
            self._compact()

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def close(self) -> None:
        """Close the journal handle (idempotent; entries stay on disk)."""
        if self._journal is not None:
            self._journal.close()
