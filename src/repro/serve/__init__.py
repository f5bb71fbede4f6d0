"""The always-available partitioning service.

Everything before this package was batch-shaped: a cold process loads a
matrix, partitions it, exits.  :mod:`repro.serve` turns the hardened
execution substrate (:mod:`repro.utils.executor`,
:mod:`repro.utils.faults`, see ``docs/robustness.md``) into a long-lived
daemon in which robustness actually pays: one poisoned request, hung
worker, or daemon restart must never take down — or corrupt — service
for everyone else.

The package splits into four modules:

:mod:`repro.serve.protocol`
    The request/response model shared by daemon and client: request
    validation (a malformed request is an HTTP 400 at the admission
    boundary, never a worker crash), content-addressed cache keys, and
    the minimal HTTP/1.1 wire helpers (stdlib only).
:mod:`repro.serve.cache`
    The crash-safe partition cache: a content-addressed in-memory map
    persisted through a :mod:`repro.utils.journal` journal (fsynced per
    entry, checksummed per line, torn tail dropped) — a SIGKILLed
    daemon restarts warm with zero corrupted entries.
:mod:`repro.serve.daemon`
    The asyncio daemon itself: bounded admission queue with
    backpressure (503 + ``Retry-After``), per-request deadlines through
    :class:`~repro.utils.executor.RetryPolicy`, crash isolation via the
    shared worker pool (structured failure briefs in the response,
    never daemon death), liveness/readiness endpoints, and graceful
    drain on SIGTERM.
:mod:`repro.serve.client`
    The client API behind ``repro-partition submit``: capped-exponential
    retry honouring ``Retry-After``, plus a consecutive-failure circuit
    breaker that fails fast while the service is down.

See ``docs/serving.md`` for the endpoint reference, failure modes, and
capacity knobs.
"""

from repro.serve.cache import PartitionCache
from repro.serve.client import ServeClient
from repro.serve.daemon import PartitionDaemon, ServeConfig, run_daemon
from repro.serve.protocol import PartitionRequest, matrix_digest

__all__ = [
    "PartitionCache",
    "PartitionDaemon",
    "PartitionRequest",
    "ServeClient",
    "ServeConfig",
    "matrix_digest",
    "run_daemon",
]
