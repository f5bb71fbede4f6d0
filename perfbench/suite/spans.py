"""Layer timing from outside the program: thin shims around layer calls.

A traced run rebinds the public functions that one layer calls on the
next (``repro.partitioner.multilevel.coarsen_level``, the kernel
backend's ``fm_pass``, ``repro.core.methods.iterative_refine``, ...) to
wrappers that record one span per call.  Spans are kept in memory in the
``repro.obs`` record schema (``trace``, ``span``, ``parent``, ``name``,
``t0``, ``t1``) and written out once, at the end, as JSON Lines; the
benchmark then folds that file with :func:`repro.obs.report.read_trace`
and :func:`repro.obs.report.aggregate_trace`, the code behind
``repro-partition trace-report``.

Untraced runs install nothing: the program runs exactly as shipped.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Recorder:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    @contextmanager
    def span(self, name: str):
        """Open a span under this thread's innermost open span; a span
        with no open parent starts a new trace."""
        parent = self.current()
        rec = {
            "trace": parent["trace"] if parent else self._new_id(),
            "span": self._new_id(),
            "parent": parent["span"] if parent else None,
            "name": name,
            "t0": time.monotonic(),
            "t1": None,
            "attrs": {},
        }
        stack = self._stack()
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.records.append(rec)

    def add(self, name: str, t0: float, t1: float,
            parent: dict | None) -> None:
        """Record a span timed elsewhere (a pool worker's task)."""
        rec = {
            "trace": parent["trace"] if parent else self._new_id(),
            "span": self._new_id(),
            "parent": parent["span"] if parent else None,
            "name": name,
            "t0": t0,
            "t1": t1,
            "attrs": {},
        }
        with self._lock:
            self.records.append(rec)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(rec, result)`` may
        attach attributes read from the return value."""

        def shim(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result

        return shim

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class TimedCall:
    """Picklable wrapper timing a pool task inside the worker.

    The worker returns ``(value, t0, t1)``; ``time.monotonic`` is
    system-wide on Linux, so worker spans share the parent's timeline.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, item):
        t0 = time.monotonic()
        value = self.fn(item)
        return value, t0, time.monotonic()


class Patches:
    """Attribute rebinding with exact restoration."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # Instance attributes shadow class methods; restoring means
        # deleting the shadow, not writing the bound method back.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _coarsen_attrs(rec: dict, level) -> None:
    rec["attrs"]["fine"] = int(level.fine.nverts)
    rec["attrs"]["coarse"] = int(level.coarse.nverts)


def install_partition_shims(rec: Recorder, patches: Patches) -> None:
    """Time every layer boundary of the 2-way medium-grain pipeline and
    of the recursion scheduler and the execution layer."""
    import repro.core.methods as methods
    import repro.core.refine as refine
    import repro.partitioner.coarsen as coarsen
    import repro.partitioner.initial as initial
    import repro.partitioner.multilevel as multilevel
    import repro.utils.executor as executor
    from repro.kernels import resolve_backend
    from repro.partitioner.config import get_config

    def wrap(owner, attr, name, on_result=None):
        patches.set(owner, attr, rec.wrap(name, getattr(owner, attr),
                                          on_result))

    wrap(methods, "initial_split", "core.split")
    wrap(refine, "split_from_bipartition", "core.split")
    wrap(methods, "build_medium_grain", "core.medium_grain")
    wrap(refine, "build_medium_grain", "core.medium_grain")
    wrap(methods, "iterative_refine", "core.refine")
    wrap(methods, "communication_volume", "core.volume")
    wrap(refine, "communication_volume", "core.volume")
    wrap(multilevel, "coarsen_level", "partitioner.coarsen", _coarsen_attrs)
    wrap(coarsen, "contract", "partitioner.coarsen.contract")
    wrap(multilevel, "initial_partition", "partitioner.initial")
    for owner in (multilevel, initial, refine):
        wrap(owner, "fm_refine", "partitioner.fm")

    backend = resolve_backend(get_config("mondriaan").kernel_backend)
    wrap(backend, "match_vertices", "kernels.match_vertices")
    wrap(backend, "merge_identical", "kernels.merge_identical")
    wrap(backend, "fm_pass", "kernels.fm_pass")

    wrap(executor.MatrixExecutor, "map", "utils.executor.map")
    wrap(executor, "_inline_task", "utils.executor.task")
    pool_map = executor.pool_map

    def timed_pool_map(kind, jobs, fn, items, chunksize=1):
        parent = rec.current()
        results = pool_map(kind, jobs, TimedCall(fn), items, chunksize)

        def unwrap():
            for value, t0, t1 in results:
                rec.add("utils.executor.task", t0, t1, parent)
                yield value

        return unwrap()

    patches.set(executor, "pool_map", timed_pool_map)


def install_client_shims(rec: Recorder, patches: Patches) -> None:
    """Time served requests and their HTTP attempts from the client."""
    from repro.serve.client import ServeClient

    patches.set(ServeClient, "partition",
                rec.wrap("serve.request", ServeClient.partition))
    patches.set(ServeClient, "_once",
                rec.wrap("serve.client.attempt", ServeClient._once))


def fold(path: str) -> dict:
    """Per-name ``(count, total, self)`` rows of a written trace, folded
    by the same code as ``repro-partition trace-report``."""
    from repro.obs.report import aggregate_trace, read_trace

    return {
        row.name: row for row in aggregate_trace(list(read_trace(path)))
    }
