"""Pluggable kernel backends for the pipeline's hot kernels.

The kernels that dominate end-to-end runtime — the FM move loops (2-way
and k-way) with the 2-way pass set-up, greedy-matching candidate
scoring, pin contraction, identical-net merging, and the greedy
vector-owner assignment of the SpMV side — live here behind a small
registry:

``"python"``
    The reference backend: list-based scalar loops, NumPy set-up
    (pass set-up, lexsort contraction, vectorized net merging).  Always
    available.
``"native"``
    The same loops and the same integer set-up compiled from C
    (:mod:`repro.kernels.native`) and called through ctypes, several
    times faster end to end.  The library is built once per machine
    into a content-hashed cache; when no compiler works, the registry
    resolves ``"native"`` and ``"auto"`` to ``"python"``.

Backends are *bit-compatible*: for the same hypergraph, configuration,
and seed they produce identical partitions, cuts, and matchings (pinned
by ``tests/kernels/test_equivalence.py``).  Select a backend with
``PartitionerConfig.kernel_backend`` (``"auto"`` / ``"python"`` /
``"native"``) or the ``--backend`` CLI flag.  The backend a process
actually resolved is exported as the
``repro_kernel_backend_info{backend=...}`` gauge, since a fall-back to
Python costs about a factor seven.

Alongside the backends, :class:`~repro.kernels.state.FMPassState` keeps
the per-hypergraph buffers (list mirrors, flat bucket and matching
scratch) alive across refinement calls, so multilevel refinement,
V-cycles, and iterative medium-grain runs stop paying per-call
conversions and ``net_ids`` rebuilds.
:class:`~repro.kernels.spmv.SpMVState` mirrors the same pattern on the
matrix side for repeated volume/SpMV evaluation, and
:mod:`repro.kernels.spmv` holds the shared flat-array group-by kernels
(connectivity lambdas, (line, part) incidence lists, per-(part, row)
partial sums) used by ``core.volume``, ``spmv.*``, and
``hypergraph.metrics``.
"""

from __future__ import annotations

import importlib.util
import threading

from repro.errors import PartitioningError
from repro.kernels.base import KernelBackend
from repro.kernels.kway import compute_kway_setup
from repro.kernels.python_backend import PythonBackend
from repro.kernels.spmv import SpMVState
from repro.kernels.state import FMPassState, compute_fm_setup
from repro.obs import metrics as _metrics

__all__ = [
    "KernelBackend",
    "FMPassState",
    "SpMVState",
    "compute_fm_setup",
    "compute_kway_setup",
    "available_backends",
    "native_error",
    "numba_available",
    "get_backend",
    "resolve_backend",
    "BACKEND_CHOICES",
]

#: Valid values of ``PartitionerConfig.kernel_backend`` / ``--backend``.
BACKEND_CHOICES = ("auto", "python", "native")

_BACKENDS: dict[str, KernelBackend] = {"python": PythonBackend()}

#: Why the native backend is unavailable in this process (once tried).
_NATIVE_ERROR: list[str] = []
_NATIVE_LOCK = threading.Lock()

_BACKEND_INFO = _metrics.gauge(
    "repro_kernel_backend_info",
    "Kernel backend resolved in this process (1 = in use)",
    ("backend",),
)


def numba_available() -> bool:
    """Whether numba can be imported.

    No backend uses numba; this is kept only as benchmark provenance.
    """
    return importlib.util.find_spec("numba") is not None


def _load_native() -> KernelBackend | None:
    """Build/load and register the native backend once per process, or
    ``None`` when it is unavailable (see :func:`native_error`)."""
    with _NATIVE_LOCK:
        backend = _BACKENDS.get("native")
        if backend is not None or _NATIVE_ERROR:
            return backend
        from repro.kernels.native import NativeBackend, load_library

        try:
            backend = NativeBackend(load_library())
        except OSError as exc:
            _NATIVE_ERROR.append(str(exc))
            return None
        _BACKENDS["native"] = backend
        return backend


def native_error() -> str | None:
    """Why the native backend failed to build or load, or ``None``."""
    _load_native()
    return _NATIVE_ERROR[0] if _NATIVE_ERROR else None


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    if _load_native() is None:
        return ("python",)
    return ("python", "native")


def _in_use(backend: KernelBackend) -> KernelBackend:
    _BACKEND_INFO.labels(backend=backend.name).set(1)
    return backend


def get_backend(name: str) -> KernelBackend:
    """Exact lookup by backend name; raises when the backend is missing.

    Unlike :func:`resolve_backend` this never falls back — use it when
    you need to *know* which backend you are timing or testing.
    """
    if name == "native":
        backend = _load_native()
        if backend is None:
            raise PartitioningError(
                f"kernel backend 'native' is unavailable: {native_error()}"
            )
        return _in_use(backend)
    try:
        return _in_use(_BACKENDS[name])
    except KeyError:
        raise PartitioningError(
            f"unknown kernel backend {name!r}; "
            f"available: {sorted(available_backends())}"
        ) from None


def resolve_backend(spec: "KernelBackend | str" = "auto") -> KernelBackend:
    """Resolve a backend spec to a live backend, with silent fallback.

    ``"auto"`` and ``"native"`` pick the native backend when it builds
    and loads, the reference backend otherwise, so configs are portable
    across environments.  Backend instances pass through unchanged.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec in ("auto", "native"):
        return _in_use(_load_native() or _BACKENDS["python"])
    if spec == "python":
        return _in_use(_BACKENDS["python"])
    raise PartitioningError(
        f"unknown kernel backend {spec!r}; expected one of {BACKEND_CHOICES}"
    )
