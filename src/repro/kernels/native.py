"""Native backend: the sequential loops and their set-up compiled from C.

``native.c`` (next to this file) is a statement-for-statement port of
the reference loops — the 2-way and k-way FM move loops, the greedy
matching sweep, and the greedy vector-owner loop — so for a fixed
hypergraph and seed this backend returns bit-identical partitions,
matchings and owners to ``"python"``.  It also carries the integer
set-up the NumPy reference vectorizes, with equal results array for
array: the 2-way pass set-up (:func:`compute_fm_setup`, run inside the
move-loop call), pin contraction, identical-net merging, and the
transposed incidence (a counting sort, filled in by :meth:`fm_state`).
The k-way pass set-up (:func:`compute_kway_setup`) and every draw from
the RNG stay shared Python.

Build
    The library is compiled once per machine with
    ``$CC -O2 -std=c99 -shared -fPIC -ffp-contract=off`` (``CC``
    defaults to ``cc``), never with ``-ffast-math``/``-Ofast``, which
    would reorder the floating-point sums the tie-breaks depend on.  It
    lands in ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` without it;
    the temp dir when neither is writable) under a name hashed from the
    source, the compiler command, the flags and the platform, so an
    edit or another compiler gets its own file.  The build writes a
    temp file and ``os.replace``-s it into place: concurrent pool
    workers may build at once, and a reader sees a whole library or
    none.  A cached file that fails the size check or does not load is
    rebuilt.

Calls
    ctypes releases the GIL for the duration of every call.  Each array
    that crosses the boundary is checked here for dtype, C order and
    length first (:func:`_arg`); the C side trusts its inputs.  The
    hypergraph's read-only topology is checked once per
    :class:`FMPassState` (:func:`_topology`), everything else per call.

:func:`load_library` raises :class:`NativeUnavailable` when no compiler
works; the registry (:mod:`repro.kernels`) then resolves ``"auto"`` and
``"native"`` to ``"python"``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph, _readonly
from repro.kernels.base import KernelBackend
from repro.kernels.kway import compute_kway_setup
from repro.kernels.state import FMPassState

__all__ = [
    "NativeBackend",
    "NativeUnavailable",
    "CFLAGS",
    "SOURCE",
    "load_library",
    "library_name",
]

#: The C source compiled into the library.
SOURCE = Path(__file__).with_name("native.c")
#: Compiler flags.  No -ffast-math / -Ofast: bit-identity needs IEEE
#: semantics, and -ffp-contract=off forbids fused multiply-adds.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
#: Must equal ``REPRO_NATIVE_ABI`` in ``native.c``.
ABI = 2
#: Upper bound on one compiler run.
BUILD_TIMEOUT_S = 300.0

_P = ctypes.c_void_p
_I = ctypes.c_int64
_SIGNATURES = {
    "repro_native_abi": ((), _I),
    "repro_fm_setup": ((_I, _I) + (_P,) * 9 + (_I,), _I),
    "repro_fm_move_loop": (
        (_I, _I, _I) + (_P,) * 18 + (_I,) * 7 + (_P,), _I
    ),
    "repro_kway_move_loop": (
        (_I, _I, _I) + (_P,) * 23 + (_I,) * 3 + (_P,), _I
    ),
    "repro_match_loop": ((_I,) + (_P,) * 11 + (_I,) * 3 + (_P, _I), None),
    "repro_greedy_owner_loop": ((_P, _P, _P, _I, _P, _P, _P), None),
    "repro_contract_pins": ((_I, _I) + (_P,) * 8, _I),
    "repro_merge_identical": ((_I,) + (_P,) * 4 + (_I,) + (_P,) * 4, _I),
    "repro_transpose": ((_I, _I, _P, _P, _P, _P), None),
}


class NativeUnavailable(OSError):
    """The native library could not be built or loaded."""


def compiler() -> list[str]:
    """The compiler command: ``$CC`` split like a shell would, or ``cc``."""
    return shlex.split(os.environ.get("CC", "").strip() or "cc")


def cache_dirs() -> list[Path]:
    """Where the library may live, in order of preference."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return [base / "repro", Path(tempfile.gettempdir()) / "repro"]


def library_name(source: bytes, cc: list[str]) -> str:
    """Cache file name, hashed from everything that shapes the binary."""
    key = hashlib.sha256()
    for part in (source, "\0".join(cc).encode(), " ".join(CFLAGS).encode(),
                 sys.platform.encode(), platform.machine().encode()):
        key.update(part)
        key.update(b"\xff")
    return f"native-{key.hexdigest()[:20]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` exists and, if ELF, is not truncated.

    An ELF shared object ends with its section header table, so a file
    shorter than ``e_shoff + e_shnum * e_shentsize`` lost its tail.  A
    truncated library can pass ``dlopen`` and then fault on first use,
    so it must be caught before loading.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return False
    if data[:4] != b"\x7fELF":
        return bool(data)  # not ELF: leave the verdict to the loader
    if len(data) < 64:
        return False
    end = "<" if data[5] == 1 else ">"
    if data[4] == 2:  # 64-bit
        shoff, = struct.unpack_from(end + "Q", data, 0x28)
        shentsize, shnum = struct.unpack_from(end + "HH", data, 0x3A)
    else:
        shoff, = struct.unpack_from(end + "I", data, 0x20)
        shentsize, shnum = struct.unpack_from(end + "HH", data, 0x2E)
    return len(data) >= shoff + shentsize * shnum


def _build(target: Path, cc: list[str]) -> None:
    """Compile ``SOURCE`` to ``target`` through a temp file and a rename."""
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*cc, *CFLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnavailable(f"cannot run {cc[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip()[-400:] or "no output"
            raise NativeUnavailable(
                f"{' '.join(cc)} exited with {proc.returncode}: {detail}"
            )
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    """Load ``path`` and declare every kernel's signature."""
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise OSError(f"{path} lacks {name}") from exc
        fn.argtypes = argtypes
        fn.restype = restype
    if lib.repro_native_abi() != ABI:
        raise OSError(f"{path} has ABI {lib.repro_native_abi()}, want {ABI}")
    return lib


def load_library() -> ctypes.CDLL:
    """Load the compiled kernels, building them first when needed.

    Tries each of :func:`cache_dirs` in turn, moving on only when a
    directory is unusable; a compiler failure raises
    :class:`NativeUnavailable` at once.
    """
    cc = compiler()
    name = library_name(SOURCE.read_bytes(), cc)
    problems = []
    for directory in cache_dirs():
        path = directory / name
        try:
            directory.mkdir(parents=True, exist_ok=True)
            if _intact(path):
                try:
                    return _open(path)
                except OSError:
                    pass  # corrupt in a way the size check missed
            _build(path, cc)
            return _open(path)
        except NativeUnavailable:
            raise
        except OSError as exc:
            problems.append(f"{directory}: {exc}")
    raise NativeUnavailable("; ".join(problems))


def _arg(a: np.ndarray, dtype, n: int, name: str) -> int:
    """Address of ``a`` after checking dtype, C order and length."""
    if a.dtype != dtype or not a.flags.c_contiguous or a.size != n:
        raise PartitioningError(
            f"native kernel argument {name}: want C-contiguous {dtype} of "
            f"length {n}, got {a.dtype} of length {a.size} "
            f"(C-contiguous: {a.flags.c_contiguous})"
        )
    return a.ctypes.data


_i64 = np.dtype(np.int64)
_u8 = np.dtype(np.uint8)
_f64 = np.dtype(np.float64)


def _topology(state: FMPassState) -> tuple[int, ...]:
    """Checked addresses of the CSR topology shared by every loop.

    ``xpins``, ``pins``, ``xnets``, ``vnets``, ``ncost``, ``vwgt`` (what
    the FM loops take) and the net sizes (what matching adds).  They are
    checked once per state and cached on it: the arrays are read-only
    and owned by the immutable hypergraph, whose cache holds the state.
    """
    if state.topology is None:
        h = state.h
        state.topology = (
            _arg(h.xpins, _i64, h.nnets + 1, "xpins"),
            _arg(h.pins, _i64, h.npins, "pins"),
            _arg(h.xnets, _i64, h.nverts + 1, "xnets"),
            _arg(h.vnets, _i64, h.npins, "vnets"),
            _arg(h.ncost, _i64, h.nnets, "ncost"),
            _arg(h.vwgt, _i64, h.nverts, "vwgt"),
            _arg(h.net_sizes(), _i64, h.nnets, "sizes"),
        )
    return state.topology


class NativeBackend(KernelBackend):
    """Compiled backend on flat arrays; bit-identical to the reference."""

    name = "native"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    def fm_state(self, h: Hypergraph) -> FMPassState:
        """The cached pass state for ``h``; first fills the transposed
        incidence with the compiled counting sort when ``h`` has none
        yet (equal to :meth:`Hypergraph._build_transpose`'s)."""
        if "transpose" not in h._cache:
            xnets = np.empty(h.nverts + 1, dtype=np.int64)
            vnets = np.empty(h.npins, dtype=np.int64)
            self._lib.repro_transpose(
                h.nverts, h.nnets,
                _arg(h.xpins, _i64, h.nnets + 1, "xpins"),
                _arg(h.pins, _i64, h.npins, "pins"),
                xnets.ctypes.data, vnets.ctypes.data,
            )
            h._cache["transpose"] = (_readonly(xnets), _readonly(vnets))
        return super().fm_state(h)

    def fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        maxw: tuple[int, int],
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool]:
        """One FM pass, set-up included, in one compiled call; mutates
        ``parts``."""
        h = state.h
        n = h.nverts
        if n == 0:
            return 0, True
        insert_order = rng.permutation(n)
        scratch = state.flat_arrays()
        stall_limit = max(32, int(cfg.fm_early_exit_frac * n))
        nb = state.nbuckets
        best = np.zeros(1, dtype=np.int64)
        feasible = self._lib.repro_fm_move_loop(
            n, h.nnets, nb, *_topology(state)[:6],
            _arg(parts, _i64, n, "parts"),
            _arg(scratch["pc0"], _i64, h.nnets, "pc0"),
            _arg(scratch["pc1"], _i64, h.nnets, "pc1"),
            _arg(scratch["bgain"], _i64, n, "bgain"),
            _arg(scratch["insert_mask"], _u8, n, "insert_mask"),
            _arg(insert_order, _i64, n, "insert_order"),
            _arg(scratch["head"], _i64, 2 * nb, "head"),
            _arg(scratch["nxt"], _i64, n, "nxt"),
            _arg(scratch["prv"], _i64, n, "prv"),
            _arg(scratch["inside"], _u8, n, "inside"),
            _arg(scratch["locked"], _u8, n, "locked"),
            _arg(scratch["moved"], _i64, n, "moved"),
            state.max_gain, int(maxw[0]), int(maxw[1]), state.slack,
            stall_limit, int(bool(cfg.boundary_only)), state.total_weight,
            best.ctypes.data,
        )
        return int(best[0]), bool(feasible)

    def kway_fm_pass(
        self,
        state: FMPassState,
        parts: np.ndarray,
        nparts: int,
        ceilings: np.ndarray,
        cfg,
        rng: np.random.Generator,
    ) -> tuple[int, bool]:
        """One k-way FM pass through the compiled move loop; mutates
        ``parts``."""
        h = state.h
        n = h.nverts
        k = int(nparts)
        if n == 0:
            return 0, True
        occ, pw, base, conn, bto, bgain, mask = compute_kway_setup(
            h, parts, k, ceilings, cfg.boundary_only
        )
        insert_order = rng.permutation(n)
        # The setup arrays are fresh each pass and mutated by the move
        # loop directly; only the nparts-independent bucket scratch is
        # cached on the state.
        scratch = state.kway_arrays()
        ceil_arr = np.ascontiguousarray(ceilings, dtype=np.int64)
        stall_limit = max(32, int(cfg.fm_early_exit_frac * n))
        nb = state.nbuckets
        best = np.zeros(1, dtype=np.int64)
        feasible = self._lib.repro_kway_move_loop(
            n, k, nb, *_topology(state)[:6],
            _arg(parts, _i64, n, "parts"),
            _arg(occ, _i64, h.nnets * k, "occ"),
            _arg(conn, _i64, n * k, "conn"),
            _arg(pw, _i64, k, "pw"),
            _arg(ceil_arr, _i64, k, "ceilings"),
            _arg(base, _i64, n, "base"),
            _arg(bto, _i64, n, "bto"),
            _arg(bgain, _i64, n, "bgain"),
            _arg(mask.view(np.uint8), _u8, n, "insert_mask"),
            _arg(insert_order, _i64, n, "insert_order"),
            _arg(scratch["head"], _i64, nb, "head"),
            _arg(scratch["nxt"], _i64, n, "nxt"),
            _arg(scratch["prv"], _i64, n, "prv"),
            _arg(scratch["inside"], _u8, n, "inside"),
            _arg(scratch["locked"], _u8, n, "locked"),
            _arg(scratch["moved"], _i64, n, "moved"),
            _arg(scratch["moved_from"], _i64, n, "moved_from"),
            state.max_gain, state.slack, stall_limit,
            best.ctypes.data,
        )
        return int(best[0]), bool(feasible)

    def match_vertices(
        self,
        state: FMPassState,
        order: np.ndarray,
        absorption: bool,
        max_net: int,
        max_cluster_weight: int,
        restrict_parts: np.ndarray | None,
    ) -> np.ndarray:
        """Greedy matching sweep through the compiled loop."""
        h = state.h
        n = h.nverts
        scratch = state.flat_arrays()
        match = np.full(n, -1, dtype=np.int64)
        score = scratch["score"]
        score[:] = 0.0
        # Bound to a name: a converted copy must outlive the call.
        restrict = (
            None if restrict_parts is None
            else np.ascontiguousarray(restrict_parts, dtype=np.int64)
        )
        self._lib.repro_match_loop(
            n, *_topology(state),
            _arg(order, _i64, n, "order"),
            _arg(match, _i64, n, "match"),
            _arg(score, _f64, n, "score"),
            _arg(scratch["touched"], _i64, n, "touched"),
            int(bool(absorption)), int(max_net), int(max_cluster_weight),
            None if restrict is None
            else _arg(restrict, _i64, n, "restrict_parts"),
            int(restrict is not None),
        )
        return match

    def contract_pins(
        self, h: Hypergraph, cmap: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pin contraction through the compiled per-net loop (a stamp
        array deduplicates, each net's pins are then sorted)."""
        cmap = np.ascontiguousarray(cmap, dtype=np.int64)
        if cmap.size and (cmap.min() < 0 or cmap.max() >= h.nverts):
            raise PartitioningError(
                f"contract_pins: cmap values must lie in [0, {h.nverts})"
            )
        xpins = np.empty(h.nnets + 1, dtype=np.int64)
        pins = np.empty(h.npins, dtype=np.int64)
        ncost = np.empty(h.nnets, dtype=np.int64)
        stamp = np.empty(h.nverts, dtype=np.int64)
        nout = self._lib.repro_contract_pins(
            h.nnets, h.nverts,
            _arg(h.xpins, _i64, h.nnets + 1, "xpins"),
            _arg(h.pins, _i64, h.npins, "pins"),
            _arg(cmap, _i64, h.nverts, "cmap"),
            _arg(h.ncost, _i64, h.nnets, "ncost"),
            stamp.ctypes.data, xpins.ctypes.data, pins.ctypes.data,
            ncost.ctypes.data,
        )
        # Views of the front of each buffer: the untouched tail pages
        # of a large allocation are never made resident.
        return xpins[: nout + 1], pins[: xpins[nout]], ncost[:nout]

    def merge_identical(
        self, xpins: np.ndarray, pins: np.ndarray, ncost: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Identical-net merging by hashing and comparing the sorted pin
        slices in one compiled pass."""
        nnets = xpins.size - 1
        if nnets <= 1:
            return xpins, pins, ncost
        xp = np.ascontiguousarray(xpins, dtype=np.int64)
        pn = np.ascontiguousarray(pins, dtype=np.int64)
        nc = np.ascontiguousarray(ncost, dtype=np.int64)
        # The loop slices pins by xpins.
        if xp[0] != 0 or xp[-1] != pn.size or bool(np.any(xp[1:] < xp[:-1])):
            raise PartitioningError(
                "merge_identical: xpins must run from 0 to len(pins) "
                "without decreasing"
            )
        tsize = 1 << (2 * nnets).bit_length()
        table = np.empty(2 * tsize, dtype=np.int64)
        grp = np.empty(nnets, dtype=np.int64)
        out_xpins = np.empty(nnets + 1, dtype=np.int64)
        out_pins = np.empty(pn.size, dtype=np.int64)
        out_ncost = np.empty(nnets, dtype=np.int64)
        nsurv = self._lib.repro_merge_identical(
            nnets,
            _arg(xp, _i64, nnets + 1, "xpins"),
            _arg(pn, _i64, pn.size, "pins"),
            _arg(nc, _i64, nnets, "ncost"),
            table.ctypes.data, tsize, grp.ctypes.data,
            out_xpins.ctypes.data, out_pins.ctypes.data,
            out_ncost.ctypes.data,
        )
        if nsurv == nnets:
            return xpins, pins, ncost
        return (
            out_xpins[: nsurv + 1],
            out_pins[: out_xpins[nsurv]],
            out_ncost[:nsurv],
        )

    def greedy_owners(
        self,
        ptr: np.ndarray,
        flat: np.ndarray,
        extent: int,
        nparts: int,
        fallback_balance: np.ndarray,
    ) -> np.ndarray:
        """Greedy owner assignment through the compiled loop.

        The vectorized prelude (singleton lines, processing order) and
        the empty-line round robin are shared with the reference; only
        the sequential cut-line loop is compiled.
        """
        from repro.kernels.spmv import _owner_finalize, _owner_setup

        owners, multi = _owner_setup(ptr, flat, extent)
        if multi.size:
            ptr = np.ascontiguousarray(ptr, dtype=np.int64)
            flat = np.ascontiguousarray(flat, dtype=np.int64)
            # The loop indexes send/recv by part id and flat by ptr.
            if flat.min() < 0 or flat.max() >= nparts:
                raise PartitioningError(
                    f"greedy_owners: part ids must lie in [0, {nparts})"
                )
            if ptr[0] != 0 or bool(np.any(ptr[1:] < ptr[:-1])):
                raise PartitioningError(
                    "greedy_owners: ptr must start at 0 and not decrease"
                )
            send = np.zeros(nparts, dtype=np.int64)
            recv = np.zeros(nparts, dtype=np.int64)
            self._lib.repro_greedy_owner_loop(
                _arg(ptr, _i64, extent + 1, "ptr"),
                _arg(flat, _i64, int(ptr[-1]), "flat"),
                _arg(multi, _i64, multi.size, "lines"),
                multi.size,
                send.ctypes.data,
                recv.ctypes.data,
                _arg(owners, _i64, extent, "owners"),
            )
        return _owner_finalize(owners, fallback_balance, nparts)
