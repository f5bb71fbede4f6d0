"""Build robustness of the native kernel library.

Every scenario runs in fresh interpreters against a private cache
(``XDG_CACHE_HOME``), because the library is built and loaded once per
process:

* a cold build finishes within a generous bound;
* a second cold process loads the cached library without running the
  compiler (the compiler here is a wrapper that logs each call);
* two processes racing on an empty cache both load a working library;
* a truncated cached library is rebuilt instead of crashing the process;
* with ``CC=false`` ``"auto"`` falls back to python with the same
  answers, and the strict ``get_backend("native")`` raises.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.kernels import native

SRC = Path(__file__).resolve().parents[2] / "src"
CC = shutil.which("cc")

#: Generous ceiling for one cold interpreter that compiles the library
#: and runs a small partitioning; a build takes about a second.
COLD_BUILD_BOUND_S = 120.0

#: Prints what the process resolved and a digest of one answer.
PROBE = """
import hashlib, json
from repro import bipartition
from repro.errors import PartitioningError
from repro.kernels import get_backend, native_error, resolve_backend
from repro.sparse.generators import grid2d_laplacian

res = bipartition(grid2d_laplacian(16, 16), "mediumgrain", refine=True,
                  seed=3)
try:
    get_backend("native")
    strict = "ok"
except PartitioningError as exc:
    strict = "PartitioningError: " + str(exc)
print(json.dumps({
    "backend": resolve_backend("auto").name,
    "error": native_error(),
    "strict": strict,
    "volume": int(res.volume),
    "parts": hashlib.sha256(res.parts.tobytes()).hexdigest(),
}))
"""

needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler (cc)")


def _env(cache: Path, cc: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["XDG_CACHE_HOME"] = str(cache)
    env["CC"] = cc
    return env


def _probe(cache: Path, cc: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env=_env(cache, cc), timeout=2 * COLD_BUILD_BOUND_S,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _libraries(cache: Path) -> list[Path]:
    return sorted((cache / "repro").glob("native-*.so"))


@pytest.fixture(scope="module")
def logging_cc(tmp_path_factory) -> tuple[str, Path]:
    """A compiler wrapper that logs each call, then runs ``cc``."""
    if CC is None:
        pytest.skip("no C compiler (cc)")
    d = tmp_path_factory.mktemp("cc")
    log = d / "calls.log"
    wrapper = d / "logging-cc"
    wrapper.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec "{CC}" "$@"\n')
    wrapper.chmod(0o755)
    return str(wrapper), log


@pytest.fixture(scope="module")
def cold(tmp_path_factory, logging_cc):
    """One cold interpreter against an empty cache: its cache, its
    wall time and its answer."""
    cache = tmp_path_factory.mktemp("cold")
    t0 = time.perf_counter()
    out = _probe(cache, logging_cc[0])
    return cache, time.perf_counter() - t0, out


@needs_cc
def test_cold_build_within_bound(cold, logging_cc):
    cache, elapsed, out = cold
    assert out["backend"] == "native", out["error"]
    assert out["strict"] == "ok"
    assert elapsed < COLD_BUILD_BOUND_S
    assert len(_libraries(cache)) == 1
    assert logging_cc[1].read_text().count("x") == 1


@needs_cc
def test_second_process_loads_from_cache_without_compiling(cold, logging_cc):
    cache, _, first = cold
    calls = logging_cc[1].read_text().count("x")
    again = _probe(cache, logging_cc[0])
    assert again == first
    assert logging_cc[1].read_text().count("x") == calls


@needs_cc
def test_processes_racing_on_an_empty_cache(tmp_path, cold):
    env = _env(tmp_path, CC)
    procs = [
        subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outs = []
    for p in procs:
        stdout, stderr = p.communicate(timeout=2 * COLD_BUILD_BOUND_S)
        assert p.returncode == 0, stderr
        outs.append(json.loads(stdout.strip().splitlines()[-1]))
    for out in outs:
        assert out["backend"] == "native", out["error"]
        assert (out["volume"], out["parts"]) == (
            cold[2]["volume"], cold[2]["parts"]
        )
    assert len(_libraries(tmp_path)) == 1
    assert not list((tmp_path / "repro").glob("*.tmp"))


@needs_cc
def test_truncated_library_is_rebuilt(tmp_path, cold, logging_cc):
    shutil.copytree(cold[0] / "repro", tmp_path / "repro")
    (lib,) = _libraries(tmp_path)
    size = lib.stat().st_size
    with open(lib, "r+b") as fh:
        fh.truncate(size // 2)
    out = _probe(tmp_path, logging_cc[0])
    assert out["backend"] == "native", out["error"]
    assert (out["volume"], out["parts"]) == (
        cold[2]["volume"], cold[2]["parts"]
    )
    assert lib.stat().st_size == size


def test_truncation_is_detected_before_loading(tmp_path):
    whole = tmp_path / "whole.so"
    whole.write_bytes(Path(sys.executable).read_bytes())  # any ELF file
    if whole.read_bytes()[:4] != b"\x7fELF":
        pytest.skip("not an ELF platform")
    assert native._intact(whole)
    cut = tmp_path / "cut.so"
    cut.write_bytes(whole.read_bytes()[:-1])
    assert not native._intact(cut)
    assert not native._intact(tmp_path / "missing.so")


def test_compiler_is_part_of_the_cache_key():
    src = native.SOURCE.read_bytes()
    assert native.library_name(src, ["cc"]) != native.library_name(
        src, ["gcc"]
    )
    assert native.library_name(src, ["cc"]) != native.library_name(
        src + b"\n", ["cc"]
    )


def test_cc_false_falls_back_to_python(tmp_path):
    import hashlib

    from repro import bipartition
    from repro.sparse.generators import grid2d_laplacian

    out = _probe(tmp_path, "false")
    assert out["backend"] == "python"
    assert "false" in out["error"]
    assert out["strict"].startswith("PartitioningError: ")
    assert "native" in out["strict"]
    assert not _libraries(tmp_path)
    # The same answer as this process gets from its own backend.
    res = bipartition(grid2d_laplacian(16, 16), "mediumgrain", refine=True,
                      seed=3)
    assert (out["volume"], out["parts"]) == (
        int(res.volume), hashlib.sha256(res.parts.tobytes()).hexdigest()
    )


def test_arguments_are_checked_before_the_call():
    import numpy as np

    from repro.errors import PartitioningError

    i64 = np.dtype(np.int64)
    assert native._arg(np.zeros(3, np.int64), i64, 3, "x")
    for bad in (np.zeros(3, np.int32), np.zeros(6, np.int64)[::2],
                np.zeros(4, np.int64)):
        with pytest.raises(PartitioningError, match="argument x"):
            native._arg(bad, i64, 3, "x")


def test_greedy_owners_rejects_out_of_range_part_ids():
    import numpy as np

    from repro.errors import PartitioningError
    from repro.kernels import available_backends, get_backend

    if "native" not in available_backends():
        pytest.skip("native backend unavailable: no working C compiler")

    ptr = np.array([0, 2, 4], dtype=np.int64)
    flat = np.array([0, 1, 0, 5], dtype=np.int64)
    with pytest.raises(PartitioningError, match="part ids"):
        get_backend("native").greedy_owners(
            ptr, flat, 2, 2, np.arange(2, dtype=np.int64)
        )
