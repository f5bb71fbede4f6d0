# Convenience targets; all assume the repo root as working directory.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-python-fallback test-chaos serve-smoke bench \
        bench-e2e-update bench-e2e-smoke bench-e2e-smoke-python \
        bench-serve bench-serve-update perfbench-selftest

# Tier-1 verification: the fast test suite (bench/chaos deselected).
test:
	$(PYTHON) -m pytest -x -q

# Fault-injection suite for the hardened execution layer: injected
# crashes (real SIGKILLs), hangs vs the watchdog, exceptions, shm-attach
# failures, and poisoned results, on the process pool and inline.
# Opt-in — it deliberately kills and rebuilds worker pools.
test-chaos:
	$(PYTHON) -m pytest -m chaos -q

# Serving smoke: boot a real `repro-partition serve` daemon, submit
# p in {2, 4} over both algorithms, verify a cache hit on resubmission,
# and drain it cleanly with SIGTERM.  Completion-gated only — no wall
# clock (see docs/serving.md).
serve-smoke:
	$(PYTHON) -m benchmarks.bench_serve --smoke

# The same suite with no working C compiler: CC=false makes the native
# kernel build fail, so "auto" resolves to the pure-Python reference in
# every process (the build tests pick their own compiler).  With `test`
# this covers both kernel paths.
test-python-fallback:
	CC=false $(PYTHON) -m pytest -x -q

# Re-time direct k-way (flat and multilevel) against recursive
# bisection and rewrite the kway / kway_ml sections of BENCH_e2e.json;
# exits non-zero when the multilevel stage misses its quality or speed
# gate (commit the result).
bench-e2e-update:
	$(PYTHON) -m benchmarks.bench_e2e

# CI smoke for the execution layer: tiny instances, every kernel
# backend on the process pool with --jobs 2, gated on completion +
# bit-identity only (never on wall clock — CI runners are noisy).
bench-e2e-smoke:
	$(PYTHON) -m benchmarks.bench_e2e --smoke --jobs 2

# The same smoke on the pure-Python kernels (the native build disabled).
bench-e2e-smoke-python:
	CC=false $(PYTHON) -m benchmarks.bench_e2e --smoke --jobs 2

# Re-measure the serving tier against its gates (cache hits >= 20x
# faster than cold; saturation p99 under 10% injected worker crashes
# <= 3x fault-free); exits non-zero when a gate fails.
bench-serve:
	$(PYTHON) -m benchmarks.bench_serve --check

# Re-time the serving tier and rewrite BENCH_serve.json (commit it).
bench-serve-update:
	$(PYTHON) -m benchmarks.bench_serve

# The full pytest-benchmark micro-bench suite (slow, informational).
bench:
	$(PYTHON) -m pytest benchmarks/bench_kernels.py --benchmark-only -q

# Self-test of the repo benchmark (perfbench/) on tiny inputs: every
# workload prints every metric, the oracle catches corrupted answers,
# and each traced per-layer row the workload exercises is non-zero — a
# refactor that stops calling a timed layer through its module
# attribute shows up here as a zero row.
perfbench-selftest:
	$(PYTHON) perfbench/run.py --selftest
