"""Tests for the SpMV-side kernels (incidences, owners, partial sums).

The reference (python) and compiled (native) backends must agree
bit-for-bit on the greedy owner assignment,
and every kernel must match a brute-force reimplementation on random
inputs.
"""

import numpy as np
import pytest

from repro.kernels import SpMVState, available_backends, get_backend
from repro.kernels.spmv import (
    axis_incidences,
    axis_lambdas,
    greedy_owners,
    greedy_owners_reference,
    partial_sums,
)
from repro.sparse.generators import erdos_renyi
from repro.sparse.matrix import SparseMatrix


def random_case(seed: int, extent: int = 23, nnz: int = 80, nparts: int = 4):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, extent, size=nnz).astype(np.int64)
    parts = rng.integers(0, nparts, size=nnz).astype(np.int64)
    return index, parts, extent, nparts


def brute_force_sets(index, parts, extent):
    return [
        sorted(set(parts[index == i].tolist())) for i in range(extent)
    ]


class TestAxisIncidences:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        index, parts, extent, nparts = random_case(seed)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        expected = brute_force_sets(index, parts, extent)
        assert ptr.shape == (extent + 1,)
        for i in range(extent):
            got = flat[ptr[i]:ptr[i + 1]].tolist()
            assert got == expected[i]  # ascending parts per line

    def test_empty(self):
        ptr, flat = axis_incidences(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 5, 2
        )
        assert ptr.tolist() == [0] * 6
        assert flat.size == 0

    def test_nparts_inferred(self):
        index = np.array([0, 0, 1], dtype=np.int64)
        parts = np.array([2, 0, 2], dtype=np.int64)
        ptr, flat = axis_incidences(index, parts, 2)
        assert flat.tolist() == [0, 2, 2]

    @pytest.mark.parametrize("seed", range(4))
    def test_scatter_equals_sorted_fallback(self, seed):
        from repro.kernels.spmv import _incidences_sorted

        index, parts, extent, nparts = random_case(seed, nnz=120)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        counts, flat2 = _incidences_sorted(index, parts, extent)
        assert np.array_equal(np.diff(ptr), counts)
        assert np.array_equal(flat, flat2)

    def test_sparse_extent_takes_sorted_path(self):
        """Huge extent + tiny nnz must route to the sort-based path
        (the scatter table would do O(extent * nparts) work) and still
        return identical results."""
        from repro.kernels.spmv import _use_scatter

        extent, nparts = 70_000, 2
        index = np.array([5, 69_000, 5], dtype=np.int64)
        parts = np.array([1, 0, 0], dtype=np.int64)
        assert not _use_scatter(extent, nparts, index.size)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        assert np.diff(ptr)[5] == 2 and np.diff(ptr)[69_000] == 1
        assert flat.tolist() == [0, 1, 0]
        lam = axis_lambdas(index, parts, extent, nparts)
        assert np.array_equal(lam, np.diff(ptr))
        # Dense small tables still scatter.
        assert _use_scatter(100, 4, 300)


class TestAxisLambdas:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_incidence_counts(self, seed):
        index, parts, extent, nparts = random_case(seed)
        lam = axis_lambdas(index, parts, extent, nparts)
        ptr, _ = axis_incidences(index, parts, extent, nparts)
        assert np.array_equal(lam, np.diff(ptr))

    def test_empty(self):
        lam = axis_lambdas(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert lam.tolist() == [0, 0, 0, 0]


def legacy_greedy_owners(ptr, flat, extent, nparts, fallback_balance):
    """The pre-PR all-lines loop, kept as the semantic oracle."""
    owners = np.full(extent, -1, dtype=np.int64)
    lam = np.diff(ptr)
    send = [0] * nparts
    recv = [0] * nparts
    order = np.argsort(-lam, kind="stable").tolist()
    for line in order:
        lo, hi = int(ptr[line]), int(ptr[line + 1])
        k = hi - lo
        if k == 0:
            continue
        if k == 1:
            owners[line] = flat[lo]
            continue
        best_s = -1
        best_cost = None
        for t in range(lo, hi):
            s = int(flat[t])
            cost = max(send[s] + k - 1, recv[s])
            if best_cost is None or cost < best_cost:
                best_s, best_cost = s, cost
        owners[line] = best_s
        send[best_s] += k - 1
        for t in range(lo, hi):
            s = int(flat[t])
            if s != best_s:
                recv[s] += 1
    empty = owners < 0
    if empty.any():
        idx = np.flatnonzero(empty)
        owners[idx] = fallback_balance[np.arange(idx.size) % nparts]
    return owners


class TestGreedyOwners:
    @pytest.mark.parametrize("seed", range(10))
    def test_reference_matches_legacy_loop(self, seed):
        index, parts, extent, nparts = random_case(seed, extent=31, nnz=150)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        fallback = np.arange(nparts, dtype=np.int64)
        got = greedy_owners_reference(ptr, flat, extent, nparts, fallback)
        want = legacy_greedy_owners(ptr, flat, extent, nparts, fallback)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(10))
    def test_backends_bit_identical(self, seed):
        index, parts, extent, nparts = random_case(seed, extent=31, nnz=150)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        fallback = np.arange(nparts, dtype=np.int64)
        ref = get_backend("python").greedy_owners(
            ptr, flat, extent, nparts, fallback
        )
        if "native" not in available_backends():
            pytest.skip("native backend unavailable: no working C compiler")
        compiled = get_backend("native").greedy_owners(
            ptr, flat, extent, nparts, fallback
        )
        assert np.array_equal(ref, compiled)

    def test_dispatch_helper(self):
        index, parts, extent, nparts = random_case(3)
        ptr, flat = axis_incidences(index, parts, extent, nparts)
        fallback = np.arange(nparts, dtype=np.int64)
        a = greedy_owners(ptr, flat, extent, nparts, fallback, "python")
        b = greedy_owners(ptr, flat, extent, nparts, fallback, "auto")
        assert np.array_equal(a, b)

    def test_empty_lines_round_robin(self):
        ptr = np.zeros(5, dtype=np.int64)  # four empty lines
        flat = np.empty(0, dtype=np.int64)
        fallback = np.arange(3, dtype=np.int64)
        owners = greedy_owners_reference(ptr, flat, 4, 3, fallback)
        assert owners.tolist() == [0, 1, 2, 0]


class TestPartialSums:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        a = erdos_renyi(15, 12, 60, seed=seed)
        parts = rng.integers(0, 3, size=a.nnz).astype(np.int64)
        v = rng.random(a.ncols)
        gparts, grows, gsums = partial_sums(
            a.rows, a.cols, a.vals, parts, v, a.nrows
        )
        # Brute force: dict keyed by (part, row), canonical order.
        acc: dict = {}
        for k in range(a.nnz):
            key = (int(parts[k]), int(a.rows[k]))
            acc[key] = acc.get(key, 0.0) + a.vals[k] * v[a.cols[k]]
        keys = sorted(acc)
        assert list(zip(gparts.tolist(), grows.tolist())) == keys
        np.testing.assert_allclose(
            gsums, np.array([acc[k] for k in keys]), rtol=1e-12
        )

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        gparts, grows, gsums = partial_sums(
            e, e, np.empty(0), e, np.empty(0), 4
        )
        assert gparts.size == grows.size == gsums.size == 0

    def test_deterministic_with_state_scratch(self):
        rng = np.random.default_rng(9)
        a = erdos_renyi(20, 20, 100, seed=9)
        parts = rng.integers(0, 2, size=a.nnz).astype(np.int64)
        v = rng.random(a.ncols)
        state = SpMVState.for_matrix(a)
        r1 = partial_sums(a.rows, a.cols, a.vals, parts, v, a.nrows, state)
        r2 = partial_sums(a.rows, a.cols, a.vals, parts, v, a.nrows, state)
        r3 = partial_sums(a.rows, a.cols, a.vals, parts, v, a.nrows)
        for x, y, z in zip(r1, r2, r3):
            assert np.array_equal(x, y)
            assert np.array_equal(x, z)


class TestSpMVState:
    def test_cached_identity(self):
        a = erdos_renyi(10, 10, 30, seed=1)
        assert SpMVState.for_matrix(a) is SpMVState.for_matrix(a)

    def test_default_vector_and_reference(self):
        a = SparseMatrix.eye(4)
        state = SpMVState.for_matrix(a)
        v = state.default_vector()
        np.testing.assert_allclose(v, np.arange(1, 5) / 4.0)
        assert not v.flags.writeable
        u = state.reference_result()
        np.testing.assert_allclose(u, a.matvec(v))
        assert state.reference_result() is u  # cached

    def test_scratch_reuse_and_growth(self):
        a = erdos_renyi(10, 10, 30, seed=2)
        state = SpMVState.for_matrix(a)
        b1 = state.scratch("x", 10, np.float64)
        b2 = state.scratch("x", 8, np.float64)
        assert b2.base is b1.base or b2.base is b1  # same backing buffer
        b3 = state.scratch("x", 64, np.float64)
        assert b3.size == 64

    def test_simulate_hits_state_cache(self):
        from repro.spmv.simulate import simulate_spmv

        a = erdos_renyi(12, 12, 50, seed=3)
        parts = np.zeros(a.nnz, dtype=np.int64)
        simulate_spmv(a, parts, 1)
        state = SpMVState.for_matrix(a)
        assert state._reference_u is not None  # populated by the run
        r = simulate_spmv(a, parts, 1)
        np.testing.assert_allclose(r.result, state.reference_result())
