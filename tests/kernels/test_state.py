"""Tests for the reusable FM pass state and its caching contract."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.methods import bipartition
from repro.errors import PartitioningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import FMPassState, get_backend
from repro.partitioner.fm import fm_refine
from repro.sparse.generators import grid2d_laplacian


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    """A random hypergraph (mirrors the equivalence-suite builder)."""
    nets = [
        rng.choice(nverts, size=int(rng.integers(1, 6)), replace=False)
        for _ in range(nnets)
    ]
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


@pytest.fixture
def h():
    return random_hypergraph(np.random.default_rng(0), nverts=40, nnets=60)


class TestCaching:
    def test_state_cached_per_backend(self, h):
        backend = get_backend("python")
        assert backend.fm_state(h) is backend.fm_state(h)

    def test_for_hypergraph_same_instance(self, h):
        s1 = FMPassState.for_hypergraph(h, "python")
        s2 = FMPassState.for_hypergraph(h, "python")
        assert s1 is s2

    def test_distinct_hypergraphs_distinct_states(self, h):
        h2 = random_hypergraph(np.random.default_rng(1), 40, 60)
        assert FMPassState.for_hypergraph(h, "python") is not (
            FMPassState.for_hypergraph(h2, "python")
        )

    def test_derived_scalars(self, h):
        state = FMPassState.for_hypergraph(h, "python")
        assert state.max_gain == h.max_vertex_net_cost()
        assert state.slack == int(h.vwgt.max())
        assert state.total_weight == h.total_weight()
        assert state.nbuckets == 2 * state.max_gain + 1

    def test_list_mirrors_match_arrays(self, h):
        mirrors = FMPassState.for_hypergraph(h, "python").list_mirrors()
        assert mirrors["xpins"] == h.xpins.tolist()
        assert mirrors["pins"] == h.pins.tolist()
        assert mirrors["sizes"] == h.net_sizes().tolist()


class TestReuse:
    def test_repeated_refine_equals_fresh_state(self, h):
        """State reuse across fm_refine calls must not change results."""
        rng = np.random.default_rng(3)
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = int(1.2 * h.total_weight() / 2) + 1
        backend = get_backend("python")

        # Reused path: one cached state across several calls with
        # different seeds and start vectors.
        reused = []
        for seed in range(5):
            r = fm_refine(h, parts, (cap, cap), seed=seed, backend=backend)
            reused.append((r.parts.copy(), r.cut, r.improvement))
            parts = r.parts

        # Fresh path: identical schedule on a structurally identical
        # hypergraph (so nothing is cached from the first run).
        h2 = Hypergraph(h.nverts, h.xpins, h.pins, h.vwgt, h.ncost)
        parts2 = np.random.default_rng(3).integers(
            0, 2, size=h.nverts
        ).astype(np.int64)
        for seed, (p_ref, cut_ref, imp_ref) in enumerate(reused):
            state = FMPassState(h2, "python")  # brand-new, uncached
            r = fm_refine(
                h2, parts2, (cap, cap), seed=seed,
                backend=backend, state=state,
            )
            np.testing.assert_array_equal(r.parts, p_ref)
            assert r.cut == cut_ref
            assert r.improvement == imp_ref
            parts2 = r.parts

    def test_explicit_state_accepted(self, h):
        backend = get_backend("python")
        state = backend.fm_state(h)
        rng = np.random.default_rng(4)
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
        cap = h.total_weight()
        r1 = fm_refine(h, parts, (cap, cap), seed=0, state=state)
        r2 = fm_refine(h, parts, (cap, cap), seed=0)
        np.testing.assert_array_equal(r1.parts, r2.parts)

    def test_state_for_wrong_hypergraph_rejected(self, h):
        h2 = random_hypergraph(np.random.default_rng(9), 40, 60)
        state = FMPassState.for_hypergraph(h2, "python")
        parts = np.zeros(h.nverts, dtype=np.int64)
        with pytest.raises(PartitioningError, match="different hypergraph"):
            fm_refine(h, parts, (h.total_weight(), h.total_weight()),
                      state=state)

    def test_input_parts_never_mutated(self, h):
        parts = np.random.default_rng(5).integers(
            0, 2, size=h.nverts
        ).astype(np.int64)
        before = parts.copy()
        cap = h.total_weight()
        fm_refine(h, parts, (cap, cap), seed=1)
        np.testing.assert_array_equal(parts, before)


class TestLifetime:
    """The state is cached on its hypergraph and refers back to it
    weakly, so both are freed by reference counting alone."""

    def test_state_freed_with_its_hypergraph(self):
        h = random_hypergraph(np.random.default_rng(2), 40, 60)
        gc.collect()
        gc.disable()
        try:
            state = get_backend("python").fm_state(h)
            state.list_mirrors()
            assert state.h is h
            ref = weakref.ref(h)
            del h, state
            assert ref() is None
        finally:
            gc.enable()

    def test_no_state_outlives_a_bipartition(self):
        matrix = grid2d_laplacian(30, 30)
        gc.collect()
        gc.disable()
        try:
            bipartition(matrix, "mediumgrain", refine=True, seed=1)
            alive = sum(
                isinstance(o, FMPassState) for o in gc.get_objects()
            )
        finally:
            gc.enable()
        assert alive == 0

    def test_pickle_drops_the_cache(self, h):
        get_backend("python").fm_state(h).list_mirrors()
        h2 = pickle.loads(pickle.dumps(h))
        assert h2._cache == {}
        np.testing.assert_array_equal(h2.pins, h.pins)
        assert not h2.pins.flags.writeable
        assert get_backend("python").fm_state(h2).h is h2
