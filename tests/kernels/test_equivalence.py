"""Cross-backend equivalence: backends must be bit-compatible.

The compiled loops of the ``"native"`` backend are checked against the
``"python"`` reference on small random hypergraphs: FM passes, matching
(heavy-edge and absorption, free and part-restricted), a coarsening
level, and a whole multilevel run.  Where no C compiler works the native
side is unavailable and these tests skip.
"""

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import available_backends, get_backend
from repro.partitioner.coarsen import coarsen_level, match_vertices
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import fm_refine
from repro.partitioner.multilevel import multilevel_bipartition


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    """A random hypergraph with unit-free weights/costs and no dup pins."""
    nets = []
    for _ in range(nnets):
        size = int(rng.integers(1, min(6, nverts) + 1))
        nets.append(rng.choice(nverts, size=size, replace=False))
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


def backends_under_test():
    """The reference backend plus the compiled one."""
    if "native" not in available_backends():
        pytest.skip("native backend unavailable: no working C compiler")
    return get_backend("python"), get_backend("native")


CONFIGS = [
    PartitionerConfig(name="eq-mondriaan"),
    PartitionerConfig(
        name="eq-patoh",
        coarse_target=8,
        matching="absorption",
        boundary_only=True,
        fm_max_passes=3,
    ),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(6))
def test_fm_refine_equivalent(cfg, case_seed):
    rng = np.random.default_rng(1000 + case_seed)
    h = random_hypergraph(rng, nverts=40, nnets=60)
    parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    cap = int(1.2 * h.total_weight() / 2) + 1
    py, flat = backends_under_test()
    r_py = fm_refine(h, parts, (cap, cap), cfg, seed=case_seed, backend=py)
    r_nb = fm_refine(h, parts, (cap, cap), cfg, seed=case_seed, backend=flat)
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut
    assert r_py.improvement == r_nb.improvement
    assert r_py.feasible == r_nb.feasible
    assert r_py.passes == r_nb.passes
    # And the reported cut is the true connectivity volume.
    assert r_py.cut == connectivity_volume(h, r_py.parts)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(4))
def test_matching_equivalent(cfg, case_seed):
    rng = np.random.default_rng(2000 + case_seed)
    h = random_hypergraph(rng, nverts=50, nnets=70)
    py, flat = backends_under_test()
    cap = h.total_weight()
    m_py = match_vertices(
        h, cfg, np.random.default_rng(case_seed), cap, backend=py
    )
    m_nb = match_vertices(
        h, cfg, np.random.default_rng(case_seed), cap, backend=flat
    )
    np.testing.assert_array_equal(m_py, m_nb)


@pytest.mark.parametrize("case_seed", range(3))
def test_restricted_matching_equivalent(case_seed):
    rng = np.random.default_rng(3000 + case_seed)
    h = random_hypergraph(rng, nverts=40, nnets=50)
    restrict = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    py, flat = backends_under_test()
    cfg = CONFIGS[0]
    m_py = match_vertices(
        h, cfg, np.random.default_rng(7), h.total_weight(),
        restrict_parts=restrict, backend=py,
    )
    m_nb = match_vertices(
        h, cfg, np.random.default_rng(7), h.total_weight(),
        restrict_parts=restrict, backend=flat,
    )
    np.testing.assert_array_equal(m_py, m_nb)
    # Restriction honoured: matched pairs stay within a part.
    for v, u in enumerate(m_py.tolist()):
        if u != -1:
            assert restrict[v] == restrict[u]


@pytest.mark.parametrize("case_seed", range(3))
def test_coarsen_level_equivalent(case_seed):
    """Same seed => identical CoarseLevel output across backends."""
    rng = np.random.default_rng(4000 + case_seed)
    h = random_hypergraph(rng, nverts=60, nnets=80)
    py, flat = backends_under_test()
    cfg = CONFIGS[0]
    lvl_py = coarsen_level(
        h, cfg, np.random.default_rng(11), h.total_weight(), backend=py
    )
    lvl_nb = coarsen_level(
        h, cfg, np.random.default_rng(11), h.total_weight(), backend=flat
    )
    np.testing.assert_array_equal(lvl_py.cmap, lvl_nb.cmap)
    assert lvl_py.coarse.nverts == lvl_nb.coarse.nverts
    np.testing.assert_array_equal(lvl_py.coarse.xpins, lvl_nb.coarse.xpins)
    np.testing.assert_array_equal(lvl_py.coarse.pins, lvl_nb.coarse.pins)
    np.testing.assert_array_equal(lvl_py.coarse.vwgt, lvl_nb.coarse.vwgt)
    np.testing.assert_array_equal(lvl_py.coarse.ncost, lvl_nb.coarse.ncost)


def test_multilevel_equivalent():
    """End-to-end: a full multilevel run is backend-independent."""
    rng = np.random.default_rng(99)
    h = random_hypergraph(rng, nverts=120, nnets=160)
    cap = int(1.1 * h.total_weight() / 2) + 1
    py, flat = backends_under_test()
    cfg = PartitionerConfig(name="eq-ml", coarse_target=16, n_initial=2)
    r_py = multilevel_bipartition(h, (cap, cap), cfg, seed=5, backend=py)
    r_nb = multilevel_bipartition(h, (cap, cap), cfg, seed=5, backend=flat)
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(3))
def test_restricted_matching_equivalent_under_config(cfg, case_seed):
    """Restriction combined with each matching rule (absorption too) and
    a tight cluster cap, so the weight test also rejects candidates."""
    rng = np.random.default_rng(5000 + case_seed)
    h = random_hypergraph(rng, nverts=60, nnets=90)
    restrict = rng.integers(0, 3, size=h.nverts).astype(np.int32)
    py, flat = backends_under_test()
    got = [
        match_vertices(
            h, cfg, np.random.default_rng(case_seed), 4,
            restrict_parts=restrict, backend=b,
        )
        for b in (py, flat)
    ]
    np.testing.assert_array_equal(*got)
    assert (got[0] >= 0).any()

