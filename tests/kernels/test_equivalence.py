"""Cross-backend equivalence: backends must be bit-compatible.

The compiled loops of the ``"native"`` backend are checked against the
``"python"`` reference on small random hypergraphs: FM passes, matching
(heavy-edge and absorption, free and part-restricted), a coarsening
level, and a whole multilevel run.  The compiled set-up kernels are
compared array by array: the FM pass set-up, pin contraction,
identical-net merging and the transposed incidence.  Where no C compiler
works the native side is unavailable and these tests skip.  The last
test checks the medium-grain builder's pin order, which needs no
compiler.
"""

import numpy as np
import pytest

from repro.core.medium_grain import build_medium_grain
from repro.core.split import Split
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume
from repro.kernels import available_backends, get_backend
from repro.kernels.python_backend import (
    _MERGE_LEXSORT_MAX_SIZE,
    _MERGE_LEXSORT_MIN_NETS,
)
from repro.kernels.state import compute_fm_setup
from repro.partitioner.coarsen import coarsen_level, contract, match_vertices
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import fm_refine
from repro.partitioner.multilevel import multilevel_bipartition
from repro.sparse.generators import chung_lu, erdos_renyi


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



# --------------------------------------------------------------------- #
# Set-up kernels, array by array.
# --------------------------------------------------------------------- #
def _with_isolated(rng, nverts, nnets, nisolated):
    """A random hypergraph plus ``nisolated`` vertices in no net."""
    h = random_hypergraph(rng, nverts, nnets)
    vwgt = np.concatenate([h.vwgt, rng.integers(1, 4, size=nisolated)])
    return Hypergraph(
        h.nverts + nisolated, h.xpins, h.pins, vwgt=vwgt, ncost=h.ncost
    )


def _native_fm_setup(native, h, parts, boundary_only):
    """The compiled FM set-up called on its own; returns what
    :func:`compute_fm_setup` returns, plus the weight on side 1."""
    pc0 = np.empty(h.nnets, dtype=np.int64)
    pc1 = np.empty(h.nnets, dtype=np.int64)
    gain = np.empty(h.nverts, dtype=np.int64)
    mask = np.empty(h.nverts, dtype=np.uint8)
    w1 = native._lib.repro_fm_setup(
        h.nverts, h.nnets, h.xpins.ctypes.data, h.pins.ctypes.data,
        h.ncost.ctypes.data, h.vwgt.ctypes.data, parts.ctypes.data,
        pc0.ctypes.data, pc1.ctypes.data, gain.ctypes.data,
        mask.ctypes.data, int(boundary_only),
    )
    return pc0, pc1, gain, mask.view(bool), w1


@pytest.mark.parametrize("boundary_only", [False, True])
@pytest.mark.parametrize("sides", ["random", "all0", "all1"])
@pytest.mark.parametrize("case_seed", range(4))
def test_fm_setup_equivalent(boundary_only, sides, case_seed):
    """Pin counts, gains, seeding mask and side weight, with zero-cost
    nets (costs are drawn from 0..2) and isolated vertices."""
    rng = np.random.default_rng(6000 + case_seed)
    h = _with_isolated(rng, nverts=40, nnets=60, nisolated=5)
    assert (h.ncost == 0).any()
    if sides == "random":
        parts = rng.integers(0, 2, size=h.nverts).astype(np.int64)
    else:
        parts = np.full(h.nverts, int(sides[-1]), dtype=np.int64)
    _, native = backends_under_test()
    got = _native_fm_setup(native, h, parts, boundary_only)
    want = compute_fm_setup(h, parts, boundary_only)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert got[4] == int(np.dot(parts, h.vwgt))


def _random_matching(rng, nverts, share=0.8):
    """A random matching over a ``share`` of the vertices."""
    perm = rng.permutation(nverts)
    k = int(share * nverts) // 2 * 2
    match = np.full(nverts, -1, dtype=np.int64)
    match[perm[0:k:2]] = perm[1:k:2]
    match[perm[1:k:2]] = perm[0:k:2]
    return match


def _assert_same_coarse(a, b):
    (cmap_a, ha), (cmap_b, hb) = a, b
    np.testing.assert_array_equal(cmap_a, cmap_b)
    assert ha.nverts == hb.nverts
    for name in ("xpins", "pins", "vwgt", "ncost"):
        got, want = getattr(hb, name), getattr(ha, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("case_seed", range(5))
def test_contract_equivalent(merge, case_seed):
    """contract_pins + merge_identical on random matchings of small,
    dense hypergraphs: nets collapse to one pin, pins collide after
    mapping, and contracted nets come out identical."""
    rng = np.random.default_rng(7000 + case_seed)
    h = _with_isolated(rng, nverts=30, nnets=80, nisolated=3)
    match = _random_matching(rng, h.nverts)
    py, native = backends_under_test()
    cmap, _ = contract(h, match, backend=py)
    got = native.contract_pins(h, cmap)
    want = py.contract_pins(h, cmap)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    mapped = cmap[h.pins]
    net_ids = h.net_ids()
    pairs = np.unique(np.stack([net_ids, mapped]), axis=1)
    assert pairs.shape[1] < h.npins  # some pins collided
    assert got[0].size - 1 < h.nnets  # some nets dropped
    _assert_same_coarse(
        contract(h, match, merge_identical_nets=merge, backend=py),
        contract(h, match, merge_identical_nets=merge, backend=native),
    )


def _nets_with_duplicates(rng, nclass, size, nverts):
    """``nclass`` sorted nets of one size, about half of them copies."""
    base = [
        np.sort(rng.choice(nverts, size=size, replace=False))
        for _ in range(max(1, nclass // 2))
    ]
    return [base[int(rng.integers(len(base)))] for _ in range(nclass)]


@pytest.mark.parametrize("case_seed", range(4))
def test_merge_identical_equivalent(case_seed):
    """Identical nets in size classes below _MERGE_LEXSORT_MIN_NETS, in
    lexsort classes, and wider than _MERGE_LEXSORT_MAX_SIZE (the
    reference's three paths), shuffled together, empty nets included."""
    rng = np.random.default_rng(8000 + case_seed)
    nverts = 200
    nets = (
        _nets_with_duplicates(rng, _MERGE_LEXSORT_MIN_NETS - 6, 3, nverts)
        + _nets_with_duplicates(rng, 3 * _MERGE_LEXSORT_MIN_NETS, 5, nverts)
        + _nets_with_duplicates(
            rng, 6, _MERGE_LEXSORT_MAX_SIZE + 9, nverts
        )
        + [np.empty(0, dtype=np.int64)] * 3
    )
    nets = [nets[i] for i in rng.permutation(len(nets))]
    sizes = np.array([n.size for n in nets], dtype=np.int64)
    xpins = np.zeros(len(nets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=xpins[1:])
    pins = np.concatenate(nets).astype(np.int64)
    ncost = rng.integers(0, 5, size=len(nets)).astype(np.int64)
    py, native = backends_under_test()
    want = py.merge_identical(xpins, pins, ncost)
    got = native.merge_identical(xpins, pins, ncost)
    assert want[0].size < xpins.size  # something merged
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # All distinct: both hand the inputs back unchanged.
    distinct = (np.arange(3, dtype=np.int64), np.arange(2, dtype=np.int64),
                np.ones(2, dtype=np.int64))
    for backend in (py, native):
        out = backend.merge_identical(*distinct)
        assert all(o is i for o, i in zip(out, distinct))


def test_contract_without_pins_equivalent():
    """npins == 0: nets (all empty) and vertices, but nothing to map."""
    h = Hypergraph(5, np.zeros(4, dtype=np.int64), np.empty(0, np.int64))
    match = np.array([1, 0, -1, 4, 3], dtype=np.int64)
    py, native = backends_under_test()
    for merge in (True, False):
        a = contract(h, match, merge_identical_nets=merge, backend=py)
        b = contract(h, match, merge_identical_nets=merge, backend=native)
        _assert_same_coarse(a, b)
        assert b[1].nnets == 0 and b[1].nverts == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: Hypergraph(0, np.zeros(1, np.int64), np.empty(0, np.int64)),
        lambda rng: Hypergraph(4, np.zeros(3, np.int64), np.empty(0, np.int64)),
        lambda rng: _with_isolated(rng, nverts=40, nnets=70, nisolated=6),
        lambda rng: random_hypergraph(rng, nverts=300, nnets=500),
    ],
    ids=["empty", "no-pins", "isolated", "random"],
)
def test_transpose_equivalent(make):
    """The compiled counting-sort transpose equals the NumPy builder."""
    rng = np.random.default_rng(9000)
    _, native = backends_under_test()
    h = make(rng)
    want = Hypergraph(h.nverts, h.xpins, h.pins)._build_transpose()
    native.fm_state(h)
    got = h._cache["transpose"]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and not g.flags.writeable
        np.testing.assert_array_equal(g, w)


# --------------------------------------------------------------------- #
# The medium-grain builder's pin order (no compiler needed).
# --------------------------------------------------------------------- #
def _reference_mg_pins(split):
    """Pins of the medium-grain hypergraph from canonical-order blocks
    and a plain stable argsort on the net ids."""
    a = split.matrix
    m, n = a.shape
    ar = split.ar_mask
    ac = ~ar
    col_active = split.col_group_sizes() > 0
    row_active = split.row_group_sizes() > 0
    cg = np.full(n, -1, dtype=np.int64)
    cg[col_active] = np.arange(int(col_active.sum()))
    rg = np.full(m, -1, dtype=np.int64)
    rg[row_active] = int(col_active.sum()) + np.arange(int(row_active.sum()))
    net_ids = np.concatenate([
        np.flatnonzero(col_active), a.cols[ar],
        n + np.flatnonzero(row_active), n + a.rows[ac],
    ])
    pin_ids = np.concatenate([
        cg[col_active], rg[a.rows[ar]], rg[row_active], cg[a.cols[ac]],
    ])
    live = np.bincount(net_ids, minlength=m + n) >= 2
    keep = live[net_ids]
    order = np.argsort(net_ids[keep], kind="stable")
    return pin_ids[keep][order]


@pytest.mark.parametrize("shape", [(40, 40), (30, 55), (60, 25)])
@pytest.mark.parametrize("split_kind", ["random", "all-Ar", "all-Ac"])
def test_medium_grain_pins_match_stable_sort(shape, split_kind):
    rng = np.random.default_rng(sum(shape))
    a = erdos_renyi(*shape, nnz=6 * max(shape), seed=int(rng.integers(99)))
    if split_kind == "random":
        mask = rng.random(a.nnz) < 0.5
    else:
        mask = np.full(a.nnz, split_kind == "all-Ar")
    split = Split(a, mask)
    np.testing.assert_array_equal(
        build_medium_grain(split).hypergraph.pins, _reference_mg_pins(split)
    )


def test_medium_grain_pins_match_stable_sort_skewed():
    a = chung_lu(300, 200, 3000, seed=4)
    mask = np.random.default_rng(4).random(a.nnz) < 0.5
    split = Split(a, mask)
    np.testing.assert_array_equal(
        build_medium_grain(split).hypergraph.pins, _reference_mg_pins(split)
    )
