"""k-way FM kernels: cross-backend bit-identity and metric invariants.

Mirrors ``tests/kernels/test_equivalence.py`` for the k-way pass: the
compiled loop of the ``"native"`` backend is checked against the
``"python"`` reference (skipped where no C compiler works).
"""

import numpy as np
import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import connectivity_volume, part_weights
from repro.kernels import available_backends, get_backend
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.fm import kway_refine


def random_hypergraph(rng: np.random.Generator, nverts: int, nnets: int):
    nets = [
        rng.choice(
            nverts, size=int(rng.integers(1, min(6, nverts) + 1)),
            replace=False,
        )
        for _ in range(nnets)
    ]
    vwgt = rng.integers(1, 4, size=nverts)
    ncost = rng.integers(0, 3, size=nnets)
    return Hypergraph.from_net_lists(nverts, nets, vwgt=vwgt, ncost=ncost)


def native():
    """The compiled backend, or skip where it cannot be built."""
    if "native" not in available_backends():
        pytest.skip("native backend unavailable: no working C compiler")
    return get_backend("native")


CONFIGS = [
    PartitionerConfig(name="kw-mondriaan"),
    PartitionerConfig(
        name="kw-patoh", boundary_only=True, fm_max_passes=3
    ),
]


def _case(case_seed, extreme=False):
    rng = np.random.default_rng(7000 + case_seed)
    k = int(rng.integers(2, 9))
    h = random_hypergraph(
        rng, nverts=int(rng.integers(5, 60)), nnets=int(rng.integers(3, 80))
    )
    if extreme:
        parts = np.zeros(h.nverts, dtype=np.int64)
    else:
        parts = rng.integers(0, k, size=h.nverts).astype(np.int64)
    cap = int(np.ceil(1.1 * h.total_weight() / k)) + int(
        h.vwgt.max(initial=1)
    )
    ceilings = np.full(k, cap, dtype=np.int64)
    return h, parts, k, ceilings


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(8))
def test_kway_refine_backend_equivalent(cfg, case_seed):
    h, parts, k, ceilings = _case(case_seed)
    py, flat = get_backend("python"), native()
    r_py = kway_refine(h, parts, k, ceilings, cfg, seed=case_seed, backend=py)
    r_nb = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed, backend=flat
    )
    np.testing.assert_array_equal(r_py.parts, r_nb.parts)
    assert r_py.cut == r_nb.cut
    assert r_py.improvement == r_nb.improvement
    assert r_py.feasible == r_nb.feasible
    assert r_py.passes == r_nb.passes
    # The reported cut is the true connectivity-(λ−1) volume.
    assert r_py.cut == connectivity_volume(h, r_py.parts)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(6))
def test_kway_refine_monotone_from_feasible(cfg, case_seed):
    h, parts, k, ceilings = _case(case_seed)
    if not bool(np.all(part_weights(h, parts, k) <= ceilings)):
        pytest.skip("random start infeasible for this draw")
    before = connectivity_volume(h, parts)
    r = kway_refine(
        h, parts, k, ceilings, cfg, seed=case_seed,
        backend=get_backend("python"),
    )
    assert r.cut <= before
    assert r.feasible
    assert bool(np.all(part_weights(h, r.parts, k) <= ceilings))


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("case_seed", range(6))
def test_kway_refine_rebalances_extreme_start(cfg, case_seed):
    """All weight on part 0 (no boundary at all) must still rebalance."""
    h, parts, k, ceilings = _case(case_seed, extreme=True)
    for backend in map(get_backend, available_backends()):
        r = kway_refine(
            h, parts, k, ceilings, cfg, seed=case_seed, backend=backend
        )
        assert r.feasible, part_weights(h, r.parts, k)
        assert bool(np.all(part_weights(h, r.parts, k) <= ceilings))


def test_kway_refine_input_not_modified_and_state_reuse():
    h, parts, k, ceilings = _case(3)
    keep = parts.copy()
    py = get_backend("python")
    r1 = kway_refine(h, parts, k, ceilings, seed=5, backend=py)
    np.testing.assert_array_equal(parts, keep)
    # Cached FMPassState (and its per-nparts k-way scratch) reused across
    # calls must be bit-identical to the first run.
    r2 = kway_refine(h, parts, k, ceilings, seed=5, backend=py)
    np.testing.assert_array_equal(r1.parts, r2.parts)
    assert r1.cut == r2.cut
    # The native backend caches the k-way bucket scratch on the
    # hypergraph's pass state; a second call reuses it bit-identically.
    flat = native()
    f1 = kway_refine(h, parts, k, ceilings, seed=5, backend=flat)
    assert flat.fm_state(h).kway is not None
    assert "moved_from" in flat.fm_state(h).kway
    f2 = kway_refine(h, parts, k, ceilings, seed=5, backend=flat)
    np.testing.assert_array_equal(f1.parts, f2.parts)
    assert f1.cut == f2.cut


def test_kway_refine_validation():
    from repro.errors import PartitioningError

    h, parts, k, ceilings = _case(1)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, 1, ceilings[:1])
    with pytest.raises(PartitioningError):
        kway_refine(h, parts[:-1], k, ceilings)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, k, ceilings[:-1])
    with pytest.raises(PartitioningError):
        kway_refine(h, np.full(h.nverts, k, dtype=np.int64), k, ceilings)
    with pytest.raises(PartitioningError):
        kway_refine(h, parts, k, np.zeros(k, dtype=np.int64))
