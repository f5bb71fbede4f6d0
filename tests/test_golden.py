"""Golden-value regression tests.

Every algorithm in the package is deterministic given a seed, so a fixed
(instance, method, seed) triple must always produce the same volume.
These pins catch *silent behavioural drift* — a refactor that keeps the
tests green but changes results (different matching order, altered gain
update, reseeded RNG path) breaks them immediately.

If a change intentionally alters results (e.g. a quality improvement),
regenerate the table below and say so in the commit:

    python -c "..."  # see the generation snippet in the repo history
"""

import hashlib

import numpy as np
import pytest

from repro import bipartition, initial_split, load_instance, partition
from repro.core.kway import partition_kway
from repro.core.medium_grain import build_medium_grain
from repro.core.refine import vcycle_refine_bipartition
from repro.partitioner.multilevel import multilevel_kway
from repro.utils.balance import max_allowed_part_size
from repro.utils.deadline import SoftBudget

# (instance, method, refine) -> (volume, parts digest) at seed 2014.
# The digest (see ``parts_hash``) pins the part vector itself: a change
# can move nonzeros between parts and still keep the volume.
GOLDEN_BIPARTITION = {
    ("sym_gd97_like", "localbest", False): (30, "7a635810b92ef1f4"),
    ("sym_gd97_like", "localbest", True): (30, "7a635810b92ef1f4"),
    ("sym_gd97_like", "finegrain", False): (30, "3c6198620d76dda4"),
    ("sym_gd97_like", "finegrain", True): (29, "1f652ed1cd5706c1"),
    ("sym_gd97_like", "mediumgrain", False): (30, "47a9e9b2ab9ddd9c"),
    ("sym_gd97_like", "mediumgrain", True): (30, "47a9e9b2ab9ddd9c"),
    ("sqr_er_s", "localbest", False): (138, "35e30a8e1f142421"),
    ("sqr_er_s", "localbest", True): (129, "ecf3c9a82a36e4a0"),
    ("sqr_er_s", "finegrain", False): (128, "7e19921ddc9b2f78"),
    ("sqr_er_s", "finegrain", True): (128, "7e19921ddc9b2f78"),
    ("sqr_er_s", "mediumgrain", False): (131, "b56b0131f179004d"),
    ("sqr_er_s", "mediumgrain", True): (128, "08fd84f3b222c215"),
    ("rec_td_small_a", "localbest", False): (38, "59b93bbf6aff25e4"),
    ("rec_td_small_a", "localbest", True): (34, "1b14ce620b7ef2ce"),
    ("rec_td_small_a", "finegrain", False): (33, "6ee198853e6c21b9"),
    ("rec_td_small_a", "finegrain", True): (33, "6ee198853e6c21b9"),
    ("rec_td_small_a", "mediumgrain", False): (38, "9b35cd9b671da959"),
    ("rec_td_small_a", "mediumgrain", True): (34, "1b14ce620b7ef2ce"),
    ("sym_grid2d_s", "localbest", False): (32, "bc767b0fd2e84862"),
    ("sym_grid2d_s", "localbest", True): (32, "bc767b0fd2e84862"),
    ("sym_grid2d_s", "finegrain", False): (32, "4e4e79ff32b390b6"),
    ("sym_grid2d_s", "finegrain", True): (32, "4e4e79ff32b390b6"),
    ("sym_grid2d_s", "mediumgrain", False): (32, "405e1e325b34fa62"),
    ("sym_grid2d_s", "mediumgrain", True): (32, "405e1e325b34fa62"),
}

SEED = 2014


def parts_hash(parts) -> str:
    """First 16 hex digits of the sha256 of the int64 part vector."""
    return hashlib.sha256(
        np.ascontiguousarray(parts, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


@pytest.mark.parametrize(
    "instance,method,refine",
    sorted(GOLDEN_BIPARTITION),
    ids=lambda v: str(v),
)
def test_bipartition_volumes_pinned(instance, method, refine):
    matrix = load_instance(instance)
    result = bipartition(
        matrix, method=method, refine=refine, seed=SEED
    )
    assert (result.volume, parts_hash(result.parts)) == (
        GOLDEN_BIPARTITION[(instance, method, refine)]
    )


def test_recursive_p8_pinned():
    """Pinned under the position-keyed seed streams: every bisection
    derives its RNG from the node's tree path (the scheme that makes the
    parallel recursion bit-identical to serial), so this value is stable
    for every ``jobs``.  Regenerated when that scheme replaced the
    traversal-order stream (previously (110, 152))."""
    matrix = load_instance("sym_grid2d_s")
    result = partition(
        matrix, 8, method="mediumgrain", refine=True, seed=SEED
    )
    assert (result.volume, result.max_part) == (107, 153)
    assert parts_hash(result.parts) == "4f0d7baa9db2f367"


def test_initial_split_pinned():
    matrix = load_instance("sym_gd97_like")
    split = initial_split(matrix, seed=SEED)
    assert int(split.ar_mask.sum()) == 112


# (instance, p, vcycles) -> (volume, parts digest) of the direct k-way
# partitioner followed by the k-way Algorithm-2 iterate loop.
GOLDEN_KWAY_IR = {
    ("sym_grid2d_s", 4, 0): (60, "0db18a4361d22e62"),
    ("sym_grid2d_s", 4, 1): (64, "7500899f4167cade"),
    ("sym_gd97_like", 8, 0): (102, "e20d4e1c69bd9fce"),
    ("sym_gd97_like", 8, 1): (104, "b5ea9895ea1ff30b"),
}


@pytest.mark.parametrize(
    "instance,p,vcycles", sorted(GOLDEN_KWAY_IR), ids=lambda v: str(v)
)
def test_kway_iterative_refine_pinned(instance, p, vcycles):
    matrix = load_instance(instance)
    res = partition_kway(matrix, p, refine=True, seed=SEED, vcycles=vcycles)
    assert (res.volume, parts_hash(res.parts)) == (
        GOLDEN_KWAY_IR[(instance, p, vcycles)]
    )
    assert res.method.endswith("+ir")


def test_vcycle_refine_bipartition_pinned():
    """The 2-way V-cycle comparator: three cycles, the last one without
    improvement (the loop keeps the last cycle's result)."""
    matrix = load_instance("sqr_cl_s")
    base = bipartition(matrix, "rownet", seed=SEED)
    parts, volumes = vcycle_refine_bipartition(matrix, base.parts, seed=SEED)
    assert volumes == [121, 71, 69, 69]
    assert parts_hash(parts) == "b95845df76c2c0c4"


# SoftBudget checks -> (cut, Degraded completed/skipped, parts digest) of
# multilevel_kway on the medium-grain hypergraph of sym_grid2d_m, p=4:
# the budget runs out while coarsening (4), and after one and three
# refined uncoarsening levels (16, 20).
GOLDEN_ML_KWAY_BUDGET = {
    4: (1008, (0, 4), "a1fe3b0f67d94c7d"),
    16: (153, (1, 3), "1f4c8fd3973dca19"),
    20: (146, (3, 1), "9862ff5cde41052c"),
    30: (141, None, "6841d6e18caea019"),
}


@pytest.mark.parametrize("budget", sorted(GOLDEN_ML_KWAY_BUDGET))
def test_multilevel_kway_soft_budget_pinned(budget):
    matrix = load_instance("sym_grid2d_m")
    h = build_medium_grain(initial_split(matrix, SEED)).hypergraph
    ceilings = np.full(
        4, max_allowed_part_size(matrix.nnz, 4, 0.03), dtype=np.int64
    )
    res = multilevel_kway(
        h, 4, ceilings, seed=SEED, deadline=SoftBudget(budget)
    )
    cut, degraded, digest = GOLDEN_ML_KWAY_BUDGET[budget]
    assert (res.cut, parts_hash(res.parts)) == (cut, digest)
    assert res.feasible
    if degraded is None:
        assert res.degraded is None
    else:
        assert res.degraded.where == "multilevel"
        assert (res.degraded.completed, res.degraded.skipped) == degraded


# SoftBudget checks -> (volume, failures, parts digest) of the full
# multilevel k-way pipeline (construction + two restricted V-cycles) on
# sym_grid2d_m, p=4: the budget runs out in the construction's
# uncoarsening (17), in its finest-level FM passes (23), at the first
# V-cycle boundary (24), and with budget left for the V-cycles (30).
GOLDEN_KWAY_BUDGET = {
    17: (147, ("Degraded[multilevel]@1done+3skipped",
               "Degraded[vcycle]@0done+2skipped"), "0f74edde9fa919fa"),
    23: (139, ("Degraded[kway-fm]@1done+1skipped",
               "Degraded[vcycle]@0done+2skipped"), "d9b3cf0fe95dbca7"),
    24: (138, ("Degraded[vcycle]@0done+2skipped",), "2a80d70997ce360a"),
    30: (138, (), "2a80d70997ce360a"),
}


@pytest.mark.parametrize("budget", sorted(GOLDEN_KWAY_BUDGET))
def test_kway_vcycles_soft_budget_pinned(budget):
    matrix = load_instance("sym_grid2d_m")
    res = partition_kway(
        matrix, 4, seed=SEED, vcycles=3, deadline=SoftBudget(budget)
    )
    assert (res.volume, res.failures, parts_hash(res.parts)) == (
        GOLDEN_KWAY_BUDGET[budget]
    )
