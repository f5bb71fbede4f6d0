"""The k-way stages of ``benchmarks/bench_e2e.py`` and their committed
numbers.

The cell test runs in tier-1 on a tiny instance: it drives the same
function that writes ``BENCH_e2e.json``, so a schema drift between the
harness and the committed file shows up without a timing run.  The
committed-gates check is opt-in (``pytest -m bench``) with the other
benchmark checks.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks import bench_e2e  # noqa: E402


def _committed() -> dict:
    path = REPO_ROOT / "BENCH_e2e.json"
    if not path.exists():
        pytest.skip("no committed BENCH_e2e.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kway_vcycles", [0, 1])
def test_kway_cell_matches_committed_schema(kway_vcycles):
    """One (matrix, p) cell of either k-way stage has exactly the keys
    of the committed section's cells, and passed its feasibility and
    bit-identity checks."""
    section = _committed()[bench_e2e._kway_tag(kway_vcycles)]
    committed_cell = next(iter(section["matrices"].values()))["by_p"]["4"]
    entry = bench_e2e.bench_kway_matrix(
        "sym_grid2d_s", (4,), repeats=1, jobs=2, kway_vcycles=kway_vcycles
    )
    cell = entry["by_p"]["4"]
    assert list(cell) == list(committed_cell)
    assert cell["feasible"] and cell["bit_identical"]


@pytest.mark.bench
def test_kway_ml_committed_gates():
    """The committed kway-ml section honours its own quality/speed gates.

    ``run_benchmarks`` asserts these at generation time; re-asserting
    the committed file catches a hand-edited or stale BENCH_e2e.json
    (and documents the contract where the bench suite runs): geomean
    volume ratio vs recursive <= 1.1 at >= 2x its speed, every cell
    feasible and bit-identical across kernel/exec backends and jobs.
    """
    section = _committed().get("kway_ml")
    assert section is not None, "BENCH_e2e.json lacks the kway-ml section"
    assert section["geomean_volume_ratio"] <= section["ratio_gate"]
    assert section["geomean_speedup_kway_ml"] >= section["speedup_gate"]
    assert section["kway_vcycles"] >= 1
    for name, entry in section["matrices"].items():
        for p, cell in entry["by_p"].items():
            assert cell["feasible"], f"{name} p={p} infeasible"
            assert cell["bit_identical"], f"{name} p={p} not bit-identical"
            assert cell["max_part_kway_ml"] <= cell["ceiling"]
