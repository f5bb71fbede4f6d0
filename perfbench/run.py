"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bisect_p2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload bisect_p2 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with the program exactly
as shipped; ``--trace 1`` measures the per-layer split with timing shims
installed (see ``perfbench/README.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import suite

ROOT = Path(__file__).resolve().parents[1]


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to fall back
    to any other copy of the package."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}/repro; run from "
                 f"the root of a repository checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=suite.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="tiny inputs: check the benchmark itself")
    args = p.parse_args(argv)
    _import_program()
    if args.selftest:
        from suite import selftest

        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    out = suite.run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    out.emit()
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
