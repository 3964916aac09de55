"""Command-line figure runner: regenerate the paper's evaluation without
pytest.

Usage::

    python -m repro.bench fig6              # one figure
    python -m repro.bench fig9 fig10        # several
    python -m repro.bench all               # everything (minutes)
    python -m repro.bench fig10 --nodes 1 2 4
    python -m repro.bench fig6 --workers 4  # sweep on 4 local workers
    python -m repro.bench fig6 --cache-dir .repro-cache
    python -m repro.bench fig6 -o results/  # also write tables to files

Every figure is a sweep of independent simulation points, so this CLI is
a thin client of the suite registry (:mod:`repro.exec.suites`): it builds
the figure's spec list, hands it to the deterministic sweep engine
(``--workers`` for the ``local`` worker fleet, ``--cache-dir`` for
content-addressed result caching — the tables are bit-identical either
way), and renders the assembled table.  ``python -m repro.exec run <figure>`` executes the
*same* specs, so cached results are shared between the two CLIs; the
pytest benchmarks remain the canonical shape-asserting entry point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..exec import run_specs
from ..exec.suites import SUITE_NAMES, build_suite

__all__ = ["main", "FIGURES"]

#: The figure names this CLI accepts (the suite registry minus the
#: non-figure sweeps).
FIGURES = tuple(n for n in SUITE_NAMES if n.startswith("fig"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the dCUDA paper's evaluation figures.")
    parser.add_argument("figures", nargs="+",
                        choices=sorted(FIGURES) + ["all"],
                        help="figures to regenerate")
    parser.add_argument("--nodes", type=int, nargs="+", default=None,
                        help="node counts (weak-scaling figures) or the "
                             "single node count (overlap figures)")
    parser.add_argument("--iterations", type=int, default=30,
                        help="ping-pong iterations (fig6)")
    parser.add_argument("--steps", type=int, default=20,
                        help="iterations per overlap point (fig7/fig8)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip reference-solution verification")
    parser.add_argument("--workers", "-j", type=int, default=None,
                        help="sweep engine worker processes (default: "
                             "$REPRO_EXEC_WORKERS or 1 = serial)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        metavar="DIR",
                        help="content-addressed result cache directory "
                             "(default: no caching)")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="directory to also write the tables into")
    args = parser.parse_args(argv)

    wanted = sorted(FIGURES) if "all" in args.figures \
        else list(dict.fromkeys(args.figures))
    if args.output:
        args.output.mkdir(parents=True, exist_ok=True)
    for name in wanted:
        suite = build_suite(
            name, iterations=args.iterations, overlap_steps=args.steps,
            overlap_nodes=args.nodes[0] if args.nodes else 8,
            node_counts=tuple(args.nodes) if args.nodes else None,
            verify=not args.no_verify)
        report = run_specs(suite.specs, workers=args.workers,
                           cache=args.cache_dir)
        text = suite.assemble(report.results)
        print(text)
        print(f"engine: {report.summary()}")
        print()
        if args.output:
            (args.output / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
