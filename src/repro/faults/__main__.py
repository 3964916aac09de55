"""Fault-injection CLI: seeded chaos runs with a per-rank fault report.

Usage::

    python -m repro.faults report                  # one seeded run + report
    python -m repro.faults report --seed 7
    python -m repro.faults report --sweep 50       # chaos envelope
    python -m repro.faults report --sweep 50 -j 4  # ... on 4 workers
    python -m repro.faults report --selftest       # CI smoke check

``report`` runs the diffusion mini-app under a deterministic seeded fault
schedule and prints what was injected, which ranks recovered, and the
error-code table.  ``--sweep N`` sweeps seeds ``0..N-1`` and prints the
completion/diagnosed-failure envelope; ``--selftest`` additionally checks
the zero-perturbation contract (an inert plane gives the no-plane run:
timing, numerics and scheduled entries, and a rank that waits 10 ms for
a slow peer finishes at its no-plane time) and exits non-zero on any
violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import FaultsConfig
from .report import (
    ChaosOutcome,
    baseline_field,
    chaos_sweep,
    chaos_workload,
    fault_report,
    run_chaos_case,
    sweep_table,
)

__all__ = ["main"]


def _outcome_line(outcome: ChaosOutcome) -> str:
    if outcome.status == "completed":
        verdict = ("numerics identical" if outcome.numerics_equal
                   else "NUMERICS DIVERGED")
        return (f"seed={outcome.seed}: completed in "
                f"{outcome.elapsed:.3e}s simulated, "
                f"{outcome.injections} injections, {verdict}")
    return (f"seed={outcome.seed}: {outcome.status} [{outcome.error_code}] "
            f"after {outcome.injections} injections — {outcome.error}")


def _run_report(args: argparse.Namespace) -> int:
    """One seeded run, keeping the cluster handles for the full report."""
    from ..apps.diffusion import run_dcuda_diffusion
    from ..hw import Cluster, greina
    from ..obs import ObsConfig

    import numpy as np

    wl = chaos_workload(args.ranks, args.steps)
    _, baseline = baseline_field(wl, args.nodes, args.ranks)
    cfg = FaultsConfig(enabled=True, seed=args.seed)
    cluster = Cluster(greina(args.nodes, faults=cfg,
                             obs=ObsConfig(enabled=True)))
    runtime = None
    try:
        elapsed, field, res = run_dcuda_diffusion(cluster, wl, args.ranks)
        runtime = res.runtime
        outcome = ChaosOutcome(
            seed=args.seed, status="completed", elapsed=elapsed,
            injections=cluster.faults.total_injections(),
            numerics_equal=bool(np.array_equal(field, baseline)))
    except Exception as exc:  # typed failures still want the report
        outcome = ChaosOutcome(
            seed=args.seed, status=type(exc).__name__,
            elapsed=cluster.env.now,
            injections=cluster.faults.total_injections(),
            numerics_equal=None, error=str(exc),
            error_code=getattr(exc, "code", ""))
    print(fault_report(cluster.faults, runtime, cluster.obs))
    print()
    print(_outcome_line(outcome))
    return 0 if outcome.clean else 1


def _run_sweep(args: argparse.Namespace) -> int:
    outcomes = chaos_sweep(range(args.sweep), args.nodes, args.ranks,
                           args.steps, workers=args.workers,
                           cache=args.cache_dir, executor=args.executor)
    print(sweep_table(outcomes).render())
    dirty = [o for o in outcomes if not o.clean]
    for o in dirty:
        print(_outcome_line(o))
    return 0 if not dirty else 1


def _late_put_kernel(rank):
    """Rank 1 computes for 10 ms, then sends the notified put rank 0
    waits for: a slow peer, which is not a fault."""
    import numpy as np

    win = yield from rank.win_create(np.zeros(1))
    if rank.world_rank == 1:
        yield from rank.compute(flops=10e-3 * rank.cfg.gpu.flops_per_sm)
        yield from rank.put_notify(win, 0, 0, np.ones(1))
    else:
        yield from rank.wait_notifications(win, source=1)
    yield from rank.finish()


def _late_put_elapsed(faults: Optional[FaultsConfig]):
    """Simulated time of :func:`_late_put_kernel` on 2 nodes, or the
    typed error it ended in."""
    from ..dcuda import launch
    from ..errors import DCudaError
    from ..hw import greina

    try:
        return launch(greina(2, faults=faults), _late_put_kernel,
                      ranks_per_device=1).elapsed
    except DCudaError as exc:
        return exc


def _run_selftest(args: argparse.Namespace) -> int:
    """CI smoke: zero-perturbation + one clean chaos case."""
    from ..apps.diffusion import run_dcuda_diffusion
    from ..hw import Cluster, greina

    import numpy as np

    wl = chaos_workload(args.ranks, args.steps)

    def diffusion(faults: Optional[FaultsConfig]):
        cluster = Cluster(greina(args.nodes, faults=faults))
        elapsed, field, _ = run_dcuda_diffusion(cluster, wl, args.ranks)
        return cluster, elapsed, field

    base, base_elapsed, baseline = diffusion(None)
    # Inert plane (enabled, nothing scheduled): it must give the no-plane
    # run — timing, numerics and scheduled entries.
    inert, elapsed, field = diffusion(FaultsConfig(enabled=True))
    late = _late_put_elapsed(None)
    checks = [
        ("inert plane injects nothing",
         inert.faults.total_injections() == 0),
        ("inert plane timing bit-identical", elapsed == base_elapsed),
        ("inert plane numerics bit-identical",
         np.array_equal(field, baseline)),
        ("inert plane schedules the no-plane entries",
         inert.env.stats.scheduled == base.env.stats.scheduled),
        (f"a 10 ms slow peer completes at its no-plane time "
         f"({late:.6e}s) under an inert plane",
         _late_put_elapsed(FaultsConfig(enabled=True)) == late),
    ]
    outcome = run_chaos_case(seed=args.seed, num_nodes=args.nodes,
                             ranks_per_device=args.ranks, steps=args.steps)
    checks.append((f"seeded chaos case (seed={args.seed}) satisfies the "
                   f"chaos contract", outcome.clean))
    failed = 0
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        failed += 0 if ok else 1
    print(_outcome_line(outcome))
    print(f"selftest: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault injection: seeded chaos runs over "
                    "the diffusion mini-app with a per-rank fault report.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run under a seeded fault schedule "
                                        "and print the fault report")
    rep.add_argument("--seed", type=int, default=1,
                     help="fault-plan seed (default: 1)")
    rep.add_argument("--sweep", type=int, metavar="N",
                     help="instead: sweep seeds 0..N-1 and print the "
                          "chaos envelope")
    rep.add_argument("--selftest", action="store_true",
                     help="zero-perturbation + chaos-contract smoke check "
                          "(non-zero exit on violation)")
    rep.add_argument("--nodes", type=int, default=2,
                     help="cluster node count (default: 2)")
    rep.add_argument("--ranks", type=int, default=2,
                     help="ranks per device (default: 2)")
    rep.add_argument("--steps", type=int, default=2,
                     help="diffusion iterations (default: 2)")
    rep.add_argument("--workers", "-j", type=int, default=None,
                     help="sweep engine worker processes (default: "
                          "$REPRO_EXEC_WORKERS or 1; --sweep only)")
    rep.add_argument("--executor", type=str, default=None,
                     help="sweep executor transport (default: "
                          "$REPRO_EXEC_EXECUTOR or by worker count; "
                          "--sweep only)")
    rep.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                     help="result-cache directory for --sweep (default: "
                          "no caching)")

    args = parser.parse_args(argv)
    if args.selftest:
        return _run_selftest(args)
    if args.sweep:
        return _run_sweep(args)
    return _run_report(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
