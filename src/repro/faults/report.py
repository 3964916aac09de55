"""Per-rank fault report + the seeded chaos runner.

The chaos contract: under any seeded fault schedule the diffusion
mini-app either completes with numerics bit-identical to a fault-free
run, or raises a typed :class:`~repro.errors.DCudaFaultError` /
:class:`~repro.errors.DCudaTimeoutError` carrying rank and simulated-time
context — never a hang.  :func:`run_chaos_case` executes one such run and
classifies it; :func:`chaos_specs` describes a sweep over many seeds,
which ``python -m repro.exec run chaos`` runs and :func:`sweep_table`
aggregates into the envelope reported in ``EXPERIMENTS.md``;
:func:`fault_report` renders what a plane injected plus the per-rank
hardening counters, next to the obs metrics registry when one is
attached.

:func:`chaos_specs` describes a sweep as pure data: each spec carries the
workload's parameters (``steps`` beside ``num_nodes`` and
``ranks_per_device``), and :func:`run_chaos_case` builds the workload
(:func:`chaos_workload`) and its fault-free baseline where it runs.
numpy and the hw and apps layers load inside the functions that
simulate, so a sweep coordinator imports this module, builds its specs
and unpickles its outcomes without loading numpy or the simulator.  The
module still loads lazily from :mod:`repro.faults` (PEP 562):
``repro.hw.config`` imports that package and should not pay for the
report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..bench.table import Table
from ..errors import ERROR_TABLE, DCudaFaultError, DCudaTimeoutError
from .config import FaultsConfig
from .plane import FaultPlane

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["ChaosOutcome", "run_chaos_case", "chaos_specs", "outcome_line",
           "fault_report", "injection_table", "hardening_table",
           "baseline_field", "chaos_workload", "sweep_table"]

#: CircularQueue hardening counters surfaced by the per-rank report.
_QUEUE_STATS = ("retries", "dropped_writes", "recovered",
                "duplicates_dropped", "starved_reloads")
_QUEUES = ("cmd_queue", "ack_queue", "notif_queue", "log_queue")


@dataclass(frozen=True)
class ChaosOutcome:
    """Classification of one fault-injected run.

    ``status`` is ``"completed"`` or the raised error's class name
    (``"DCudaTimeoutError"`` / ``"DCudaFaultError"``).  Any other
    exception type is a harness bug and propagates out of
    :func:`run_chaos_case` instead of being classified.
    """

    seed: Optional[int]
    status: str
    elapsed: float
    injections: int
    #: Final field bit-identical to the fault-free baseline; ``None`` when
    #: the run raised before producing numerics.
    numerics_equal: Optional[bool]
    error: str = ""
    error_code: str = ""

    @property
    def clean(self) -> bool:
        """Does this run satisfy the chaos contract?

        True iff the run completed with bit-identical numerics, or failed
        with a *typed* diagnosed error.  (Hangs never produce an outcome:
        the simulated-time watchdog turns them into
        :class:`~repro.errors.DCudaTimeoutError`.)
        """
        if self.status == "completed":
            return bool(self.numerics_equal)
        return self.status in ("DCudaTimeoutError", "DCudaFaultError")


def chaos_workload(ranks_per_device: int = 2, steps: int = 2):
    """The chaos sweep's diffusion workload for one machine shape.

    Two columns per rank on each device, so every rank exchanges halos;
    the one place the default chaos workload is built.
    """
    from ..apps.diffusion import DiffusionWorkload

    return DiffusionWorkload(ni=8, nj_per_device=2 * ranks_per_device,
                             nk=2, steps=steps)


_baseline_cache: Dict[tuple, Tuple[float, np.ndarray]] = {}


def baseline_field(wl, num_nodes: int, ranks_per_device: int,
                   comm_backend: str = "proxy") -> Tuple[float, np.ndarray]:
    """Fault-free diffusion run: ``(elapsed, final field)``, cached.

    The chaos contract compares numerics against a *clean dCUDA run* of
    the identical workload (itself validated against the serial reference
    by the tier-1 suite), so fault-induced divergence is isolated from any
    model-vs-reference differences.  The baseline runs on the same
    *comm_backend* as the chaos case — bit-identical numerics are a
    per-backend contract.  The cache is per process: each sweep worker
    pays one fault-free run per shape, before its first chaos case.
    """
    from ..apps.diffusion import run_dcuda_diffusion
    from ..hw import Cluster, greina

    key = (wl, num_nodes, ranks_per_device, comm_backend)
    cached = _baseline_cache.get(key)
    if cached is None:
        cluster = Cluster(greina(num_nodes, faults=None,
                                 comm_backend=comm_backend))
        elapsed, field, _ = run_dcuda_diffusion(cluster, wl,
                                                ranks_per_device)
        cached = _baseline_cache[key] = (elapsed, field)
    return cached[0], cached[1].copy()


def run_chaos_case(seed: Optional[int] = None, num_nodes: int = 2,
                   ranks_per_device: int = 2, steps: int = 2,
                   cfg: Optional[FaultsConfig] = None,
                   comm_backend: str = "proxy") -> ChaosOutcome:
    """Run diffusion under one fault schedule and classify the outcome.

    The workload is :func:`chaos_workload` and the numerics are compared
    against its fault-free run (:func:`baseline_field`, cached per
    process).

    Args:
        seed: Random-plan seed (ignored if *cfg* is given).
        num_nodes: Cluster size.
        ranks_per_device: dCUDA over-subscription factor.
        steps: Diffusion iterations.
        cfg: Full :class:`FaultsConfig` override (for explicit schedules);
            defaults to ``FaultsConfig(enabled=True, seed=seed)``.
        comm_backend: Communication backend the run and its baseline use
            — the chaos contract holds per backend.

    Returns:
        A :class:`ChaosOutcome`.  Exceptions other than the two typed
        fault classes are *not* caught: they indicate a harness or kernel
        bug (a deadlock no injection caused is a
        :class:`~repro.errors.DCudaUsageError`).
    """
    import numpy as np

    from ..apps.diffusion import run_dcuda_diffusion
    from ..hw import Cluster, greina

    wl = chaos_workload(ranks_per_device, steps)
    _, baseline = baseline_field(wl, num_nodes, ranks_per_device,
                                 comm_backend=comm_backend)
    if cfg is None:
        cfg = FaultsConfig(enabled=True, seed=seed)
    cluster = Cluster(greina(num_nodes, faults=cfg,
                             comm_backend=comm_backend))
    plane = cluster.faults
    try:
        elapsed, field, _ = run_dcuda_diffusion(cluster, wl,
                                                ranks_per_device)
    except (DCudaTimeoutError, DCudaFaultError) as exc:
        return ChaosOutcome(
            seed=seed, status=type(exc).__name__, elapsed=cluster.env.now,
            injections=plane.total_injections() if plane else 0,
            numerics_equal=None, error=str(exc), error_code=exc.code)
    return ChaosOutcome(
        seed=seed, status="completed", elapsed=elapsed,
        injections=plane.total_injections() if plane else 0,
        numerics_equal=bool(np.array_equal(field, baseline)))


def chaos_specs(seeds: Sequence[int], num_nodes: int = 2,
                ranks_per_device: int = 2, steps: int = 2,
                comm_backend: str = "proxy"):
    """Build the engine specs for a chaos sweep, as pure data.

    Simulates nothing and loads no simulator: each spec names the
    workload by its parameters, and every worker builds it and its
    fault-free baseline itself (:func:`run_chaos_case`, cached per
    process).  The ``chaos`` suite of ``python -m repro.exec`` and every
    library sweep build specs through this helper, so their cache keys,
    and so their cached outcomes, are interchangeable.  Run them with
    :func:`~repro.exec.engine.run_specs`: outcomes come back in seed
    order, bit-identical for any worker count and executor.

    Returns:
        ``(specs, {})`` — one ``chaos_case``
        :class:`~repro.exec.spec.RunSpec` per seed, plus an empty mapping
        kept for callers that unpack two values and pass the second to
        ``run_specs(shared=)``, which accepts only an empty one.
    """
    from ..exec import RunSpec

    suffix = "" if comm_backend == "proxy" else f":{comm_backend}"
    specs = [RunSpec("chaos_case",
                     dict(seed=seed, num_nodes=num_nodes,
                          ranks_per_device=ranks_per_device, steps=steps,
                          comm_backend=comm_backend),
                     label=f"chaos:seed{seed}{suffix}")
             for seed in seeds]
    return specs, {}


def outcome_line(outcome: ChaosOutcome) -> str:
    """One line per outcome: what happened, and whether numerics held."""
    if outcome.status == "completed":
        verdict = ("numerics identical" if outcome.numerics_equal
                   else "NUMERICS DIVERGED")
        return (f"seed={outcome.seed}: completed in "
                f"{outcome.elapsed:.3e}s simulated, "
                f"{outcome.injections} injections, {verdict}")
    return (f"seed={outcome.seed}: {outcome.status} [{outcome.error_code}] "
            f"after {outcome.injections} injections — {outcome.error}")


def sweep_table(outcomes: Sequence[ChaosOutcome]) -> Table:
    """Envelope summary of a chaos sweep (the EXPERIMENTS.md table)."""
    table = Table("Chaos-sweep envelope",
                  ["outcome", "runs", "injections", "share"])
    total = len(outcomes) or 1
    by_status: Dict[str, List[ChaosOutcome]] = {}
    for o in outcomes:
        by_status.setdefault(o.status, []).append(o)
    for status in sorted(by_status):
        group = by_status[status]
        table.add_row(status, len(group),
                      sum(o.injections for o in group),
                      f"{len(group) / total:.0%}")
    dirty = [o for o in outcomes if not o.clean]
    table.add_note(f"{len(outcomes)} seeded runs; "
                   f"{len(outcomes) - len(dirty)} satisfy the chaos "
                   f"contract (identical numerics or typed failure), "
                   f"{len(dirty)} violate it; a hang ends at the launch "
                   f"(simulated-time watchdog or deadlock diagnosis)")
    return table


# --------------------------------------------------------------- report -----
def _site_rank(site: str) -> str:
    """Best-effort world-rank attribution of an injection site name."""
    m = re.search(r":r(\d+)$", site)
    if m:
        return m.group(1)
    return "-"


def injection_table(plane: FaultPlane) -> Table:
    """What the plane injected: one row per ``(kind, site)`` pair."""
    table = Table("Fault injections",
                  ["kind", "site", "rank", "count", "first [us]"])
    first: Dict[Tuple[str, str], float] = {}
    for t, kind, site in plane.log:
        first.setdefault((kind, site), t)
    for (kind, site) in sorted(plane.injections):
        count = plane.injections[(kind, site)]
        t0 = first.get((kind, site))
        table.add_row(kind, site, _site_rank(site), count,
                      t0 * 1e6 if t0 is not None else "-")
    table.add_note(f"{plane.total_injections()} injections from "
                   f"{len(plane.schedule)} scheduled events "
                   f"(seed={plane.cfg.seed!r})")
    return table


def hardening_table(runtime) -> Table:
    """Per-rank runtime-hardening counters (recovery activity)."""
    table = Table("Per-rank hardening activity",
                  ["rank", "queue", "retries", "drops", "recovered",
                   "dup-dropped", "starved"])
    for rank in range(runtime.total_ranks):
        state = runtime.state_of(rank)
        for attr in _QUEUES:
            queue = getattr(state, attr)
            stats = queue.stats
            values = [getattr(stats, name) for name in _QUEUE_STATS]
            if any(values):
                table.add_row(rank, queue.name, *values)
    if not table.rows:
        table.add_note("no hardening activity: every handshake succeeded "
                       "first try")
    return table


def fault_report(plane: Optional[FaultPlane], runtime=None,
                 obs=None) -> str:
    """Render the full fault report (injections + per-rank hardening).

    Args:
        plane: The cluster's :class:`FaultPlane` (``cluster.faults``);
            ``None`` renders a no-plane notice.
        runtime: Optional :class:`~repro.runtime.system.DCudaRuntime` for
            the per-rank hardening counters.
        obs: Optional :class:`~repro.obs.Observability`; when given, the
            ``faults.*`` views from its metrics registry are appended,
            tying the report into the observability layer.

    Returns:
        A printable multi-table string.
    """
    if plane is None:
        return ("no fault plane attached (MachineConfig.faults is None or "
                "disabled)")
    parts = [injection_table(plane).render()]
    if runtime is not None:
        parts.append(hardening_table(runtime).render())
    if obs is not None:
        metrics = Table("Registry fault counters", ["metric", "value"])
        for name, value in obs.registry.snapshot().items():
            if name.startswith("faults."):
                metrics.add_row(name, value)
        if metrics.rows:
            parts.append(metrics.render())
    codes = Table("Error code table", ["code", "class", "remediation"])
    for code, (cls_name, remediation) in sorted(ERROR_TABLE.items()):
        codes.add_row(code, cls_name, remediation)
    parts.append(codes.render())
    return "\n\n".join(parts)
