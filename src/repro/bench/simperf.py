"""Simulator-throughput benchmark: events/sec and wall-clock time.

The paper's evaluation is expressed in *simulated* time; this module
measures the *simulator* itself — how many scheduler events the DES kernel
retires per second of host wall-clock time — so performance work on the
kernel (virtual-time fair-share links, the bare-delay sleep lane, deferred
calls, store fast paths) can be tracked quantitatively.

Two complementary probes:

* :func:`synthetic_throughput` — a pure kernel microbenchmark: a pool of
  processes that sleep, contend on a semaphore, and exchange tokens
  through a store.  It exercises every scheduling lane (bare-delay sleeps,
  triggered events, deferred calls, FIFO dispatch) with no model code on
  top, so it isolates raw scheduler throughput.
* :func:`diffusion_throughput` — the full stack: one dCUDA
  horizontal-diffusion run (the Fig. 10 workload) on a real cluster
  model, reporting both wall-clock and events/sec end to end.

The *events* count is the number of heap entries ever scheduled
(``Environment._seq``), which is exact and deterministic: two runs of the
same workload schedule the identical entry sequence, so events/sec
differences are purely host-speed effects.

A probe is a zero-argument callable (:func:`throughput_probes`) that runs
in the measuring process: a wall-clock number is not a sweep result, so
it is never keyed, cached or deduplicated, and it is never measured
beside a second probe competing for the same cores.  The CLI runs each
probe best-of-N (:func:`best_of`) and records the machine-readable perf
trajectory to ``BENCH_simperf.json`` at the repo root, so the
events/sec trend is trackable across PRs.

Run from the command line::

    PYTHONPATH=src python -m repro.bench.simperf            # quick probe
    PYTHONPATH=src python -m repro.bench.simperf --full     # figure scale
    PYTHONPATH=src python -m repro.bench.simperf --backend all --gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from ..apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from ..hw import Cluster, greina
from ..hw.config import COMM_BACKENDS
from ..sim import Environment, Semaphore, Store
from .table import Table

__all__ = [
    "SimPerfResult",
    "synthetic_throughput",
    "diffusion_throughput",
    "throughput_probes",
    "simperf_table",
    "write_bench_json",
]


@dataclass(frozen=True)
class SimPerfResult:
    """One throughput measurement of the simulator."""

    #: Probe name (``synthetic`` or ``diffusion``).
    label: str
    #: Scheduler events retired (heap entries ever scheduled).
    events: int
    #: Host wall-clock duration of the run [s].
    wall_s: float
    #: Final simulated time reached [s].
    sim_time_s: float
    #: Communication backend under test (diffusion probe), or ``None``
    #: for probes that run below the runtime (synthetic).
    backend: Optional[str] = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _worker(env: Environment, sem: Semaphore, store: Store,
            hops: int, period: float):
    """One synthetic process: sleep, acquire, exchange, release."""
    for i in range(hops):
        yield period
        yield from sem.acquire()
        store.put(i)
        token = yield store.get()
        assert token is not None
        sem.release()


def synthetic_throughput(num_procs: int = 64,
                         hops: int = 500) -> SimPerfResult:
    """Raw scheduler throughput on a synthetic contention workload.

    *num_procs* processes each perform *hops* rounds of sleep → semaphore
    acquire → store put/get → release.  The semaphore has a quarter of the
    process count in capacity, so both the uncontended fast path and the
    FCFS waiter queue are exercised.
    """
    env = Environment()
    sem = Semaphore(env, capacity=max(1, num_procs // 4), name="bench-sem")
    store = Store(env, name="bench-store")
    for p in range(num_procs):
        # Distinct periods keep wakeups interleaved instead of batched.
        env.process(_worker(env, sem, store, hops, 1e-6 * (1 + p % 7)),
                    name=f"bench:{p}")
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return SimPerfResult(label="synthetic", events=env._seq, wall_s=wall,
                         sim_time_s=env.now)


def diffusion_throughput(wl: Optional[DiffusionWorkload] = None,
                         num_nodes: int = 2,
                         ranks_per_device: int = 16,
                         comm_backend: str = "proxy") -> SimPerfResult:
    """End-to-end throughput of one dCUDA diffusion run (Fig. 10 stack).

    *comm_backend* selects the communication backend under test; the
    proxy path drives far more host/PCIe machinery per message than the
    device-initiated one, so events/s is a per-backend quantity.
    """
    wl = wl or DiffusionWorkload(ni=32, nj_per_device=32, nk=8, steps=4)
    cluster = Cluster(greina(num_nodes, comm_backend=comm_backend))
    t0 = time.perf_counter()
    elapsed, _out, _profile = run_dcuda_diffusion(cluster, wl,
                                                  ranks_per_device)
    wall = time.perf_counter() - t0
    return SimPerfResult(label="diffusion", events=cluster.env._seq,
                         wall_s=wall, sim_time_s=elapsed,
                         backend=comm_backend)


def best_of(fn, repeats: int) -> SimPerfResult:
    """Steady-state measurement: run *fn* ``repeats`` times, keep the
    fastest run.

    A single-shot probe folds one-time costs — import warm-up, allocator
    arena growth, cold interpreter inline caches, the per-process field
    cache — into its wall time, so its events/s is dominated by process
    start-up, not the scheduler.  The event count is identical across
    repeats (the schedule is deterministic), so taking the minimum wall
    time measures the simulator's sustained rate, which is the quantity
    the throughput trajectory tracks.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results = [fn() for _ in range(repeats)]
    return max(results, key=lambda r: r.events_per_sec)


#: Steady-state repeats recorded for quick-mode rows (best-of-N).
QUICK_REPEATS = 3

#: Gate bands: a diffusion row must reach this fraction of its committed
#: events/s for the same backend, the synthetic kernel probe (noisier
#: run to run) the wider second one.
GATE_THRESHOLD = 0.8
SYNTHETIC_GATE_THRESHOLD = 0.7


def throughput_probes(quick: bool = True,
                      backends: Sequence[str] = ("proxy",)
                      ) -> List[Callable[[], SimPerfResult]]:
    """The probes as zero-argument callables, in table order.

    The synthetic kernel probe comes first (it runs below the runtime
    and has no backend), then one diffusion probe per name in
    *backends*.  *quick* keeps the runtime to a couple of seconds (the
    CI setting); the full setting uses the figure-scale diffusion
    workload.  The CLI's measurement, its gate, its profile and the
    throughput benchmark all run this one list.
    """
    if quick:
        probes = [partial(synthetic_throughput, num_procs=32, hops=200)]
        probes += [partial(diffusion_throughput, comm_backend=b)
                   for b in backends]
    else:
        wl = DiffusionWorkload(ni=128, nj_per_device=416, nk=26, steps=10)
        probes = [partial(synthetic_throughput, num_procs=128, hops=2000)]
        probes += [partial(diffusion_throughput, wl=wl, num_nodes=2,
                           ranks_per_device=208, comm_backend=b)
                   for b in backends]
    return probes


def simperf_table(results: List[SimPerfResult]) -> Table:
    """Render probe results into the throughput table."""
    table = Table("Simulator throughput",
                  ["probe", "backend", "events", "wall [s]", "events/s",
                   "simulated [ms]"])
    for r in results:
        table.add_row(r.label, r.backend or "-", r.events, r.wall_s,
                      r.events_per_sec, r.sim_time_s * 1e3)
    table.add_note("events = scheduler heap entries; identical across "
                   "runs of the same workload")
    return table


def write_bench_json(results: List[SimPerfResult], quick: bool,
                     repeats: int) -> str:
    """Write the machine-readable perf trajectory, ``BENCH_simperf.json``
    at the repo root; each row is the best of *repeats* runs.

    Returns:
        The path written to, as a string.
    """
    from ..exec.fingerprint import repo_root, source_fingerprint

    path = repo_root() / "BENCH_simperf.json"
    payload = {
        "bench": "simperf",
        "mode": "quick" if quick else "full",
        # Steady-state policy: each row is the best of `repeats` runs
        # (see best_of) so the trajectory tracks the sustained rate, not
        # process start-up.  Rows recorded before this field existed were
        # single cold-start shots.
        "measurement": {"policy": "best-of", "repeats": repeats},
        "source_fingerprint": source_fingerprint()[:16],
        "rows": [
            dict({"probe": r.label, "events": r.events,
                  "wall_s": round(r.wall_s, 6),
                  "events_per_sec": round(r.events_per_sec, 1),
                  "sim_time_s": r.sim_time_s},
                 **({"backend": r.backend} if r.backend else {}))
            for r in results
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return str(path)


def profile_probes(quick: bool = True, top: int = 25,
                   backends: Sequence[str] = ("proxy",)) -> str:
    """Run each probe once under cProfile; return the top-*top*
    cumulative tables as text (the ``--profile`` CLI mode).

    *backends* selects the diffusion probes, as for
    :func:`throughput_probes`, so a profile can be attributed to the same
    backend the gate measures.

    Profiling overhead inflates wall times several-fold, so the tables
    are for *attribution* — never record their events/s.
    """
    import cProfile
    import io
    import pstats

    sections = []
    for probe in throughput_probes(quick=quick, backends=backends):
        prof = cProfile.Profile()
        result = prof.runcall(probe)
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        backend = f" [{result.backend}]" if result.backend else ""
        sections.append(
            f"=== {result.label}{backend}: {result.events} events, "
            f"{result.wall_s:.3f}s under profiler ===\n{buf.getvalue()}")
    return "\n".join(sections)


def check_regression(results: List[SimPerfResult],
                     baseline_path) -> List[str]:
    """Compare measured rows against a committed trajectory file.

    The blocking CI gate.  A failure message is returned when

    * a measured row has no committed row for the same probe and
      backend — a gate with nothing to compare against must not pass
      (fix by recording the trajectory with ``--backend all``);
    * a diffusion row's events/s falls below :data:`GATE_THRESHOLD`
      (80%) of the committed row **for the same backend**;
    * the synthetic probe falls below :data:`SYNTHETIC_GATE_THRESHOLD`
      (70%).  The kernel microbenchmark has higher run-to-run variance
      than the full stack, hence the wider band, but a sub-70% reading
      means the scheduler itself regressed and now blocks rather than
      being merely informational.
    """
    with open(baseline_path) as f:
        baseline = json.load(f)
    committed = {(row["probe"], row.get("backend")): row["events_per_sec"]
                 for row in baseline.get("rows", [])}
    failures = []
    for r in results:
        base = committed.get((r.label, r.backend))
        backend = f"[{r.backend}] " if r.backend else ""
        if base is None or base <= 0:
            failures.append(f"MISSING {r.label} {backend}has no committed "
                            f"row in {baseline_path} — record one with "
                            "`python -m repro.bench.simperf --backend all`")
            continue
        ratio = r.events_per_sec / base
        line = (f"{r.label} {backend}{r.events_per_sec:,.0f} ev/s vs "
                f"committed {base:,.0f} ev/s ({ratio:.2f}x)")
        gate = (SYNTHETIC_GATE_THRESHOLD if r.label == "synthetic"
                else GATE_THRESHOLD)
        if ratio < gate:
            failures.append(f"REGRESSION {line} — below the {gate:.0%} gate")
        else:
            print(f"gate: {line}")
    return failures


def _backends(text: str) -> List[str]:
    """``--backend``: ``all`` or a comma-separated list of names."""
    if text == "all":
        return list(COMM_BACKENDS)
    return [name.strip() for name in text.split(",") if name.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.simperf",
        description="Simulator-throughput probes (events/sec).")
    parser.add_argument("--full", action="store_true",
                        help="figure-scale workload instead of the quick "
                             "probe")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_simperf.json")
    parser.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="best-of-N steady-state measurement "
                             "(default: 3 quick, 1 full)")
    parser.add_argument("--backend", type=_backends, default=["proxy"],
                        metavar="NAMES",
                        help="communication backend(s) for the diffusion "
                             "probe: proxy, device, stream, a comma "
                             "list, or 'all' — one diffusion row per "
                             "backend (default: proxy)")
    parser.add_argument("--profile", action="store_true",
                        help="run each probe under cProfile and print the "
                             "top-25 cumulative table instead of measuring")
    parser.add_argument("--gate", type=str, nargs="?", metavar="PATH",
                        const="", default=None,
                        help="regression gate: compare against the "
                             "committed trajectory (default "
                             "BENCH_simperf.json) and exit 1 if a "
                             "diffusion probe fell below 80%% or the "
                             "synthetic probe below 70%% of its row, or "
                             "a measured row has no committed row; does "
                             "not overwrite the trajectory file")
    args = parser.parse_args(argv)

    quick = not args.full
    if args.profile:
        print(profile_probes(quick=quick, backends=args.backend))
        return 0
    repeats = (args.repeats if args.repeats is not None
               else QUICK_REPEATS if quick else 1)
    results = [best_of(probe, repeats)
               for probe in throughput_probes(quick, args.backend)]
    print(simperf_table(results).render())
    if args.gate is not None:
        from ..exec.fingerprint import repo_root

        baseline = args.gate or str(repo_root() / "BENCH_simperf.json")
        failures = check_regression(results, baseline)
        for msg in failures:
            print(msg, file=sys.stderr)
        return 1 if failures else 0
    if not args.no_json:
        path = write_bench_json(results, quick, repeats)
        print(f"trajectory: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
