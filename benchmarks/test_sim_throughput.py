"""Simulator-throughput benchmark (events/sec and wall-clock).

Unlike the figure benchmarks, the quantity of interest here is the
*simulator's* own speed: how many scheduler events the DES kernel retires
per second of wall-clock time, measured on a pure-kernel synthetic
workload and on an end-to-end dCUDA diffusion run.  The event counts are
deterministic (identical across runs of the same workload), so any
change in them indicates a schedule change, not noise.

Quick mode (the default, also used by the CI job) keeps the run to a
couple of seconds; set ``SIMPERF_FULL=1`` for the figure-scale
workload.  The probes run in this process, best-of-N, like the
``python -m repro.bench.simperf`` CLI: a wall-clock number never goes
through the sweep engine or its cache.
"""

import os

from repro.bench.simperf import (
    QUICK_REPEATS,
    best_of,
    diffusion_throughput,
    simperf_table,
    synthetic_throughput,
    throughput_probes,
)

FULL = os.environ.get("SIMPERF_FULL", "") == "1"


def test_sim_throughput(benchmark, report):
    repeats = 1 if FULL else QUICK_REPEATS
    table = benchmark.pedantic(
        lambda: simperf_table([best_of(probe, repeats) for probe in
                               throughput_probes(quick=not FULL)]),
        rounds=1, iterations=1)
    report("sim_throughput", table.render())
    benchmark.extra_info["rows"] = [
        [row[0], row[1]] + [float(v) for v in row[2:]]
        for row in table.rows]

    by_probe = {row[0]: row for row in table.rows}
    assert set(by_probe) == {"synthetic", "diffusion"}
    for probe, (_, _backend, events, wall, eps, sim_ms) in by_probe.items():
        assert events > 0, probe
        assert wall > 0, probe
        assert eps > 0, probe
        assert sim_ms > 0, probe


def test_event_count_is_deterministic():
    """The events metric is schedule-derived: reruns must match exactly."""
    a = synthetic_throughput(num_procs=8, hops=50)
    b = synthetic_throughput(num_procs=8, hops=50)
    assert a.events == b.events
    assert a.sim_time_s == b.sim_time_s

    c = diffusion_throughput()
    d = diffusion_throughput()
    assert c.events == d.events
    assert c.sim_time_s == d.sim_time_s
