"""Traced run: the per-layer split of one workload.

Each cycle runs an untraced cold pass, then the same pass with every layer
entry point wrapped (:mod:`tracing`); the sweep adds a traced warm replay,
because reads from the store are a different path.  The traced pass must
reproduce the untraced one exactly: the same schedule-entry count and
simulated time for a simulation, the same results digest for the sweep.

Every metric is reported per traced cycle (the mean over cycles, or the
exact value when every cycle repeats it); a layer a workload does not
exercise in this process reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import tracing
import workloads

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.self_s", "s"), ("sim.us_per_event", "us"),
    ("sim_time_us", "sim_us"),
    ("sim.link.transfers", "count"), ("sim.link.self_s", "s"),
    ("hw.calls", "count"), ("hw.self_s", "s"),
    ("net.sends", "count"), ("net.bytes", "B"), ("net.hops_per_send", "hops"),
    ("net.self_s", "s"),
    ("runtime.enqueues", "count"), ("runtime.self_s", "s"),
    ("runtime.credit_reloads", "count"), ("runtime.full_stalls", "count"),
    ("runtime.stall_ratio", "ratio"),
    ("comm.puts", "count"), ("comm.gets", "count"), ("comm.self_s", "s"),
    ("dcuda.calls", "count"), ("dcuda.self_s", "s"),
    ("dcuda.notifications", "count"), ("dcuda.wait_sim_us", "sim_us"),
    ("collectives.calls", "count"), ("collectives.self_s", "s"),
    ("apps.compute_phases", "count"), ("apps.bytes_computed", "B"),
    ("apps.numerics_s", "s"), ("apps.self_s", "s"),
    ("bench.self_s", "s"),
    ("setup.import_s", "s"), ("setup.build_s", "s"),
    ("exec.coordinator.self_s", "s"), ("exec.retries", "count"),
    ("exec.worker_lost", "count"),
    ("exec.executor.start_s", "s"), ("exec.executor.submit_s", "s"),
    ("exec.executor.wait_s", "s"), ("exec.executor.jobs", "count"),
    ("exec.executor.job_p50_s", "s"),
    ("exec.cache.probe_s", "s"), ("exec.cache.warm_hit_ratio", "ratio"),
    ("exec.cache.publishes", "count"), ("exec.cache.publish_s", "s"),
    ("exec.cache.store_bytes", "B"), ("exec.digest_s", "s"),
    ("faults.injections", "count"), ("faults.clean", "count"),
    ("faults.typed_errors", "count"),
    ("trace.overhead", "ratio"),
)


def _entry(entry_s: Dict[str, float], layer: str, suffix: str) -> float:
    return sum(v for k, v in entry_s.items()
               if k.startswith(layer + ":") and k.endswith(suffix))


def cycle_values(w, tracer: tracing.Tracer, untraced, traced,
                 warm=None) -> Dict[str, float]:
    """Per-layer values of one traced cycle (no set-up, no overhead)."""
    entry_s = tracer.entry_self_times()
    layer_s = tracing.by_layer(entry_s)
    counts = tracer.counts
    calls = tracing.calls
    v: Dict[str, float] = defaultdict(float)
    for layer in ("sim", "sim.link", "hw", "net", "runtime", "comm",
                  "dcuda", "collectives", "apps", "bench",
                  "exec.coordinator"):
        v[f"{layer}.self_s"] = layer_s.get(layer, 0.0)
    v["apps.numerics_s"] = layer_s.get("apps.numerics", 0.0)
    v["exec.digest_s"] = layer_s.get("exec.spec", 0.0)

    v["sim.events"] = traced.sim_events
    v["sim_time_us"] = traced.sim_time_s * 1e6
    if traced.sim_events:
        v["sim.us_per_event"] = untraced.wall_s / traced.sim_events * 1e6
    v["sim.link.transfers"] = calls(counts, "sim.link:")
    v["hw.calls"] = calls(counts, "hw:")
    v["net.sends"] = calls(counts, "net:Fabric.transmit")
    v["net.bytes"] = counts.get("net.bytes", 0.0)
    if v["net.sends"]:
        v["net.hops_per_send"] = counts.get("net.hops", 0.0) / v["net.sends"]
    v["comm.puts"] = calls(counts, "comm:", ".put")
    v["comm.gets"] = calls(counts, "comm:", ".get")
    v["dcuda.calls"] = calls(counts, "dcuda:")
    v["dcuda.wait_sim_us"] = counts.get("dcuda.wait_sim_s", 0.0) * 1e6
    v["collectives.calls"] = calls(counts, "collectives:")
    v["apps.compute_phases"] = counts.get("apps.compute_phases", 0.0)
    v["apps.bytes_computed"] = counts.get("apps.bytes_computed", 0.0)
    if traced.sim_events:
        q = traced.detail
        v["runtime.enqueues"] = q["enqueues"]
        v["runtime.credit_reloads"] = q["credit_reloads"]
        v["runtime.full_stalls"] = q["full_stalls"]
        v["runtime.stall_ratio"] = q["full_stalls"] / max(1, q["enqueues"])
        v["dcuda.notifications"] = q["notifications"]

    v["exec.executor.start_s"] = _entry(entry_s, "exec.executor", ".start")
    v["exec.executor.submit_s"] = _entry(entry_s, "exec.executor",
                                         ".submit")
    v["exec.executor.wait_s"] = _entry(entry_s, "exec.executor",
                                       ".next_completion")
    v["exec.executor.jobs"] = calls(counts, "exec.executor:", ".submit")
    v["exec.cache.probe_s"] = _entry(entry_s, "exec.cache", ".get")
    v["exec.cache.publish_s"] = _entry(entry_s, "exec.cache", ".put")
    v["exec.cache.publishes"] = calls(counts, "exec.cache:", ".put")
    if warm is not None:
        report = traced.detail
        v["exec.retries"] = report.retries + warm.detail.retries
        v["exec.worker_lost"] = (traced.extra["worker_lost"]
                                 + warm.extra["worker_lost"])
        v["exec.cache.warm_hit_ratio"] = (warm.detail.cache_hits
                                          / warm.detail.tasks)
        v["exec.cache.store_bytes"] = traced.extra["store_bytes"]
        gaps = [b - a for a, b in zip(traced.extra["done_at"],
                                      traced.extra["done_at"][1:])]
        if gaps:
            # Completions of `workers` parallel workers: the median gap
            # times the worker count is the per-job service time.
            v["exec.executor.job_p50_s"] = (statistics.median(gaps)
                                            * w.workers)
        outcomes = w.chaos_outcomes(traced)
        v["faults.injections"] = sum(o.injections for o in outcomes)
        v["faults.clean"] = sum(1 for o in outcomes if o.clean)
        v["faults.typed_errors"] = sum(1 for o in outcomes
                                       if o.status != "completed")
    return v


def _per_cycle(values: List[float]) -> float:
    """The mean over cycles; a value every cycle repeats exactly (counts,
    simulated times) is reported as is, without rounding."""
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.fmean(values)


def check_traced(w, untraced, traced) -> Tuple[int, List[str]]:
    """The traced pass's own checks plus parity with the untraced pass: a
    parity failure fails the traced pass's operations."""
    ops, fails = w.check_cold(traced)
    if (traced.sim_events, traced.sim_time_s) != \
            (untraced.sim_events, untraced.sim_time_s):
        fails.append("traced pass moved the simulated schedule "
                     f"({traced.sim_events} events at "
                     f"{traced.sim_time_s!r} s vs {untraced.sim_events} at "
                     f"{untraced.sim_time_s!r} s)")
    if isinstance(untraced.outputs, str) and \
            untraced.outputs != traced.outputs:
        fails.append("traced sweep digest differs from the untraced one")
    return ops, fails


def per_layer(args, w, ledger, cycles: Callable) -> Dict[str, Dict]:
    """Traced cycles until ``args.seconds`` is used; per-layer metrics.

    *cycles(args, body)* is ``run.cycles``: it runs a set-up probe and
    *body* per cycle and returns the probes.
    """
    extra = [(workloads, name, "bench") for name in w.bench_kernels]
    per_cycle: Dict[str, List[float]] = defaultdict(list)
    untraced_s: List[float] = []
    traced_s: List[float] = []
    last: Dict[str, tracing.Tracer] = {}

    def cycle() -> None:
        untraced = w.cold()
        ledger.add(w.check_cold(untraced))
        tracer = last["tracer"] = tracing.install(tracing.Tracer(), extra)
        try:
            traced = w.cold()
            warm = w.replay() if w.replays_per_cycle > 1 else None
        finally:
            tracer.uninstall()
        ledger.add(check_traced(w, untraced, traced))
        if warm is not None:
            ledger.add(w.check_replay(warm, traced))
        for name, value in cycle_values(w, tracer, untraced, traced,
                                        warm).items():
            per_cycle[name].append(value)
        untraced_s.append(untraced.wall_s)
        traced_s.append(traced.wall_s)

    probes = cycles(args, cycle)
    tracer = last["tracer"]
    spans = Path(workloads.WORK_DIR) / f"spans-{w.name}-seed{args.seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans)
    n = len(traced_s)
    print(f"traced cycles {n}; spans of the last cycle: "
          f"{tracer.span_count()} -> {spans}")
    values = {name: _per_cycle(per_cycle.get(name, [0.0]))
              for name, _ in PER_LAYER}
    values["setup.import_s"] = statistics.median(p["import_s"]
                                                 for p in probes)
    values["setup.build_s"] = statistics.median(p["build_s"] for p in probes)
    values["trace.overhead"] = (statistics.median(traced_s)
                                / statistics.median(untraced_s))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
