"""The one observability surface, end to end.

Every count in the metrics registry is a view of a count the simulator
already keeps, so a snapshot must equal the owners' attributes exactly.
``python -m repro.obs`` is that registry's only reporter: ``report
--metrics`` prints every view and histogram, and ``export --chrome``
writes a trace that loads with spans, counter tracks and names.
"""

import dataclasses
import fnmatch
import json

import pytest

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.faults import FaultsConfig
from repro.hw import Cluster, greina
from repro.mpicuda import run_mpicuda
from repro.obs import ObsConfig, View, chrome_trace, write_chrome
from repro.obs.__main__ import main

WORKLOAD = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)


def _diffusion(cfg):
    cluster = Cluster(cfg)
    _, _, result = run_dcuda_diffusion(cluster, WORKLOAD, ranks_per_device=2)
    return cluster, result.runtime


def _memcpys(ctx):
    yield from ctx.memcpy(4096.0)
    yield from ctx.memcpy(128.0)


@pytest.fixture(scope="module")
def runs():
    """Three obs-on runs that between them move every count a view reads:
    a seeded chaos run (fault injections), a 2-entry queue (credit
    reloads, full stalls, mapped reads) and MPI-CUDA memcpys (DMA)."""
    on = ObsConfig(enabled=True)
    small = greina(2, obs=on)
    small = dataclasses.replace(small, devicelib=dataclasses.replace(
        small.devicelib, queue_size=2))
    dma = Cluster(greina(2, obs=on))
    run_mpicuda(dma, _memcpys)
    return {
        "chaos": _diffusion(greina(2, obs=on,
                                   faults=FaultsConfig(enabled=True, seed=3))),
        "small-queue": _diffusion(small),
        "memcpy": (dma, None),
    }


def _owner_counts(cluster, runtime):
    """Every count a view mirrors, read straight from the component."""
    counts = {}
    for system in runtime.systems if runtime is not None else ():
        for st in system.states:
            for queue in (st.cmd_queue, st.ack_queue, st.notif_queue,
                          st.log_queue):
                for stat in ("enqueues", "full_stalls", "credit_reloads"):
                    counts[f"queue.{queue.name}.{stat}"] = \
                        getattr(queue.stats, stat)
    for node in cluster.nodes:
        link = node.device.memory.link
        counts[f"link.{link.name}.bytes"] = link.bytes_transferred
        nic = cluster.fabric.nic_stats(node.index)
        counts[f"fabric.nic{node.index}.messages"] = nic["messages"]
        counts[f"fabric.nic{node.index}.bytes"] = nic["bytes"]
        for stat in ("mapped_writes", "mapped_reads", "dma_copies",
                     "dma_bytes"):
            counts[f"{node.pcie.name}.{stat}"] = getattr(node.pcie, stat)
        counts[f"{node.worker.name}.busy_time"] = node.worker_busy_time
    if cluster.faults is not None:
        for (kind, _site), n in cluster.faults.injections.items():
            counts[f"faults.{kind}"] = counts.get(f"faults.{kind}", 0) + n
    stats = cluster.env.stats
    for stat in ("scheduled", "pending", "entries"):
        counts[f"sim.{stat}"] = getattr(stats, stat)
    return counts


@pytest.mark.parametrize("run", ["chaos", "small-queue", "memcpy"])
def test_every_view_reads_the_count_its_owner_keeps(runs, run):
    cluster, runtime = runs[run]
    expected = _owner_counts(cluster, runtime)
    registry = cluster.obs.registry
    views = {name for name in registry.names()
             if isinstance(registry[name], View)}
    assert views == set(expected)
    snapshot = registry.snapshot()
    assert {name: snapshot[name] for name in expected} == expected


def test_every_kind_of_view_is_exercised(runs):
    """Guard against a vacuous match: each kind of count is non-zero in
    some run, so a view reading the wrong attribute would show."""
    moved = set()
    for cluster, runtime in runs.values():
        for name, count in _owner_counts(cluster, runtime).items():
            if count:
                moved.add("faults" if name.startswith("faults.")
                          else name.rsplit(".", 1)[1])
    assert moved == {"enqueues", "full_stalls", "credit_reloads", "bytes",
                     "messages", "mapped_writes", "mapped_reads",
                     "dma_copies", "dma_bytes", "busy_time", "faults",
                     "scheduled", "entries"}


def test_sim_views_read_env_stats_mid_run():
    """A finished run leaves nothing pending, so stop one part-way: the
    three ``sim.*`` views equal ``env.stats`` with entries still queued."""
    cluster = Cluster(greina(1, obs=ObsConfig(enabled=True)))
    env = cluster.env
    for delay in (1e-6, 2e-6, 3e-6):
        env.timeout(delay)
    env.call_at(0.0, lambda: None)
    env.run(until=1.5e-6)
    snapshot = cluster.obs.registry.snapshot()
    stats = env.stats
    assert (stats.scheduled, stats.pending, stats.entries) == (4, 2, 2)
    assert {stat: snapshot[f"sim.{stat}"]
            for stat in ("scheduled", "pending", "entries")} == \
        {"scheduled": 4, "pending": 2, "entries": 2}


def _metrics_rows(out):
    table = out.split("Metrics registry\n", 1)[1].splitlines()[3:]
    return dict(line.split(None, 1) for line in table if line.strip())


def test_cli_report_metrics_prints_views_and_histograms(capsys):
    assert main(["report", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Overlap efficiency per rank")
    rows = _metrics_rows(out)
    for pattern in ("queue.*.enqueues", "link.*.bytes",
                    "fabric.nic*.messages", "*.pcie.mapped_writes"):
        views = fnmatch.filter(rows, pattern)
        assert views, pattern
        assert all(float(rows[name]) >= 0 for name in views)
    histograms = fnmatch.filter(rows, "bm.cmd.*")
    assert histograms
    assert all(rows[name].startswith("n=") for name in histograms)


def test_write_chrome_writes_the_json_dumps_bytes(runs, tmp_path):
    """The file is ``json.dumps`` of the trace plus a newline, byte for
    byte, and the returned count is its number of events."""
    cluster, _ = runs["chaos"]
    registry = cluster.obs.registry
    path = tmp_path / "trace.json"
    count = write_chrome(str(path), cluster.tracer, registry)
    want = json.dumps(chrome_trace(cluster.tracer, registry)) + "\n"
    assert path.read_bytes() == want.encode()
    assert count == len(json.loads(want)["traceEvents"]) > 100


def test_cli_export_writes_a_loadable_chrome_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["export", "--chrome", str(path)]) == 0
    events = json.loads(path.read_text())["traceEvents"]
    assert {event["ph"] for event in events} == {"X", "C", "M"}
    assert f"wrote {len(events)} trace events -> {path}" in \
        capsys.readouterr().out
