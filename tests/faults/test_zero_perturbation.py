"""Fault plane must not perturb the simulation when off — or inert.

A plane acts only where it injects, so these gates hold:

1. **Golden timestamps.**  The schedule-preservation fixture (captured
   before the fault plane existed, ``faults=None``) must replay bit-for-bit
   — and it must *also* replay bit-for-bit with an inert **enabled** plane
   forced onto every workload: the hardening code paths (sequence
   validation, the watchdog) may not move a single event when no fault
   fires.

2. **Direct run comparison.**  Diffusion with ``faults=None`` vs an inert
   enabled plane, on every comm backend: identical elapsed time, output
   bits, hardware counters and scheduled entries.  ``==`` on IEEE-754
   doubles, never ``pytest.approx``.

3. **A slow peer is not a fault.**  A rank that waits ~10 ms for a busy
   peer's put or barrier arrival, and a sender that fills a busy
   receiver's notification queue, finish at their no-plane times under an
   inert plane.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.bench.golden import GOLDEN_WORKLOADS
from repro.comm import COMM_BACKENDS
from repro.dcuda import launch
from repro.faults import FaultsConfig, force_faults
from repro.hw import Cluster, greina

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_timestamps.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("fig", sorted(GOLDEN_WORKLOADS))
def test_golden_timestamps_with_faults_none(fig, golden):
    """The default (no plane) replays the fixture exactly."""
    current = GOLDEN_WORKLOADS[fig]()
    expected = {k: v for k, v in golden.items() if k.startswith(fig + ".")}
    assert expected, f"fixture has no entries for {fig}; regenerate it"
    assert {k: current[k] for k in expected} == expected


@pytest.mark.parametrize("fig", sorted(GOLDEN_WORKLOADS))
def test_golden_timestamps_with_inert_plane(fig, golden):
    """An enabled-but-empty plane may not move a single timestamp."""
    with force_faults(FaultsConfig(enabled=True)):
        current = GOLDEN_WORKLOADS[fig]()
    expected = {k: v for k, v in golden.items() if k.startswith(fig + ".")}
    mismatches = {
        k: {"fixture": expected[k], "with_faults": current[k]}
        for k in expected if current[k] != expected[k]
    }
    assert not mismatches, (
        f"{len(mismatches)} simulated timestamp(s) moved with an inert "
        f"fault plane — hardening is perturbing the schedule: {mismatches}")


def _run_diffusion(faults_cfg, comm_backend="proxy"):
    cluster = Cluster(greina(2, faults=faults_cfg, comm_backend=comm_backend))
    wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
    elapsed, field, _ = run_dcuda_diffusion(cluster, wl, ranks_per_device=2)
    counters = {"sim.scheduled": cluster.env.stats.scheduled}
    for node in cluster.nodes:
        pcie = node.pcie
        counters[f"{node.name}.pcie.mapped_writes"] = pcie.mapped_writes
        counters[f"{node.name}.pcie.mapped_reads"] = pcie.mapped_reads
        counters[f"{node.name}.pcie.dma_bytes"] = pcie.dma_bytes
        counters[f"{node.name}.mem.bytes"] = \
            node.device.memory.bytes_transferred
    return elapsed, field, counters, cluster


def test_faults_off_and_inert_runs_are_bit_identical():
    for backend in COMM_BACKENDS:
        base_elapsed, base_field, base_counters, off = _run_diffusion(
            None, backend)
        inert_elapsed, inert_field, inert_counters, on = _run_diffusion(
            FaultsConfig(enabled=True), backend)
        assert off.faults is None
        assert on.faults is not None
        assert on.faults.total_injections() == 0
        assert inert_elapsed == base_elapsed, backend
        assert np.array_equal(inert_field, base_field), backend
        # Scheduled entries included: the plane adds no wait of its own.
        assert inert_counters == base_counters, backend


def test_hardening_counters_stay_zero_without_injection():
    cluster = Cluster(greina(2, faults=FaultsConfig(enabled=True)))
    wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
    _, _, res = run_dcuda_diffusion(cluster, wl, ranks_per_device=2)
    for rank in range(res.runtime.total_ranks):
        state = res.runtime.state_of(rank)
        for q in (state.cmd_queue, state.ack_queue, state.notif_queue,
                  state.log_queue):
            values = (q.stats.dropped_writes, q.stats.duplicates_dropped,
                      q.stats.recovered, q.stats.retries,
                      q.stats.starved_reloads)
            assert not any(values), \
                f"{q.name} moved hardening counters: {values}"


# ------------------------------------------------- a slow peer is no fault --
BUSY = 10e-3


def _busy(rank, seconds):
    return rank.compute(flops=seconds * rank.cfg.gpu.flops_per_sm)


def _late_put(rank):
    win = yield from rank.win_create(np.zeros(4))
    if rank.world_rank == 1:
        yield from _busy(rank, BUSY)
        yield from rank.put_notify(win, 0, 0, np.ones(4), tag=7)
    else:
        yield from rank.wait_notifications(win, source=1, tag=7)
    yield from rank.finish()


def _late_barrier(rank):
    if rank.world_rank == 1:
        yield from _busy(rank, BUSY)
    yield from rank.barrier()
    yield from rank.finish()


def _flood(rank, n=100):
    # 100 notified puts at a receiver busy for 1 ms: the sender fills the
    # notification queue and waits on its credits.
    win = yield from rank.win_create(np.zeros(n))
    if rank.world_rank == 1:
        for i in range(n):
            yield from rank.put_notify(win, 0, i, np.ones(1), tag=3)
    else:
        yield from _busy(rank, 1e-3)
        yield from rank.wait_notifications(win, source=1, tag=3, count=n)
    yield from rank.finish()


def _launch(kernel, num_nodes, ranks_per_device, faults_cfg):
    cluster = Cluster(greina(num_nodes, faults=faults_cfg))
    res = launch(cluster, kernel, ranks_per_device=ranks_per_device)
    return res, cluster.env.stats.scheduled


@pytest.mark.parametrize("kernel,num_nodes,ranks_per_device,least", [
    (_late_put, 2, 1, BUSY),
    (_late_barrier, 2, 1, BUSY),
    (_flood, 2, 1, 1e-3),
    (_flood, 1, 2, 1e-3),
], ids=["put", "barrier", "full-queue-distributed", "full-queue-shared"])
def test_inert_plane_waits_out_a_slow_peer(kernel, num_nodes,
                                           ranks_per_device, least):
    base, base_scheduled = _launch(kernel, num_nodes, ranks_per_device, None)
    inert, inert_scheduled = _launch(kernel, num_nodes, ranks_per_device,
                                     FaultsConfig(enabled=True))
    assert base.elapsed > least
    assert inert.elapsed == base.elapsed
    assert inert_scheduled == base_scheduled
    if kernel is _flood:
        # The receiver's notification queue really filled up.
        assert inert.runtime.state_of(0).notif_queue.stats.full_stalls > 0
