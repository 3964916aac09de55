"""Observability must not perturb the simulation (the zero-cost contract).

Two gates:

1. **Golden timestamps with obs enabled.**  The same fixture the
   schedule-preservation test uses (captured with observability *off*)
   must be reproduced bit-for-bit with the whole layer *on* — tracer
   intervals, event-loop stats, link/queue series, latency histograms.
   ``==`` on IEEE-754 doubles, never ``pytest.approx``: the instruments
   only record at existing state-change points, so not a single event may
   move.

2. **Direct run comparison.**  One diffusion run with obs off and one
   with obs on must produce identical elapsed time, identical output
   field bits, and identical hardware counters (PCIe transactions, queue
   stats, link bytes).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.bench.golden import GOLDEN_WORKLOADS
from repro.hw import Cluster, greina
from repro.obs import ObsConfig, force_enabled

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_timestamps.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("fig", sorted(GOLDEN_WORKLOADS))
def test_golden_timestamps_with_obs_enabled(fig, golden):
    """Fixture captured with obs off; workloads run with obs fully on."""
    with force_enabled():
        current = GOLDEN_WORKLOADS[fig]()
    expected = {k: v for k, v in golden.items() if k.startswith(fig + ".")}
    assert expected, f"fixture has no entries for {fig}; regenerate it"
    assert set(current) == set(expected)
    mismatches = {
        k: {"fixture": expected[k], "with_obs": current[k]}
        for k in expected if current[k] != expected[k]
    }
    assert not mismatches, (
        f"{len(mismatches)} simulated timestamp(s) moved with observability "
        f"enabled — an instrument is perturbing the schedule: {mismatches}")


def _run_diffusion(obs_cfg):
    cluster = Cluster(greina(2, obs=obs_cfg))
    wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
    elapsed, field, _ = run_dcuda_diffusion(cluster, wl, ranks_per_device=2)
    counters = {}
    for node in cluster.nodes:
        pcie = node.pcie
        counters[f"{node.name}.pcie.mapped_writes"] = pcie.mapped_writes
        counters[f"{node.name}.pcie.mapped_reads"] = pcie.mapped_reads
        counters[f"{node.name}.pcie.dma_bytes"] = pcie.dma_bytes
        counters[f"{node.name}.mem.bytes"] = \
            node.device.memory.bytes_transferred
    return elapsed, field, counters


def test_obs_on_off_runs_are_bit_identical():
    base_elapsed, base_field, base_counters = _run_diffusion(
        ObsConfig(enabled=False))
    obs_elapsed, obs_field, obs_counters = _run_diffusion(
        ObsConfig(enabled=True))
    assert obs_elapsed == base_elapsed
    assert np.array_equal(obs_field, base_field)
    assert obs_counters == base_counters


def test_obs_run_actually_recorded():
    """Guard against the trivial pass: obs-on must populate the registry."""
    cluster = Cluster(greina(2, obs=ObsConfig(enabled=True)))
    wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
    run_dcuda_diffusion(cluster, wl, ranks_per_device=2)
    reg = cluster.obs.registry
    names = reg.names()
    assert any(n.startswith("queue.") for n in names)
    assert any(n.startswith("link.") for n in names)
    assert any(n.startswith("bm.cmd.") for n in names)
    assert "ntf.match_pass" in reg
    assert cluster.env.stats.entries > 0
    assert cluster.tracer.enabled and len(cluster.tracer.intervals) > 0


def test_activity_rollup_and_overlap_rows_agree():
    """Per-block busy-time rollups of the tracer and the report's rows
    see one trace."""
    cluster = Cluster(greina(2, obs=ObsConfig(enabled=True)))
    wl = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=2)
    run_dcuda_diffusion(cluster, wl, ranks_per_device=2)
    from repro.obs import overlap_rows
    tracer = cluster.tracer
    rows = {row.actor: row for row in overlap_rows(tracer)}
    assert len(rows) == 4  # 2 nodes x 2 ranks
    for node in cluster.nodes:
        blocks = [b.name for b in node.device.blocks]
        assert set(blocks) <= set(rows)
        for actor in blocks:
            kinds = {kind: tracer.busy_time(kind=kind, actor=actor)
                     for kind in ("compute", "comm", "wait", "match")}
            row = rows[actor]
            assert kinds["comm"] == row.comm
            assert kinds["wait"] == row.wait
            # row.compute is the *union* of compute+match intervals: at
            # least the larger kind, at most the sum of both.
            assert max(kinds["compute"], kinds["match"]) - 1e-15 \
                <= row.compute <= kinds["compute"] + kinds["match"] + 1e-15
            assert 0.0 <= row.hidden <= row.comm + row.wait + 1e-12


def test_force_enabled_restores_default():
    from repro.obs.config import default_obs
    assert not default_obs().enabled
    with force_enabled():
        assert default_obs().enabled
    assert not default_obs().enabled
