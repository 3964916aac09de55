"""The chaos contract: 50+ seeded schedules, never a hang.

Every seeded run over the diffusion mini-app must either complete with
numerics bit-identical to a fault-free run, or fail with a diagnosed typed
error (:class:`DCudaFaultError` / :class:`DCudaTimeoutError`) carrying
simulated-time context.  Nothing hangs: the launch is guarded by a
simulated-time watchdog, and a schedule that drains with a rank still
waiting is diagnosed as a deadlock; either hang is a fault only if the
plane injected one.  Any other exception type escapes
:func:`run_chaos_case` and fails the test — that is the harness-bug
detector.
"""

import re

import numpy as np
import pytest

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.errors import (
    DCudaError,
    DCudaFaultError,
    DCudaTimeoutError,
    DCudaUsageError,
)
from repro.faults import (
    ChaosOutcome,
    FaultEvent,
    FaultsConfig,
    chaos_sweep,
    fault_report,
    run_chaos_case,
)
from repro.hw import Cluster, greina

WL = DiffusionWorkload(ni=8, nj_per_device=4, nk=2, steps=1)
SEEDS = range(50)


@pytest.fixture(scope="module")
def sweep():
    return chaos_sweep(SEEDS, num_nodes=2, ranks_per_device=2, steps=1)


def test_sweep_covers_fifty_seeds(sweep):
    assert len(sweep) == 50
    assert sorted(o.seed for o in sweep) == list(SEEDS)


def test_every_seeded_run_satisfies_the_contract(sweep):
    dirty = [o for o in sweep if not o.clean]
    assert not dirty, (
        f"{len(dirty)} run(s) violated the chaos contract "
        f"(diverged numerics or untyped failure): "
        f"{[(o.seed, o.status, o.error) for o in dirty]}")


def test_sweep_actually_injects_faults(sweep):
    """Guard against the trivial pass: the plans must really fire."""
    injected = [o for o in sweep if o.injections > 0]
    assert len(injected) >= 40, (
        f"only {len(injected)}/50 seeds injected anything — the random "
        f"plan horizon no longer matches the workload")
    assert sum(o.injections for o in sweep) > 100


def test_typed_failures_classify_as_clean(sweep):
    """Diagnosed failures (if any seed produces one) satisfy the contract."""
    for o in sweep:
        if o.status != "completed":
            assert o.status in ("DCudaTimeoutError", "DCudaFaultError")
            assert o.error_code in ("DCUDA_TIMEOUT", "DCUDA_FAULT")
            assert o.clean


def test_harsh_budget_produces_typed_failures():
    """With a tight recovery budget some seeds must fail *diagnosed* —
    exercising the typed-error half of the contract."""
    outcomes = [
        run_chaos_case(cfg=FaultsConfig(enabled=True, seed=seed,
                                        plan_size=30, max_retries=1),
                       steps=1)
        for seed in range(10)
    ]
    assert all(o.clean for o in outcomes)
    failed = [o for o in outcomes if o.status != "completed"]
    assert failed, "harsh sweep produced no typed failures to verify"
    queue_errors = 0
    for o in failed:
        assert o.error_code in ("DCUDA_TIMEOUT", "DCUDA_FAULT")
        assert "t=" in o.error  # simulated-time context rendered
        # A queue's typed error carries its owner's world rank.
        owner = re.match(r"queue \w+:r(\d+): ", o.error)
        if owner:
            queue_errors += 1
            assert f"[rank={owner.group(1)} t=" in o.error, o.error
    assert queue_errors, "no typed queue outcome to check for its rank"


def test_outcome_clean_logic():
    ok = ChaosOutcome(seed=0, status="completed", elapsed=1.0,
                      injections=3, numerics_equal=True)
    diverged = ChaosOutcome(seed=0, status="completed", elapsed=1.0,
                            injections=3, numerics_equal=False)
    typed = ChaosOutcome(seed=0, status="DCudaFaultError", elapsed=1.0,
                         injections=3, numerics_equal=None)
    untyped = ChaosOutcome(seed=0, status="ValueError", elapsed=1.0,
                           injections=3, numerics_equal=None)
    assert ok.clean and typed.clean
    assert not diverged.clean and not untyped.clean


# ------------------------------------------------------------- watchdog -----
def _spinning_kernel(rank):
    win = yield from rank.win_create(np.zeros(4))
    yield from rank.compute(flops=1e3)  # what a block stall slows
    # Poll for a notification nobody will ever send: every test charges
    # the issue unit, so the rank never stops scheduling.
    while not (yield from rank.test_notifications(win, source=0, tag=99)):
        pass
    yield from rank.finish()


def _hanging_kernel(rank):
    win = yield from rank.win_create(np.zeros(4))
    # Wait for a notification nobody will ever send.
    yield from rank.wait_notifications(win, source=0, tag=99, count=1)
    yield from rank.finish()


def test_watchdog_turns_hang_into_timeout_error():
    """A spin under a plane that injected something (a block stall
    slowed the rank's compute phase) may be the fault's doing: the
    watchdog's expiry is a timeout."""
    from repro.dcuda import launch

    cfg = FaultsConfig(enabled=True, watchdog=1e-3, events=(
        FaultEvent("block_stall", start=0.0, duration=1.0, factor=2.0),))
    cluster = Cluster(greina(1, faults=cfg))
    with pytest.raises(DCudaTimeoutError, match="watchdog") as info:
        launch(cluster, _spinning_kernel, ranks_per_device=1)
    assert info.value.sim_time is not None
    assert cluster.faults.total_injections() > 0


def test_watchdog_on_an_inert_plane_is_a_usage_error():
    """The same spin with nothing injected is the kernel's bug (or a run
    longer than the watchdog): the class rule of the deadlock
    diagnosis, and the message names both remedies."""
    from repro.dcuda import launch

    cluster = Cluster(greina(1, faults=FaultsConfig(enabled=True,
                                                    watchdog=1e-4)))
    with pytest.raises(DCudaUsageError, match="watchdog") as info:
        launch(cluster, _spinning_kernel, ranks_per_device=1)
    assert "spins" in str(info.value)
    assert "FaultsConfig.watchdog" in str(info.value)
    assert cluster.faults.total_injections() == 0


def test_never_satisfied_wait_is_a_diagnosed_deadlock():
    """A parked wait leaves the schedule, so the run drains long before
    the watchdog and the launch names the rank that never finished.  The
    inert plane injected nothing, so the kernel is at fault."""
    from repro.dcuda import launch

    cluster = Cluster(greina(1, faults=FaultsConfig(enabled=True)))
    with pytest.raises(DCudaUsageError,
                       match=r"deadlock: .*kernel:r0") as info:
        launch(cluster, _hanging_kernel, ranks_per_device=1)
    assert info.value.sim_time < FaultsConfig().watchdog


def test_without_fault_plane_deadlock_is_a_usage_error():
    """No plane, same rule: the deadlock is typed as the kernel's bug."""
    from repro.dcuda import launch

    with pytest.raises(DCudaUsageError, match=r"deadlock: .*kernel:r0"):
        launch(Cluster(greina(1)), _hanging_kernel, ranks_per_device=1)


def test_deadlock_after_an_injection_is_a_fault_error():
    """The same hang after the plane injected something (one discarded
    duplicate) may be the fault's doing, so it is typed as a fault."""
    from repro.dcuda import launch

    cfg = FaultsConfig(enabled=True, events=(
        FaultEvent("queue_dup", start=0.0, duration=1.0, count=1),))
    cluster = Cluster(greina(1, faults=cfg))
    with pytest.raises(DCudaFaultError, match=r"deadlock: .*kernel:r0"):
        launch(cluster, _hanging_kernel, ranks_per_device=1)
    assert cluster.faults.total_injections() == 1


# ---------------------------------------------------------------- report ----
def test_fault_report_renders_injections_and_errors():
    cfg = FaultsConfig(enabled=True, seed=3)
    cluster = Cluster(greina(2, faults=cfg))
    _, _, res = run_dcuda_diffusion(cluster, WL, ranks_per_device=2)
    text = fault_report(cluster.faults, res.runtime)
    assert "Fault injections" in text
    assert "Error code table" in text
    assert "DCUDA_TIMEOUT" in text
    assert cluster.faults.total_injections() > 0


def test_fault_report_without_plane():
    assert "no fault plane" in fault_report(None)


def test_faults_counters_reach_obs_registry():
    from repro.obs import ObsConfig

    cfg = FaultsConfig(enabled=True, events=(
        FaultEvent("burst_loss", start=0.0, duration=1.0, count=2),))
    cluster = Cluster(greina(2, faults=cfg, obs=ObsConfig(enabled=True)))
    run_dcuda_diffusion(cluster, WL, ranks_per_device=2)
    snapshot = cluster.obs.registry.snapshot()
    assert snapshot.get("faults.burst_loss") == 2
