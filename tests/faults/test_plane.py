"""FaultPlane unit tests: gating, matching, windows, deterministic plans."""

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlane,
    FaultsConfig,
    force_faults,
)
from repro.faults.config import default_faults
from repro.faults.plane import _matches, _node_matches
from repro.sim import Environment


def make_plane(*events, seed=None, num_nodes=2, **cfg_kw):
    env = Environment()
    cfg = FaultsConfig(enabled=True, events=tuple(events), seed=seed,
                       **cfg_kw)
    return env, FaultPlane(env, cfg, num_nodes)


# --------------------------------------------------------------- gating -----
def test_build_returns_none_when_off():
    env = Environment()
    assert FaultPlane.build(env, None, 2) is None
    assert FaultPlane.build(env, FaultsConfig(enabled=False), 2) is None


def test_build_returns_plane_when_enabled():
    env = Environment()
    plane = FaultPlane.build(env, FaultsConfig(enabled=True), 2)
    assert plane is not None
    assert plane.schedule == ()
    assert plane.total_injections() == 0


def test_default_faults_is_none_and_force_restores():
    assert default_faults() is None
    cfg = FaultsConfig(enabled=True, seed=9)
    with force_faults(cfg):
        assert default_faults() is cfg
    assert default_faults() is None


# ------------------------------------------------------------- matching -----
def test_target_matching_semantics():
    assert _matches(None, "anything")
    assert _matches("cmd:r2", "cmd:r2")
    assert _matches("node0", "node0.gpu.memlink")     # substring
    assert not _matches("cmd:r2", "cmd:r12")
    assert _matches(3, "ntf:r3")                       # int -> rank queues
    assert not _matches(3, "ntf:r13")
    assert _matches(1, "node1.gpu.b2")                 # int -> node parts
    assert not _matches(0, "node1.gpu.b2")


def test_node_matching_semantics():
    assert _node_matches(None, 0, 1)
    assert _node_matches(1, 0, 1) and _node_matches(0, 0, 1)
    assert not _node_matches(2, 0, 1)
    assert _node_matches("node1", 0, 1)
    assert _node_matches("0->1", 0, 1)
    assert not _node_matches("1->0", 0, 1)


# --------------------------------------------------------------- windows ----
def test_degrade_window_only_active_inside():
    env, plane = make_plane(
        FaultEvent("link_degrade", start=1.0, duration=1.0, target="fabric",
                   factor=3.0))
    assert plane.slowdown("link_degrade", "fabric.nic0", 0.5) == 1.0
    assert plane.slowdown("link_degrade", "fabric.nic0", 1.5) == 3.0
    assert plane.slowdown("link_degrade", "fabric.nic0", 2.5) == 1.0
    # No match:
    assert plane.slowdown("link_degrade", "node0.gpu.memlink", 1.5) == 1.0
    assert plane.injections == {("link_degrade", "fabric.nic0"): 1}


def test_overlapping_degrade_windows_multiply():
    env, plane = make_plane(
        FaultEvent("link_degrade", start=0.0, duration=2.0, factor=2.0),
        FaultEvent("link_degrade", start=1.0, duration=2.0, factor=3.0))
    assert plane.slowdown("link_degrade", "any", 1.5) == 6.0


def test_block_stall_factor():
    env, plane = make_plane(
        FaultEvent("block_stall", start=0.0, duration=1.0,
                   target="node0.gpu.b1", factor=4.0))
    assert plane.slowdown("block_stall", "node0.gpu.b1", 0.5) == 4.0
    assert plane.slowdown("block_stall", "node0.gpu.b0", 0.5) == 1.0


def test_partition_hold_returns_time_to_heal():
    env, plane = make_plane(
        FaultEvent("partition", start=1.0, duration=3.0, target=0))
    assert plane.partition_hold(0, 1, (), 0.5) == 0.0
    assert plane.partition_hold(0, 1, (), 2.0) == 2.0   # heals at t=4
    assert plane.partition_hold(1, 2, (), 2.0) == 0.0   # node 0 not involved


def test_partition_hold_on_a_named_link():
    """A window naming a topology link holds every route that crosses
    it; the flat wire's empty route sees only node-pair targets."""
    env, plane = make_plane(
        FaultEvent("partition", start=0.0, duration=2.0, target="leaf0-spine"))
    assert plane.partition_hold(0, 3, ("n0-leaf0", "leaf0-spine0"), 0.5) == 1.5
    assert plane.partition_hold(0, 1, ("n0-leaf0", "leaf0-n1"), 0.5) == 0.0
    assert plane.partition_hold(0, 3, (), 0.5) == 0.0
    assert plane.injections == {("partition", "0->3"): 1}


def test_a_kind_reads_only_its_own_windows():
    env, plane = make_plane(
        FaultEvent("link_degrade", start=0.0, duration=1.0, factor=2.0),
        FaultEvent("queue_dup", start=0.0, duration=1.0, count=1))
    assert plane.slowdown("block_stall", "node0.gpu.b0", 0.5) == 1.0
    assert not plane.queue_hit("queue_drop", "cmd:r0", 0.5)
    assert plane.queue_hit("queue_dup", "cmd:r0", 0.5)
    assert plane.injections == {("queue_dup", "cmd:r0"): 1}


def test_credit_starved_window():
    env, plane = make_plane(
        FaultEvent("credit_starve", start=0.0, duration=1.0, target="cmd:r0"))
    assert plane.credit_starved("cmd:r0", 0.5)
    assert not plane.credit_starved("cmd:r1", 0.5)
    assert not plane.credit_starved("cmd:r0", 1.5)


# ---------------------------------------------------- consuming queries -----
def test_queue_drop_consumes_count():
    env, plane = make_plane(
        FaultEvent("queue_drop", start=0.0, duration=10.0, target="cmd:r0",
                   count=2))
    assert plane.queue_hit("queue_drop", "cmd:r0", 1.0)
    assert plane.queue_hit("queue_drop", "cmd:r0", 2.0)
    assert not plane.queue_hit("queue_drop", "cmd:r0", 3.0)  # budget spent
    assert plane.injections[("queue_drop", "cmd:r0")] == 2


def test_discrete_fault_stays_armed_past_window_end():
    # A zero-duration drop must still hit the *next* matching operation.
    env, plane = make_plane(
        FaultEvent("queue_drop", start=1.0, duration=0.0, target="ntf:r1"))
    assert not plane.queue_hit("queue_drop", "ntf:r1", 0.5)  # before start
    assert plane.queue_hit("queue_drop", "ntf:r1", 5.0)  # armed until spent
    assert not plane.queue_hit("queue_drop", "ntf:r1", 6.0)


def test_loss_retries_consume_count():
    env, plane = make_plane(
        FaultEvent("burst_loss", start=0.0, duration=1.0, count=3))
    assert plane.loss_retries(0, 1, 0.5) == 1
    assert plane.loss_retries(0, 1, 0.5) == 1
    assert plane.loss_retries(0, 1, 0.5) == 1
    assert plane.loss_retries(0, 1, 0.5) == 0


# ------------------------------------------------------------ random plan ---
def test_random_plan_deterministic_per_seed():
    _, a = make_plane(seed=42)
    _, b = make_plane(seed=42)
    _, c = make_plane(seed=43)
    assert a.schedule == b.schedule
    assert a.schedule != c.schedule
    assert len(a.schedule) == FaultsConfig().plan_size


def test_random_plan_respects_plan_size_and_horizon():
    _, plane = make_plane(seed=7, plan_size=25, horizon=1e-3)
    assert len(plane.schedule) == 25
    for ev in plane.schedule:
        assert 0.0 <= ev.start <= 1e-3
        assert ev.kind in FAULT_KINDS


def test_enabled_without_seed_or_events_is_inert():
    _, plane = make_plane()
    assert plane.schedule == ()


def test_explicit_events_and_seed_combine():
    ev = FaultEvent("queue_dup", target="ack:r0")
    _, plane = make_plane(ev, seed=1)
    assert plane.schedule[0] == ev
    assert len(plane.schedule) == 1 + FaultsConfig().plan_size


# ------------------------------------------------------------- recording ----
def test_note_records_log_and_counters():
    env, plane = make_plane(
        FaultEvent("queue_dup", start=0.0, duration=1.0, count=5))
    plane.queue_hit("queue_dup", "ack:r0", 0.1)
    plane.queue_hit("queue_dup", "ack:r0", 0.2)
    assert plane.total_injections() == 2
    assert plane.injections[("queue_dup", "ack:r0")] == 2
    assert [(k, s) for _, k, s in plane.log] == [("queue_dup", "ack:r0")] * 2
