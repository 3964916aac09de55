"""Hardened CircularQueue under injected faults: drop/dup/starve/timeout."""

import pytest

from repro.errors import DCudaFaultError, DCudaTimeoutError
from repro.faults import FaultEvent, FaultPlane, FaultsConfig
from repro.hw import PCIeConfig, PCIeLink
from repro.runtime import CircularQueue
from repro.sim import Environment


def make_queue(*events, size=4, name="cmd:r0", **cfg_kw):
    env = Environment()
    cfg = FaultsConfig(enabled=True, events=tuple(events), **cfg_kw)
    plane = FaultPlane(env, cfg, num_nodes=1)
    link = PCIeLink(env, PCIeConfig())
    queue = CircularQueue(env, size, link, name=name, faults=plane)
    return env, plane, queue


def pump(env, queue, n, got):
    def producer(env):
        for i in range(n):
            yield from queue.enqueue(i)

    def consumer(env):
        for _ in range(n):
            item = yield from queue.dequeue()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))


# ------------------------------------------------------------ drop path -----
def test_dropped_writes_are_redelivered_in_order():
    env, plane, q = make_queue(
        FaultEvent("queue_drop", start=0.0, duration=1.0, target="cmd:r0",
                   count=2))
    got = []
    pump(env, q, 8, got)
    env.run()
    assert got == list(range(8))
    assert q.stats.dropped_writes == 2
    assert q.stats.recovered >= 1
    assert plane.injections[("queue_drop", "cmd:r0")] == 2


def test_drop_budget_exhaustion_raises_fault_error():
    env, _, q = make_queue(
        FaultEvent("queue_drop", start=0.0, duration=1.0, target="cmd:r0",
                   count=500),
        max_retries=2)
    got = []
    pump(env, q, 2, got)
    with pytest.raises(DCudaFaultError, match="redelivery budget"):
        env.run()


def test_fault_error_carries_sim_time():
    env, _, q = make_queue(
        FaultEvent("queue_drop", start=0.0, duration=1.0, target="cmd:r0",
                   count=500),
        max_retries=1)
    pump(env, q, 1, [])
    with pytest.raises(DCudaFaultError) as info:
        env.run()
    assert info.value.sim_time is not None
    assert info.value.code == "DCUDA_FAULT"


# ------------------------------------------------------- duplicate path -----
def test_duplicates_are_discarded_by_sequence_check():
    env, plane, q = make_queue(
        FaultEvent("queue_dup", start=0.0, duration=1.0, target="cmd:r0",
                   count=3))
    got = []
    pump(env, q, 8, got)
    env.run()
    assert got == list(range(8))  # no double delivery
    assert q.stats.duplicates_dropped == 3
    assert plane.injections[("queue_dup", "cmd:r0")] == 3


# ------------------------------------------------------ credit starvation ---
def test_starvation_window_recovers_with_backoff():
    # Queue of 2: the third enqueue needs a credit reload, which starves
    # until t=3e-6; exponential backoff retries until the window closes.
    env, plane, q = make_queue(
        FaultEvent("credit_starve", start=0.0, duration=3e-6,
                   target="cmd:r0"),
        size=2)
    got = []
    pump(env, q, 6, got)
    env.run()
    assert got == list(range(6))
    assert q.stats.starved_reloads >= 1
    assert q.stats.retries >= 1


def test_permanent_starvation_raises_timeout_error():
    env, _, q = make_queue(
        FaultEvent("credit_starve", start=0.0, duration=10.0,
                   target="cmd:r0"),
        size=2, max_retries=3)
    got = []
    pump(env, q, 6, got)
    with pytest.raises(DCudaTimeoutError, match="handshake"):
        env.run()


# --------------------------------------------------------- dequeue_timeout --
def test_dequeue_timeout_returns_entry_when_available():
    env, _, q = make_queue()
    out = {}

    def producer(env):
        yield from q.enqueue("payload")

    def consumer(env):
        out["item"] = yield from q.dequeue_timeout(1.0, rank=0)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out["item"] == "payload"


def test_dequeue_timeout_raises_with_rank_context():
    env, _, q = make_queue()

    def consumer(env):
        yield from q.dequeue_timeout(1e-5, rank=3, what="cmd ack")

    env.process(consumer(env))
    with pytest.raises(DCudaTimeoutError) as info:
        env.run()
    assert info.value.rank == 3
    assert info.value.sim_time == pytest.approx(1e-5)
    assert "cmd ack" in str(info.value)


@pytest.mark.parametrize("consumer_first", [True, False])
def test_entry_landing_at_the_deadline_is_delivered(consumer_first):
    """An entry committed at exactly the ``dequeue_timeout`` instant goes
    to that call, for either process start order: not lost, not raised."""
    env = Environment()
    plane = FaultPlane(env, FaultsConfig(enabled=True), num_nodes=1)
    q = CircularQueue(env, 4, None, name="ack:r0", faults=plane)
    got = []

    def consumer(env):
        got.append((yield from q.dequeue_timeout(1.0, rank=0)))
        got.append(env.now)

    def producer(env):
        yield 1.0
        yield from q.enqueue("x")

    procs = [consumer, producer] if consumer_first else [producer, consumer]
    for proc in procs:
        env.process(proc(env))
    env.run()
    assert got == ["x", 1.0]
    assert q.stats.dequeues == 1 and q.occupancy == 0


def test_untargeted_queue_is_untouched():
    """Faults aimed at another queue leave this one on the clean path."""
    env, plane, q = make_queue(
        FaultEvent("queue_drop", start=0.0, duration=1.0, target="ntf:r9",
                   count=5))
    got = []
    pump(env, q, 8, got)
    env.run()
    assert got == list(range(8))
    assert q.stats.dropped_writes == 0
    assert plane.total_injections() == 0
