"""Unit tests for the circular device↔host queues (§III-C)."""

import pytest

from repro.errors import DCudaTimeoutError
from repro.hw import PCIeConfig, PCIeLink
from repro.runtime import CircularQueue
from repro.sim import Environment


def make_queue(size=4, with_link=True, **pcie_kw):
    env = Environment()
    link = PCIeLink(env, PCIeConfig(**pcie_kw)) if with_link else None
    return env, link, CircularQueue(env, size, link)


def test_fifo_order():
    env, _, q = make_queue()
    got = []

    def producer(env):
        for i in range(8):
            yield from q.enqueue(i)

    def consumer(env):
        for _ in range(8):
            item = yield from q.dequeue()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(8))


def test_enqueue_costs_one_posted_write():
    env, link, q = make_queue(size=16)

    def producer(env):
        for i in range(5):
            yield from q.enqueue(i)

    env.process(producer(env))
    env.run()
    assert link.mapped_writes == 5
    assert link.mapped_reads == 0  # credits never ran out


def test_visibility_delay_before_dequeue():
    env, link, q = make_queue(size=4, mapped_post_occupancy=1.0,
                              mapped_write_latency=10.0)
    out = {}

    def producer(env):
        yield from q.enqueue("x")
        out["produced_at"] = env.now

    def consumer(env):
        item = yield from q.dequeue()
        out["consumed_at"] = env.now

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    # Producer returns after the posted-write occupancy only...
    assert out["produced_at"] == pytest.approx(1.0)
    # ...but the entry is visible only after the write latency.
    assert out["consumed_at"] == pytest.approx(11.0)


def test_credit_exhaustion_triggers_tail_reload():
    env, link, q = make_queue(size=2)
    reloads = []

    def producer(env):
        for i in range(6):
            yield from q.enqueue(i)
        reloads.append(q.stats.credit_reloads)

    def consumer(env):
        for _ in range(6):
            yield from q.dequeue()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert reloads[0] >= 2
    assert link.mapped_reads == q.stats.credit_reloads


def test_producer_blocks_when_queue_full():
    env, _, q = make_queue(size=2)
    progress = []

    def producer(env):
        for i in range(4):
            yield from q.enqueue(i)
            progress.append((i, env.now))

    def consumer(env):
        yield env.timeout(100.0)
        for _ in range(4):
            yield from q.dequeue()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    # First two fit; the rest wait for the consumer at t=100.
    assert progress[1][1] < 1.0
    assert progress[2][1] >= 100.0
    assert q.stats.full_stalls >= 1


def test_arrived_signal_fires_per_commit():
    env, _, q = make_queue(size=8)
    arrivals = []

    def watcher(env):
        for _ in range(3):
            yield q.arrived.wait()
            arrivals.append(env.now)

    def producer(env):
        for i in range(3):
            yield from q.enqueue(i)
            yield env.timeout(5.0)

    env.process(watcher(env))
    env.process(producer(env))
    env.run()
    assert len(arrivals) == 3


def test_try_dequeue_nonblocking():
    env, _, q = make_queue(size=4)

    def producer(env):
        yield from q.enqueue("a")

    env.process(producer(env))
    env.run()
    assert q.try_dequeue() == "a"
    assert q.try_dequeue() is None


def test_occupancy_and_credits():
    env, _, q = make_queue(size=4)
    snap = {}

    def producer(env):
        yield from q.enqueue(1)
        yield from q.enqueue(2)
        snap["credits"] = q.credits

    env.process(producer(env))
    env.run()
    assert q.occupancy == 2
    assert snap["credits"] == 2


def test_no_link_queue_is_free_and_instant():
    env, _, q = make_queue(with_link=False)

    def producer(env):
        yield from q.enqueue("fast")
        return env.now

    p = env.process(producer(env))
    env.run()
    assert p.value == 0.0
    assert q.try_dequeue() == "fast"


def test_invalid_size_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        CircularQueue(env, 0)


def test_interleaved_producer_consumer_order_with_delay():
    """Posted-write visibility delays must not reorder entries."""
    env, _, q = make_queue(size=64, mapped_post_occupancy=0.01,
                           mapped_write_latency=5.0)
    got = []

    def producer(env):
        for i in range(20):
            yield from q.enqueue(i)
            if i % 3 == 0:
                yield env.timeout(0.5)

    def consumer(env):
        for _ in range(20):
            item = yield from q.dequeue()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(20))


@pytest.mark.parametrize("with_link", [True, False])
def test_enqueue_bulk_matches_sequential_enqueues(with_link):
    """enqueue_bulk is the sequential enqueue loop: same delivered entries
    at the same instants, same stats, same schedule length, even through
    credit exhaustion on a tiny queue."""
    def drive(bulk):
        env, link, q = make_queue(size=2, with_link=with_link,
                                  mapped_post_occupancy=0.5,
                                  mapped_write_latency=3.0,
                                  mapped_read=1.25)
        got = []

        def producer(env):
            items = range(7)
            if bulk:
                yield from q.enqueue_bulk(items)
            else:
                for i in items:
                    yield from q.enqueue(i)
            got.append(("done", env.now))

        def consumer(env):
            for _ in range(7):
                yield 2.0
                item = yield from q.dequeue()
                got.append((item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        stats = {k: getattr(q.stats, k) for k in q.stats.__slots__}
        links = (link.mapped_writes, link.mapped_reads) if link else None
        return got, stats, links, q.occupancy, env.now, env._seq

    assert drive(bulk=True) == drive(bulk=False)


def test_timed_out_dequeue_leaves_the_next_entry_to_a_later_dequeue():
    """A ``dequeue_timeout`` that times out withdraws its getter, so the
    next enqueue reaches a later ``dequeue()`` instead of vanishing into
    the waiter nobody reads."""
    env, _, q = make_queue(with_link=False)
    got = []

    def consumer(env):
        try:
            yield from q.dequeue_timeout(1.0, rank=0)
        except DCudaTimeoutError:
            got.append(("timed out", env.now))
        entry = yield from q.dequeue()
        got.append((entry, env.now))

    def producer(env):
        yield 2.0
        yield from q.enqueue("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("timed out", 1.0), ("x", 2.0)]
    assert q.stats.dequeues == 1 and q.occupancy == 0
