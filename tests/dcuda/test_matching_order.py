"""End-to-end tests for matching order and queue compaction (§III-C):
matching happens in order of arrival, matched entries are removed, and
mismatched entries survive in place."""

import numpy as np
import pytest

from repro.dcuda import launch
from repro.hw import Cluster, greina


def run_pattern(send_tags, wait_plan, rpd=2):
    """Rank 0 sends notifications with *send_tags* (in order, flushed so
    arrival order == send order); rank 1 executes *wait_plan* = list of
    (tag, count) waits and records the consumption order via the
    matcher's pending snapshots."""
    buffers = {r: np.zeros(8) for r in range(rpd)}
    observed = {"pending_after": []}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            for i, tag in enumerate(send_tags):
                yield from rank.put_notify(win, 1, i % 8, np.ones(1),
                                           tag=tag)
                # Serialize arrivals deterministically.
                yield from rank.flush(win)
        elif r == 1:
            # Let everything arrive first.
            yield rank.env.timeout(2e-3)
            for tag, count in wait_plan:
                yield from rank.wait_notifications(win, tag=tag,
                                                   count=count)
                observed["pending_after"].append(
                    [n.tag for n in rank.matcher._pending])
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=rpd)
    return observed


def test_out_of_order_consumption_preserves_remainder_order():
    obs = run_pattern(send_tags=[1, 2, 1, 3],
                      wait_plan=[(2, 1), (-1, 3)])
    # After consuming tag 2, the remainder keeps arrival order: 1, 1, 3.
    assert obs["pending_after"][0] == [1, 1, 3]
    # The wildcard wait then drains everything.
    assert obs["pending_after"][1] == []


def test_matching_consumes_oldest_first():
    obs = run_pattern(send_tags=[5, 5, 5, 7],
                      wait_plan=[(5, 2), (-1, 2)])
    # Two tag-5 matches consume the two oldest; one tag-5 remains before 7.
    assert obs["pending_after"][0] == [5, 7]


def test_interleaved_tags_with_partial_waits():
    obs = run_pattern(send_tags=[9, 8, 9, 8, 9],
                      wait_plan=[(8, 1), (9, 2), (-1, 2)])
    assert obs["pending_after"][0] == [9, 9, 8, 9]
    assert obs["pending_after"][1] == [8, 9]
    assert obs["pending_after"][2] == []


def test_second_waiter_falls_back_to_the_arrival_signal():
    """Two concurrent waits on one rank: the first parks on the
    notification queue, the second finds it parked and sleeps on the
    arrival signal instead.  Both complete, and both rescan at the
    notification's commit time plus ``poll_interval``."""
    cluster = Cluster(greina(1, tracing=True))
    poll = cluster.cfg.devicelib.poll_interval
    out = {"commits": []}

    def kernel(rank):
        win = yield from rank.win_create(np.zeros(4))
        env = rank.env
        if rank.world_rank == 0:
            queue = rank.state.notif_queue

            def helper():
                yield from rank.wait_notifications(win, tag=1)
                out["tag1"] = env.now

            def probe():
                yield 10e-6 - env.now
                # One waiter parked, the other on the arrival signal.
                out["state"] = (queue.parked, queue.arrived.waiting)
                for _ in range(2):
                    yield queue.arrived.wait()
                    out["commits"].append(env.now)

            done = env.process(helper())
            env.process(probe())
            yield from rank.wait_notifications(win, tag=2)
            out["tag2"] = env.now
            yield done
        else:
            yield 20e-6 - env.now
            yield from rank.put_notify(win, 0, 0, np.ones(1), tag=1)
            yield 40e-6 - env.now
            yield from rank.put_notify(win, 0, 1, np.ones(1), tag=2)
        yield from rank.finish()

    launch(cluster, kernel, ranks_per_device=2)
    assert out["state"] == (True, 1)
    c1, c2 = out["commits"]
    assert c1 < out["tag1"] < c2 < out["tag2"]
    block = cluster.node(0).device.blocks[0].name
    rescans = [iv.start for iv in cluster.tracer.by_actor(block)
               if iv.kind == "match" and iv.start > 10e-6]
    # Tag 1: the parked waiter and the fallback waiter rescan on the
    # same tick; tag 2: the remaining waiter alone.
    assert rescans == [c1 + poll, c1 + poll, c2 + poll]
