"""Tests for the §V extensions: nonblocking collectives, 2-D puts,
notify-all shared-memory puts, and host ranks."""

import numpy as np
import pytest

from repro.dcuda import DCudaError, launch
from repro.dcuda.ext import (
    HostRank,
    get_2d,
    ibarrier,
    notify_host,
    put_notify_2d,
    put_notify_all,
    wait_collective,
)
from repro.hw import Cluster, greina


# ------------------------------------------------------- nonblocking barrier --
def test_ibarrier_synchronizes_eventually():
    enter = {}
    done = {}

    def kernel(rank):
        r = rank.world_rank
        yield rank.env.timeout(r * 1e-4)
        enter[r] = rank.now
        yield from ibarrier(rank, tag=5)
        yield from wait_collective(rank, tag=5)
        done[r] = rank.now
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=2)
    assert all(t >= max(enter.values()) for t in done.values())


def test_ibarrier_overlaps_computation():
    """Work issued between ibarrier and wait must run before the barrier
    completes for a late rank — the whole point of the extension."""
    progress = {}

    def kernel(rank):
        r = rank.world_rank
        if r == 1:
            yield rank.env.timeout(5e-4)  # late arrival
        yield from ibarrier(rank, tag=1)
        # Overlapped work between start and completion:
        yield from rank.compute(flops=1e4)
        progress[r] = rank.now
        yield from wait_collective(rank, tag=1)
        if r == 0:
            # rank 0's compute finished long before the late rank arrived
            assert progress[0] < 4e-4
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=2)


# ------------------------------------------------------------------- 2-D put --
def test_put_notify_2d_writes_rectangle():
    stride = 8
    buffers = {r: np.zeros(4 * stride) for r in range(2)}
    rect = np.arange(12, dtype=np.float64).reshape(3, 4)

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from put_notify_2d(rank, win, 1, target_offset=2,
                                     target_stride=stride, src=rect, tag=9)
        else:
            # A single notification for the whole rectangle.
            yield from rank.wait_notifications(win, source=0, tag=9,
                                               count=1)
            got = buffers[1].reshape(4, stride)[:3, 2:6]
            np.testing.assert_array_equal(got, rect)
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    np.testing.assert_array_equal(
        buffers[1].reshape(4, stride)[:3, 2:6], rect)


def test_get_2d_reads_rectangle():
    stride = 6
    target = np.arange(3 * stride, dtype=np.float64)
    buffers = {0: np.zeros(4), 1: target}
    out = np.zeros((3, 4))

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from get_2d(rank, win, 1, target_offset=1,
                              target_stride=stride, dst=out, tag=3)
            yield from rank.wait_notifications(win, source=1, tag=3,
                                               count=1)
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    expected = target.reshape(3, stride)[:, 1:5]
    np.testing.assert_array_equal(out, expected)


def test_put_2d_validation():
    buffers = {r: np.zeros(16) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from put_notify_2d(rank, win, 1, 0, target_stride=2,
                                     src=np.zeros((2, 4)))  # stride < cols
        yield from rank.finish()

    with pytest.raises(ValueError, match="stride"):
        launch(Cluster(greina(2)), kernel, ranks_per_device=1)


# ------------------------------------------------------------- notify-all --
def test_put_notify_all_single_transfer():
    shared = np.zeros(8)
    got = []

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(shared)  # overlapping windows
        if r == 0:
            yield from put_notify_all(rank, win, [1, 2, 3], 0,
                                      np.full(4, 7.0), tag=2)
        else:
            yield from rank.wait_notifications(win, source=0, tag=2,
                                               count=1)
            got.append((r, shared[0]))
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=4)
    assert sorted(r for r, _ in got) == [1, 2, 3]
    assert all(v == 7.0 for _, v in got)


def test_put_notify_all_rejects_cross_device_targets():
    buffers = {r: np.zeros(4) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        if r == 0:
            yield from put_notify_all(rank, win, [1], 0, np.ones(1))
        yield from rank.finish()

    with pytest.raises(DCudaError, match="shared-memory"):
        launch(Cluster(greina(2)), kernel, ranks_per_device=1)


# ------------------------------------------------------------- host ranks --
def test_host_rank_put_into_device_window():
    from repro.runtime import DCudaRuntime
    from repro.dcuda import DRank

    cluster = Cluster(greina(1))
    runtime = DCudaRuntime(cluster, ranks_per_device=1)
    runtime.start()
    host = HostRank(runtime, 0)
    buf = np.zeros(8)
    state = {}

    def kernel(rank):
        win = yield from rank.win_create(buf)
        state["win"] = win
        yield from rank.wait_notifications(win, source=host.rank_id,
                                           tag=4, count=1)
        assert buf[2] == 9.0
        yield from rank.finish()

    def host_proc(env):
        while "win" not in state:
            yield env.timeout(1e-6)
        yield from host.put_notify(state["win"], 0, 2,
                                   np.array([9.0, 9.5]), tag=4)

    drank = DRank(runtime, 0)
    cluster.env.process(kernel(drank))
    cluster.env.process(host_proc(cluster.env))
    cluster.run()
    np.testing.assert_array_equal(buf[2:4], [9.0, 9.5])


def test_host_rank_get_and_device_notify():
    from repro.runtime import DCudaRuntime
    from repro.dcuda import DRank

    cluster = Cluster(greina(1))
    runtime = DCudaRuntime(cluster, ranks_per_device=1)
    runtime.start()
    host = HostRank(runtime, 0)
    buf = np.arange(8, dtype=np.float64)
    state = {}
    fetched = {}

    def kernel(rank):
        win = yield from rank.win_create(buf)
        state["win"] = win
        yield from notify_host(rank, host, tag=7)  # data ready
        yield from rank.finish()

    def host_proc(env):
        yield from host.wait_notifications(source=0, tag=7, count=1)
        data = yield from host.get(state["win"], 0, 4, count=3)
        fetched["data"] = data

    drank = DRank(runtime, 0)
    cluster.env.process(kernel(drank))
    cluster.env.process(host_proc(cluster.env))
    cluster.run()
    np.testing.assert_array_equal(fetched["data"], [4.0, 5.0, 6.0])


def _host_rma(buf, host_op):
    """Run ``host_op(host, win)`` on node 0's host rank once rank 0 has
    registered *buf* as a window; returns what the operation returns."""
    from repro.runtime import DCudaRuntime
    from repro.dcuda import DRank

    cluster = Cluster(greina(1))
    runtime = DCudaRuntime(cluster, ranks_per_device=1)
    runtime.start()
    host = HostRank(runtime, 0)
    state = {}

    def kernel(rank):
        state["win"] = yield from rank.win_create(buf)
        yield from rank.finish()

    def host_proc(env):
        while "win" not in state:
            yield env.timeout(1e-6)
        return (yield from host_op(host, state["win"]))

    cluster.env.process(kernel(DRank(runtime, 0)))
    proc = cluster.env.process(host_proc(cluster.env))
    cluster.run()
    return proc.value


def test_host_rank_put_checks_the_window_dtype():
    """A host put obeys the window rule of device puts: a float64 source
    into an int64 window is a TypeError, never a silent truncation."""
    buf = np.zeros(8, dtype=np.int64)
    with pytest.raises(TypeError, match="dtype"):
        _host_rma(buf, lambda host, win: host.put_notify(
            win, 0, 2, np.array([9.75, 2.5]), tag=4))
    assert not buf.any()


def test_host_rank_get_checks_the_window_bounds():
    """A host get past the window's end is an IndexError, never a short
    read."""
    buf = np.arange(8, dtype=np.float64)
    with pytest.raises(IndexError, match="out of bounds"):
        _host_rma(buf, lambda host, win: host.get(win, 0, 6, count=4))
    assert _host_rma(buf, lambda host, win: host.get(
        win, 0, 6, count=2)).tolist() == [6.0, 7.0]
