"""Unit tests for DRank surface details not covered by the end-to-end
tests: flush variants, unnotified ops, identity helpers, window handles,
and the notification matcher's edge cases."""

import numpy as np
import pytest

from repro.dcuda import (
    DCUDA_COMM_DEVICE,
    DCUDA_COMM_WORLD,
    DRank,
    Window,
    launch,
    same_memory,
)
from repro.hw import Cluster, greina


# ------------------------------------------------------------- same_memory --
def test_same_memory_identical_views():
    a = np.arange(10.0)
    assert same_memory(a[2:6], a[2:6])
    assert not same_memory(a[2:6], a[3:7])
    assert not same_memory(a[2:6], a[2:7])


def test_same_memory_different_arrays():
    a = np.arange(4.0)
    b = np.arange(4.0)
    assert not same_memory(a, b)


def test_same_memory_dtype_mismatch():
    a = np.zeros(8, dtype=np.float64)
    b = a.view(np.float32)[:8]
    assert not same_memory(a, b)


# ------------------------------------------------------------------ window --
def test_window_properties():
    buf = np.zeros(16)
    win = Window(local_id=3, global_id=("world", 1), comm_name="world",
                 owner_rank=2, buffer=buf, participants=(0, 1, 2))
    assert win.size == 16
    assert win.dtype == np.float64
    assert "world" in repr(win)
    win.check_target(1, 0, 16)
    with pytest.raises(ValueError, match="not a participant"):
        win.check_target(9, 0, 1)
    with pytest.raises(ValueError, match="negative"):
        win.check_target(1, -2, 1)


# -------------------------------------------------------------- identities --
def test_comm_participants():
    seen = {}

    def kernel(rank):
        seen[rank.world_rank] = (
            rank.comm_participants(DCUDA_COMM_WORLD),
            rank.comm_participants(DCUDA_COMM_DEVICE))
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=2)
    assert seen[0] == ((0, 1, 2, 3), (0, 1))
    assert seen[3] == ((0, 1, 2, 3), (2, 3))


def test_unknown_comm_rejected():
    def kernel(rank):
        rank.comm_rank("nebula")
        yield from rank.finish()

    with pytest.raises(ValueError, match="unknown communicator"):
        launch(Cluster(greina(1)), kernel, ranks_per_device=1)


def test_now_property_advances():
    samples = []

    def kernel(rank):
        samples.append(rank.now)
        yield rank.env.timeout(1e-5)
        samples.append(rank.now)
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=1)
    assert samples[1] - samples[0] == pytest.approx(1e-5)


# ------------------------------------------------------------------- flush --
def test_flush_all_vs_window_flush():
    """flush(None) waits for ALL outstanding ops; flush(win) only for that
    window's ops."""
    buffers = {r: np.zeros(8) for r in range(2)}
    times = {}

    def kernel(rank):
        r = rank.world_rank
        win_a = yield from rank.win_create(buffers[r])
        win_b = yield from rank.win_create(np.zeros(8))
        yield from rank.barrier()
        if r == 0:
            yield from rank.put(win_a, 1, 0, np.ones(4))
            t0 = rank.now
            yield from rank.flush(win_a)
            times["win_a"] = rank.now - t0
            t0 = rank.now
            yield from rank.flush()       # nothing new outstanding
            times["all_after"] = rank.now - t0
            t0 = rank.now
            yield from rank.flush(win_b)  # win_b never used: instant
            times["win_b"] = rank.now - t0
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)
    assert times["win_a"] > 0
    assert times["all_after"] == 0.0
    assert times["win_b"] == 0.0


def test_flush_orders_multiple_puts():
    """After flush, every previously issued put is visible at the target."""
    buffers = {r: np.zeros(32) for r in range(2)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            for i in range(16):
                yield from rank.put(win, 1, i, np.full(1, float(i + 1)))
            yield from rank.flush(win)
            yield from rank.put_notify(win, 1, 31, np.full(1, -1.0), tag=9)
        else:
            yield from rank.wait_notifications(win, tag=9, count=1)
            # All 16 earlier puts were flushed before the notified one...
            # ordering guarantee: flush -> all visible.
            np.testing.assert_array_equal(
                buffers[1][:16], np.arange(1.0, 17.0))
        yield from rank.finish()

    launch(Cluster(greina(2)), kernel, ranks_per_device=1)


# -------------------------------------------------------------- notifications --
def test_wait_count_zero_is_noop():
    def kernel(rank):
        win = yield from rank.win_create(np.zeros(4))
        t0 = rank.now
        yield from rank.wait_notifications(win, count=0)
        assert rank.now == t0
        n = yield from rank.test_notifications(win, count=0)
        assert n == 0
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=1)


def test_negative_count_rejected():
    def kernel(rank):
        win = yield from rank.win_create(np.zeros(4))
        yield from rank.wait_notifications(win, count=-1)
        yield from rank.finish()

    with pytest.raises(ValueError, match="negative"):
        launch(Cluster(greina(1)), kernel, ranks_per_device=1)


def test_pending_count_reflects_arrivals():
    """Landed notifications stay pending until matched: one non-blocking
    test consumes all three, and none is left for a second."""
    counts = {}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(np.zeros(8))
        yield from rank.barrier()
        if r == 0:
            for i in range(3):
                yield from rank.put_notify(win, 1, i, np.ones(1), tag=i)
            yield from rank.flush(win)
        yield from rank.barrier()
        if r == 1:
            yield rank.env.timeout(5e-5)  # let notifications land
            counts["pending"] = yield from rank.test_notifications(win,
                                                                   count=4)
            counts["after"] = yield from rank.test_notifications(win,
                                                                 count=4)
            counts["matched"] = rank.matcher.matched_total
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=2)
    assert counts["pending"] == 3
    assert counts["after"] == 0
    assert counts["matched"] == 3


def test_compute_without_fn():
    def kernel(rank):
        val = yield from rank.compute(flops=1e3)
        assert val is None
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=1)


def test_puts_between_many_ranks_same_device():
    """All-pairs shared-memory puts on one device."""
    n = 6
    buffers = {r: np.zeros(n) for r in range(n)}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        for t in range(n):
            if t != r:
                yield from rank.put_notify(win, t, r,
                                           np.full(1, float(r)), tag=r)
        yield from rank.wait_notifications(win, count=n - 1)
        yield from rank.finish()

    launch(Cluster(greina(1)), kernel, ranks_per_device=n)
    for r in range(n):
        expected = np.arange(float(n))
        expected[r] = 0.0
        np.testing.assert_array_equal(buffers[r], expected)
