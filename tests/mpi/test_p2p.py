"""Unit tests for the two-sided MPI substrate."""

import numpy as np
import pytest

from repro.hw import Cluster, greina
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIWorld, wait_all_requests


def make_world(num_nodes=2, **overrides):
    cluster = Cluster(greina(num_nodes, **overrides))
    return cluster, MPIWorld(cluster)


def test_send_recv_roundtrip_data():
    cluster, world = make_world()
    data = np.arange(16, dtype=np.float64)
    out = {}

    def sender(env):
        yield from world.send(0, 1, data, tag=7)

    def receiver(env):
        msg = yield from world.recv(1, source=0, tag=7)
        out["payload"] = msg.payload
        out["src"] = msg.src
        out["tag"] = msg.tag

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    np.testing.assert_array_equal(out["payload"], data)
    assert out["src"] == 0 and out["tag"] == 7


def test_send_copies_payload_at_send_time():
    cluster, world = make_world()
    data = np.ones(4)
    out = {}

    def sender(env):
        req = world.isend(0, 1, data, tag=1)
        data[:] = -1.0  # mutate after isend; receiver must see ones
        yield from req.wait()

    def receiver(env):
        msg = yield from world.recv(1)
        out["payload"] = msg.payload

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    np.testing.assert_array_equal(out["payload"], np.ones(4))


def test_recv_matches_tag():
    cluster, world = make_world()
    order = []

    def sender(env):
        yield from world.send(0, 1, None, tag=5, nbytes=8)
        yield from world.send(0, 1, None, tag=9, nbytes=8)

    def receiver(env):
        msg = yield from world.recv(1, tag=9)
        order.append(msg.tag)
        msg = yield from world.recv(1, tag=5)
        order.append(msg.tag)

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert order == [9, 5]


def test_wildcard_source_and_tag():
    cluster, world = make_world(3)
    got = []

    def sender(env, src, tag):
        yield from world.send(src, 2, None, tag=tag, nbytes=8)

    def receiver(env):
        for _ in range(2):
            msg = yield from world.recv(2, source=ANY_SOURCE, tag=ANY_TAG)
            got.append((msg.src, msg.tag))

    cluster.env.process(sender(cluster.env, 0, 11))
    cluster.env.process(sender(cluster.env, 1, 22))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert sorted(got) == [(0, 11), (1, 22)]


def test_non_overtaking_same_pair_same_tag():
    """Messages between the same pair must arrive in send order, even when
    a later small message could physically beat an earlier big one."""
    cluster, world = make_world()
    got = []

    def sender(env):
        world.isend(0, 1, np.zeros(1 << 20), tag=3)     # 8 MB, slow
        world.isend(0, 1, None, tag=3, nbytes=8)        # tiny, fast
        yield env.timeout(0.0)

    def receiver(env):
        a = yield from world.recv(1, tag=3)
        b = yield from world.recv(1, tag=3)
        got.append(a.seq)
        got.append(b.seq)

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert got == [0, 1]


def test_irecv_posted_before_send():
    cluster, world = make_world()
    out = {}

    def receiver(env):
        req = world.irecv(1, source=0)
        assert not req.test()
        msg = yield from req.wait()
        out["t"] = env.now
        out["payload_none"] = msg.payload is None

    def sender(env):
        yield env.timeout(1e-3)
        yield from world.send(0, 1, None, nbytes=8)

    cluster.env.process(receiver(cluster.env))
    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert out["t"] > 1e-3
    assert out["payload_none"]


def test_wait_all_requests():
    cluster, world = make_world(3)
    out = {}

    def sender(env, src):
        yield from world.send(src, 2, None, tag=src, nbytes=8)

    def receiver(env):
        reqs = [world.irecv(2, source=s, tag=s) for s in (0, 1)]
        msgs = yield from wait_all_requests(env, reqs)
        out["tags"] = sorted(m.tag for m in msgs)

    cluster.env.process(sender(cluster.env, 0))
    cluster.env.process(sender(cluster.env, 1))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert out["tags"] == [0, 1]


def test_large_device_message_staged_through_host():
    """Device buffers above the staging threshold use the fast host path;
    below it they crawl over GPUDirect."""
    cluster, world = make_world(2)
    fab = cluster.cfg.fabric
    big = np.zeros(fab.staging_threshold, dtype=np.uint8)   # > threshold? equal
    times = {}

    def run_one(nbytes, key):
        def sender(env):
            yield from world.send(0, 1, None, nbytes=nbytes, device=True)

        def receiver(env):
            t0 = cluster.env.now
            yield from world.recv(1)
            times[key] = cluster.env.now - t0

        cluster.env.process(sender(cluster.env))
        cluster.env.process(receiver(cluster.env))
        cluster.run()

    nbytes = 4 << 20  # 4 MB
    run_one(nbytes, "staged")
    expect_staged = nbytes / fab.bandwidth
    expect_direct = nbytes / fab.d2d_bandwidth
    assert times["staged"] == pytest.approx(expect_staged, rel=0.2)
    assert times["staged"] < expect_direct / 2


def test_small_device_message_goes_direct():
    cluster, world = make_world(2)
    fab = cluster.cfg.fabric
    nbytes = 8 << 10  # 8 kB < 30 kB threshold
    times = {}

    def sender(env):
        yield from world.send(0, 1, None, nbytes=nbytes, device=True)

    def receiver(env):
        t0 = cluster.env.now
        yield from world.recv(1)
        times["dt"] = cluster.env.now - t0

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert times["dt"] > nbytes / fab.bandwidth  # slower than host path


def test_rank_validation():
    cluster, world = make_world(2)
    with pytest.raises(ValueError):
        world.isend(0, 5, None, nbytes=8)
    with pytest.raises(ValueError):
        world.irecv(7)
    with pytest.raises(TypeError):
        world.isend(0, 1, {"no": "size"})


def test_message_stats():
    cluster, world = make_world(2)

    def sender(env):
        yield from world.send(0, 1, np.zeros(10), tag=0)

    def receiver(env):
        yield from world.recv(1)

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert world.messages_sent == 1
    assert world.bytes_sent == 80.0
