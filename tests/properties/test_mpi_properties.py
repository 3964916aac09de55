"""Property-based tests for the MPI substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import Cluster, greina
from repro.mpi import MPIWorld, allgather, allreduce, barrier, bcast, reduce


@given(st.lists(st.integers(0, 3), min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_non_overtaking_any_message_sizes(size_classes):
    """Whatever the mix of message sizes, same-pair same-tag messages
    arrive in send order."""
    cluster = Cluster(greina(2))
    world = MPIWorld(cluster)
    sizes = [10 ** c for c in size_classes]  # 1 B .. 1 kB
    got = []

    def sender(env):
        for i, nbytes in enumerate(sizes):
            world.isend(0, 1, i, tag=0, nbytes=float(nbytes))
        yield env.timeout(0.0)

    def receiver(env):
        for _ in sizes:
            msg = yield from world.recv(1, source=0, tag=0)
            got.append(msg.payload)

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert got == list(range(len(sizes)))


@given(p=st.integers(1, 9), root=st.integers(0, 8),
       seed=st.integers(0, 999))
@example(p=6, root=0, seed=216)  # the sum cancels to ~4e-5
@settings(max_examples=30, deadline=None)
def test_bcast_reduce_compose_to_identity_scaling(p, root, seed):
    """allreduce(sum) of contributions equals p * mean regardless of
    group size, root choice, or payload.

    The allreduce and numpy may add the p contributions in different
    orders.  Each p-term sum is off by at most (p-1)·u·Σ|x_i| (u = eps/2,
    to first order), so two of them differ by at most (p-1)·eps·Σ|x_i|
    per element.  A bound relative to the result fails wherever the sum
    cancels to near zero; this one holds for any payload, and still
    rejects a result that misses one rank's contribution.
    """
    root = root % p
    rng = np.random.default_rng(seed)
    payloads = rng.standard_normal((p, 4))
    cluster = Cluster(greina(p))
    world = MPIWorld(cluster)
    results = {}

    def proc(rank):
        out = yield from allreduce(world, rank, payloads[rank].copy(),
                                   op=np.add)
        results[rank] = out

    for r in range(p):
        cluster.env.process(proc(r))
    cluster.run()
    expected = payloads.sum(axis=0)
    atol = (p - 1) * np.finfo(float).eps * np.abs(payloads).sum(axis=0)

    def within_bound(actual):
        return bool(np.all(np.abs(actual - expected) <= atol))

    for r in range(p):
        assert within_bound(results[r]), (results[r], expected, atol)
    # Mutation check: a sum missing any one rank fails the bound.
    for r in range(p if p > 1 else 0):
        assert not within_bound(expected - payloads[r])


@given(p=st.integers(2, 8), seed=st.integers(0, 999))
@settings(max_examples=20, deadline=None)
def test_allgather_is_permutation_invariant_of_arrival(p, seed):
    """Allgather returns contributions indexed by rank regardless of the
    (randomized) times at which ranks enter the collective."""
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0, 1e-4, p)
    cluster = Cluster(greina(p))
    world = MPIWorld(cluster)
    results = {}

    def proc(rank):
        yield cluster.env.timeout(float(delays[rank]))
        out = yield from allgather(world, rank, rank * 11, nbytes=8)
        results[rank] = out

    for r in range(p):
        cluster.env.process(proc(r))
    cluster.run()
    for r in range(p):
        assert results[r] == [x * 11 for x in range(p)]


@given(p=st.integers(2, 8), rounds=st.integers(1, 4),
       seed=st.integers(0, 999))
@settings(max_examples=20, deadline=None)
def test_repeated_barriers_never_let_ranks_lap_each_other(p, rounds, seed):
    """After barrier k, no rank may still be before barrier k-1: the
    phase counter across ranks never differs by more than one round."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(greina(p))
    world = MPIWorld(cluster)
    phase = [0] * p
    violations = []

    def proc(rank):
        for k in range(rounds):
            yield cluster.env.timeout(float(rng.uniform(0, 5e-5)))
            yield from barrier(world, rank)
            phase[rank] = k + 1
            spread = max(phase) - min(phase)
            if spread > 1:
                violations.append((rank, k, list(phase)))

    for r in range(p):
        cluster.env.process(proc(r))
    cluster.run()
    assert not violations
    assert phase == [rounds] * p
