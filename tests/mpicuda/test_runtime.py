"""Unit tests for the MPI-CUDA baseline model."""

import numpy as np
import pytest

from repro.errors import DCudaUsageError
from repro.faults import FaultsConfig
from repro.hw import Cluster, greina
from repro.mpicuda import run_mpicuda
from repro.sim import Environment
from repro.hw.gpu import Device
from repro.hw.config import GPUConfig


def test_bulk_compute_time_scales_with_blocks():
    env = Environment()
    cfg = GPUConfig(num_sms=2, flops=200.0, mem_bandwidth=1e12,
                    mem_latency=0.0)
    dev = Device(env, cfg)

    def proc(env):
        # 4 blocks x 100 FLOP over 2 SMs at 100 FLOP/s per SM:
        # 2 blocks per SM -> 2 s.
        yield from dev.bulk_compute(4, flops_per_block=100.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(2.0)


def test_bulk_compute_memory_bound_uses_aggregate_bandwidth():
    env = Environment()
    cfg = GPUConfig(num_sms=4, flops=1e15, mem_bandwidth=100.0,
                    mem_latency=0.0, block_mem_bandwidth=1.0)
    dev = Device(env, cfg)

    def proc(env):
        # 8 blocks x 100 B = 800 B through 100 B/s aggregate -> 8 s;
        # the single-block floor must NOT apply to fork-join kernels.
        yield from dev.bulk_compute(8, mem_bytes_per_block=100.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(8.0, rel=1e-2)


def test_bulk_compute_validation():
    env = Environment()
    dev = Device(env, GPUConfig())

    def bad(env):
        yield from dev.bulk_compute(0)

    env.process(bad(env))
    with pytest.raises(ValueError):
        env.run()


def test_launch_charges_launch_latency():
    cluster = Cluster(greina(1))
    out = {}

    def program(ctx):
        t0 = ctx.now
        val = yield from ctx.launch(1, fn=lambda: "ran")
        out["dt"] = ctx.now - t0
        out["val"] = val

    run_mpicuda(cluster, program)
    assert out["val"] == "ran"
    assert out["dt"] >= cluster.cfg.gpu.launch_latency


def test_memcpy_uses_dma():
    cluster = Cluster(greina(1))

    def program(ctx):
        yield from ctx.memcpy(1 << 20)

    run_mpicuda(cluster, program)
    assert cluster.node(0).pcie.dma_copies == 1


def test_two_sided_exchange_between_nodes():
    cluster = Cluster(greina(2))
    received = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.arange(4, dtype=np.float64), tag=3)
        else:
            msg = yield from ctx.recv(source=0, tag=3)
            received["data"] = msg.payload

    run_mpicuda(cluster, program)
    np.testing.assert_array_equal(received["data"], np.arange(4))


def test_collectives_through_context():
    cluster = Cluster(greina(4))
    sums = {}

    def program(ctx):
        total = yield from ctx.allreduce(np.array([float(ctx.rank)]),
                                         op=np.add)
        yield from ctx.barrier()
        sums[ctx.rank] = float(total[0])

    run_mpicuda(cluster, program)
    assert all(v == 6.0 for v in sums.values())


def test_no_overlap_by_construction():
    """The defining property of the baseline: compute and exchange times
    add up (device idles during MPI)."""
    cfg = greina(2)
    compute_work = 1e8  # FLOP per block

    def timed(do_compute, do_exchange):
        cluster = Cluster(cfg)
        times = {}

        def program(ctx):
            peer = 1 - ctx.rank
            t0 = ctx.now
            for _ in range(5):
                if do_compute:
                    yield from ctx.launch(26, flops_per_block=compute_work)
                if do_exchange:
                    ctx.isend(peer, None, tag=1, nbytes=64 << 10)
                    yield from ctx.recv(source=peer, tag=1)
            times[ctx.rank] = ctx.now - t0

        run_mpicuda(cluster, program)
        return max(times.values())

    both = timed(True, True)
    comp = timed(True, False)
    exch = timed(False, True)
    # Sequential model: both ~= comp + exch (within 10%).
    assert both == pytest.approx(comp + exch, rel=0.10)


def test_result_contains_all_nodes():
    cluster = Cluster(greina(3))

    def program(ctx):
        yield from ctx.loop_overhead()
        return ctx.rank * 2

    res = run_mpicuda(cluster, program)
    assert res.results == [0, 2, 4]
    assert res.elapsed > 0


@pytest.mark.parametrize("faults", [None, FaultsConfig(enabled=True)],
                         ids=["no-plane", "inert-plane"])
def test_unmatched_recv_is_a_typed_deadlock(faults):
    """A receive nobody sends drains the schedule with node 0 waiting:
    the same typed diagnosis as a dCUDA launch, a usage error because
    nothing was injected."""
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.recv(source=1, tag=9)

    cluster = Cluster(greina(2, faults=faults))
    with pytest.raises(DCudaUsageError,
                       match=r"deadlock: .*mpicuda:n0") as info:
        run_mpicuda(cluster, program)
    assert info.value.sim_time is not None
