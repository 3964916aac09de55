"""Unit tests for the ping-pong and overlap microbenchmark drivers
(small configurations — the full figures run under benchmarks/)."""

import pytest

from repro.bench import (
    OverlapPoint,
    PingPongResult,
    run_overlap,
    run_pingpong,
)


def test_pingpong_latency_positive_and_reasonable():
    res = run_pingpong(shared=True, packet_bytes=0, iterations=20)
    assert isinstance(res, PingPongResult)
    assert 1e-6 < res.latency < 1e-4
    assert res.bandwidth == 0.0  # empty packets carry no payload


def test_pingpong_distributed_slower_than_shared():
    shared = run_pingpong(True, 0, iterations=20)
    distributed = run_pingpong(False, 0, iterations=20)
    assert distributed.latency > shared.latency


def test_pingpong_bandwidth_grows_with_packet():
    small = run_pingpong(True, 1024, iterations=10)
    large = run_pingpong(True, 64 * 1024, iterations=10)
    assert large.bandwidth > small.bandwidth


def test_pingpong_sweep_shapes():
    sweep = [run_pingpong(True, size, iterations=5)
             for size in (16, 256, 4096)]
    assert [p.packet_bytes for p in sweep] == [16, 256, 4096]
    bws = [p.bandwidth for p in sweep]
    assert bws == sorted(bws)


def test_pingpong_rejects_negative_packet():
    with pytest.raises(ValueError):
        run_pingpong(True, -1)


def test_overlap_switches():
    ex = run_overlap("copy", 0, do_compute=False, do_exchange=True,
                     steps=5, num_nodes=2, ranks_per_device=4)
    comp = run_overlap("copy", 32, do_compute=True, do_exchange=False,
                       steps=5, num_nodes=2, ranks_per_device=4)
    both = run_overlap("copy", 32, do_compute=True, do_exchange=True,
                       steps=5, num_nodes=2, ranks_per_device=4)
    assert isinstance(both, OverlapPoint)
    # Sandwich bound: max <= both <= sum (tolerances for sync effects).
    assert both.elapsed >= max(comp.elapsed, ex.elapsed) * 0.99
    assert both.elapsed <= (comp.elapsed + ex.elapsed) * 1.05


def test_overlap_nothing_enabled_is_fast():
    neither = run_overlap("copy", 0, do_compute=False, do_exchange=False,
                          steps=5, num_nodes=2, ranks_per_device=2)
    assert neither.elapsed < 1e-5


def test_overlap_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown overlap mode"):
        run_overlap("quantum", 1, steps=2, num_nodes=1, ranks_per_device=2)


def test_overlap_more_compute_takes_longer():
    a = run_overlap("newton", 8, True, False, steps=5, num_nodes=1,
                    ranks_per_device=4)
    b = run_overlap("newton", 64, True, False, steps=5, num_nodes=1,
                    ranks_per_device=4)
    assert b.elapsed > a.elapsed
