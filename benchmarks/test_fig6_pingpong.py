"""Fig. 6 — put-bandwidth of shared and distributed memory ranks.

Paper results (§IV-B): for empty packets, a notified-put latency of 7.8 µs
(shared memory) and 9.4 µs (distributed memory); at large packets the
bandwidth saturates near 4457.6 MB/s for shared-memory ranks (a single
block cannot saturate the device-memory interface) and 2057.9 MB/s for
distributed-memory ranks (GPUDirect RDMA ceiling).
"""

import pytest

from repro.bench import Table
from repro.exec import RunSpec
from repro.exec.suites import build_suite

PAPER_LATENCY_SHARED = 7.8e-6
PAPER_LATENCY_DISTRIBUTED = 9.4e-6
PAPER_BW_SHARED = 4457.6e6
PAPER_BW_DISTRIBUTED = 2057.9e6


def figure_specs():
    """Both bandwidth curves (the fig6 suite's specs: 1 B .. 4 MB) plus
    the two zero-byte latency probes."""
    specs = build_suite("fig6", iterations=30).specs
    specs += [RunSpec("pingpong_point",
                      dict(shared_mem=shared_mem, packet_bytes=0,
                           iterations=100),
                      label=f"fig6:lat:{'shm' if shared_mem else 'dist'}")
              for shared_mem in (True, False)]
    return specs


def assemble(results):
    half = (len(results) - 2) // 2
    shared, distributed = results[:half], results[half:2 * half]
    lat_s, lat_d = results[2 * half].latency, results[2 * half + 1].latency
    table = Table("Fig. 6 - put bandwidth vs packet size",
                  ["packet [B]", "shared [MB/s]", "distributed [MB/s]",
                   "shared lat [us]", "distributed lat [us]"])
    for s, d in zip(shared, distributed):
        table.add_row(s.packet_bytes, s.bandwidth / 1e6, d.bandwidth / 1e6,
                      s.latency * 1e6, d.latency * 1e6)
    table.add_note("paper: 4457.6 MB/s shared / 2057.9 MB/s distributed "
                   "at 4 MB; 7.8 / 9.4 us zero-byte latency")
    return table, shared, distributed, lat_s, lat_d


def test_fig6_pingpong(benchmark, report, engine_sweep):
    results = benchmark.pedantic(lambda: engine_sweep(figure_specs()),
                                 rounds=1, iterations=1)
    table, shared, distributed, lat_s, lat_d = assemble(results)
    report("fig6_pingpong", table.render())
    benchmark.extra_info["rows"] = [list(map(float, r)) for r in table.rows]

    # Zero-byte latencies within 10% of the paper's measurements.
    assert lat_s == pytest.approx(PAPER_LATENCY_SHARED, rel=0.10)
    assert lat_d == pytest.approx(PAPER_LATENCY_DISTRIBUTED, rel=0.10)
    # Distributed latency exceeds shared (network adds to the control path).
    assert lat_d > lat_s

    bw_s = shared[-1].bandwidth
    bw_d = distributed[-1].bandwidth
    # Large-packet bandwidth ceilings within 15%.
    assert bw_s == pytest.approx(PAPER_BW_SHARED, rel=0.15)
    assert bw_d == pytest.approx(PAPER_BW_DISTRIBUTED, rel=0.15)
    # Crossover: shared overtakes distributed at large packets (the single
    # block outpaces GPUDirect), while tiny packets are latency-bound for
    # both.
    assert bw_s > bw_d
    # Bandwidth grows monotonically until saturation for both curves.
    for curve in (shared, distributed):
        bws = [p.bandwidth for p in curve]
        assert bws[-1] > 100 * bws[0]
