"""The hardened ``DRank.flush``: a bounded wait on the flush counter.

Rank 0 puts to rank 1 on another node while a fabric partition holds the
put's completion back.  The target stays busy past the flush deadline, so
rank 0's flush is the first handshake to run out of time.
"""

import numpy as np
import pytest

from repro.dcuda import launch
from repro.errors import DCudaTimeoutError
from repro.faults import FaultEvent, FaultsConfig
from repro.hw import Cluster, greina

PUT_AT = 50e-6


def run_flush(partition, target_busy):
    """Launch the put-then-flush kernel under a partition of *partition*
    seconds from 40 µs; returns the flush's end time."""
    cfg = FaultsConfig(enabled=True, events=(
        FaultEvent("partition", start=40e-6, duration=partition),))
    out = {}

    def kernel(rank):
        win = yield from rank.win_create(np.zeros(4))
        env = rank.env
        if rank.world_rank == 0:
            yield PUT_AT - env.now
            yield from rank.put(win, 1, 0, np.ones(4))
            yield from rank.flush()
            out["flushed"] = env.now
        else:
            yield target_busy
        yield from rank.finish()

    launch(Cluster(greina(2, faults=cfg)), kernel, ranks_per_device=1)
    return out["flushed"]


def test_flush_behind_a_long_partition_times_out():
    timeout = FaultsConfig().handshake_timeout
    with pytest.raises(DCudaTimeoutError,
                       match="flush: counter stuck at 0 of 1") as info:
        run_flush(partition=20e-3, target_busy=10e-3)
    assert info.value.rank == 0
    assert PUT_AT + timeout < info.value.sim_time < PUT_AT + 1.1 * timeout


def test_flush_behind_a_short_partition_completes():
    timeout = FaultsConfig().handshake_timeout
    flushed = run_flush(partition=1e-3, target_busy=1.5e-3)
    # The flush waited out the partition, within its deadline.
    assert 40e-6 + 1e-3 < flushed < PUT_AT + timeout
