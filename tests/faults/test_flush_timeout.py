"""``DRank.flush`` under a fabric partition: no deadline, only the fault.

Rank 0 puts to rank 1 on another node while a partition holds the put's
completion back.  The flush waits however long the partition lasts and
returns just after it heals: a flush follows its operations, and the
fault plane changes only the operations it delays.  The launch watchdog
and the drained-schedule deadlock diagnosis stay the hang guards.
"""

import numpy as np

from repro.dcuda import launch
from repro.faults import FaultEvent, FaultsConfig
from repro.hw import Cluster, greina

PUT_AT = 50e-6
PARTITION_AT = 40e-6


def run_flush(partition, target_busy):
    """Launch the put-then-flush kernel under a partition of *partition*
    seconds from 40 µs; returns the flush's end time."""
    cfg = FaultsConfig(enabled=True, events=(
        FaultEvent("partition", start=PARTITION_AT, duration=partition),))
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


def test_flush_behind_a_long_partition_completes_when_it_heals():
    heal = PARTITION_AT + 20e-3
    flushed = run_flush(partition=20e-3, target_busy=10e-3)
    assert heal < flushed < heal + 5e-6


def test_flush_behind_a_short_partition_completes():
    heal = PARTITION_AT + 1e-3
    flushed = run_flush(partition=1e-3, target_busy=1.5e-3)
    # The flush waited out the partition, and no longer than that.
    assert heal < flushed < heal + 5e-6
