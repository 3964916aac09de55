"""The overlap report's rows against the direct per-block computation.

``overlap_rows`` groups the trace by block once and derives each block's
hidden time from one sweep per device (the union of all compute less the
block's sole compute).  The reference below is the direct form it
replaced: for every block, rescan the trace for its own intervals and
intersect its comm+wait with every peer's compute.  Both must agree:
``compute``, ``comm`` and ``wait`` exactly, ``hidden`` to 1e-12 relative.
"""

import math
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.hw import Cluster, greina
from repro.obs import ObsConfig, overlap_rows
from repro.obs.report import COMPUTE_KINDS, HIDDEN_KINDS, _block_device
from repro.sim.trace import Tracer, merge_intervals, overlap_time, total_time


def _spans(tracer, actor, kinds) -> List[Tuple[float, float]]:
    return [(iv.start, iv.end) for iv in tracer.intervals
            if iv.actor == actor and iv.kind in kinds]


def reference_rows(tracer: Tracer) -> list:
    """``(actor, device, compute, comm, wait, hidden)`` per block, computed
    block by block from the whole trace."""
    devices = {}
    for actor in tracer.actors():
        device = _block_device(actor)
        if device is not None:
            devices.setdefault(device, []).append(actor)
    rows = []
    for device in sorted(devices):
        blocks = devices[device]
        compute = {a: _spans(tracer, a, COMPUTE_KINDS) for a in blocks}
        for actor in blocks:
            peers = [s for p in blocks if p != actor for s in compute[p]]
            own = merge_intervals(_spans(tracer, actor, HIDDEN_KINDS))
            rows.append((actor, device, total_time(compute[actor]),
                         tracer.busy_time(kind="comm", actor=actor),
                         tracer.busy_time(kind="wait", actor=actor),
                         overlap_time(own, peers)))
    return rows


def assert_rows_match(tracer: Tracer) -> None:
    got = overlap_rows(tracer)
    want = reference_rows(tracer)
    assert [(r.actor, r.device) for r in got] == [w[:2] for w in want]
    for row, (_a, _d, compute, comm, wait, hidden) in zip(got, want):
        assert (row.compute, row.comm, row.wait) == (compute, comm, wait)
        assert math.isclose(row.hidden, hidden, rel_tol=1e-12), \
            (row.actor, row.hidden, hidden)


@pytest.mark.parametrize("ranks", [2, 8])
def test_traced_diffusion_rows_match_reference(ranks):
    cluster = Cluster(greina(2, obs=ObsConfig(enabled=True)))
    wl = DiffusionWorkload(ni=8, nj_per_device=2 * ranks, nk=2, steps=2)
    run_dcuda_diffusion(cluster, wl, ranks_per_device=ranks)
    tracer = cluster.tracer
    assert len(overlap_rows(tracer)) == 2 * ranks
    assert any(row.hidden > 0 for row in overlap_rows(tracer))
    assert_rows_match(tracer)


def test_synthetic_trace_rows_match_reference():
    """Match inside the block's own wait, spans that touch at their edges,
    a block that never computes, an idle gap, and a non-block actor."""
    tr = Tracer()
    rec = tr.record
    # node0.gpu: b0 waits 0..10 and matches inside its own wait (2..3),
    # which must not hide its wait; b1 computes 1..4 and 4..6 (touching).
    rec("node0.gpu.b0", "wait", 0.0, 10.0)
    rec("node0.gpu.b0", "match", 2.0, 3.0)
    rec("node0.gpu.b1", "compute", 1.0, 4.0)
    rec("node0.gpu.b1", "compute", 4.0, 6.0)
    rec("node0.gpu.b1", "comm", 6.0, 7.0)
    # b2 computes exactly while b1 communicates, touching b1's compute.
    rec("node0.gpu.b2", "compute", 6.0, 7.0)
    rec("node0.gpu.b2", "wait", 7.0, 12.0)
    rec("node0.gpu.b2", "match", 7.0, 7.0)      # zero length
    # b3 only communicates and waits: no compute of its own.
    rec("node0.gpu.b3", "comm", 0.5, 1.5)
    rec("node0.gpu.b3", "wait", 1.5, 9.0)
    # node1.gpu: one block alone hides nothing; compute after an idle gap.
    rec("node1.gpu.b0", "comm", 0.0, 2.0)
    rec("node1.gpu.b0", "compute", 3.0, 5.0)
    rec("node1.host", "compute", 0.0, 20.0)     # not a block: ignored
    assert_rows_match(tr)
    rows = {r.actor: r for r in overlap_rows(tr)}
    assert set(rows) == {"node0.gpu.b0", "node0.gpu.b1", "node0.gpu.b2",
                         "node0.gpu.b3", "node1.gpu.b0"}
    assert rows["node0.gpu.b0"].hidden == 6.0    # b1 1..6, b2 6..7
    assert rows["node0.gpu.b1"].hidden == 1.0    # b2 6..7
    assert rows["node0.gpu.b2"].hidden == 0.0    # peers stop at 7
    assert rows["node0.gpu.b3"].hidden == 6.0    # peers' union is 1..7
    assert rows["node1.gpu.b0"].hidden == 0.0


_times = st.integers(0, 40).map(lambda t: t * 0.25e-6)


@st.composite
def traces(draw):
    tr = Tracer()
    for _ in range(draw(st.integers(0, 40))):
        start = draw(_times)
        tr.record(f"node{draw(st.integers(0, 1))}.gpu.b"
                  f"{draw(st.integers(0, 3))}",
                  draw(st.sampled_from(("compute", "match", "comm",
                                        "wait"))),
                  start, start + draw(_times))
    return tr


@given(traces())
@settings(max_examples=200, deadline=None)
def test_random_traces_rows_match_reference(tracer):
    assert_rows_match(tracer)
