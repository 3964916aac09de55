"""Unit tests for the interval tracer and span algebra."""

import pytest

from repro.apps.diffusion import DiffusionWorkload, run_dcuda_diffusion
from repro.hw import Cluster, greina
from repro.obs import ObsConfig
from repro.sim import Interval, Tracer, merge_intervals, overlap_time, total_time


def test_merge_intervals_disjoint():
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]


def test_merge_intervals_overlapping():
    assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]


def test_merge_intervals_touching():
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]


def test_merge_intervals_drops_empty():
    assert merge_intervals([(1, 1), (2, 1)]) == []


def test_total_time_counts_overlap_once():
    assert total_time([(0, 2), (1, 3)]) == pytest.approx(3.0)


def test_overlap_time_basic():
    a = [(0, 10)]
    b = [(5, 15)]
    assert overlap_time(a, b) == pytest.approx(5.0)


def test_overlap_time_multiple_spans():
    a = [(0, 2), (4, 6)]
    b = [(1, 5)]
    assert overlap_time(a, b) == pytest.approx(2.0)  # (1,2) + (4,5)


def test_overlap_time_disjoint_is_zero():
    assert overlap_time([(0, 1)], [(2, 3)]) == 0.0


def test_tracer_records_and_queries():
    tr = Tracer()
    tr.record("block0", "compute", 0.0, 2.0)
    tr.record("block0", "comm", 2.0, 3.0)
    tr.record("block1", "compute", 1.0, 4.0)
    assert len(tr.by_actor("block0")) == 2
    assert len(tr.by_kind("compute")) == 2
    assert tr.actors() == ["block0", "block1"]
    assert tr.busy_time(kind="compute") == pytest.approx(4.0)  # union of (0,2),(1,4)
    assert tr.busy_time(actor="block0") == pytest.approx(3.0)


def test_tracer_disabled_is_noop():
    tr = Tracer(enabled=False)
    tr.record("a", "x", 0.0, 1.0)
    assert tr.intervals == []


def test_tracer_rejects_backwards_interval():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.record("a", "x", 2.0, 1.0)


def test_tracer_rejects_empty_actor_and_kind():
    tr = Tracer()
    with pytest.raises(ValueError, match="actor"):
        tr.record("", "compute", 0.0, 1.0)
    with pytest.raises(ValueError, match="kind"):
        tr.record("block0", "", 0.0, 1.0)
    assert tr.intervals == []


def test_tracer_rejects_non_string_actor_and_kind():
    tr = Tracer()
    with pytest.raises(ValueError, match="actor"):
        tr.record(None, "compute", 0.0, 1.0)
    with pytest.raises(ValueError, match="kind"):
        tr.record("block0", 3, 0.0, 1.0)


def test_tracer_disabled_skips_validation():
    # The disabled tracer is a pure no-op — no cost, no checks.
    tr = Tracer(enabled=False)
    tr.record("", "", 2.0, 1.0)
    assert tr.intervals == []


def test_tracer_accepts_zero_length_interval():
    tr = Tracer()
    tr.record("a", "x", 1.0, 1.0)
    assert tr.intervals[0].duration == 0.0


def test_merge_intervals_unsorted_input():
    assert merge_intervals([(5, 6), (0, 2), (1, 3)]) == [(0, 3), (5, 6)]


def test_merge_intervals_zero_length_inside_span():
    # Zero-length spans carry no time and are dropped even when they fall
    # inside (or touch) a real span.
    assert merge_intervals([(0, 2), (1, 1), (2, 2), (3, 3)]) == [(0, 2)]


def test_merge_intervals_contained_span():
    assert merge_intervals([(0, 10), (2, 3), (4, 5)]) == [(0, 10)]


def test_overlap_time_exact_touch_is_zero():
    # Spans that only share a boundary point overlap for zero time.
    assert overlap_time([(0, 1)], [(1, 2)]) == 0.0


def test_overlap_time_unsorted_input():
    a = [(4, 6), (0, 2)]
    b = [(1, 5)]
    assert overlap_time(a, b) == pytest.approx(2.0)


def test_overlap_time_identical_sets():
    spans = [(0, 1), (2, 4)]
    assert overlap_time(spans, spans) == pytest.approx(3.0)


def test_overlap_time_empty_sets():
    assert overlap_time([], [(0, 1)]) == 0.0
    assert overlap_time([(0, 1)], []) == 0.0
    assert overlap_time([], []) == 0.0


def test_interval_duration():
    iv = Interval("a", "compute", 1.0, 3.5)
    assert iv.duration == pytest.approx(2.5)


def test_render_ascii_contains_actors():
    tr = Tracer()
    tr.record("rank0", "compute", 0.0, 1.0)
    tr.record("rank1", "comm", 1.0, 2.0)
    art = tr.render_ascii(width=20)
    assert "rank0" in art and "rank1" in art
    assert "c" in art


def test_render_ascii_empty():
    assert Tracer().render_ascii() == "(empty trace)"


def reference_ascii(tracer, width=72, kinds=None):
    """The per-actor form of ``render_ascii``: one ``by_actor`` scan of
    the whole trace per actor."""
    if not tracer.intervals:
        return "(empty trace)"
    t0 = min(iv.start for iv in tracer.intervals)
    t1 = max(iv.end for iv in tracer.intervals)
    span = max(t1 - t0, 1e-30)
    lines = []
    for actor in tracer.actors():
        row = ["."] * width
        for iv in tracer.by_actor(actor):
            c0 = int((iv.start - t0) / span * (width - 1))
            c1 = int((iv.end - t0) / span * (width - 1))
            char = (kinds or {}).get(iv.kind, iv.kind[:1] or "?")
            for c in range(c0, max(c0, c1) + 1):
                row[c] = char
        lines.append(f"{actor:>16s} |{''.join(row)}|")
    return "\n".join(lines)


_RENDERINGS = [(72, None), (20, None),
               (100, {"compute": "#", "comm": "=", "wait": "-"})]


def _synthetic_trace():
    """Interleaved actors, overlapping and touching spans painted in
    recording order, a zero-length span, an actor that reappears after
    others, and a non-block actor spanning the whole trace."""
    tr = Tracer()
    rec = tr.record
    rec("node0.gpu.b0", "wait", 0.0, 10.0)
    rec("node0.gpu.b0", "match", 2.0, 3.0)
    rec("node0.gpu.b1", "compute", 1.0, 4.0)
    rec("node0.gpu.b1", "compute", 4.0, 6.0)
    rec("node0.gpu.b1", "comm", 6.0, 7.0)
    rec("node0.gpu.b2", "compute", 6.0, 7.0)
    rec("node0.gpu.b2", "wait", 7.0, 12.0)
    rec("node0.gpu.b2", "match", 7.0, 7.0)
    rec("node0.gpu.b3", "comm", 0.5, 1.5)
    rec("node0.gpu.b3", "wait", 1.5, 9.0)
    rec("node1.gpu.b0", "comm", 0.0, 2.0)
    rec("node1.gpu.b0", "compute", 3.0, 5.0)
    rec("node1.host", "compute", 0.0, 20.0)
    rec("node0.gpu.b0", "compute", 9.5, 11.0)
    return tr


@pytest.mark.parametrize("width,kinds", _RENDERINGS)
def test_render_ascii_matches_per_actor_reference(width, kinds):
    two = Tracer()
    two.record("rank0", "compute", 0.0, 1.0)
    two.record("rank1", "comm", 1.0, 2.0)
    for tr in (two, _synthetic_trace()):
        assert tr.render_ascii(width, kinds) == \
            reference_ascii(tr, width, kinds)


def test_render_ascii_matches_reference_on_traced_diffusion():
    cluster = Cluster(greina(2, obs=ObsConfig(enabled=True)))
    wl = DiffusionWorkload(ni=8, nj_per_device=16, nk=2, steps=2)
    run_dcuda_diffusion(cluster, wl, ranks_per_device=8)
    tr = cluster.tracer
    assert len(tr.actors()) >= 16
    for width, kinds in _RENDERINGS:
        assert tr.render_ascii(width, kinds) == \
            reference_ascii(tr, width, kinds)


def test_tracer_clear():
    tr = Tracer()
    tr.record("a", "x", 0.0, 1.0)
    tr.clear()
    assert tr.intervals == []
