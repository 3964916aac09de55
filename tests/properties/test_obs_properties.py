"""Property-based tests for the observability instruments and exporter."""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.export import chrome_trace, chrome_trace_events
from repro.obs.metrics import Histogram, MetricsRegistry, OccupancySeries
from repro.sim import Tracer

import pytest

nonneg = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=0.0, max_value=1e9)


# --------------------------------------------------------------------- view --
@given(st.lists(st.lists(nonneg, max_size=20), min_size=1, max_size=4))
def test_view_reads_its_owners_at_dump_time(per_owner):
    """A view keeps no count of its own: every dump reads its owners, and
    readers registered under one name report their sum."""
    reg = MetricsRegistry()
    owners = [{"n": 0.0} for _ in per_owner]
    for owner in owners:
        reg.view("v", lambda owner=owner: owner["n"])
    assert reg.snapshot() == {"v": 0.0}
    for owner, amounts in zip(owners, per_owner):
        for amount in amounts:
            owner["n"] += amount
    assert reg.snapshot()["v"] == sum(owner["n"] for owner in owners)


# ---------------------------------------------------------------- histogram --
bounds_strategy = st.lists(
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=8, unique=True).map(sorted)


@given(bounds_strategy, st.lists(nonneg, max_size=100))
def test_histogram_bucket_sums_equal_count(bounds, observations):
    h = Histogram("h", bounds)
    for v in observations:
        h.observe(v)
    assert sum(h.counts) == h.count == len(observations)
    assert h.total == pytest.approx(math.fsum(observations))
    if observations:
        assert h.min == min(observations)
        assert h.max == max(observations)
        assert h.mean == pytest.approx(h.total / h.count)
    else:
        assert h.min is None and h.max is None and h.mean == 0.0


@given(bounds_strategy, st.lists(nonneg, min_size=1, max_size=60))
def test_histogram_bucket_assignment(bounds, observations):
    """Bucket i counts bounds[i-1] < x <= bounds[i]; last is overflow."""
    h = Histogram("h", bounds)
    for v in observations:
        h.observe(v)
    reference = [0] * (len(bounds) + 1)
    for v in observations:
        for i, b in enumerate(h.bounds):
            if v <= b:
                reference[i] += 1
                break
        else:
            reference[-1] += 1
    assert h.counts == reference


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", [])
    with pytest.raises(ValueError):
        Histogram("h", [1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram("h", [2.0, 1.0])


# --------------------------------------------------------- occupancy series --
steps_strategy = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
              st.integers(min_value=0, max_value=64)),
    min_size=1, max_size=30,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


def _reference_integral(times, values, t0, t1):
    """Hand-rolled step-function integral for cross-checking."""
    total = 0.0
    for i, (t, v) in enumerate(zip(times, values)):
        seg_start = max(t, t0)
        seg_end = times[i + 1] if i + 1 < len(times) else t1
        seg_end = min(seg_end, t1)
        if seg_end > seg_start:
            total += v * (seg_end - seg_start)
    return total


@given(steps_strategy)
def test_series_integral_matches_reference(points):
    s = OccupancySeries("s")
    for t, v in points:
        s.sample(t, v)
    # Deduplicate: same-time samples collapse to the last value.
    collapsed = {}
    for t, v in points:
        collapsed[t] = v
    times = sorted(collapsed)
    values = [collapsed[t] for t in times]
    assert list(s.times) == times
    assert list(s.values) == values
    t0, t1 = times[0], times[-1] + 1.0
    assert s.integral(t0, t1) == pytest.approx(
        _reference_integral(times, values, t0, t1))
    if t1 > t0:
        assert s.time_weighted_mean(t0, t1) == pytest.approx(
            s.integral(t0, t1) / (t1 - t0))
    lo, hi = min(values), max(values)
    assert lo * (t1 - t0) - 1e-9 <= s.integral(t0, t1) <= hi * (t1 - t0) + 1e-9


def test_series_hand_computed_integral():
    s = OccupancySeries("s")
    s.sample(0.0, 2)   # 2 over [0, 1)
    s.sample(1.0, 5)   # 5 over [1, 3)
    s.sample(3.0, 0)   # 0 over [3, ...)
    assert s.integral(0.0, 4.0) == pytest.approx(2 * 1 + 5 * 2 + 0 * 1)
    assert s.integral(0.5, 2.0) == pytest.approx(2 * 0.5 + 5 * 1.0)
    assert s.time_weighted_mean(0.0, 4.0) == pytest.approx(12.0 / 4.0)
    assert s.max_value() == 5


def test_series_rejects_backwards_time():
    s = OccupancySeries("s")
    s.sample(2.0, 1)
    with pytest.raises(ValueError):
        s.sample(1.0, 2)


@given(steps_strategy)
def test_series_value_at_is_right_continuous(points):
    """The value sampled at t holds from t on: over [t_i, t_i+1) the
    step function integrates to v_i times the span."""
    s = OccupancySeries("s")
    for t, v in points:
        s.sample(t, v)
    for (t0, v), t1 in zip(zip(s.times, s.values), s.times[1:]):
        assert s.integral(t0, t1) == pytest.approx(v * (t1 - t0))


# ----------------------------------------------------------- chrome export --
interval_strategy = st.lists(
    st.tuples(st.sampled_from(["node0.gpu.b0", "node0.gpu.b1", "node1.cpu"]),
              st.sampled_from(["compute", "comm", "wait", "match"]),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=20)


@given(interval_strategy, st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.integers(min_value=0, max_value=9)),
    max_size=10).map(lambda pts: sorted(pts, key=lambda p: p[0])))
def test_chrome_trace_round_trips_and_is_valid(raw_intervals, samples):
    tracer = Tracer()
    for actor, kind, a, b in raw_intervals:
        t0, t1 = min(a, b), max(a, b)
        tracer.record(actor, kind, t0, t1)
    registry = MetricsRegistry()
    series = registry.series("queue.test.depth")
    for t, v in samples:
        series.sample(t, v)

    doc = json.loads(json.dumps(chrome_trace(tracer, registry)))
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "export must never be empty for a non-empty trace"
    for ev in events:
        assert ev["ph"] in ("X", "C", "M")
        if ev["ph"] == "X":
            assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            assert ev["args"]["actor"]
        elif ev["ph"] == "C":
            assert "value" in ev["args"]
    xs = [ev for ev in events if ev["ph"] == "X"]
    cs = [ev for ev in events if ev["ph"] == "C"]
    assert len(xs) == len(tracer.intervals)
    assert len(cs) == len(series)
    # Durations round-trip exactly: ts/dur are the interval scaled to us.
    for ev, iv in zip(xs, tracer.intervals):
        assert ev["ts"] == iv.start * 1e6
        assert ev["dur"] == (iv.end - iv.start) * 1e6
        assert ev["cat"] == iv.kind


def test_chrome_trace_metadata_names_every_actor():
    tracer = Tracer()
    tracer.record("node0.gpu.b0", "compute", 0.0, 1.0)
    tracer.record("node0.gpu.b1", "wait", 0.5, 1.0)
    tracer.record("node1.gpu.b0", "comm", 0.0, 1.0)
    tracer.record("node0.gpu.b0", "comm", 1.0, 2.0)
    events = chrome_trace_events(tracer, MetricsRegistry())
    meta = [ev for ev in events if ev["ph"] == "M"]
    thread_names = {ev["args"]["name"] for ev in meta
                    if ev["name"] == "thread_name"}
    assert {"node0.gpu.b0", "node0.gpu.b1", "node1.gpu.b0"} <= thread_names
    process_names = {ev["args"]["name"] for ev in meta
                     if ev["name"] == "process_name"}
    assert {"node0.gpu", "node1.gpu"} <= process_names
    # Each actor keeps one tid, and no two actors share one.
    tids = {}
    for ev in events:
        if ev["ph"] == "X":
            assert tids.setdefault(ev["args"]["actor"], ev["tid"]) == ev["tid"]
    assert len(tids) == 3 and len(set(tids.values())) == 3


# ----------------------------------------------------------------- registry --
def test_registry_get_or_create_and_kind_clash():
    reg = MetricsRegistry()
    v = reg.view("x", lambda: 3)
    assert reg.view("x", lambda: 4) is v
    with pytest.raises(TypeError):
        reg.series("x")
    assert "x" in reg and reg["x"] is v
    reg.histogram("h", [1.0, 2.0])
    reg.series("s")
    snap = reg.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert set(snap) == {"x", "h", "s"}
    assert snap["x"] == 7
