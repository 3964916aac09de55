"""Property-based tests for runtime data structures and matching."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import median, median_ci
from repro.apps.decomp import block_range, partition_1d
from repro.apps.particles import pack_rows, unpack_rows
from repro.runtime import FlushTracker
from repro.runtime.commands import Notification


# ------------------------------------------------------------ flush tracker --
@given(st.permutations(list(range(1, 15))))
def test_flush_tracker_any_completion_order(order):
    """Whatever the completion order, the counter ends at the maximum and
    never exceeds the longest completed prefix along the way."""
    t = FlushTracker()
    done = set()
    for fid in order:
        t.complete(fid)
        done.add(fid)
        prefix = 0
        while prefix + 1 in done:
            prefix += 1
        assert t.counter == prefix
    assert t.counter == len(order)


# ---------------------------------------------------------------- partition --
@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=50))
def test_partition_covers_exactly(total, parts):
    if total < parts:
        return
    sizes = partition_1d(total, parts)
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    # block_range tiles the index space exactly.
    cursor = 0
    for i in range(parts):
        lo, hi = block_range(total, parts, i)
        assert lo == cursor
        cursor = hi
    assert cursor == total


# ------------------------------------------------------------- pack/unpack --
@given(st.integers(min_value=0, max_value=40), st.integers(0, 2 ** 31))
def test_pack_unpack_roundtrip(k, seed):
    rng = np.random.default_rng(seed)
    if k == 0:
        assert unpack_rows(pack_rows(None)) is None
        return
    rows = {name: rng.standard_normal(k)
            for name in ("pid", "x", "y", "vx", "vy")}
    out = unpack_rows(pack_rows(rows))
    for name in rows:
        np.testing.assert_array_equal(out[name], rows[name])


# ------------------------------------------------------------------- stats --
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=60))
def test_median_between_min_and_max(samples):
    m = median(samples)
    assert min(samples) <= m <= max(samples)
    lo, hi = median_ci(samples)
    assert min(samples) <= lo <= hi <= max(samples)
    assert lo <= m <= hi


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=40),
       st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_median_affine_equivariance(samples, scale, shift):
    transformed = [scale * x + shift for x in samples]
    assert abs(median(transformed) - (scale * median(samples) + shift)) \
        < 1e-6 * max(1.0, abs(scale * median(samples) + shift))


# ------------------------------------------------------- matching semantics --
@st.composite
def notification_batches(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    return [Notification(win_id=draw(st.integers(0, 2)),
                         source=draw(st.integers(0, 3)),
                         tag=draw(st.integers(0, 2)))
            for _ in range(n)]


def arrival_order_spec(pending, win, source, tag, want):
    """The matching spec: consume the first *want* notifications that
    match in arrival order, keep the rest in order; returns
    ``(kept, consumed)``.  ``-1`` is the wildcard for each filter."""
    kept, consumed = [], 0
    for n in pending:
        if consumed < want and \
                (win == -1 or n.win_id == win) and \
                (source == -1 or n.source == source) and \
                (tag == -1 or n.tag == tag):
            consumed += 1
        else:
            kept.append(n)
    return kept, consumed


@given(notification_batches(),
       st.integers(-1, 2), st.integers(-1, 3), st.integers(-1, 2),
       st.integers(0, 30))
@settings(max_examples=100)
def test_matcher_consumes_in_arrival_order(batch, win, source, tag, want):
    """Model-based test of the matcher against a straightforward spec."""
    from repro.dcuda.notifications import NotificationMatcher
    from repro.hw import Cluster, greina

    cluster = Cluster(greina(1))
    from repro.runtime import DCudaRuntime
    rt = DCudaRuntime(cluster, ranks_per_device=1)
    state = rt.state_of(0)
    matcher = NotificationMatcher(state, cluster.node(0).device,
                                  state.block, cluster.cfg.devicelib)
    # Inject arrivals directly into the pending list (pure matching test).
    matcher._pending = list(batch)

    expected_kept, expected_consumed = arrival_order_spec(
        batch, win, source, tag, want)

    result = {}

    def proc(env):
        got = yield from matcher.test(win, source, tag, count=want)
        result["got"] = got

    cluster.env.process(proc(cluster.env))
    cluster.run()
    assert result["got"] == expected_consumed
    assert matcher._pending == expected_kept
