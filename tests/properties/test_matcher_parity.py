"""The one notification matcher against its arrival-order spec.

The matcher keeps one arrival-ordered pending list: a pass drains the
queue onto it, consumes the first ``count`` matches, compacts the rest
and charges ``match_base + match_per_entry x |pending before the pass|``.
These properties run Hypothesis batches and multi-query sequences (window,
source and tag each possibly a wildcard, counts 0-8) through the real
matcher and check every query against the arrival-order reference of
``test_runtime_properties.py``: the consumed count, the kept list,
``matched_total`` and the simulated time at which the pass completes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dcuda.notifications import NotificationMatcher
from repro.hw import Cluster, greina
from repro.runtime import DCudaRuntime

from .test_runtime_properties import arrival_order_spec, notification_batches


@st.composite
def query_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [(draw(st.integers(-1, 2)),    # win_id (may be ANY)
             draw(st.integers(-1, 3)),    # source (may be ANY)
             draw(st.integers(-1, 2)),    # tag    (may be ANY)
             draw(st.integers(0, 8)))     # count
            for _ in range(n)]


def _check_against_spec(batch, queries):
    """Run *queries* on a fresh matcher holding *batch*; assert every
    observable of every query against the spec."""
    cluster = Cluster(greina(1))
    rt = DCudaRuntime(cluster, ranks_per_device=1)
    state = rt.state_of(0)
    cfg = cluster.cfg.devicelib
    matcher = NotificationMatcher(state, cluster.node(0).device,
                                  state.block, cfg)
    matcher._pending = list(batch)
    log = []

    def proc(env):
        for win, source, tag, count in queries:
            got = yield from matcher.test(win, source, tag, count=count)
            log.append((got, list(matcher._pending), matcher.matched_total,
                        env.now))

    cluster.env.process(proc(cluster.env))
    cluster.run()
    assert len(log) == len(queries)
    pending, total, now = list(batch), 0, 0.0
    for (win, source, tag, count), (got, kept, matched, t) in zip(queries,
                                                                  log):
        want_kept, want = arrival_order_spec(pending, win, source, tag, count)
        total += want
        assert got == want
        assert kept == want_kept
        assert matched == total
        if count:
            # One pass, charged for every entry pending before it.
            now += cfg.match_base + cfg.match_per_entry * len(pending)
        assert t == now
        pending = want_kept


@given(notification_batches(), query_sequences())
@settings(max_examples=100, deadline=None)
def test_matcher_follows_arrival_order_spec(batch, queries):
    _check_against_spec(batch, queries)


@given(notification_batches())
@settings(max_examples=50, deadline=None)
def test_any_source_waits_follow_spec(batch):
    """The ubiquitous wait pattern — one window and tag, any source — for
    every concrete (window, tag) pair in turn."""
    _check_against_spec(batch, [(w, -1, t, 4) for w in range(3)
                                for t in range(3)])
