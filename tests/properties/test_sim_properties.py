"""Property-based tests (hypothesis) for the simulation kernel."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    FairShareLink,
    Semaphore,
    Store,
    merge_intervals,
    overlap_time,
    total_time,
)

delays = st.lists(st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False), min_size=1, max_size=20)


# --------------------------------------------------------------- event loop --
@given(delays)
def test_timeouts_complete_in_sorted_order(ds):
    env = Environment()
    completions = []

    def proc(env, d, idx):
        yield env.timeout(d)
        completions.append((env.now, d, idx))

    for idx, d in enumerate(ds):
        env.process(proc(env, d, idx))
    env.run()
    times = [t for t, _, _ in completions]
    assert times == sorted(times)
    assert env.now == max(ds)
    # Equal delays resolve in spawn order (determinism).
    for (t1, d1, i1), (t2, d2, i2) in zip(completions, completions[1:]):
        if d1 == d2:
            assert i1 < i2


@given(delays)
def test_all_of_completes_at_max_any_of_at_min(ds):
    env = Environment()
    out = {}

    def all_proc(env):
        yield AllOf(env, [env.timeout(d) for d in ds])
        out["all"] = env.now

    def any_proc(env):
        yield AnyOf(env, [env.timeout(d) for d in ds])
        out["any"] = env.now

    env.process(all_proc(env))
    env.process(any_proc(env))
    env.run()
    assert out["all"] == max(ds)
    assert out["any"] == min(ds)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
def test_semaphore_throughput_bound(capacity, jobs, duration):
    """n jobs of equal duration through a k-slot semaphore finish at
    exactly ceil(n/k) * duration."""
    env = Environment()
    sem = Semaphore(env, capacity)

    def worker(env):
        yield from sem.acquire()
        yield env.timeout(duration)
        sem.release()

    for _ in range(jobs):
        env.process(worker(env))
    env.run()
    waves = -(-jobs // capacity)
    assert abs(env.now - waves * duration) < 1e-9


# -------------------------------------------------------------------- store --
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=30))
def test_store_preserves_fifo_per_filter_class(items):
    """Consuming only even items yields the evens in insertion order and
    leaves the odds, in order."""
    env = Environment()
    store = Store(env)
    for x in items:
        store.try_put(x)
    evens = [x for x in items if x % 2 == 0]
    got = []
    for _ in evens:
        got.append(store.get(lambda v: v % 2 == 0).value)
    assert got == evens
    assert list(store.items) == [x for x in items if x % 2 == 1]


# ---------------------------------------------------------- fair-share link --
@given(st.lists(st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=10),
       st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
@settings(max_examples=50)
def test_fair_share_conserves_bandwidth(sizes, bandwidth):
    """All flows starting together finish no earlier than the aggregate
    bound total/bw, no later than if fully serialized, and the largest
    flow finishes last."""
    env = Environment()
    link = FairShareLink(env, bandwidth)
    finish = {}

    def proc(env, idx, nbytes):
        yield link.transfer(nbytes)
        finish[idx] = env.now

    for idx, nbytes in enumerate(sizes):
        env.process(proc(env, idx, nbytes))
    env.run()
    total = sum(sizes)
    assert env.now >= total / bandwidth * (1 - 1e-9)
    assert env.now <= total / bandwidth * (1 + 1e-6) + 1e-9
    # Monotone: bigger flows never finish before smaller ones.
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    for a, b in zip(order, order[1:]):
        assert finish[a] <= finish[b] + 1e-12


@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.floats(0, 100, allow_nan=False)),
                max_size=20))
def test_merge_intervals_invariants(spans):
    spans = [(min(a, b), max(a, b)) for a, b in spans]
    merged = merge_intervals(spans)
    # Disjoint and sorted.
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # Union length preserved vs a brute-force union measure.
    assert total_time(spans) == total_time(merged)
    # Merging is idempotent.
    assert merge_intervals(merged) == merged


@given(st.lists(st.tuples(st.floats(0, 50, allow_nan=False),
                          st.floats(0, 50, allow_nan=False)), max_size=10),
       st.lists(st.tuples(st.floats(0, 50, allow_nan=False),
                          st.floats(0, 50, allow_nan=False)), max_size=10))
def test_overlap_time_bounds(a, b):
    a = [(min(x, y), max(x, y)) for x, y in a]
    b = [(min(x, y), max(x, y)) for x, y in b]
    ov = overlap_time(a, b)
    assert 0.0 <= ov <= min(total_time(a), total_time(b)) + 1e-9
    # Symmetric.
    assert abs(ov - overlap_time(b, a)) < 1e-9
    # Self-overlap is the union length.
    assert abs(overlap_time(a, a) - total_time(a)) < 1e-9
