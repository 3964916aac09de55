"""Randomized scheduler-parity fuzz: bucketed core vs. the heap contract.

The calendar-queue core (near-future ring + far-future heap + due lane)
must dispatch in exactly the order of the original single binary heap:
``(when, priority, seq)`` ascending, with abandoned timers dropped
without dispatch.  This harness generates seeded random workloads —
mixed deferred calls, timeout events, explicit priorities, same-timestamp
storms, far-horizon delays, and mid-run abandonment — runs them through
a tiny reference implementation of the heap contract *and* through the
real :class:`~repro.sim.core.Environment`, and asserts the two dispatch
sequences are identical tuple for tuple.  The real run is driven under
every stop rule of the one dispatch loop: ``run()``, repeated ``step()``,
``run(until=c)`` and ``run_watchdog(c)`` sliced over ascending cut points.

The reference kernel is deliberately the naive model: one ``heapq`` of
``(when, priority, seq)`` keys.  Any divergence in bucket selection,
ring/far migration, due-lane batching, or the cached-minimum rescan shows
up as a mismatched dispatch log.
"""

import heapq
import random

import pytest

from repro.sim import Environment, Event, SimulationError

#: Delay palette: heavy same-timestamp collisions (0.0 and repeated
#: sub-bucket values), values straddling bucket boundaries of the 1e-7
#: default width, and far-horizon delays beyond the 256-bucket ring.
_DELAYS = [0.0, 0.0, 0.0, 1e-7, 1e-7, 2.5e-7, 9.9e-7, 1e-6, 3.7e-5,
           1.3e-4, 0.5, 1.0, 257.0, 1000.0]

_KINDS = ["deferred", "deferred", "timeout", "timeout", "prio", "victim"]


def _gen_tree(rng: random.Random, budget: list, depth: int = 0) -> dict:
    """One random op node; may carry children scheduled at dispatch."""
    node = {
        "id": budget[1],
        "kind": rng.choice(_KINDS),
        "delay": rng.choice(_DELAYS),
        "priority": 1,
        "children": [],
        "abandon": None,
    }
    budget[0] -= 1
    budget[1] += 1
    if node["kind"] == "prio":
        node["priority"] = rng.choice([0, 1, 2])
    if node["kind"] == "victim":
        # Victims are plain timeouts some later dispatch may abandon.
        budget[2].append(node["id"])
    elif rng.random() < 0.25 and budget[2]:
        node["abandon"] = rng.choice(budget[2])
    if node["kind"] != "victim" and depth < 4:
        while budget[0] > 0 and rng.random() < 0.45:
            node["children"].append(_gen_tree(rng, budget, depth + 1))
    return node


def _gen_workload(seed: int, size: int = 120):
    rng = random.Random(seed)
    budget = [size, 0, []]  # remaining ops, next id, victim ids
    roots = []
    while budget[0] > 0:
        roots.append(_gen_tree(rng, budget))
    return roots


def _run_reference(roots) -> list:
    """The old order contract: one heap of ``(when, priority, seq)``."""
    heap: list = []
    log = []
    killed: set = set()
    seq = 0
    now = 0.0

    def push(node):
        nonlocal seq
        seq += 1
        heapq.heappush(heap,
                       (now + node["delay"], node["priority"], seq, node))

    for r in roots:
        push(r)
    while heap:
        when, pri, s, node = heapq.heappop(heap)
        if node["id"] in killed:
            continue  # abandoned timer: dropped, clock not advanced
        now = when
        log.append((when, pri, s, node["id"]))
        if node["abandon"] is not None:
            killed.add(node["abandon"])
        for child in node["children"]:
            push(child)
    return log


def _cut_points(log) -> list:
    """Ascending slice bounds: every third distinct dispatch time (so some
    entries sit exactly on a bound), the midpoint after each, and a point
    past the last dispatch."""
    times = sorted({entry[0] for entry in log})
    cuts = []
    for i in range(0, len(times), 3):
        cuts.append(times[i])
        if i + 1 < len(times):
            cuts.append((times[i] + times[i + 1]) / 2)
    cuts.append(times[-1] + 1.0)
    return cuts


def _run_real(roots, mode: str = "run") -> list:
    """The same workload through the real bucketed Environment, driven by
    one stop rule: ``run``, ``step``, ``until`` or ``watchdog``."""
    env = Environment()
    log = []
    seqs = {}
    victims = {}
    killed = set()

    def fire(node):
        log.append((env.now, node["priority"], seqs[node["id"]], node["id"]))
        target = node["abandon"]
        if target is not None:
            # Mirror the reference: a not-yet-scheduled victim is doomed
            # the moment it enters the queue.
            killed.add(target)
            if target in victims:
                victims[target].abandoned = True
        for child in node["children"]:
            push(child)

    def push(node):
        kind = node["kind"]
        if kind == "deferred":
            env.call_at(node["delay"], fire, node)
        elif kind == "prio":
            ev = Event(env)
            ev.add_callback(lambda _e, n=node: fire(n))
            env._schedule(ev, node["delay"], node["priority"])
        else:  # timeout / victim
            ev = env.timeout(node["delay"])
            ev.add_callback(lambda _e, n=node: fire(n))
            if kind == "victim":
                victims[node["id"]] = ev
                if node["id"] in killed:
                    ev.abandoned = True
        seqs[node["id"]] = env._seq

    for r in roots:
        push(r)
    if mode == "run":
        env.run()
    elif mode == "step":
        while True:
            try:
                env.step()
            except SimulationError:
                break
    else:
        want = _run_reference(roots)
        last = want[-1][0]
        for c in _cut_points(want):
            if mode == "until":
                env.run(until=c)
                assert env.now == c
            else:
                assert env.run_watchdog(c) is (c >= last)
                assert env.now == (log[-1][0] if log else 0.0) <= c
            # Live-head rule: abandoned timers ahead of the next live
            # entry were dropped, so peek() names the next dispatch.
            ahead = [entry[0] for entry in want if entry[0] > c]
            assert env.peek() == (ahead[0] if ahead else float("inf"))
    stats = env.stats
    assert stats.pending == 0
    assert stats.entries == stats.scheduled
    return log


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_dispatch_sequence_matches_heap_contract(seed):
    roots = _gen_workload(seed)
    assert _run_real(roots) == _run_reference(roots)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_fuzz_stepped_dispatch_matches_heap_contract(seed):
    """Single-stepping must follow the identical contract — including
    dropping abandoned timers instead of firing the losing wait arm."""
    roots = _gen_workload(seed)
    assert _run_real(roots, "step") == _run_reference(roots)


@pytest.mark.parametrize("mode", ["until", "watchdog"])
@pytest.mark.parametrize("seed", range(12))
def test_fuzz_sliced_dispatch_matches_heap_contract(mode, seed):
    """Slicing the run at time bounds must not perturb the order: an
    entry exactly on a bound runs in that slice, and abandoned timers at
    the head are dropped before each bound test."""
    roots = _gen_workload(seed)
    assert _run_real(roots, mode) == _run_reference(roots)


def test_fuzz_far_horizon_only():
    """All-far-future workload: the ring is empty, migration feeds it."""
    roots = _gen_workload(99)
    for r in roots:
        r["delay"] = r["delay"] + 300.0  # everything beyond the ring
    want = _run_reference(roots)
    for mode in ("run", "step", "until", "watchdog"):
        assert _run_real(roots, mode) == want
