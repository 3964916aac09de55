"""Unit tests for FairShareLink and SerialLink."""

import pytest

from repro.sim import Environment, FairShareLink, SerialLink


def test_single_flow_takes_bytes_over_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)

    def proc(env):
        yield link.transfer(500.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(5.0)


def test_two_equal_flows_share_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def proc(env, tag):
        yield link.transfer(500.0)
        done[tag] = env.now

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    # Both share 100 B/s → each effectively 50 B/s → 10 s.
    assert done["a"] == pytest.approx(10.0)
    assert done["b"] == pytest.approx(10.0)


def test_total_throughput_never_exceeds_bandwidth():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)
    finish = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        finish.append(env.now)

    for nbytes in (10.0, 20.0, 30.0):
        env.process(proc(env, nbytes))
    env.run()
    # 60 bytes total through a 10 B/s link: last finisher at exactly 6 s.
    assert max(finish) == pytest.approx(6.0)


def test_short_flow_finishes_first_and_frees_share():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def proc(env, tag, nbytes):
        yield link.transfer(nbytes)
        done[tag] = env.now

    env.process(proc(env, "short", 100.0))
    env.process(proc(env, "long", 300.0))
    env.run()
    # Phase 1: both at 50 B/s; short (100 B) done at t=2, long has 200 B left.
    # Phase 2: long alone at 100 B/s → 2 more seconds → t=4.
    assert done["short"] == pytest.approx(2.0)
    assert done["long"] == pytest.approx(4.0)


def test_late_arrival_slows_existing_flow():
    env = Environment()
    link = FairShareLink(env, bandwidth=100.0)
    done = {}

    def first(env):
        yield link.transfer(400.0)
        done["first"] = env.now

    def second(env):
        yield env.timeout(2.0)  # first has 200 B left at t=2
        yield link.transfer(100.0)
        done["second"] = env.now

    env.process(first(env))
    env.process(second(env))
    env.run()
    # t=2..4: both at 50 B/s. second (100 B) done at t=4; first has 100 B
    # left, then alone at 100 B/s → done at t=5.
    assert done["second"] == pytest.approx(4.0)
    assert done["first"] == pytest.approx(5.0)


def test_weighted_flows():
    env = Environment()
    link = FairShareLink(env, bandwidth=90.0)
    done = {}

    def proc(env, tag, nbytes, weight):
        yield link.transfer(nbytes, weight=weight)
        done[tag] = env.now

    env.process(proc(env, "heavy", 120.0, 2.0))
    env.process(proc(env, "light", 60.0, 1.0))
    env.run()
    # heavy gets 60 B/s, light 30 B/s → both finish at t=2.
    assert done["heavy"] == pytest.approx(2.0)
    assert done["light"] == pytest.approx(2.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = FairShareLink(env, bandwidth=1.0)
    ev = link.transfer(0.0)
    assert ev.triggered
    assert link.active_flows == 0


def test_transfer_validation():
    env = Environment()
    link = FairShareLink(env, bandwidth=1.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)
    with pytest.raises(ValueError):
        link.transfer(1.0, weight=0.0)
    with pytest.raises(ValueError):
        FairShareLink(env, bandwidth=0.0)


def test_bytes_transferred_accounting():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)

    def proc(env):
        yield link.transfer(30.0)
        yield link.transfer(20.0)

    env.process(proc(env))
    env.run()
    assert link.bytes_transferred == pytest.approx(50.0)


def test_stream_helper():
    env = Environment()
    link = FairShareLink(env, bandwidth=10.0)

    def proc(env):
        yield from link.stream(20.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(2.0)


# -------------------------------------------------------------- SerialLink ----
def test_serial_link_latency_only():
    env = Environment()
    link = SerialLink(env, latency=0.5)

    def proc(env):
        yield from link.transact()
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(0.5)


def test_serial_link_latency_plus_bytes():
    env = Environment()
    link = SerialLink(env, latency=1.0, bandwidth=10.0)

    def proc(env):
        yield from link.transact(50.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(6.0)


def test_serial_link_serializes_users():
    env = Environment()
    link = SerialLink(env, latency=1.0)
    done = []

    def proc(env):
        yield from link.transact()
        done.append(env.now)

    for _ in range(3):
        env.process(proc(env))
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_serial_link_accounting():
    env = Environment()
    link = SerialLink(env, latency=1.0, bandwidth=100.0)

    def proc(env):
        yield from link.transact(100.0)
        yield from link.transact(0.0)

    env.process(proc(env))
    env.run()
    assert link.transactions == 2
    assert link.busy_time == pytest.approx(3.0)


def test_serial_link_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SerialLink(env, latency=-1.0)
    with pytest.raises(ValueError):
        SerialLink(env, latency=0.0, bandwidth=0.0)
    link = SerialLink(env, latency=0.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        # transact is a generator; validation happens on first step
        next(link.transact(-5.0))


# -- many flows entering at one instant ---------------------------------------

_BANDWIDTH = 64.0


def _completions(sizes, weight=1.0, background=()):
    """(time, index) of each flow of *sizes* in completion order.

    All of *sizes* enter through transfer() at one instant: at t=0, or at
    t=0.25 behind *background* flows (weight 1) entered at t=0.
    """
    env = Environment()
    link = FairShareLink(env, bandwidth=_BANDWIDTH)
    done = []

    def starter(env):
        for nbytes in background:
            link.transfer(nbytes)
        if background:
            yield 0.25
        for i, nbytes in enumerate(sizes):
            link.transfer(nbytes, weight=weight).add_callback(
                lambda _e, i=i: done.append((env.now, i)))
        yield 0.0

    env.process(starter(env))
    env.run()
    assert len(done) == len(sizes)
    return done


def _reference_finish(sizes, weight=1.0, background=()):
    """Finish time of each flow of *sizes* in the naive fluid model: every
    active flow drains at ``bandwidth * w / sum(w)`` until the next one
    finishes (O(n) per state change, no virtual clock)."""
    flows = {("bg", i): [float(b), 1.0] for i, b in enumerate(background)}
    finish = {}
    now = 0.0

    def serve(until):
        nonlocal now
        while flows and now < until:
            total = sum(w for _, w in flows.values())
            dt = min(min(r / w for r, w in flows.values())
                     * total / _BANDWIDTH, until - now)
            for flow in flows.values():
                flow[0] -= dt * _BANDWIDTH * flow[1] / total
            now += dt
            for key in [k for k, (r, _) in flows.items() if r <= 1e-9]:
                finish[key] = now
                del flows[key]

    if background:
        serve(0.25)
        now = 0.25
    for i, nbytes in enumerate(sizes):
        if nbytes:
            flows[i] = [nbytes, weight]
        else:
            finish[i] = now
    serve(float("inf"))
    return [finish[i] for i in range(len(sizes))]


def _check_against_reference(sizes, **kw):
    done = _completions(sizes, **kw)
    # Equal weights entering together: smaller flows finish first, ties
    # in entry order, empty flows at once.
    assert [i for _, i in done] == sorted(range(len(sizes)),
                                          key=lambda i: (sizes[i], i))
    reference = _reference_finish(sizes, **kw)
    assert [t for t, _ in done] == pytest.approx(
        [reference[i] for _, i in done], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("sizes", [
    [7.0],
    [128.0, 32.0, 32.0, 96.0],
    [float(3 + (i * 37) % 101) for i in range(40)],
    [16.0, 0.0, 16.0, 0.0],                          # interleaved empties
    [0.0, 0.0, 8.0],                                 # leading empties
    [0.0, 0.0],                                      # nothing to schedule
], ids=["one", "four", "forty", "interleaved-empty", "leading-empty",
        "all-empty"])
def test_same_instant_flows_match_fluid_reference(sizes):
    _check_against_reference(sizes)


def test_flows_behind_background_flows_match_fluid_reference():
    _check_against_reference([float(1 + (i * 13) % 50) for i in range(24)],
                             weight=2.0, background=[400.0, 200.0])


def test_many_flows_complete_in_order():
    """Two hundred flows in flight at once complete in size order at the
    fluid model's times."""
    _check_against_reference([float(1 + (i * 29) % 97) for i in range(200)])
