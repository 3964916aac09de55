"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import Environment, Event, Process, SimulationError


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        assert env.now == 0.0
        yield env.timeout(1.5)
        assert env.now == 1.5
        yield env.timeout(0.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.0
    assert env.now == 2.0


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_zero_delay_timeout_runs_same_time():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0.0)
        order.append(tag)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert order == ["a", "b"]
    assert env.now == 0.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    results = []

    def waiter(env):
        val = yield ev
        results.append((env.now, val))

    def firer(env):
        yield env.timeout(3.0)
        ev.succeed(42)

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert results == [(3.0, 42)]


def test_event_double_trigger_is_error():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_fail_throws_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_observed_process_failure_does_not_escape_run():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("observed")

    def parent(env):
        child = env.process(bad(env))
        try:
            yield child
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["observed"]


def test_process_join_returns_child_value():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (2.0, "done")


def test_yield_from_composition():
    env = Environment()

    def sub(env, n):
        total = 0.0
        for _ in range(n):
            yield env.timeout(1.0)
            total += 1.0
        return total

    def main(env):
        a = yield from sub(env, 3)
        b = yield from sub(env, 2)
        return a + b

    p = env.process(main(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_join_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 7

    def parent(env):
        c = env.process(child(env))
        yield env.timeout(5.0)
        val = yield c  # c finished long ago
        return (env.now, val)

    p = env.process(parent(env))
    env.run()
    assert p.value == (5.0, 7)


def test_run_until_stops_clock():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_in_past_rejected():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_deterministic_tie_break_is_spawn_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ["x", "y", "z"]:
        env.process(proc(env, tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_run_all_helper():
    env = Environment()

    def worker(env, n):
        yield env.timeout(n)
        return n * 10

    results = env.run_all(worker(env, n) for n in (3, 1, 2))
    assert results == [30, 10, 20]


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_peek_and_step():
    env = Environment()
    env.timeout(2.0)
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_active_process_visible_during_step():
    """The stepped process is recorded while it runs (a queue's park
    reads it) and cleared after."""
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env._active_process)
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env._active_process is None


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_step_drops_abandoned_timers():
    """Regression: step() must drop abandoned timers exactly like run()
    does, instead of firing the losing arm of a bounded wait, and must
    not advance the clock for a dropped entry."""
    env = Environment()
    fired = []
    loser = env.timeout(1.0)
    loser.add_callback(lambda e: fired.append("loser"))
    loser.abandoned = True
    winner = env.timeout(2.0)
    winner.add_callback(lambda e: fired.append("winner"))
    env.step()
    assert fired == ["winner"]
    assert env.now == 2.0


def test_step_drops_abandoned_due_entries():
    env = Environment()
    fired = []
    loser = env.timeout(0.0)
    loser.add_callback(lambda e: fired.append("loser"))
    loser.abandoned = True
    winner = env.timeout(0.0)
    winner.add_callback(lambda e: fired.append("winner"))
    env.step()
    assert fired == ["winner"]
    assert env.now == 0.0


def test_step_raises_when_only_abandoned_entries_remain():
    env = Environment()
    ev = env.timeout(1.0)
    ev.abandoned = True
    with pytest.raises(SimulationError):
        env.step()


def test_step_reraises_unobserved_process_failure():
    """Regression: a ``while True: step()`` driver sees a failed process
    nobody waits on, as run() does, instead of stepping past it."""
    env = Environment()
    ticks = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("unobserved")

    def ticker(env):
        for _ in range(3):
            yield env.timeout(0.75)
            ticks.append(env.now)

    env.process(bad(env))
    env.process(ticker(env))
    with pytest.raises(ValueError, match="unobserved"):
        while True:
            env.step()
    assert env.now == 1.0
    assert ticks == [0.75]


def test_step_keeps_observed_process_failure_inside():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("observed")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    while True:
        try:
            env.step()
        except SimulationError:
            break
    assert caught == ["observed"]


def test_step_and_run_agree_on_abandoned_heavy_schedule():
    """Driving the same workload by repeated step() calls yields the
    run() dispatch order even with interleaved abandoned entries."""
    def build():
        env = Environment()
        fired = []
        for i in range(6):
            ev = env.timeout(0.25 * i)
            ev.add_callback(lambda e, i=i: fired.append((env.now, i)))
            if i % 2:
                ev.abandoned = True
        return env, fired

    env_a, fired_a = build()
    env_a.run()
    env_b, fired_b = build()
    while True:
        try:
            env_b.step()
        except SimulationError:
            break
    assert fired_a == fired_b == [(0.0, 0), (0.5, 2), (1.0, 4)]


# -- invalid yields: one rejection path -------------------------------------

def test_caught_negative_delay_error_then_valid_sleep():
    """Regression: after catching the ValueError for a negative delay, the
    process's next yield is honoured (it used to resume at t=0)."""
    env = Environment()
    log = []

    def proc(env):
        try:
            yield -1.0
        except ValueError:
            log.append(("caught", env.now))
        yield 1.0
        log.append(("resumed", env.now))

    env.process(proc(env))
    env.run()
    assert log == [("caught", 0.0), ("resumed", 1.0)]
    assert env.now == 1.0


def test_caught_non_event_error_then_timeout():
    """Regression: the yield after a caught TypeError used to be
    discarded, so run() crashed with an AttributeError on the int."""
    env = Environment()
    log = []

    def proc(env):
        try:
            yield 42
        except TypeError:
            log.append(("caught", env.now))
        yield env.timeout(2.0)
        log.append(("resumed", env.now))

    env.process(proc(env))
    env.run()
    assert log == [("caught", 0.0), ("resumed", 2.0)]


def test_caught_foreign_event_error_then_timeout():
    """Regression: after catching the SimulationError for another
    environment's event, the process used to never resume."""
    env = Environment()
    other = Environment()
    log = []

    def proc(env):
        try:
            yield other.timeout(1.0)
        except SimulationError:
            log.append(("caught", env.now))
        yield env.timeout(3.0)
        log.append(("resumed", env.now))

    p = env.process(proc(env))
    env.run()
    assert log == [("caught", 0.0), ("resumed", 3.0)]
    assert p.ok


def test_uncaught_invalid_yield_fails_the_process():
    """Uncaught, the thrown error fails the process like any exception
    raised inside it, so a parent joining it sees the error."""
    env = Environment()
    caught = []

    def bad(env):
        yield -2.0

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(parent(env))
    env.run()
    assert caught == [(0.0, "negative delay -2.0")]


# -- bare-delay sleeps --------------------------------------------------------

class _Delay(float):
    """A float subclass, as user code or a library may yield."""


def _sleep_trace(delays):
    env = Environment()
    stamps = []

    def proc(env):
        for d in delays:
            yield d
            stamps.append(env.now)

    env.process(proc(env))
    env.run()
    return stamps, env._seq


def test_float_subclass_delays_match_plain_float():
    np = pytest.importorskip("numpy")
    plain = [0.0, 1.5e-7, 2.0, 0.25, 300.0]
    want = _sleep_trace(plain)
    for delays in ([np.float64(d) for d in plain],
                   [_Delay(d) for d in plain]):
        stamps, seq = _sleep_trace(delays)
        assert (stamps, seq) == want
        assert all(type(t) is float for t in stamps)


def test_negative_float_subclass_delay_raises():
    np = pytest.importorskip("numpy")

    def proc(env, delay):
        yield delay

    for delay in (_Delay(-1.0), np.float64(-1.0)):
        env = Environment()
        env.process(proc(env, delay))
        with pytest.raises(ValueError, match="negative delay"):
            env.run()


# -- stop rules and derived stats --------------------------------------------

def _abandoned_then_live():
    env = Environment()
    fired = []
    dead = env.timeout(2.0)
    dead.add_callback(lambda e: fired.append("dead"))
    dead.abandoned = True
    live = env.timeout(3.0)
    live.add_callback(lambda e: fired.append(env.now))
    return env, fired


def test_stop_rules_look_past_abandoned_head():
    """Every time-bounded stop looks at the first *live* entry: an
    abandoned timer at the head is dropped, never left as the peek."""
    env, fired = _abandoned_then_live()
    env.run(until=1.0)
    assert env.now == 1.0
    assert env.peek() == 3.0

    env, fired = _abandoned_then_live()
    assert env.run_watchdog(2.5) is False
    assert env.now == 0.0
    assert env.peek() == 3.0
    assert env.run_watchdog(3.0) is True
    assert fired == [3.0]


def test_stats_are_derived_from_the_schedule():
    env = Environment()
    stats = env.stats
    assert (stats.scheduled, stats.pending, stats.entries) == (0, 0, 0)
    env.timeout(1.0).abandoned = True
    env.timeout(2.0)
    env.call_at(0.0, lambda: None)
    assert (stats.scheduled, stats.pending, stats.entries) == (3, 3, 0)
    env.step()  # the deferred call
    assert (stats.pending, stats.entries) == (2, 1)
    env.step()  # drops the abandoned timer, dispatches the live one
    assert (stats.scheduled, stats.pending, stats.entries) == (3, 0, 3)
    assert env.now == 2.0
