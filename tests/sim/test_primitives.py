"""Unit tests for signals, gates, semaphores, combinators and the bounded
wait."""

import pytest

from repro.sim import (AllOf, AnyOf, Environment, Event, Gate, Semaphore,
                       Signal, bounded)


# ---------------------------------------------------------------- Signal ----
def test_signal_wakes_all_waiters():
    env = Environment()
    sig = Signal(env)
    woken = []

    def waiter(env, tag):
        val = yield sig.wait()
        woken.append((tag, env.now, val))

    def firer(env):
        yield env.timeout(2.0)
        n = sig.fire("go")
        assert n == 2

    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))
    env.process(firer(env))
    env.run()
    assert woken == [("a", 2.0, "go"), ("b", 2.0, "go")]


def test_signal_has_no_memory():
    env = Environment()
    sig = Signal(env)
    woken = []

    def late_waiter(env):
        yield env.timeout(5.0)  # fire happens at t=1
        yield sig.wait()
        woken.append(env.now)

    def firer(env):
        yield env.timeout(1.0)
        sig.fire()
        yield env.timeout(9.0)
        sig.fire()

    env.process(late_waiter(env))
    env.process(firer(env))
    env.run()
    assert woken == [10.0]


def test_signal_waiting_count():
    env = Environment()
    sig = Signal(env)

    def waiter(env):
        yield sig.wait()

    env.process(waiter(env))
    env.run()  # waiter parked; queue drains
    assert sig.waiting == 1
    sig.fire()
    env.run()
    assert sig.waiting == 0


# ------------------------------------------------------------------ Gate ----
def test_gate_open_completes_immediately():
    env = Environment()
    gate = Gate(env, is_open=True)

    def proc(env):
        yield gate.wait()
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_gate_closed_blocks_until_open():
    env = Environment()
    gate = Gate(env)

    def proc(env):
        yield gate.wait()
        return env.now

    def opener(env):
        yield env.timeout(4.0)
        gate.open()

    p = env.process(proc(env))
    env.process(opener(env))
    env.run()
    assert p.value == 4.0
    assert gate.is_open


def test_gate_close_reblocks():
    env = Environment()
    gate = Gate(env, is_open=True)
    gate.close()
    times = []

    def proc(env):
        yield gate.wait()
        times.append(env.now)

    def opener(env):
        yield env.timeout(1.0)
        gate.open()

    env.process(proc(env))
    env.process(opener(env))
    env.run()
    assert times == [1.0]


# ------------------------------------------------------------- Semaphore ----
def test_semaphore_limits_concurrency():
    env = Environment()
    sem = Semaphore(env, 2)
    active = [0]
    peak = [0]

    def worker(env):
        yield from sem.acquire()
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield env.timeout(1.0)
        active[0] -= 1
        sem.release()

    for _ in range(5):
        env.process(worker(env))
    env.run()
    assert peak[0] == 2
    # 5 workers, 2 at a time, 1s each → ceil(5/2) = 3 time units
    assert env.now == 3.0


def test_semaphore_fcfs_order():
    env = Environment()
    sem = Semaphore(env, 1)
    order = []

    def worker(env, tag, start):
        yield env.timeout(start)
        yield from sem.acquire()
        order.append(tag)
        yield env.timeout(10.0)
        sem.release()

    env.process(worker(env, "first", 0.0))
    env.process(worker(env, "second", 1.0))
    env.process(worker(env, "third", 2.0))
    env.run()
    assert order == ["first", "second", "third"]


def test_semaphore_over_release_is_error():
    env = Environment()
    sem = Semaphore(env, 1)
    with pytest.raises(RuntimeError):
        sem.release()


def test_semaphore_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Semaphore(env, 0)


def test_semaphore_counts():
    """An uncontended request takes the token at once and returns the
    bare zero-delay sleep ``0.0`` for the holder to yield."""
    env = Environment()
    sem = Semaphore(env, 3)
    assert sem.available == 3
    req = sem.request()
    assert req == 0.0 and type(req) is float
    assert sem.available == 2


def test_semaphore_contended_request_queues_fcfs():
    """At capacity 1 a request while the token is held returns a pending
    event, queued FCFS.  ``release()`` triggers the oldest one and passes
    the token on (``available`` stays 0); its waiter resumes at the
    release instant."""
    env = Environment()
    sem = Semaphore(env, 1)
    assert sem.request() == 0.0
    first = sem.request()
    second = sem.request()
    for req in (first, second):
        assert isinstance(req, Event) and not req.triggered
    assert sem.available == 0
    resumed = []

    def waiter(tag, req):
        yield req
        resumed.append((tag, env.now))
        yield 1.0
        sem.release()

    def holder():
        yield 2.0
        sem.release()
        assert first.triggered and not second.triggered
        assert sem.available == 0

    # Spawned in reverse request order: the queue, not the spawn order,
    # decides who is served first.
    env.process(waiter("second", second))
    env.process(waiter("first", first))
    env.process(holder())
    env.run()
    assert resumed == [("first", 2.0), ("second", 3.0)]
    assert sem.available == 1


# ------------------------------------------------------------ AllOf/AnyOf ----
def test_all_of_waits_for_slowest():
    env = Environment()

    def proc(env):
        vals = yield AllOf(env, [env.timeout(1.0, value="a"),
                                 env.timeout(3.0, value="b"),
                                 env.timeout(2.0, value="c")])
        return (env.now, vals)

    p = env.process(proc(env))
    env.run()
    assert p.value == (3.0, ["a", "b", "c"])


def test_all_of_empty_completes_immediately():
    env = Environment()

    def proc(env):
        vals = yield AllOf(env, [])
        return vals

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_all_of_propagates_failure():
    env = Environment()
    bad = env.event()

    def proc(env):
        try:
            yield AllOf(env, [env.timeout(5.0), bad])
        except RuntimeError as exc:
            return (env.now, str(exc))

    def firer(env):
        yield env.timeout(1.0)
        bad.fail(RuntimeError("dead"))

    p = env.process(proc(env))
    env.process(firer(env))
    env.run()
    assert p.value == (1.0, "dead")


def test_any_of_returns_first():
    env = Environment()

    def proc(env):
        idx, val = yield AnyOf(env, [env.timeout(5.0, value="slow"),
                                     env.timeout(1.0, value="fast")])
        return (env.now, idx, val)

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, 1, "fast")


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        AnyOf(env, [])


# --------------------------------------------------------------- bounded ----
def test_bounded_event_wins_and_abandons_the_timer():
    env = Environment()
    sig = Signal(env)
    out = {}

    def waiter(env):
        out["fired"] = yield from bounded(sig.wait(), 5.0)
        out["at"] = env.now

    def firer(env):
        yield 2.0
        sig.fire()

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert out == {"fired": True, "at": 2.0}
    assert env.now == 2.0  # the abandoned timer did not stretch the run


def test_bounded_timer_wins_and_abandons_the_event():
    env = Environment()
    sig = Signal(env)
    ev = sig.wait()
    seen = []
    ev.add_callback(seen.append)
    out = {}

    def waiter(env):
        out["fired"] = yield from bounded(ev, 3.0)
        out["at"] = env.now

    env.process(waiter(env))
    env.run()
    assert out == {"fired": False, "at": 3.0}
    assert env.now == 3.0 and ev.abandoned
    # A late fire triggers the abandoned event, but the dispatch loop
    # drops it without running its callbacks.
    sig.fire()
    env.run()
    assert ev.triggered and seen == []


@pytest.mark.parametrize("waiter_first", [True, False])
def test_bounded_same_step_tie_counts_as_fired(waiter_first):
    """The event fires in the step the timer expires: whichever arm the
    race saw first, the wait reports the event as fired."""
    env = Environment()
    sig = Signal(env)
    out = {}

    def waiter(env):
        ev = sig.wait()
        out["fired"] = yield from bounded(ev, 1.0)
        out["at"] = env.now
        out["abandoned"] = ev.abandoned

    def firer(env):
        yield 1.0
        sig.fire()

    procs = [waiter, firer] if waiter_first else [firer, waiter]
    for proc in procs:
        env.process(proc(env))
    env.run()
    assert out == {"fired": True, "at": 1.0, "abandoned": False}
