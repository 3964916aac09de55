"""More DES kernel edge cases: an ``AllOf`` over an already-triggered
event, and a clock that starts at a non-zero time."""

from repro.sim import AllOf, Environment


def test_all_of_with_already_triggered_events():
    env = Environment()
    done = env.event()
    done.succeed("early")

    def proc(env):
        vals = yield AllOf(env, [done, env.timeout(2.0, value="late")])
        return vals

    p = env.process(proc(env))
    env.run()
    assert p.value == ["early", "late"]


def test_environment_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 105.0
