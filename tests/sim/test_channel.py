"""Unit tests for Store."""

from repro.sim import Environment, Store


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [i for _, i in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(7.0)
        yield store.put("late")

    p = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert p.value == (7.0, "late")


def test_store_filtered_get():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put({"tag": 1, "v": "one"})
        yield store.put({"tag": 2, "v": "two"})

    def consumer(env):
        item = yield store.get(lambda m: m["tag"] == 2)
        return item["v"]

    env.process(producer(env))
    p = env.process(consumer(env))
    env.run()
    assert p.value == "two"
    assert len(store) == 1  # tag 1 still buffered


def test_store_filtered_get_waits_for_match():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put(1)
        yield env.timeout(3.0)
        yield store.put(2)

    def consumer(env):
        item = yield store.get(lambda x: x == 2)
        return (env.now, item)

    env.process(producer(env))
    p = env.process(consumer(env))
    env.run()
    assert p.value == (3.0, 2)


def test_store_multiple_getters_fcfs():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", "x"), ("second", "y")]


def test_new_item_goes_to_the_oldest_getter_it_matches():
    env = Environment()
    store = Store(env)
    evens = store.get(lambda x: x % 2 == 0)
    odd_first = store.get(lambda x: x % 2 == 1)
    odd_second = store.get(lambda x: x % 2 == 1)
    store.try_put(3)
    assert odd_first.value == 3
    assert not evens.triggered and not odd_second.triggered
    store.try_put(4)
    store.try_put(6)
    assert evens.value == 4 and store.items == (6,)
    assert not odd_second.triggered


def test_filtered_get_skips_older_items():
    env = Environment()
    store = Store(env)
    store.try_put(1)
    store.try_put(2)
    assert store.get(lambda x: x > 1).value == 2
    assert store.items == (1,)
    assert store.get().value == 1
    assert len(store) == 0
