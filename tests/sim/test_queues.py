"""Unit tests for Store, Signal and Resource primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Signal, Store
from repro.sim.core import has_live_callbacks


def test_store_fifo_order():
    env = Environment()
    got = []

    def producer(store):
        for i in range(5):
            yield store.put(i)

    def consumer(store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    store = Store(env)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    env = Environment()
    got = []

    def consumer(store):
        item = yield store.get()
        got.append((env.now, item))

    def producer(store):
        yield env.timeout(7)
        yield store.put("late")

    store = Store(env)
    env.process(consumer(store))
    env.process(producer(store))
    env.run()
    assert got == [(7, "late")]


def test_store_capacity_blocks_putter():
    env = Environment()
    put_times = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            put_times.append(env.now)

    def consumer(store):
        yield env.timeout(10)
        yield store.get()

    store = Store(env, capacity=2)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    # First two puts are immediate; third waits for the get at t=10.
    assert put_times == [0, 0, 10]


def test_store_try_put_and_try_get():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_get() is None
    assert store.try_put("a")
    assert not store.try_put("b")
    assert store.try_get() == "a"


def test_store_clear_drops_items_and_admits_putters():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("a")
    admitted = []

    def producer():
        yield store.put("b")
        admitted.append(env.now)

    env.process(producer())
    env.run(until=1)
    assert store.clear() == ["a"]
    env.run(until=2)
    assert admitted == [1]
    assert list(store.items) == ["b"]


def test_store_cancel_waiters():
    env = Environment()
    store = Store(env)
    failed = []

    def consumer():
        try:
            yield store.get()
        except ConnectionError:
            failed.append(True)

    env.process(consumer())
    env.run(until=1)
    store.cancel_waiters(ConnectionError("torn down"))
    env.run(until=2)
    assert failed == [True]


def test_store_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_resource_acquire_release_cycle():
    env = Environment()
    pool = Resource(env, capacity=2)
    times = []

    def worker(tag):
        yield pool.acquire()
        times.append((env.now, tag, "acq"))
        yield env.timeout(5)
        pool.release()

    env.process(worker("a"))
    env.process(worker("b"))
    env.process(worker("c"))
    env.run()
    acquire_times = [t for t, _tag, _ in times]
    assert acquire_times == [0, 0, 5]


def test_resource_try_acquire_respects_waiters():
    env = Environment()
    pool = Resource(env, capacity=1)
    assert pool.try_acquire()

    def waiter():
        yield pool.acquire()

    env.process(waiter())
    env.run(until=1)
    # A waiter is queued, so try_acquire must not jump the line even after
    # release makes capacity available again.
    pool.release()
    env.run(until=2)
    assert pool.available == 0
    assert not pool.try_acquire()


def test_resource_over_release_rejected():
    env = Environment()
    pool = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        pool.release()


def test_resource_resize_grow_admits_waiters():
    env = Environment()
    pool = Resource(env, capacity=1)
    assert pool.try_acquire()
    acquired = []

    def waiter():
        yield pool.acquire()
        acquired.append(env.now)

    env.process(waiter())
    env.run(until=1)
    pool.resize(2)
    env.run(until=2)
    assert acquired == [1]


def test_signal_pulse_wakes_every_waiter_at_the_pulse_instant():
    env = Environment()
    signal = Signal(env)
    woken = []

    def waiter(tag):
        yield signal.wait()
        woken.append((tag, env.now))

    for tag in "abc":
        env.process(waiter(tag))
    env.schedule_callback(2.0, signal.pulse)
    env.run()
    assert sorted(woken) == [("a", 2.0), ("b", 2.0), ("c", 2.0)]


def test_signal_pulse_without_a_waiter_schedules_nothing():
    env = Environment()
    signal = Signal(env)
    signal.pulse()
    assert env.peek() == float("inf")
    # ... and is not remembered: a later waiter needs a later pulse.
    woken = []

    def waiter():
        yield signal.wait()
        woken.append(env.now)

    env.process(waiter())
    env.run(until=1)
    assert woken == []
    signal.pulse()
    env.run(until=2)
    assert woken == [1]


def test_signal_killed_waiter_leaves_no_live_callback():
    env = Environment()
    signal = Signal(env)
    waits = []
    woken = []

    def waiter():
        waits.append(signal.wait())
        yield waits[-1]
        woken.append(env.now)

    proc = env.process(waiter())
    env.run(until=1)
    assert has_live_callbacks(waits[0])
    proc.kill()
    assert not has_live_callbacks(waits[0])
    signal.pulse()  # pulsing the dead waiter is harmless
    env.run(until=2)
    assert woken == []


def test_signal_sleep_is_cut_short_by_a_pulse_and_the_stale_timeout_is_inert():
    env = Environment()
    signal = Signal(env)
    woken = []

    def sleeper():
        yield signal.sleep(5.0)
        woken.append(env.now)
        yield env.timeout(100.0)  # must not be cut short by the later pulses
        woken.append(env.now)

    env.process(sleeper())
    env.schedule_callback(2.0, signal.pulse)
    env.schedule_callback(2.0, signal.pulse)  # a second pulse is harmless
    env.schedule_callback(7.0, signal.pulse)
    env.run(until=3)
    assert woken == [2.0]  # at the pulse instant, not at t=5
    env.run(until=6)  # the pre-empted timeout pops at t=5: a no-op
    assert woken == [2.0]
    env.run()
    assert woken == [2.0, 102.0]


def test_signal_sleep_that_times_out_ignores_a_same_instant_pulse():
    env = Environment()
    signal = Signal(env)
    woken = []

    def sleeper():
        yield signal.sleep(5.0)
        woken.append(env.now)
        yield env.timeout(1.0)
        woken.append(env.now)

    env.process(sleeper())
    env.run(until=4)
    # Scheduled after the sleep's own timeout, so at t=5 the timeout wins
    # and the pulse finds the sleeper already on its next wait.
    env.schedule_callback(1.0, signal.pulse)
    env.run()
    assert woken == [5.0, 6.0]


def test_signal_waits_and_sleeps_that_are_never_pulsed_leave_nothing_behind():
    import gc

    from repro.sim import Event

    env = Environment()
    control, timers = Signal(env), Signal(env)

    def task():
        for _ in range(10_000):
            control.wait()
            timers.wait()
            yield control.sleep(1e-3)

    env.process(task())
    env.run()
    gc.collect()
    live = sum(
        1 for obj in gc.get_objects() if isinstance(obj, Event) and obj.env is env
    )
    assert live < 10, live
