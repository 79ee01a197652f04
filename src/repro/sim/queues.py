"""Waitable queues and resources for the simulation kernel.

These are the synchronisation primitives the stream-processor model is built
from: bounded FIFO stores (network queues, mailboxes) and counted resources
(buffer pools).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, List, Optional, TypeVar

from repro.errors import SimulationError
from repro.sim.core import (
    NORMAL,
    Environment,
    Event,
    Process,
    Timeout,
    _make_resume_event,
    has_live_callbacks,
)

T = TypeVar("T")


class Store(Generic[T]):
    """A FIFO queue whose ``get``/``put`` return waitable events.

    ``capacity`` bounds the number of stored items; a ``put`` on a full store
    blocks (its event stays pending) until a slot frees up.  FIFO fairness is
    preserved for both putters and getters.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> Event:
        """Queue ``item``; the returned event triggers once it is accepted."""
        ev = Event(self.env)
        if self._getters and not self.items:
            # Hand the item directly to the longest-waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: T) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters and not self.items:
            self._getters.popleft().succeed(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Returned event triggers with the next item."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[T]:
        """Non-blocking get; returns None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._admit_putter()
        return item

    def peek(self) -> Optional[T]:
        return self.items[0] if self.items else None

    def clear(self) -> List[T]:
        """Drop all stored items (used when a task dies)."""
        dropped = list(self.items)
        self.items.clear()
        while self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()
        return dropped

    def drop_waiting_puts(self) -> List[T]:
        """Silently discard queued puts (their events never trigger).  Only
        valid when the putters' processes are dead (failure teardown)."""
        items = [item for (_ev, item) in self._putters]
        self._putters.clear()
        return items

    def cancel_waiters(self, exc: Exception) -> None:
        """Fail every pending get/put (used on channel teardown).

        Waits whose process has since been killed have no *live* callbacks
        left (a detached process leaves an inert tombstone); failing those
        would surface the exception to nobody (the kernel raises unwaited
        failures), so they are discarded instead."""
        while self._getters:
            ev = self._getters.popleft()
            if has_live_callbacks(ev):
                ev.fail(exc)
        while self._putters:
            ev, _item = self._putters.popleft()
            if has_live_callbacks(ev):
                ev.fail(exc)

    def _admit_putter(self) -> None:
        if self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class Signal:
    """A pulse-able condition: waiters get woken, then re-check state.

    Used in the check-then-wait pattern: a consumer polls its queues, and if
    empty waits on the signal; producers pulse after enqueueing.  Because the
    kernel is cooperative (no preemption between the poll and the wait),
    wakeups cannot be lost.

    All waits between two pulses share one pending event, so waiting again
    and again on a signal nobody pulses leaves nothing behind.  A process
    that must also wake at a deadline calls :meth:`sleep`: racing ``wait()``
    against a timeout in an ``AnyOf`` leaves the unpulsed side registered.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._pending: Optional[Event] = None
        self._sleeper: Optional[Process] = None
        self._nap: Optional[Timeout] = None

    def wait(self) -> Event:
        ev = self._pending
        if ev is None:
            ev = self._pending = Event(self.env)
        return ev

    def sleep(self, delay: float) -> Timeout:
        """A timeout for the calling process to yield, which the next pulse
        cuts short.  Single sleeper: only the process that owns the signal
        may sleep on it (a second sleeper would take over the wake-up)."""
        self._sleeper = self.env.active_process
        self._nap = nap = Timeout(self.env, delay)
        return nap

    def pulse(self) -> None:
        ev = self._pending
        if ev is not None:
            self._pending = None
            ev.succeed()
        nap = self._nap
        if nap is not None:
            self._nap = None
            if self._sleeper._target is nap:
                wake = _make_resume_event(self.env, self._preempt, True, nap)
                self.env._schedule(wake, NORMAL)

    def _preempt(self, event: Event) -> None:
        # Resuming detaches the sleeper from its timeout (which then pops as
        # a no-op) — unless the timeout fired first at this same instant.
        sleeper = self._sleeper
        if sleeper._target is event._value:
            sleeper._resume(event)


class Resource:
    """A counted resource (semaphore), e.g. a pool of network buffers."""

    def __init__(self, env: Environment, capacity: int):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._available = capacity
        self._waiters: Deque[tuple] = deque()  # (event, amount)

    @property
    def available(self) -> int:
        return self._available

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    def acquire(self, amount: int = 1) -> Event:
        if amount > self.capacity:
            raise SimulationError("acquire exceeds resource capacity")
        ev = Event(self.env)
        if self._available >= amount and not self._waiters:
            self._available -= amount
            ev.succeed()
        else:
            self._waiters.append((ev, amount))
        return ev

    def try_acquire(self, amount: int = 1) -> bool:
        if self._available >= amount and not self._waiters:
            self._available -= amount
            return True
        return False

    def release(self, amount: int = 1) -> None:
        self._available += amount
        if self._available > self.capacity:
            raise SimulationError("resource over-released")
        while self._waiters and self._available >= self._waiters[0][1]:
            ev, amt = self._waiters.popleft()
            self._available -= amt
            ev.succeed()

    def resize(self, capacity: int) -> None:
        """Grow or shrink the pool; shrinking below in-use is deferred."""
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        delta = capacity - self.capacity
        self.capacity = capacity
        if delta > 0:
            self.release(delta)
        else:
            self._available = max(0, self._available + delta)
