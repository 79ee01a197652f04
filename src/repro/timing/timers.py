"""Timer service: processing-time and event-time timers.

Processing-time timers are *nondeterministic* (Section 4.1): the instant a
timer fires relative to the record stream depends on wall-clock scheduling.
Clonos therefore assigns every timer a unique id and logs a ``TimerFired``
determinant carrying the stream offset at which it interleaved; on recovery
the timer is re-fired at exactly that offset (Section 4.2).

Event-time timers fire on watermark advance, which is deterministic *given
the watermarks* — and the watermarks themselves are logged at their
nondeterministic origin (the sources).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import StateError
from repro.sim.core import Environment
from repro.sim.queues import Signal


class Timer:
    """One registered timer."""

    __slots__ = ("timer_id", "key", "namespace", "fire_time", "payload", "is_event_time")

    def __init__(
        self,
        timer_id: str,
        key: Any,
        namespace: str,
        fire_time: float,
        payload: Any,
        is_event_time: bool,
    ):
        self.timer_id = timer_id
        self.key = key
        self.namespace = namespace
        self.fire_time = fire_time
        self.payload = payload
        self.is_event_time = is_event_time

    def to_state(self) -> tuple:
        return (
            self.timer_id,
            self.key,
            self.namespace,
            self.fire_time,
            self.payload,
            self.is_event_time,
        )

    @staticmethod
    def from_state(state: tuple) -> "Timer":
        return Timer(*state)

    def __repr__(self) -> str:
        kind = "event" if self.is_event_time else "proc"
        return f"Timer({self.timer_id}, {kind}@{self.fire_time}, key={self.key!r})"


class TimerService:
    """Per-task timer bookkeeping.

    Due processing-time timers are queued and the ``due_signal`` pulsed; the
    task's mailbox loop drains them between buffers — the interleaving point
    is where the nondeterminism lives.
    """

    def __init__(self, env: Environment, signal: Optional[Signal] = None):
        self.env = env
        self.due_signal = signal if signal is not None else Signal(env)
        self._due: List[Timer] = []
        self._proc_timers: Dict[str, Timer] = {}
        self._event_heap: List[Tuple[float, int, Timer]] = []
        self._event_timers: Dict[str, Timer] = {}
        self._seq = 0
        #: While True (recovery replay), processing timers are parked instead
        #: of armed; :meth:`arm_parked` schedules them when replay ends.
        self.suspended = False
        self._parked: List[Timer] = []

    # -- registration ----------------------------------------------------------

    def new_timer_id(self, namespace: str) -> str:
        self._seq += 1
        return f"{namespace}#{self._seq}"

    def register_processing_timer(
        self, fire_time: float, key: Any, namespace: str, payload: Any = None,
        timer_id: Optional[str] = None,
    ) -> Timer:
        timer = Timer(
            timer_id or self.new_timer_id(namespace),
            key, namespace, fire_time, payload, is_event_time=False,
        )
        if timer.timer_id in self._proc_timers:
            return self._proc_timers[timer.timer_id]  # idempotent re-register
        self._proc_timers[timer.timer_id] = timer
        if self.suspended:
            self._parked.append(timer)
        else:
            self._arm(timer)
        return timer

    def register_event_timer(
        self, fire_time: float, key: Any, namespace: str, payload: Any = None,
        timer_id: Optional[str] = None,
    ) -> Timer:
        timer = Timer(
            timer_id or self.new_timer_id(namespace),
            key, namespace, fire_time, payload, is_event_time=True,
        )
        if timer.timer_id in self._event_timers:
            return self._event_timers[timer.timer_id]
        self._event_timers[timer.timer_id] = timer
        self._seq += 1
        heapq.heappush(self._event_heap, (fire_time, self._seq, timer))
        return timer

    def cancel(self, timer_id: str) -> None:
        self._proc_timers.pop(timer_id, None)
        self._event_timers.pop(timer_id, None)

    def _arm(self, timer: Timer) -> None:
        delay = max(0.0, timer.fire_time - self.env.now)
        self.env.schedule_callback(delay, lambda t=timer: self._on_armed_fire(t))

    def _on_armed_fire(self, timer: Timer) -> None:
        if timer.timer_id not in self._proc_timers:
            return  # cancelled or already fired via determinant replay
        del self._proc_timers[timer.timer_id]
        self._due.append(timer)
        self.due_signal.pulse()

    # -- consumption by the task loop ----------------------------------------

    def has_due(self) -> bool:
        return bool(self._due)

    def pop_due(self) -> Timer:
        if not self._due:
            raise StateError("no due timer")
        return self._due.pop(0)

    def force_fire(self, timer_id: str) -> Optional[Timer]:
        """Recovery: fire a specific processing timer now (determinant
        replay), regardless of its wall-clock fire time."""
        timer = self._proc_timers.pop(timer_id, None)
        if timer is not None:
            self._parked = [t for t in self._parked if t.timer_id != timer_id]
        return timer

    def advance_watermark(self, watermark_ts: float) -> List[Timer]:
        """Pop and return all event-time timers due at this watermark."""
        fired = []
        while self._event_heap and self._event_heap[0][0] <= watermark_ts:
            _ts, _seq, timer = heapq.heappop(self._event_heap)
            if timer.timer_id in self._event_timers:
                del self._event_timers[timer.timer_id]
                fired.append(timer)
        return fired

    # -- recovery lifecycle -----------------------------------------------------

    def suspend(self) -> None:
        self.suspended = True

    def arm_parked(self) -> None:
        """End of recovery: arm surviving parked/restored processing timers;
        overdue ones fire immediately."""
        self.suspended = False
        parked, self._parked = self._parked, []
        for timer in parked:
            if timer.timer_id in self._proc_timers:
                self._arm(timer)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "proc": [t.to_state() for t in self._proc_timers.values()],
            "event": [t.to_state() for t in self._event_timers.values()],
            "seq": self._seq,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self._due.clear()
        self._proc_timers.clear()
        self._event_timers.clear()
        self._event_heap.clear()
        self._parked.clear()
        self._seq = state["seq"]
        order = 0
        for t_state in state["event"]:
            timer = Timer.from_state(tuple(t_state))
            self._event_timers[timer.timer_id] = timer
            order += 1
            heapq.heappush(self._event_heap, (timer.fire_time, order, timer))
        for t_state in state["proc"]:
            timer = Timer.from_state(tuple(t_state))
            self._proc_timers[timer.timer_id] = timer
            self._parked.append(timer)
        # Caller decides when to arm the parked timers (after replay).
        self.suspended = True
