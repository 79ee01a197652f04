"""Receiver-side networking: input channels and the input gate.

The gate consumes buffers *in arrival order across channels* — the record
arrival order of Section 4.1, one of the sources of nondeterminism Clonos
must log.  Barrier alignment blocks individual channels; blocked channels
keep queueing until their credits run out, which backpressures the sender,
exactly as in Flink.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.buffer import NetworkBuffer
from repro.sim.core import Environment, Event
from repro.sim.queues import Signal, Store


class InputChannel:
    """Receiver endpoint of one channel: a bounded (credit) buffer queue."""

    def __init__(self, env: Environment, index: int, capacity: int, upstream_name: str = ""):
        self.env = env
        self.index = index
        self.upstream_name = upstream_name
        self.queue: Store[NetworkBuffer] = Store(env, capacity=capacity)
        #: Sequence number of the last buffer *consumed* by the task; the
        #: reconnect handshake reports it for sender-side deduplication.
        self.last_seq = -1
        #: Alignment: a blocked channel is not consumed from.
        self.blocked = False
        #: Arrival notifications consumed while blocked (buffers still queued).
        self.deferred = 0
        #: Highest sequence number *delivered* into the queue (reported in
        #: the reconnect handshake for sender-side deduplication; consumption
        #: may lag behind).
        self.delivered_seq = -1
        #: Notifications made stale by a direct take_from (ordered replay).
        self.owed_notifications = 0
        self._closed = False
        self._gate: Optional["InputGate"] = None

    def deliver(self, buffer: NetworkBuffer) -> Event:
        """Called by the link; the returned event is pending only when the
        channel is out of credits (the link then waits for it)."""
        if self._closed:
            failed = Event(self.env)
            failed.fail(NetworkError(f"input channel {self.index} closed"))
            return failed
        # Notify the gate only once the buffer is actually queued.
        if self.queue.try_put(buffer):
            self._on_queued(buffer.seq)
            return self.env.no_wait
        done = self.queue.put(buffer)
        done.callbacks.append(lambda _ev, seq=buffer.seq: self._on_queued(seq))
        return done

    def _on_queued(self, seq: int) -> None:
        if seq > self.delivered_seq:
            self.delivered_seq = seq
        if self._gate is not None and not self._closed:
            self._gate._notify_arrival(self.index)

    def close(self) -> None:
        """Tear down (task died): fail blocked senders, drop queued data."""
        self._closed = True
        self.queue.cancel_waiters(NetworkError("input channel torn down"))
        for buffer in self.queue.clear():
            if buffer.recycle_on_consume:
                buffer.recycle()

    def __repr__(self) -> str:
        return (
            f"InputChannel({self.index}, queued={len(self.queue)}, "
            f"blocked={self.blocked}, last_seq={self.last_seq})"
        )


class InputGate:
    """Multiplexes a task's input channels in arrival order."""

    def __init__(
        self, env: Environment, channels: List[InputChannel], signal: Optional[Signal] = None
    ):
        self.env = env
        self.channels = channels
        self._order: Deque[int] = deque()
        self._ready: Deque[int] = deque()
        #: Pulsed whenever a new buffer becomes consumable; a task passes the
        #: one signal its control queue and timers pulse too.
        self.arrival_signal = signal if signal is not None else Signal(env)
        for channel in channels:
            channel._gate = self

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def _notify_arrival(self, index: int) -> None:
        self._order.append(index)
        self.arrival_signal.pulse()

    def poll_buffer(self) -> Optional[Tuple[int, NetworkBuffer]]:
        """Next (channel, buffer) from an unblocked channel, or None."""
        while True:
            index = self._take_ready()
            if index is None:
                if not self._order:
                    return None
                index = self._order.popleft()
            channel = self.channels[index]
            if channel.owed_notifications:
                channel.owed_notifications -= 1
                continue
            if channel.blocked:
                channel.deferred += 1
                continue
            buffer = channel.queue.try_get()
            if buffer is None:
                raise NetworkError("arrival notification without queued buffer")
            channel.last_seq = buffer.seq
            return index, buffer

    def next_buffer(self):
        """Generator: block until a buffer is consumable, then return
        ``(channel_index, buffer)``."""
        while True:
            item = self.poll_buffer()
            if item is not None:
                return item
            yield self.arrival_signal.wait()

    def take_from(self, index: int):
        """Generator: consume the next buffer of a *specific* channel,
        bypassing arrival order — used by determinant-driven replay, where
        Order determinants dictate the interleaving (Section 5.2)."""
        channel = self.channels[index]
        buffer = yield channel.queue.get()
        channel.last_seq = buffer.seq
        channel.owed_notifications += 1
        return buffer

    def _take_ready(self) -> Optional[int]:
        while self._ready:
            index = self._ready.popleft()
            if self.channels[index].blocked:
                self.channels[index].deferred += 1
                continue
            return index
        return None

    def block_channel(self, index: int) -> None:
        """Barrier alignment: stop consuming from this channel."""
        self.channels[index].blocked = True

    def unblock_all(self) -> None:
        """End of alignment: release all channels, replaying deferred
        arrival notifications in channel order."""
        woke_any = False
        for channel in self.channels:
            channel.blocked = False
            if channel.deferred:
                self._ready.extend([channel.index] * channel.deferred)
                channel.deferred = 0
                woke_any = True
        if woke_any:
            self.arrival_signal.pulse()

    def close(self) -> None:
        for channel in self.channels:
            channel.close()
