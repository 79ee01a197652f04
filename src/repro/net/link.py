"""Network links: reliable FIFO wires between task endpoints.

A :class:`NetworkLink` is the physical connection behind one logical channel.
It survives the failure of either endpoint; recovery *re-attaches* a new
sender or receiver (Section 6.2, dynamic network reconfiguration) and the
link reports the hand-shake information both sides need (the receiver's last
received sequence number, used for sender-side deduplication).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import CostModel
from repro.net.buffer import NetworkBuffer
from repro.sim.core import Environment, Event
from repro.sim.queues import Store


class LinkChaos:
    """Fault state injected into one :class:`NetworkLink` by ``repro.chaos``.

    Three fault shapes, all FIFO-preserving:

    * **delay spike** — ``delay_factor`` scales transmission time;
    * **partition** — delivery holds (senders back up on the in-transit
      window) until :meth:`heal`;
    * **buffer loss** — the next ``drop_next`` deliveries are discarded and
      the link goes *broken* (every later delivery is dropped too, because
      delivering a successor of a lost buffer would violate FIFO); repair is
      sender-driven: the chaos engine notices the loss via ``on_loss`` and
      has the upstream's in-flight log retransmit from the receiver's last
      delivered sequence number.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.delay_factor = 1.0
        self.partitioned = False
        #: Set by the link while it holds a transmitted buffer back.
        self.on_heal: Optional[Callable[[], None]] = None
        #: Pending injected drops; the first one breaks the link.
        self.drop_next = 0
        self.broken = False
        self.dropped = 0
        #: Called once per loss episode with the link.
        self.on_loss = None

    def heal(self) -> None:
        if self.partitioned:
            self.partitioned = False
            resume, self.on_heal = self.on_heal, None
            if resume is not None:
                resume()


class ReceiverEndpoint:
    """What a link needs from the receiving side (implemented by
    :class:`repro.net.gate.InputChannel`)."""

    def deliver(self, buffer: NetworkBuffer) -> Event:
        """Return a waitable event; a pending one models exhausted credits,
        ``env.no_wait`` a buffer taken on the spot."""
        raise NotImplementedError


class NetworkLink:
    """One FIFO wire with latency, bandwidth, and a small in-transit window.

    While no receiver is attached (the downstream task is dead and not yet
    replaced), delivered buffers are *dropped*: this is precisely the data
    that upstream in-flight logs exist to regenerate.

    A callback state machine, one kernel event (the transmission timeout)
    per buffer: idle -> on the wire -> [held by a partition] -> delivered,
    dropped or waiting for a credit -> next in the window, else idle
    (DESIGN.md, "Per-buffer event budget", has the diagram).
    """

    def __init__(self, env: Environment, cost: CostModel, name: str = "", capacity: int = 4):
        self.env = env
        self.cost = cost
        self.name = name
        #: Accepted buffers waiting for the wire, and sends blocked on it.
        self._wire: Store[NetworkBuffer] = Store(env, capacity=capacity)
        #: The buffer on the wire, held by a partition or out of credits.
        self._current: Optional[NetworkBuffer] = None
        self._receiver: Optional[ReceiverEndpoint] = None
        #: Bumped on reset()/purge(): the buffer on the wire at that moment
        #: is dropped on arrival (data in the TCP stack dies with the
        #: connection).
        self._generation = 0
        self._current_generation = 0
        #: Buffers dropped because the receiver was dead; for assertions.
        self.dropped_buffers = 0
        #: Total payload + determinant bytes carried, for overhead metrics.
        self.bytes_carried = 0
        self.buffers_carried = 0
        #: Installed by the chaos engine; None on healthy links (zero cost).
        self.chaos: Optional[LinkChaos] = None

    @property
    def receiver(self) -> Optional[ReceiverEndpoint]:
        return self._receiver

    def attach_receiver(self, receiver: ReceiverEndpoint) -> None:
        """Connect (or re-connect after recovery) the receiving endpoint."""
        self._receiver = receiver

    def detach_receiver(self) -> None:
        """Called when the downstream task dies: in-transit data is lost."""
        self._receiver = None

    def send(self, buffer: NetworkBuffer) -> Event:
        """Hand a buffer to the wire; the returned event is pending only
        when the transmit window is full."""
        if self._current is None:
            self._transmit(buffer)
        elif not self._wire.try_put(buffer):
            return self._wire.put(buffer)
        return self.env.no_wait

    def reset(self) -> int:
        """Connection reset (the sender died): in-transit data is lost and
        the dead sender's queued puts are purged.  Returns dropped count."""
        self._generation += 1
        # Blocked puts first: clear() would admit them into the freed window.
        dropped = self._wire.drop_waiting_puts() + self._wire.clear()
        for buffer in dropped:
            self._drop(buffer)
        return len(dropped)

    def try_send(self, buffer: NetworkBuffer) -> bool:
        if self._current is None:
            self._transmit(buffer)
            return True
        return self._wire.try_put(buffer)

    @property
    def in_transit(self) -> int:
        return len(self._wire)

    def purge(self) -> int:
        """Chaos repair: drop everything currently on the wire — queued
        buffers, the one mid-transmission (via the generation bump), and
        blocked puts (admitted, then dropped).  After a loss the in-flight
        log regenerates all of it; delivering any of it would break FIFO.
        Returns the number of buffers purged."""
        self._generation += 1
        count = 0
        while True:
            dropped = self._wire.clear()
            if not dropped:
                break
            for buffer in dropped:
                self._drop(buffer)
                count += 1
        return count

    def _transmit(self, buffer: NetworkBuffer) -> None:
        self._current = buffer
        self._current_generation = self._generation
        transmission = self.cost.transmission_time(buffer.total_bytes)
        chaos = self.chaos
        if chaos is not None and chaos.delay_factor != 1.0:
            transmission *= chaos.delay_factor
        self.env.timeout(transmission).callbacks.append(self._on_transmitted)

    def _on_transmitted(self, _event: Event) -> None:
        self.bytes_carried += self._current.total_bytes
        self.buffers_carried += 1
        chaos = self.chaos
        if chaos is not None and chaos.partitioned:
            # Partition: hold delivery (FIFO preserved); the bounded
            # in-transit window backpressures the sender meanwhile.
            chaos.on_heal = self._deliver
        else:
            self._deliver()

    def _deliver(self) -> None:
        buffer = self._current
        chaos = self.chaos
        receiver = self._receiver
        if receiver is None or self._current_generation != self._generation:
            self._drop(buffer)
        elif chaos is not None and (chaos.broken or chaos.drop_next > 0):
            # Injected loss.  After the first dropped buffer the link is
            # *broken* — delivering any successor would break FIFO — so
            # everything drains to the floor until the sender-side
            # repair (in-flight log retransmission) clears ``broken``.
            first = not chaos.broken
            if chaos.drop_next > 0:
                chaos.drop_next -= 1
            chaos.broken = True
            chaos.dropped += 1
            self._drop(buffer)
            if first and chaos.on_loss is not None:
                chaos.on_loss(self)
        else:
            taken = receiver.deliver(buffer)
            if taken.callbacks is not None:
                # Out of credits: the head of the line waits for the receiver.
                taken.callbacks.append(self._on_delivered)
                return
        self._next()

    def _on_delivered(self, event: Event) -> None:
        if not event._ok:
            # Receiver torn down while we were blocked on its credits.
            self._drop(self._current)
        self._next()

    def _next(self) -> None:
        self._current = self._wire.try_get()  # admits one blocked put, if any
        if self._current is not None:
            self._transmit(self._current)

    def _drop(self, buffer: NetworkBuffer) -> None:
        self.dropped_buffers += 1
        if buffer.recycle_on_consume:
            buffer.recycle()
