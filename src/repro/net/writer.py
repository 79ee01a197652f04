"""Sender-side networking: output channels and the record writer.

This is where three of the paper's mechanisms live:

* **Nondeterministic buffer sizes** (Section 4.1): buffers are cut either
  when full or when the periodic output flusher fires; the cut points are
  reported to the causal context so the per-channel output-queue log can
  record them.
* **Determinant piggybacking** (Section 4.3): at dispatch, the causal
  context hands back the delta of log entries since the last dispatch on
  this channel; its serialised size inflates the buffer on the wire — the
  measurable overhead of Figure 5.
* **The no-copy buffer exchange with the in-flight log** (Section 6.1):
  dispatched buffers transfer to the log pool and an output-pool permit is
  returned immediately, so the sender never blocks on downstream delivery;
  during a downstream replay, fresh buffers are parked *unsent* at the back
  of the log so processing keeps making progress.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.config import CostModel
from repro.errors import NetworkError
from repro.graph.elements import CheckpointBarrier, StreamElement, StreamRecord
from repro.net.buffer import BufferPool, NetworkBuffer
from repro.net.link import NetworkLink
from repro.net.partitioner import Partitioner
from repro.net.serialization import element_size
from repro.sim.core import Environment


class CausalOutputContext:
    """Hooks the Clonos causal-log manager implements (no-ops otherwise)."""

    def on_buffer_cut(
        self,
        channel_index: int,
        seq: int,
        num_elements: int,
        size_bytes: int,
        reason: str,
        epoch: int,
    ) -> None:
        """Record a buffer-size determinant in this channel's output log,
        under the *buffer's* epoch (a barrier-carrying buffer belongs to the
        epoch it closes, even though the main thread already advanced)."""

    def delta_for_dispatch(self, channel_index: int):
        """Return ``(delta, delta_bytes)`` to piggyback on the next buffer."""
        return None, 0


class InFlightLogSink:
    """Interface of the in-flight log as seen by an output channel."""

    def append(self, channel_index: int, buffer: NetworkBuffer, sent: bool):
        """Generator: take ownership of ``buffer`` (pool exchange) and log it."""
        raise NotImplementedError


class OutputChannel:
    """Sender endpoint of one channel."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        index: int,
        link: NetworkLink,
        pool: BufferPool,
        charge: Callable[[float], None],
        causal_ctx: Optional[CausalOutputContext] = None,
        inflight_log: Optional[InFlightLogSink] = None,
    ):
        self.env = env
        self.cost = cost
        self.index = index
        self.link = link
        self.pool = pool
        self.charge = charge
        self.causal_ctx = causal_ctx
        self.inflight_log = inflight_log
        #: Next buffer sequence number; checkpointed so a recovering task
        #: regenerates identical numbering.
        self.seq = 0
        #: Current checkpoint epoch of this channel (== last barrier id sent).
        self.epoch = 0
        self.current: Optional[NetworkBuffer] = None
        #: Replay of the in-flight log to a recovering downstream is active;
        #: fresh buffers are logged unsent instead of hitting the wire.
        self.replaying = False
        #: During causal recovery of *this* task: element counts at which the
        #: original execution cut buffers (from the output-queue log).
        self.forced_cuts: Deque[int] = deque()
        #: Sender-side deduplication (Section 5.2): regenerated buffers with
        #: seq <= this were already received downstream — log, don't send.
        self.suppress_until_seq = -1
        self._busy = False
        self.buffers_sent = 0
        self.records_sent = 0

    # -- normal path ---------------------------------------------------------

    def append_element(self, element: StreamElement, size: int):
        """Generator: serialise ``element`` into the channel, flushing as
        needed.  May block on buffer-pool availability (backpressure)."""
        self._busy = True
        try:
            if self.forced_cuts:
                yield from self._append_with_forced_cuts(element, size)
                return
            if self.current is not None and not self.current.fits(
                size, self.cost.buffer_size_bytes
            ):
                yield from self._dispatch("full")
            if self.current is None:
                yield from self._new_buffer()
            self.current.append(element, size)
        finally:
            self._busy = False

    def _append_with_forced_cuts(self, element: StreamElement, size: int):
        # Causal recovery: reproduce the original buffer boundaries exactly,
        # ignoring size/timer triggers.
        if self.current is None:
            yield from self._new_buffer()
        self.current.append(element, size)
        if len(self.current.elements) >= self.forced_cuts[0]:
            self.forced_cuts.popleft()
            yield from self._dispatch("replayed-cut")

    def flush(self, reason: str = "flush"):
        """Generator: dispatch the current (possibly partial) buffer."""
        self._busy = True
        try:
            if self.current is not None and self.current.elements:
                yield from self._dispatch(reason)
        finally:
            self._busy = False

    def try_flush_from_timer(self):
        """The output flusher thread's entry point; skips busy channels and
        returns a generator to run, or None."""
        if self._busy or self.current is None or not self.current.elements:
            return None
        if self.forced_cuts:
            return None  # causal recovery controls cuts exclusively
        return self.flush("timer")

    def _new_buffer(self):
        granted = self.pool.acquire()
        if granted.callbacks is not None:
            yield granted
        self.current = NetworkBuffer(self.index, self.seq, self.epoch, self.pool)
        self.seq += 1

    def _dispatch(self, reason: str):
        buffer, self.current = self.current, None
        self.charge(self.cost.buffer_overhead_cost)
        suppressed = buffer.seq <= self.suppress_until_seq
        parked = self.inflight_log is not None and self.replaying and not suppressed
        if self.causal_ctx is not None:
            self.causal_ctx.on_buffer_cut(
                self.index,
                buffer.seq,
                len(buffer.elements),
                buffer.size_bytes,
                reason,
                buffer.epoch,
            )
            # Capture a delta only for buffers that hit the wire *now*.
            # Parked buffers (downstream replay in progress) get a fresh
            # delta at actual send time, and suppressed buffers (sender-side
            # dedup) are never sent: advancing the delta cursor for either
            # would open a gap in the receiver's causal store.
            if not parked and not suppressed:
                delta, delta_bytes = self.causal_ctx.delta_for_dispatch(self.index)
                buffer.delta = delta
                buffer.delta_bytes = delta_bytes
                entries = 0
                for s in delta:
                    entries += s[4] - s[3]
                self.charge(
                    self.cost.serialize_time(delta_bytes)
                    + entries * self.cost.determinant_cpu_cost
                    + self.cost.determinant_cpu_cost  # the buffer-cut append
                )
        if self.inflight_log is not None:
            self.charge(self.cost.inflight_append_cost)
        self.buffers_sent += 1
        self.records_sent += buffer.n_records
        if self.inflight_log is not None:
            buffer.recycle_on_consume = False
            yield from self.inflight_log.append(self.index, buffer, sent=not parked)
        elif suppressed:
            buffer.recycle()  # deduplicated and unlogged: return the memory
        if not parked and not suppressed:
            accepted = self.link.send(buffer)
            if accepted.callbacks is not None:
                yield accepted

    # -- checkpoint & recovery support ---------------------------------------

    def snapshot_state(self) -> dict:
        """Network state included in the task's checkpoint."""
        return {"seq": self.seq, "epoch": self.epoch}

    def restore_state(self, state: dict) -> None:
        self.seq = state["seq"]
        self.epoch = state["epoch"]
        self.current = None

    def __repr__(self) -> str:
        return f"OutputChannel({self.index}, seq={self.seq}, epoch={self.epoch})"


class RecordWriter:
    """Routes a task's output records to its output channels."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        channels: List[OutputChannel],
        partitioner: Partitioner,
        charge: Callable[[float], None],
    ):
        self.env = env
        self.cost = cost
        self.channels = channels
        self.partitioner = partitioner
        self.charge = charge

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def emit(self, record: StreamRecord):
        """Generator: serialise and route one record."""
        size = element_size(record)
        self.charge(self.cost.serialize_time(size))
        selected = self.partitioner.select(record, len(self.channels))
        yield from self._append_to(selected, record, size)

    def emit_or_gen(self, record: StreamRecord):
        """Non-blocking fast path for :meth:`emit`.

        Appends ``record`` into every selected channel's current buffer when
        that cannot block (buffer exists, element fits, no forced cuts) and
        returns None.  If some channel needs a dispatch/new buffer — work
        that may wait on pool credits — returns a generator the caller must
        drive to finish the remaining channels.  Identical observable
        behaviour to ``emit``; the fast path just skips the generator
        machinery that dominates per-record cost.
        """
        size = element_size(record)
        self.charge(self.cost.serialize_time(size))
        channels = self.channels
        selected = self.partitioner.select(record, len(channels))
        capacity = self.cost.buffer_size_bytes
        done = 0
        for index in selected:
            channel = channels[index]
            current = channel.current
            if (
                current is None
                or channel.forced_cuts
                or current.size_bytes + size > capacity
            ):
                break
            current.elements.append(record)
            current.size_bytes += size
            current.n_records += 1
            done += 1
        else:
            return None
        return self._append_to(selected[done:], record, size)

    def _append_to(self, selected, record: StreamRecord, size: int):
        for index in selected:
            yield from self.channels[index].append_element(record, size)

    def broadcast(self, element: StreamElement):
        """Generator: send one element (watermark/EOS) on every channel."""
        size = element_size(element)
        for channel in self.channels:
            yield from channel.append_element(element, size)

    def broadcast_barrier(self, barrier: CheckpointBarrier):
        """Generator: inject a barrier on every channel and flush it out
        immediately (barriers never wait for the flusher)."""
        size = element_size(barrier)
        for channel in self.channels:
            yield from channel.append_element(barrier, size)
            yield from channel.flush("barrier")
            channel.epoch = barrier.checkpoint_id

    def flush_all(self, reason: str = "flush"):
        for channel in self.channels:
            yield from channel.flush(reason)

    def snapshot_state(self) -> dict:
        state = {"channels": [ch.snapshot_state() for ch in self.channels]}
        if hasattr(self.partitioner, "snapshot"):
            state["partitioner"] = self.partitioner.snapshot()
        return state

    def restore_state(self, state: dict) -> None:
        if len(state["channels"]) != len(self.channels):
            raise NetworkError("channel count changed across recovery")
        for channel, ch_state in zip(self.channels, state["channels"]):
            channel.restore_state(ch_state)
        if "partitioner" in state and hasattr(self.partitioner, "restore"):
            self.partitioner.restore(state["partitioner"])
