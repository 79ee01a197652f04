"""The in-flight record log (Sections 2.1, 6.1).

Epoch-segmented, per-output-channel log of dispatched buffers, with the
no-copy ownership exchange: when the network layer dispatches a buffer the
log takes it over (acquiring from the *log's* pool) and the output pool gets
its permit back immediately, so senders never stall on downstream delivery.

Four spill policies (Section 6.1):

* ``IN_MEMORY`` — hold everything; processing blocks when the pool empties.
* ``SPILL_EPOCH`` — spill a whole epoch as soon as the next one starts.
* ``SPILL_BUFFER`` — spill every buffer synchronously as it is appended
  (conservative memory, extra synchronous work, no I/O batching).
* ``SPILL_THRESHOLD`` — an asynchronous spiller drains oldest-first whenever
  the pool's available fraction drops below a threshold (the well-rounded
  default).
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.config import CostModel, SpillPolicy
from repro.errors import IntegrityError, RecoveryError
from repro.integrity.fingerprint import combine_all, fingerprint
from repro.integrity.monitor import IntegrityMonitor
from repro.net.buffer import BufferPool, NetworkBuffer
from repro.net.link import NetworkLink
from repro.net.writer import InFlightLogSink
from repro.sim.core import Environment
from repro.sim.queues import Signal


def buffer_fingerprint(buffer: NetworkBuffer) -> int:
    """Content fingerprint of a logged buffer: header plus the ordered
    element sequence, so a dropped, duplicated, reordered, or value-mutated
    element changes the digest.  Elements are digested through their reprs
    (C-speed) because this runs on every logged buffer."""
    return combine_all(
        fingerprint((buffer.channel_id, buffer.seq, buffer.epoch)),
        [zlib.crc32(repr(element).encode()) for element in buffer.elements],
    )


class LogEntry:
    __slots__ = ("buffer", "sent", "spilled", "crc")

    def __init__(self, buffer: NetworkBuffer, sent: bool):
        self.buffer = buffer
        self.sent = sent
        self.spilled = False
        #: Fingerprint sealed when the log took ownership of the buffer;
        #: verified on replay read-back (and by ``repro audit``).
        self.crc = buffer_fingerprint(buffer)

    def verify(self, owner: str = "") -> None:
        actual = buffer_fingerprint(self.buffer)
        if actual != self.crc:
            raise IntegrityError(
                "inflight-segment",
                f"{owner}:ch{self.buffer.channel_id}:seq{self.buffer.seq}",
                expected=self.crc,
                actual=actual,
                detail="spilled segment" if self.spilled else "logged buffer",
            )

    @property
    def intact(self) -> bool:
        return buffer_fingerprint(self.buffer) == self.crc


class InFlightLog(InFlightLogSink):
    """One task's in-flight record log across all its output channels."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        pool_bytes: int,
        policy: SpillPolicy = SpillPolicy.SPILL_THRESHOLD,
        spill_threshold_fraction: float = 0.25,
        name: str = "",
        monitor: Optional[IntegrityMonitor] = None,
    ):
        self.env = env
        self.cost = cost
        self.policy = policy
        self.threshold = spill_threshold_fraction
        self.name = name
        self.monitor = monitor
        self.pool = BufferPool(
            env, pool_bytes, cost.buffer_size_bytes, name=f"inflight:{name}"
        )
        self._entries: Dict[int, Deque[LogEntry]] = {}
        #: Spill-candidate queue in append order (== epoch-sorted order:
        #: a log lives for one task incarnation, whose epoch only grows).
        #: Entries already spilled or truncated are dropped lazily on pop,
        #: which keeps candidate selection O(batch) instead of re-scanning
        #: every logged entry per spiller wake-up.
        self._spill_queue: Deque[LogEntry] = deque()
        self._spill_signal = Signal(env)
        self._spiller_proc = None
        if policy in (SpillPolicy.SPILL_THRESHOLD, SpillPolicy.SPILL_EPOCH):
            self._spiller_proc = env.process(self._spiller(), name=f"spiller:{name}")
        self.buffers_logged = 0
        self.buffers_spilled = 0
        self.buffers_replayed = 0
        #: Synchronous time spent on spill-buffer writes (overhead metric).
        self.sync_spill_time = 0.0
        self._current_max_epoch = 0
        self._truncated_before = 0

    # -- InFlightLogSink interface ------------------------------------------------

    def append(self, channel_index: int, buffer: NetworkBuffer, sent: bool):
        """Generator: take ownership of ``buffer`` into the log."""
        entry = LogEntry(buffer, sent)
        if self.policy is SpillPolicy.SPILL_BUFFER:
            # Synchronous spill: the buffer never occupies log memory.
            yield self.env.timeout(self.cost.disk_write_time(buffer.size_bytes))
            self.sync_spill_time += self.cost.disk_write_time(buffer.size_bytes)
            entry.spilled = True
            self.buffers_spilled += 1
            if buffer.pool is not None:
                buffer.pool.release_bytes(buffer.pool.buffer_bytes)
                buffer.pool = None
        else:
            # The §6.1 exchange: acquire a log permit (may block = back-
            # pressure), then hand the output pool its permit back.
            granted = self.pool.acquire()
            if granted.callbacks is not None:
                yield granted
            buffer.transfer_to(self.pool)
            if self.policy is SpillPolicy.SPILL_THRESHOLD:
                if self.pool.available_fraction < self.threshold:
                    self._spill_signal.pulse()
        self._entries.setdefault(buffer.epoch, deque()).append(entry)
        if self._spiller_proc is not None:
            self._spill_queue.append(entry)
        if buffer.epoch > self._current_max_epoch:
            self._current_max_epoch = buffer.epoch
            if self.policy is SpillPolicy.SPILL_EPOCH:
                self._spill_signal.pulse()
        self.buffers_logged += 1

    # -- spilling ---------------------------------------------------------------------

    def _spill_candidates(self) -> List[LogEntry]:
        # Only the (single) spiller process calls this, and it spills every
        # returned entry before asking again, so popping candidates off the
        # queue is safe: a popped entry is never a candidate twice.
        queue = self._spill_queue
        candidates: List[LogEntry] = []
        if self.policy is SpillPolicy.SPILL_EPOCH:
            # Spill every entry of epochs older than the current one.
            current = self._current_max_epoch
            while queue and queue[0].buffer.epoch < current:
                entry = queue.popleft()
                if not entry.spilled:
                    candidates.append(entry)
            return candidates
        # SPILL_THRESHOLD: oldest-first until back above the threshold.
        deficit = int(
            (self.threshold - self.pool.available_fraction) * self.pool.total_buffers
        ) + 1
        while queue and len(candidates) < deficit:
            entry = queue.popleft()
            if not entry.spilled:
                candidates.append(entry)
        return candidates

    def _spiller(self):
        while True:
            yield self._spill_signal.wait()
            batch = self._spill_candidates()
            for entry in batch:
                if entry.spilled:
                    continue
                yield self.env.timeout(
                    self.cost.disk_write_time(entry.buffer.size_bytes)
                )
                if entry.spilled:
                    continue  # raced with truncation
                entry.spilled = True
                self.buffers_spilled += 1
                if entry.buffer.pool is not None:
                    entry.buffer.pool.release_bytes(entry.buffer.pool.buffer_bytes)
                    entry.buffer.pool = None

    # -- truncation (checkpoint complete) ------------------------------------------------

    def truncate_before(self, epoch: int) -> int:
        dropped = 0
        for old_epoch in [e for e in self._entries if e < epoch]:
            for entry in self._entries[old_epoch]:
                if not entry.spilled and entry.buffer.pool is not None:
                    entry.buffer.pool.release_bytes(entry.buffer.pool.buffer_bytes)
                    entry.buffer.pool = None
                entry.spilled = True  # prevents the spiller double-releasing
                dropped += 1
            del self._entries[old_epoch]
        self._truncated_before = max(self._truncated_before, epoch)
        return dropped

    # -- replay (Section 5.1) --------------------------------------------------------------

    def entries_for_channel(self, channel_index: int, from_epoch: int) -> List[LogEntry]:
        out = []
        for epoch in sorted(self._entries):
            if epoch < from_epoch:
                continue
            out.extend(
                e for e in self._entries[epoch] if e.buffer.channel_id == channel_index
            )
        return out

    def has_epoch(self, epoch: int) -> bool:
        """Whether the log still covers ``epoch`` (it does unless truncated
        past it — or this task itself recently recovered, Section 5.1)."""
        return epoch >= self._truncated_before

    def replay(
        self,
        channel_index: int,
        from_epoch: int,
        link: NetworkLink,
        skip_up_to_seq: int = -1,
        delta_provider: Optional[Callable[[int], tuple]] = None,
    ):
        """Generator: re-send this channel's logged buffers, oldest first,
        skipping those the receiver already holds (``skip_up_to_seq``).

        ``delta_provider`` (the causal log's ``delta_for_dispatch``) refreshes
        each buffer's piggybacked determinants: the frozen delta from the
        original dispatch would have gaps relative to the reconnected
        receiver's (possibly empty) causal store.

        Entries appended *during* the replay (the unsent parking of §6.1)
        are picked up because we re-scan until no unsent work remains.
        """
        handled: set = set()
        while True:
            pending = [
                entry
                for entry in self.entries_for_channel(channel_index, from_epoch)
                if entry.buffer.seq not in handled
            ]
            if not pending:
                return
            for entry in pending:
                handled.add(entry.buffer.seq)
                if entry.buffer.seq <= skip_up_to_seq:
                    entry.sent = True
                    continue
                if entry.spilled:
                    # Prefetching read back from disk.
                    yield self.env.timeout(
                        self.cost.disk_write_time(entry.buffer.size_bytes)
                    )
                if self.monitor is not None and self.monitor.validate:
                    # Checksum what we are about to re-send: a corrupted
                    # segment replayed downstream becomes silent wrong
                    # output, the one outcome integrity must rule out.
                    try:
                        entry.verify(self.name)
                    except IntegrityError as exc:
                        self.monitor.record_failure(
                            exc.artifact, exc.name, str(exc)
                        )
                        raise
                    self.monitor.record_ok("inflight-segment")
                if delta_provider is not None:
                    delta, delta_bytes = delta_provider(channel_index)
                    entry.buffer.delta = delta
                    entry.buffer.delta_bytes = delta_bytes
                accepted = link.send(entry.buffer)
                if accepted.callbacks is not None:
                    yield accepted
                entry.sent = True
                self.buffers_replayed += 1
