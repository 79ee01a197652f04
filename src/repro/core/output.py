"""Exactly-once output without transactional commits (Section 5.5).

The two classic fixes for the output-commit problem are idempotent sinks
(broken by nondeterminism) and transactional sinks (latency grows by up to a
checkpoint interval — see :class:`repro.operators.sink.TransactionalKafkaSink`).
Clonos' extension: piggyback determinant metadata on the records written to
the downstream system; the downstream system stores it and returns it on
request, letting a recovering sink deduplicate its replayed output *without*
waiting for any checkpoint.

Because Clonos regenerates the sink's input byte-identically, it suffices to
store ``(epoch, seq_in_epoch)`` with each record: on recovery the sink asks
the external system how many records of each epoch it already holds and
skips exactly that many re-appends.  Metadata older than the completed
checkpoint is truncated, as the paper prescribes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.causal_log import MAIN, LogBundle
from repro.external.kafka import DurableLog
from repro.graph.elements import StreamRecord
from repro.operators.base import Context, Operator
from repro.operators.sink import SinkEntry


class OutputDeterminant:
    """What rides along with each record into the external system."""

    __slots__ = ("task", "epoch", "seq_in_epoch")

    def __init__(self, task: str, epoch: int, seq_in_epoch: int):
        self.task = task
        self.epoch = epoch
        self.seq_in_epoch = seq_in_epoch

    def __repr__(self) -> str:
        return f"OutputDeterminant({self.task}, e{self.epoch}, #{self.seq_in_epoch})"


class ExactlyOnceKafkaSink(Operator):
    """The Section 5.5 sink: immediate appends, exactly-once output.

    Requires Clonos (causal recovery): under any other scheme the replayed
    input would diverge and count-based skipping would be wrong.
    """

    deterministic = False  # interacts with the external world

    def __init__(self, log: DurableLog, topic: str):
        self.log = log
        self.topic = topic
        self._partition_index = 0
        self._epoch = 0
        self._seq_in_epoch = 0
        #: After restore: how many appends per epoch to skip (already stored
        #: by the external system).
        self._skip: Dict[int, int] = {}
        self._restored = False
        self.appended = 0
        self.skipped_duplicates = 0

    def open(self, ctx: Context) -> None:
        n_parts = len(self.log.partitions_of(self.topic))
        self._partition_index = ctx.subtask_index % n_parts
        # Ask the external system what it already holds for epochs >= the
        # current one: those appends will be replayed and must be skipped.
        # Unconditional (not just after restore()): a task that crashes
        # before its first checkpoint recovers with no snapshot at all, so
        # restore() is never called, yet its pre-crash appends are stored.
        store = self._metadata_store()
        self._skip = {
            epoch: len(dets)
            for epoch, dets in store.items()
            if epoch >= self._epoch
        }
        self._restored = False

    def process(self, record: StreamRecord, ctx: Context) -> None:
        if self._skip.get(self._epoch, 0) > 0:
            self._skip[self._epoch] -= 1
            self._seq_in_epoch += 1
            self.skipped_duplicates += 1
            return
        determinant = OutputDeterminant(ctx.task_name, self._epoch, self._seq_in_epoch)
        self._seq_in_epoch += 1
        self.log.append(
            self.topic,
            self._partition_index,
            ctx.now,
            SinkEntry(record.value, record.created_at, record.timestamp),
        )
        # The external system stores the determinant alongside the record.
        self._metadata_store().setdefault(self._epoch, []).append(determinant)
        self.appended += 1
        self._externalize_determinants(ctx)

    def _externalize_determinants(self, ctx: Context) -> None:
        """Piggyback the sink's own causal log into the external system.

        A sink has no downstream task, so nothing in the dataflow holds its
        determinants — without this, a recovering sink replays its input in
        arrival order, which may diverge from the original interleaving and
        make the count-based skip above dedupe the *wrong* records (one
        silent loss + one silent duplicate per swapped pair).  Storing the
        main-log prefix with the records makes the external system the
        determinant holder, exactly as Section 5.5 prescribes.  Copies are
        prefix-idempotent, so replaying incarnations re-store harmlessly.
        """
        causal = getattr(ctx.services, "causal", None)
        if causal is None or not causal.enabled:
            return
        src = causal.bundle.log(MAIN)
        ext = self.log.sink_bundles.get(ctx.task_name)
        if ext is None:
            ext = self.log.sink_bundles[ctx.task_name] = LogBundle()
        dst = ext.log(MAIN)
        for epoch in src.epochs():
            dst.merge_slice(*src.slice_of(epoch))

    @property
    def output_is_externalized(self) -> bool:
        """True once the external system holds any of this sink's output
        metadata.  The external world then *depends* on the exact event
        order that produced it: regenerating this sink's input without
        determinants would silently break the count-based dedup contract."""
        if self.appended:
            return True
        for index in range(len(self.log.partitions_of(self.topic))):
            partition = self.log.partition(self.topic, index)
            if getattr(partition, "output_determinants", None):
                return True
        return False

    def external_determinant_bundle(self, task_name: str) -> Optional[LogBundle]:
        """Recovery hook: the bundle the external system holds for this sink
        (None if it never externalized anything)."""
        return self.log.sink_bundles.get(task_name)

    def reset_external_dedup(self) -> None:
        """Degraded (global-rollback) restart: replayed input may diverge
        from the original run, so count-based skipping is unsound — clear
        the stored determinants and re-append everything (at-least-once)."""
        for index in range(len(self.log.partitions_of(self.topic))):
            partition = self.log.partition(self.topic, index)
            if hasattr(partition, "output_determinants"):
                partition.output_determinants = {}
        self.log.sink_bundles.clear()
        self._skip = {}

    def _metadata_store(self) -> Dict[int, list]:
        partition = self.log.partition(self.topic, self._partition_index)
        if not hasattr(partition, "output_determinants"):
            partition.output_determinants = {}
        return partition.output_determinants

    def on_barrier(self, checkpoint_id: int, ctx: Context) -> None:
        self._epoch = checkpoint_id
        self._seq_in_epoch = 0

    def on_checkpoint_complete(self, checkpoint_id: int, ctx: Context) -> None:
        # Truncate metadata of epochs covered by the checkpoint (Section 5.5).
        store = self._metadata_store()
        for epoch in [e for e in store if e < checkpoint_id]:
            del store[epoch]
        bundle = self.log.sink_bundles.get(ctx.task_name)
        if bundle is not None:
            bundle.truncate_before(checkpoint_id)

    def snapshot(self) -> dict:
        return {"epoch": self._epoch}

    def restore(self, state: Optional[dict]) -> None:
        self._epoch = state["epoch"] if state else 0
        self._seq_in_epoch = 0
        self._restored = True  # skip counts are fetched in open()
