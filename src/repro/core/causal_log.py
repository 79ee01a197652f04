"""The causal log (Section 4.3).

Each task keeps a *bundle* of epoch-segmented determinant logs:

* ``main`` — the main processing thread's determinants, and
* ``queue:<c>`` — one buffer-size log per output channel (the network
  threads' nondeterminism).

Whenever a buffer is dispatched on a channel, a **delta** — all bundle
entries the channel has not yet carried, plus (for determinant sharing
depths > 1) the bundles of upstream tasks within DSD-1 hops — piggybacks on
the buffer.  The receiver merges deltas into its *causal store* by epoch and
index, which makes merging idempotent: replayed/duplicated deltas are
harmless, the store simply keeps the longest prefix per epoch.

Representation (DESIGN.md §7, addendum).  Per (log, epoch) a
:class:`_Segment` holds the entries, a packed ``bytearray`` of their 4-byte
fingerprints, the running wire-byte total and the rolling CRC, all maintained
at append/merge time.  A delta slice is a **reference, not a copy**:
``(task, log, epoch, base, end, entries, fps, end_bytes)`` names indices
``[base, end)`` of the *sender's own* append-only ``entries``/``fps``.  The
receiver's already-held test is ``end <= len(stored)``; a fresh merge is one
list extend, one ``bytearray +=`` and one streaming ``crc32`` over the fresh
fingerprint bytes — O(1) Python work per slice.  The rule this imposes: out-
of-band damage (``repro.integrity.corruption``) swaps in a damaged *copy* of
a segment and never mutates lists a slice on the wire may still read.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple
from zlib import crc32

from repro.core.determinants import Determinant
from repro.errors import DeterminantLogError, IntegrityError
from repro.integrity.fingerprint import combine_all, fingerprint

MAIN = "main"

#: Rolling-CRC seed for an empty epoch (any fixed nonzero constant works).
_CRC_SEED = 0x1EDC6F41

#: Shared empty-entries sentinel (never mutated).
_NO_ENTRIES: List["Determinant"] = []


def queue_log_name(channel_index: int) -> str:
    return f"queue:{channel_index}"


class _Segment:
    """One epoch of one log.  ``fps`` packs ``fingerprint(entry)``, four
    big-endian bytes each; ``crc`` is the rolling ``crc32`` over ``fps`` (which
    :meth:`EpochLog.verify` recomputes from the entries); ``nbytes`` is the
    entries' total wire size."""

    __slots__ = ("entries", "fps", "nbytes", "crc")

    def __init__(
        self, entries: List[Determinant], fps: bytearray, nbytes: int, crc: int
    ):
        self.entries = entries
        self.fps = fps
        self.nbytes = nbytes
        self.crc = crc


class EpochLog:
    """An append-only determinant log segmented by checkpoint epoch; wire
    sizes are tracked incrementally (``bytes_held``) for the memory experiments
    of Section 7.5."""

    def __init__(self):
        self._epochs: Dict[int, _Segment] = {}
        self.bytes_held = 0
        self._sorted_epochs: Optional[List[int]] = None

    def _segment(self, epoch: int) -> _Segment:
        seg = self._epochs.get(epoch)
        if seg is None:
            seg = self._epochs[epoch] = _Segment([], bytearray(), 0, _CRC_SEED)
            self._sorted_epochs = None
        return seg

    def append(self, epoch: int, determinant: Determinant) -> int:
        """Append and return the entry's index within its epoch."""
        seg = self._segment(epoch)
        fp = fingerprint(determinant).to_bytes(4, "big")
        size = determinant.wire_size()
        seg.entries.append(determinant)
        seg.fps += fp
        seg.crc = crc32(fp, seg.crc)
        seg.nbytes += size
        self.bytes_held += size
        return len(seg.entries) - 1

    def entries(self, epoch: int) -> List[Determinant]:
        """Entries of ``epoch`` — possibly a shared empty list; callers must
        treat the result as read-only."""
        seg = self._epochs.get(epoch)
        return seg.entries if seg is not None else _NO_ENTRIES

    def slice_of(
        self, epoch: int, base: int = 0
    ) -> Tuple[int, int, int, List[Determinant], bytearray, int]:
        """Everything ``epoch`` holds from ``base`` on, by reference."""
        seg = self._epochs[epoch]
        return (epoch, base, len(seg.entries), seg.entries, seg.fps, seg.nbytes)

    def epochs(self) -> List[int]:
        """Epochs in ascending order.  The returned list is a cached view —
        callers must not mutate it."""
        cached = self._sorted_epochs
        if cached is None:
            cached = self._sorted_epochs = sorted(self._epochs)
        return cached

    def length(self, epoch: int) -> int:
        return len(self.entries(epoch))

    def truncate_before(self, epoch: int) -> int:
        """Drop epochs earlier than ``epoch`` (checkpoint complete)."""
        dropped = 0
        for e in [e for e in self._epochs if e < epoch]:
            seg = self._epochs.pop(e)
            dropped += len(seg.entries)
            self.bytes_held -= seg.nbytes
            self._sorted_epochs = None
        return dropped

    def merge_slice(
        self,
        epoch: int,
        base: int,
        end: int,
        entries: List[Determinant],
        fps: bytearray,
        end_bytes: int,
    ) -> None:
        """Idempotent merge of a by-reference slice: extend the epoch with
        whatever part of ``[base, end)`` lies beyond what we already hold,
        folding into the rolling CRC exactly the fingerprints stored here."""
        seg = self._segment(epoch)
        have = len(seg.entries)
        if base > have:
            raise DeterminantLogError(
                f"delta gap: have {have} entries of epoch {epoch}, "
                f"delta starts at {base}"
            )
        if have < end:
            fresh = fps[4 * have : 4 * end]
            seg.entries += entries[have:end]
            seg.fps += fresh
            seg.crc = crc32(fresh, seg.crc)
            self.bytes_held += end_bytes - seg.nbytes
            seg.nbytes = end_bytes

    def verify(self, name: str = "") -> None:
        """Raise :class:`IntegrityError` if any epoch's entries no longer
        match its rolling fingerprint (recomputed from the entries)."""
        for epoch, seg in self._epochs.items():
            crc = combine_all(_CRC_SEED, [fingerprint(det) for det in seg.entries])
            if crc != seg.crc:
                raise IntegrityError(
                    "determinant-log",
                    f"{name}@epoch{epoch}",
                    expected=seg.crc,
                    actual=crc,
                )

    def size_bytes(self) -> int:
        return sum(
            det.wire_size() for seg in self._epochs.values() for det in seg.entries
        )


class LogBundle:
    """All of one task's logs: main thread + one per output channel."""

    def __init__(self, num_output_channels: int = 0):
        self.logs: Dict[str, EpochLog] = {MAIN: EpochLog()}
        for c in range(num_output_channels):
            self.logs[queue_log_name(c)] = EpochLog()

    def log(self, name: str) -> EpochLog:
        if name not in self.logs:
            self.logs[name] = EpochLog()
        return self.logs[name]

    def truncate_before(self, epoch: int) -> int:
        return sum(log.truncate_before(epoch) for log in self.logs.values())

    def verify(self, owner: str = "") -> None:
        """Verify every log's rolling fingerprints (see EpochLog.verify)."""
        for name, log in self.logs.items():
            log.verify(f"{owner}:{name}" if owner else name)

    def size_bytes(self) -> int:
        return sum(log.size_bytes() for log in self.logs.values())


def merge_bundles(bundles: List[LogBundle]) -> LogBundle:
    """Merge determinant bundles retrieved from several downstream holders:
    per (log, epoch), keep the longest prefix (all holders saw consistent
    prefixes because deltas travel FIFO with the data)."""
    merged = LogBundle()
    for bundle in bundles:
        for name, log in bundle.logs.items():
            target = merged.log(name)
            for epoch, seg in log._epochs.items():
                if len(seg.entries) > target.length(epoch):
                    target._epochs[epoch] = _Segment(
                        list(seg.entries), bytearray(seg.fps), seg.nbytes, seg.crc
                    )
                    target._sorted_epochs = None
    return merged


#: One delta slice: (task_id, log_name, epoch, base, end, entries, fps,
#: end_bytes) — see the module docstring.
DeltaSlice = Tuple[str, str, int, int, int, List[Determinant], bytearray, int]

#: One forwarding-journal chunk: (task_id, log_name, log, epoch, have,
#: have_bytes) — see ``CausalLogManager._journal``.
_Chunk = Tuple[str, str, EpochLog, int, int, int]


def delta_wire_size(slices: List[DeltaSlice]) -> int:
    """Serialized size of a delta: per-slice header + determinant bytes,
    recounted entry by entry (what ``delta_for_dispatch`` reports in O(1))."""
    total = 0
    for _task, _log, _epoch, base, end, entries, _fps, _end_bytes in slices:
        total += 12 + sum(det.wire_size() for det in entries[base:end])
    return total


class CausalLogManager:
    """Per-task causal logging state: own bundle, cursors, causal store.

    ``dsd`` is the determinant sharing depth: a dispatched delta carries this
    task's own bundle always, plus the stored bundles of upstream tasks whose
    distance from this task is < dsd (so with dsd=1 only the task's own
    determinants travel one hop; with dsd=2 the direct upstream's bundle is
    forwarded one extra hop, etc.).  ``dsd=0`` disables causal logging
    (Clonos' at-least-once configuration, Section 5.4).
    """

    def __init__(self, task_id: str, num_output_channels: int, dsd: Optional[int]):
        self.task_id = task_id
        self.dsd = dsd  # None = full
        self.bundle = LogBundle(num_output_channels)
        self.current_epoch = 0
        #: Dispatch cursors into the own bundle: channel -> ``{(log name,
        #: epoch): (entries sent, their wire bytes)}``.
        self._sent: Dict[int, Dict[Tuple[str, int], Tuple[int, int]]] = {}
        #: causal store: upstream task_id -> (distance, LogBundle)
        self.store: Dict[str, Tuple[int, LogBundle]] = {}
        #: Forwarding journal: one ``(task_id, log_name, log, epoch, have,
        #: have_bytes)`` — what the log held *before* — per merge that grew a
        #: store log we share onward.  Positions are absolute: ``_journal[0]``
        #: sits at ``_journal_base``, and a channel owes its receiver every
        #: chunk from ``_journal_pos[ch]`` on; per segment the first chunk
        #: gives the slice base, the segment itself the end.  The prefix every
        #: positioned channel has read is dropped (:meth:`_compact`).
        self._journal: List[_Chunk] = []
        self._journal_base = 0
        self._journal_pos: Dict[int, int] = {}
        #: Each live store segment's first chunk, in journal order.  A live
        #: epoch's chunks start at ``have == 0``, so this is exactly what a
        #: scan of the whole journal yields: what a channel without a
        #: position (never dispatched, or reset) owes — the whole store.
        self._first_chunks: Dict[Tuple[EpochLog, int], _Chunk] = {}
        #: Last forwarded assembly ``(from_pos, to_pos, slices, nbytes)``:
        #: sibling channels whose positions coincide owe the same slices.
        self._forwarded: Optional[
            Tuple[Optional[int], int, List[DeltaSlice], int]
        ] = None
        #: total determinant bytes shipped (for the memory/overhead metrics).
        self.delta_bytes_sent = 0
        #: epochs below this are truncated; late deltas for them are ignored.
        self.truncated_before = 0
        #: High-water mark of determinant bytes held (Section 7.5 pool sizing).
        self.peak_bytes_held = 0

    @property
    def enabled(self) -> bool:
        return self.dsd is None or self.dsd > 0

    # -- appending (normal operation) ----------------------------------------

    def append_main(self, determinant: Determinant) -> None:
        self.bundle.log(MAIN).append(self.current_epoch, determinant)

    def append_queue(
        self, channel_index: int, determinant: Determinant, epoch: Optional[int] = None
    ) -> None:
        self.bundle.log(queue_log_name(channel_index)).append(
            self.current_epoch if epoch is None else epoch, determinant
        )

    # -- deltas ------------------------------------------------------------------

    def _forwards(self, distance: int) -> bool:
        """Whether a stored bundle held at ``distance`` travels on: origin ->
        us is ``distance + 1`` hops and forwarding adds one more, which must
        stay within the sharing depth at the receiver."""
        return self.dsd is None or distance + 2 <= self.dsd

    def delta_for_dispatch(self, channel_index: int) -> Tuple[List[DeltaSlice], int]:
        """Collect everything channel ``channel_index`` has not carried yet."""
        if not self.enabled:
            return [], 0
        slices: List[DeltaSlice] = []
        nbytes = 0
        task_id = self.task_id
        cursors = self._sent.setdefault(channel_index, {})
        for log_name, log in self.bundle.logs.items():
            for epoch in log.epochs():
                seg = log._epochs[epoch]
                count = len(seg.entries)
                sent, sent_bytes = cursors.get((log_name, epoch), (0, 0))
                if sent < count:
                    total = seg.nbytes
                    slices.append(
                        (task_id, log_name, epoch, sent, count, seg.entries, seg.fps, total)
                    )
                    cursors[log_name, epoch] = (count, total)
                    nbytes += 12 + total - sent_bytes
        forwarded, forwarded_bytes = self._forwarded_since(
            self._journal_pos.get(channel_index)
        )
        self._journal_pos[channel_index] = self._journal_base + len(self._journal)
        self._compact()
        slices += forwarded
        nbytes += forwarded_bytes
        self.delta_bytes_sent += nbytes
        return slices, nbytes

    def _compact(self) -> None:
        """Drop the journal prefix every positioned channel has read — all of
        it when no channel has a position (a channel without one reads
        ``_first_chunks``) — once it is at least half the journal, so the
        cost is amortised O(1) per chunk."""
        journal = self._journal
        base = self._journal_base
        drop = min(self._journal_pos.values(), default=base + len(journal)) - base
        if drop and 2 * drop >= len(journal):
            del journal[:drop]
            self._journal_base += drop

    def _forwarded_since(self, pos: Optional[int]) -> Tuple[List[DeltaSlice], int]:
        """One slice (plus wire bytes) per store segment grown since ``pos``;
        ``None`` (no position) means since the start: the whole store."""
        journal = self._journal
        end_pos = self._journal_base + len(journal)
        if pos == end_pos:
            return [], 0
        cached = self._forwarded
        if cached is not None and cached[0] == pos and cached[1] == end_pos:
            return cached[2], cached[3]
        chunks: Iterable[_Chunk] = (
            self._first_chunks.values()
            if pos is None
            else journal[pos - self._journal_base :]
        )
        slices: List[DeltaSlice] = []
        nbytes = 0
        seen = set()
        for task_id, log_name, log, epoch, have, have_bytes in chunks:
            seg = log._epochs.get(epoch)
            if seg is None or seg in seen:
                continue
            seen.add(seg)
            count = len(seg.entries)
            if have < count:
                total = seg.nbytes
                slices.append(
                    (task_id, log_name, epoch, have, count, seg.entries, seg.fps, total)
                )
                nbytes += 12 + total - have_bytes
        self._forwarded = (pos, end_pos, slices, nbytes)
        return slices, nbytes

    def merge_delta(self, slices: Iterable[DeltaSlice], sender_task_id: str) -> int:
        """Receiver side: store the piggybacked determinants *before* the
        buffer's records are processed (the always-no-orphans discipline).
        Returns the entries the delta carried (``end - base`` over every
        slice, truncated and already-held ones included)."""
        store = self.store
        truncated_before = self.truncated_before
        journal = self._journal
        first_chunks = self._first_chunks
        carried = 0
        # Slices arrive grouped by origin task: cache the resolved bundle.
        last_task: Optional[str] = None
        last_bundle: Optional[LogBundle] = None
        forwards = False
        for task_id, log_name, epoch, base, end, entries, fps, end_bytes in slices:
            carried += end - base
            if epoch < truncated_before:
                # The checkpoint-complete RPC raced ahead of this delta: the
                # epoch is already stable, its determinants are obsolete.
                continue
            if task_id != last_task:
                prior = store.get(task_id)
                if prior is None:
                    distance = 0 if task_id == sender_task_id else 1
                    last_bundle = LogBundle()
                    store[task_id] = (distance, last_bundle)
                    forwards = self._forwards(distance)
                else:
                    # Keep the shortest observed distance.
                    old_distance, last_bundle = prior
                    distance = 0 if task_id == sender_task_id else old_distance
                    forwards = self._forwards(distance)
                    if distance < old_distance:
                        store[task_id] = (distance, last_bundle)
                        if forwards and not self._forwards(old_distance):
                            # Newly within the sharing depth: every channel
                            # owes its receiver the whole bundle.
                            for name, log in last_bundle.logs.items():
                                for e in log.epochs():
                                    chunk = (task_id, name, log, e, 0, 0)
                                    journal.append(chunk)
                                    first_chunks.setdefault((log, e), chunk)
                last_task = task_id
            log = last_bundle.logs.get(log_name) or last_bundle.log(log_name)
            # Already-held fast path: several upstream channels forward the
            # same origin slices, so most arrive fully redundant.  This is
            # merge_slice's no-op condition, checked without the call.
            seg = log._epochs.get(epoch)
            if seg is None:
                have = have_bytes = 0
            else:
                have = len(seg.entries)
                if end <= have:
                    continue
                have_bytes = seg.nbytes
            try:
                log.merge_slice(epoch, base, end, entries, fps, end_bytes)
            except DeterminantLogError as exc:
                raise DeterminantLogError(
                    f"{self.task_id}: merging delta of task={task_id} "
                    f"log={log_name} from sender={sender_task_id}: {exc}"
                ) from exc
            if forwards:
                chunk = (task_id, log_name, log, epoch, have, have_bytes)
                journal.append(chunk)
                if not have:
                    first_chunks.setdefault((log, epoch), chunk)
        if not self._journal_pos and journal:
            self._compact()  # e.g. a sink: no channel will read the journal
        return carried

    # -- recovery support -----------------------------------------------------------

    def stored_bundle_for(self, task_id: str) -> Optional[LogBundle]:
        entry = self.store.get(task_id)
        return entry[1] if entry is not None else None

    def reset_channel_cursors(self, channel_index: int) -> None:
        """A downstream task reconnected after recovery: its causal store may
        be empty, so the next buffers on this channel must re-carry the full
        log.  Receivers merge by index, so over-sending is idempotent."""
        self._sent.pop(channel_index, None)
        self._journal_pos.pop(channel_index, None)
        self._compact()

    # -- epoch lifecycle ---------------------------------------------------------------

    def on_barrier(self, checkpoint_id: int) -> None:
        """Epoch boundary passed the main thread."""
        self.current_epoch = checkpoint_id
        self.note_peak()

    def on_checkpoint_complete(self, checkpoint_id: int) -> int:
        """Truncate everything older than the completed checkpoint."""
        self.note_peak()  # the high-water mark: just before truncation
        self.truncated_before = max(self.truncated_before, checkpoint_id)
        dropped = self.bundle.truncate_before(checkpoint_id)
        for _task_id, (_distance, bundle) in self.store.items():
            dropped += bundle.truncate_before(checkpoint_id)
        for cursors in self._sent.values():
            for key in [key for key in cursors if key[1] < checkpoint_id]:
                del cursors[key]
        # A truncated segment's journal chunks wait for compaction (the
        # forwarding scan skips a segment that is gone); its first chunk and
        # any assembly that may carry it go now.
        self._forwarded = None
        self._first_chunks = {
            key: chunk
            for key, chunk in self._first_chunks.items()
            if key[1] >= checkpoint_id
        }
        return dropped

    def size_bytes(self) -> int:
        """Total determinant bytes held (own + stored)."""
        return self.bundle.size_bytes() + sum(
            bundle.size_bytes() for _d, bundle in self.store.values()
        )

    def bytes_held(self) -> int:
        """Incrementally-tracked variant of :meth:`size_bytes` (O(logs))."""
        total = sum(log.bytes_held for log in self.bundle.logs.values())
        for _distance, bundle in self.store.values():
            total += sum(log.bytes_held for log in bundle.logs.values())
        return total

    def note_peak(self) -> None:
        current = self.bytes_held()
        if current > self.peak_bytes_held:
            self.peak_bytes_held = current
