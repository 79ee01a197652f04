"""Seeded artifact-corruption helpers.

Shared by the chaos engine's corruption fault kinds and the ``repro audit
--inject`` self-test sweep.  All helpers corrupt *real payloads* (not just
stored checksums): with validation disabled the corruption demonstrably
changes what a restore/replay produces — the silent-violation control the
integrity soak proves the layer prevents.

Corruption is copy-on-corrupt where artifacts are shared by reference: the
checkpoint store and a standby hold the *same* snapshot object (the
dispatch of ``_complete_checkpoint``), a logged buffer is the object riding
the link, and a causal-log delta slice points at the holder's own entry
lists.  A real blob corruption damages one replica, not both — so helpers
tamper a copy and swap it in at the targeted location only.
"""

from __future__ import annotations

import copy
import random
from typing import Optional

from repro.integrity.fingerprint import _all_slots

__all__ = [
    "corrupt_checkpoint",
    "corrupt_standby_image",
    "corrupt_inflight_entry",
    "truncate_determinant_log",
    "tampered_copy",
    "random_corruptions",
]


def tampered_copy(snapshot):
    """A deep copy of ``snapshot`` with its payload mutated but the sealed
    fingerprint left as it was — a silently corrupted artifact."""
    clone = copy.deepcopy(snapshot)
    _mutate_payload(clone)
    return clone


def _mutate_payload(snapshot) -> str:
    op = snapshot.operator_state
    if isinstance(op, dict) and isinstance(op.get("offset"), int):
        # A source snapshot: skewing the restored offset makes the recovered
        # run skip records — silent loss, the classic stale-state corruption.
        op["offset"] = op["offset"] + 25
        return "offset-skew"
    for keyed in (snapshot.keyed_state or {}).values():
        if isinstance(keyed, dict):
            keyed["__corrupt__"] = 0xBAD
            return "keyed-state"
    snapshot.extra["__corrupt__"] = 0xBAD
    return "extra"


def corrupt_checkpoint(
    jm, task_name: str, checkpoint_id: Optional[int] = None, torn: bool = False
) -> Optional[int]:
    """Silently corrupt a task's stored checkpoint (newest by default).

    Swaps a tampered copy into the snapshot store and updates the DFS blob's
    *content* fingerprint (``torn=True`` marks the blob torn instead — a
    partial write).  The declared fingerprint — what the writer recorded —
    stays, which is exactly the mismatch a validating read detects.
    Returns the corrupted checkpoint id, or None if there was nothing to
    corrupt yet.
    """
    store = jm.snapshot_store
    cid = checkpoint_id if checkpoint_id is not None else store.latest_id(task_name)
    if cid is None:
        return None
    snapshot = store.get(task_name, cid)
    if snapshot is None:
        return None
    tampered = tampered_copy(snapshot)
    store._snapshots[(task_name, cid)] = tampered
    record = jm.dfs.blob_record(store.blob_path(task_name, cid))
    if record is not None:
        if torn:
            record.torn = True
        else:
            record.content_crc = tampered.content_crc()
    return cid


def corrupt_standby_image(jm, task_name: str) -> Optional[int]:
    """Tamper the snapshot a standby holds (the primary's copy is intact)."""
    vertex = jm.vertices.get(task_name)
    standby = getattr(vertex, "standby", None)
    if standby is None or standby.snapshot is None:
        return None
    standby.snapshot = tampered_copy(standby.snapshot)
    return standby.snapshot.checkpoint_id


def _swap_in_buffer_clone(entry):
    """Replace ``entry.buffer`` with a shallow clone that has its own element
    list, taking over the log's pool permit.  The original object — possibly
    still riding a link, or already consumed downstream — keeps its elements:
    a disk flip cannot retroactively change bytes that left on the wire."""
    from repro.net.buffer import NetworkBuffer

    buffer = entry.buffer
    clone = NetworkBuffer(buffer.channel_id, buffer.seq, buffer.epoch, buffer.pool)
    clone.elements = list(buffer.elements)
    clone.size_bytes = buffer.size_bytes
    clone.n_records = buffer.n_records
    clone.delta_bytes = buffer.delta_bytes
    clone.recycle_on_consume = buffer.recycle_on_consume
    buffer.pool = None  # accounting follows the stored artifact
    entry.buffer = clone
    return clone


def corrupt_inflight_entry(
    jm, task_name: str, rng: random.Random
) -> Optional[str]:
    """Bit-flip a logged in-flight buffer: drop or duplicate one element.

    The mutation hits what the log *stores* (what a future replay re-sends
    and what the audit sweeps), never the buffer object in motion: the log
    shares buffers by reference with the network layer (the §6.1 no-copy
    exchange), so — per this module's copy-on-corrupt rule — the damaged
    entry gets its own tampered clone.  Records already dispatched or
    delivered downstream are untouched, as with a real on-disk flip.
    """
    vertex = jm.vertices.get(task_name)
    task = vertex.task if vertex is not None else None
    log = getattr(task, "inflight", None)
    if log is None:
        return None
    entries = [
        entry
        for epoch in sorted(log._entries)
        for entry in log._entries[epoch]
        if entry.buffer.elements
    ]
    if not entries:
        return None
    entry = rng.choice(entries)
    elements = _swap_in_buffer_clone(entry).elements
    if len(elements) > 1 and rng.random() < 0.5:
        elements.pop(rng.randrange(len(elements)))
        kind = "dropped-element"
    else:
        elements.append(elements[rng.randrange(len(elements))])
        kind = "duplicated-element"
    return f"ch{entry.buffer.channel_id}:seq{entry.buffer.seq}:{kind}"


def truncate_determinant_log(
    jm, victim_name: str, rng: random.Random
) -> Optional[str]:
    """Damage the determinant-log replica some downstream holder keeps for
    ``victim_name``: truncate the tail of a *sealed* epoch, or — when every
    held epoch is still open — silently corrupt its last entry.

    Only sealed epochs (below the log's newest) are truncated: the open
    epoch still receives piggybacked deltas, and a contiguity gap there
    would crash the holder on the next merge rather than model silent
    at-rest damage.  Sealed epochs live only between an epoch barrier and
    the next checkpoint completion, so the open-epoch fallback swaps the
    last entry for a tampered copy — same length (merges stay contiguous),
    stale rolling CRC.
    """
    sealed = []
    open_epochs = []
    for holder in jm.vertices.values():
        task = holder.task
        causal = getattr(task, "causal", None)
        if causal is None:
            continue
        bundle = causal.stored_bundle_for(victim_name)
        if bundle is None:
            continue
        for log_name, log in bundle.logs.items():
            epochs = log.epochs()
            newest = max(epochs) if epochs else None
            for epoch in epochs:
                if log.length(epoch) > 0:
                    bucket = sealed if epoch < newest else open_epochs
                    bucket.append((holder.name, log_name, log, epoch))
    if sealed:
        holder_name, log_name, log, epoch = rng.choice(sealed)
        drop = rng.randrange(1, log.length(epoch) + 1)
        _swap_in_segment(log, epoch, log.entries(epoch)[:-drop])
        return f"{holder_name}:{log_name}@epoch{epoch}:-{drop}"
    if open_epochs:
        holder_name, log_name, log, epoch = rng.choice(open_epochs)
        entries = log.entries(epoch)
        _swap_in_segment(log, epoch, entries[:-1] + [_tamper_determinant(entries[-1])])
        return f"{holder_name}:{log_name}@epoch{epoch}:entry-corrupt"
    return None


def _swap_in_segment(log, epoch: int, entries) -> None:
    """Replace one epoch of ``log`` with a damaged copy: ``entries`` logged
    afresh (their fingerprints follow the content, exactly as if the log had
    been written this way, so a replica fed from this holder seals what it is
    given) under the old byte total and the old, now stale, rolling CRC.
    Delta slices share the holder's lists by reference, so — per this
    module's copy-on-corrupt rule — the damage must never be done in place: a
    disk flip cannot rewrite a delta that already left on the wire."""
    intact = log._epochs[epoch]
    rewritten = type(log)()
    damaged = rewritten._segment(epoch)
    for det in entries:
        rewritten.append(epoch, det)
    damaged.nbytes, damaged.crc = intact.nbytes, intact.crc
    log._epochs[epoch] = damaged


def _tamper_determinant(det):
    """A tampered deep copy: the original object is shared with other
    replicas (deltas forward determinants by reference)."""
    clone = copy.deepcopy(det)
    for slot in _all_slots(type(clone)):
        value = getattr(clone, slot, None)
        if isinstance(value, int) and not isinstance(value, bool):
            setattr(clone, slot, value + 1)
            return clone
    for slot in _all_slots(type(clone)):
        try:
            setattr(clone, slot, ("corrupt", getattr(clone, slot, None)))
            return clone
        except (AttributeError, TypeError):
            continue
    return clone


def random_corruptions(jm, count: int, rng: random.Random):
    """Inject up to ``count`` corruptions across *distinct* artifacts, seeded.

    Returns ``[(kind, detail), ...]`` for what actually landed (a young job
    may not yet hold ``count`` distinct corruptible artifacts).  Distinctness
    is tracked at the granularity the audit reports violations at — one per
    checkpoint/blob, per standby image, per logged buffer, per determinant
    bundle — so a sweep detecting everything yields at least one violation
    per returned injection.
    """
    results = []
    seen = set()
    ops = ("blob_corruption", "torn_write", "standby_image",
           "buffer_bitflip", "determinant_truncation")
    tasks = sorted(jm.vertices)
    attempts = 0
    while len(results) < count and attempts < 50 * max(1, count):
        attempts += 1
        op = rng.choice(ops)
        task = rng.choice(tasks)
        key = None
        detail = None
        if op in ("blob_corruption", "torn_write"):
            cid = corrupt_checkpoint(jm, task, torn=(op == "torn_write"))
            if cid is not None:
                key = ("checkpoint", task, cid)
                detail = f"{task}@{cid}"
        elif op == "standby_image":
            cid = corrupt_standby_image(jm, task)
            if cid is not None:
                key = ("standby", task)
                detail = f"{task}@{cid}"
        elif op == "buffer_bitflip":
            flipped = corrupt_inflight_entry(jm, task, rng)
            if flipped is not None:
                key = ("inflight", task, flipped.rsplit(":", 1)[0])
                detail = f"{task}:{flipped}"
        else:
            truncated = truncate_determinant_log(jm, task, rng)
            if truncated is not None:
                # One bundle yields at most one audit violation, so dedup at
                # holder level regardless of which log/epoch was hit.
                key = ("determinant", truncated.split(":", 1)[0])
                detail = truncated
        if key is not None and key not in seen:
            seen.add(key)
            results.append((op, detail))
    return results
