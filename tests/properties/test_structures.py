"""Property-based tests on the core data structures."""

import copy
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import determinants as dets
from repro.core.causal_log import (
    _CRC_SEED,
    CausalLogManager,
    EpochLog,
    delta_wire_size,
    merge_bundles,
    queue_log_name,
)
from repro.core.determinants import TimestampDeterminant
from repro.graph.elements import StreamRecord
from repro.integrity.corruption import _tamper_determinant
from repro.integrity.fingerprint import _fp, combine, fingerprint
from repro.net.partitioner import HashPartitioner, RebalancePartitioner, stable_hash
from repro.net.serialization import payload_size
from repro.operators.window import EventTimeWindowOperator, CountAggregator
from repro.sim import Environment, Store
from repro.timing.watermarks import WatermarkTracker


# -- causal log merge ---------------------------------------------------------


@st.composite
def delta_schedules(draw):
    """A ground-truth log plus a sequence of (base, end) slices every one of
    which starts at or before the receiver's current frontier (FIFO channels
    guarantee this: you can re-receive, but never skip ahead)."""
    n = draw(st.integers(min_value=1, max_value=30))
    truth = [TimestampDeterminant(float(i)) for i in range(n)]
    slices = []
    frontier = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        base = draw(st.integers(min_value=0, max_value=frontier))
        end = draw(st.integers(min_value=base, max_value=n))
        slices.append((base, end))
        frontier = max(frontier, end)
    return truth, slices


@given(delta_schedules())
@settings(max_examples=200, deadline=None)
def test_merge_slices_yield_exact_prefix(case):
    truth, slices = case
    log = EpochLog()
    frontier = 0
    for base, end in slices:
        sender = EpochLog()  # what the sender held when it cut [base, end)
        for det in truth[:end]:
            sender.append(0, det)
        if end:
            log.merge_slice(*sender.slice_of(0, base))
        frontier = max(frontier, end)
        # Invariant: the stored entries are exactly the longest prefix seen.
        assert log.entries(0) == truth[:frontier]
        assert log.bytes_held == sum(d.wire_size() for d in truth[:frontier])
        log.verify()


# -- causal log: by-reference deltas vs. a straightforward reference ------------


class ReferenceManager:
    """What ``CausalLogManager`` does, written the obvious way: every slice a
    copied list, a cursor per (channel, origin, log, epoch), every byte count
    and fingerprint recomputed entry by entry."""

    def __init__(self, task_id, dsd):
        self.task_id = task_id
        self.dsd = dsd
        self.own = {}  # log name -> {epoch: [determinant]}
        self.store = {}  # origin -> [distance, {log name: {epoch: [...]}}]
        self.sent = {}  # (channel, origin, log name, epoch) -> entries sent
        self.truncated_before = 0

    def append(self, log_name, epoch, det):
        self.own.setdefault(log_name, {}).setdefault(epoch, []).append(det)

    def delta(self, channel):
        bundles = [(self.task_id, self.own)]
        for origin, (distance, logs) in self.store.items():
            if self.dsd is None or distance + 2 <= self.dsd:
                bundles.append((origin, logs))
        slices = []
        for origin, logs in bundles:
            for log_name, epochs in logs.items():
                for epoch, entries in epochs.items():
                    key = (channel, origin, log_name, epoch)
                    sent = self.sent.get(key, 0)
                    if sent < len(entries):
                        slices.append((origin, log_name, epoch, sent, entries[sent:]))
                        self.sent[key] = len(entries)
        return slices

    def merge(self, slices, sender):
        for origin, log_name, epoch, base, entries in slices:
            if epoch < self.truncated_before:
                continue
            held = self.store.setdefault(origin, [1, {}])
            if origin == sender:
                held[0] = 0
            stored = held[1].setdefault(log_name, {}).setdefault(epoch, [])
            assert base <= len(stored)
            stored.extend(entries[len(stored) - base :])

    def reset_channel(self, channel):
        self.sent = {k: v for k, v in self.sent.items() if k[0] != channel}

    def restarted(self, holders):
        """A new incarnation whose own logs are, per (log, epoch), the
        longest copy any holder keeps; no store, no cursors."""
        fresh = ReferenceManager(self.task_id, self.dsd)
        for holder in holders:
            for log_name, epochs in holder.store[self.task_id][1].items():
                own = fresh.own.setdefault(log_name, {})
                for epoch, entries in epochs.items():
                    if len(entries) > len(own.get(epoch, ())):
                        own[epoch] = list(entries)
        return fresh

    def checkpoint_complete(self, checkpoint_id):
        self.truncated_before = max(self.truncated_before, checkpoint_id)
        for logs in [self.own] + [held[1] for held in self.store.values()]:
            for epochs in logs.values():
                for epoch in [e for e in epochs if e < checkpoint_id]:
                    del epochs[epoch]
        self.sent = {k: v for k, v in self.sent.items() if k[3] >= checkpoint_id}


def _assert_log_matches(log, reference_epochs, where):
    live = {e: entries for e, entries in reference_epochs.items() if entries}
    assert {e for e in log.epochs() if log.length(e)} == set(live), where
    for epoch, expected in live.items():
        assert log.entries(epoch) == expected, (where, epoch)
        crc = _CRC_SEED
        for det in expected:
            crc = combine(crc, _fp(det, ()))
        seg = log._epochs[epoch]
        assert seg.crc == crc, (where, epoch)
        assert seg.n == len(expected), (where, epoch)
        packed = b"".join(_fp(det, ()).to_bytes(4, "big") for det in expected)
        assert bytes(seg.fps[: 4 * seg.n]) == packed, (where, epoch)
    assert log.bytes_held == log.size_bytes(), where
    log.verify(where)


#: origin task -> its output channels' receivers.  ``skip`` gives "c" the
#: bundle of "a" first via "b" (distance 1) and later directly (distance 0),
#: the only way a stored bundle *becomes* forwardable under a bounded DSD.
TOPOLOGIES = {
    "diamond": {"a": ["b0", "b1"], "b0": ["c"], "b1": ["c"], "c": ["d"], "d": []},
    "skip": {"a": ["b", "c"], "b": ["c"], "c": ["d"], "d": []},
}


def _determinant(kind, n):
    if kind == 0:
        return dets.OrderDeterminant(n % 3, n)
    if kind == 1:
        return dets.TimestampDeterminant(n * 0.5, fresh=bool(n % 2))
    if kind == 2:
        return dets.CustomDeterminant("udf", (n, [n, str(n)]))
    return dets.BufferSizeDeterminant(n, n % 7, 100 + n)


#: (operation, weight): a schedule dense in traffic, with the rare lifecycle
#: events (duplicated deliveries, reconnects, epoch turnover) mixed in.
OPERATIONS = [
    ("append", 30), ("dispatch", 25), ("deliver", 30), ("duplicate", 4),
    ("reset", 3), ("barrier", 5), ("complete", 3),
]


def _restart(name, graph, real, ref, epoch, wires, delivered):
    """Replace ``name``'s manager with a new incarnation, as recovery does:
    its bundle is ``merge_bundles`` of the holders' replicas, its upstreams
    re-send everything, and what was in flight to or from it is lost.  The
    new incarnation appends to lists of its own, so from here on holders
    receive slices from lists other than the ones their replicas view."""
    holders = sorted(n for n in real if name in real[n].store)
    fresh = CausalLogManager(name, len(graph[name]), real[name].dsd)
    fresh.bundle = merge_bundles([real[n].stored_bundle_for(name) for n in holders])
    fresh.current_epoch = epoch
    real[name] = fresh
    ref[name] = ref[name].restarted([ref[n] for n in holders])
    for channel in range(len(graph[name])):
        wires[name, channel].clear()
    for sender, receivers in graph.items():
        for channel, receiver in enumerate(receivers):
            if receiver == name:
                real[sender].reset_channel_cursors(channel)
                ref[sender].reset_channel(channel)
                wires[sender, channel].clear()
                delivered[sender, channel].clear()


@given(
    st.sampled_from(sorted(TOPOLOGIES)),
    st.sampled_from([1, 2, None]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_by_reference_deltas_match_reference(topology, dsd, seed):
    rng = random.Random(seed)
    graph = TOPOLOGIES[topology]
    names = sorted(graph)
    real = {n: CausalLogManager(n, len(graph[n]), dsd) for n in names}
    ref = {n: ReferenceManager(n, dsd) for n in names}
    epoch_of = dict.fromkeys(names, 0)
    wires = {(n, c): deque() for n in names for c in range(len(graph[n]))}
    delivered = {key: [] for key in wires}
    kinds, weights = zip(*OPERATIONS, ("restart", 2))

    for count, op in enumerate(rng.choices(kinds, weights, k=400)):
        name = rng.choice(names)
        mgr, model = real[name], ref[name]
        channels = range(len(graph[name]))
        if op == "append":
            det = _determinant(rng.randrange(4), count)
            if channels and rng.random() < 0.3:
                channel = rng.choice(channels)
                mgr.append_queue(channel, det)
                model.append(queue_log_name(channel), epoch_of[name], det)
            else:
                mgr.append_main(det)
                model.append("main", epoch_of[name], det)
        elif op == "dispatch" and channels:
            channel = rng.choice(channels)
            slices, nbytes = mgr.delta_for_dispatch(channel)
            expected = model.delta(channel)
            assert sorted(
                (t, l, e, b, entries[b:end]) for t, l, e, b, end, entries, _f, _n in slices
            ) == sorted(expected)
            assert nbytes == delta_wire_size(slices) == sum(
                12 + sum(d.wire_size() for d in entries) for *_k, entries in expected
            )
            wires[name, channel].append((slices, expected))
        elif op in ("deliver", "duplicate"):
            # Channels are FIFO; senders interleave freely; a duplicate
            # re-merges any delta the channel delivered before.
            pool = wires if op == "deliver" else delivered
            ready = sorted(key for key, queued in pool.items() if queued)
            if not ready:
                continue
            sender, channel = rng.choice(ready)
            if op == "deliver":
                slices, expected = wires[sender, channel].popleft()
                delivered[sender, channel].append((slices, expected))
            else:
                slices, expected = rng.choice(delivered[sender, channel])
            receiver = graph[sender][channel]
            real[receiver].merge_delta(slices, sender)
            ref[receiver].merge(expected, sender)
        elif op == "reset" and channels:
            channel = rng.choice(channels)
            mgr.reset_channel_cursors(channel)
            model.reset_channel(channel)
        elif op == "barrier":
            epoch_of[name] += 1
            mgr.on_barrier(epoch_of[name])
        elif op == "complete" and epoch_of[name]:
            checkpoint_id = rng.randint(1, epoch_of[name])
            mgr.on_checkpoint_complete(checkpoint_id)
            model.checkpoint_complete(checkpoint_id)
        elif op == "restart":
            _restart(name, graph, real, ref, epoch_of[name], wires, delivered)

    for name in names:
        mgr, model = real[name], ref[name]
        for log_name, log in mgr.bundle.logs.items():
            _assert_log_matches(log, model.own.get(log_name, {}), f"{name}:{log_name}")
        live_origins = {o for o, held in model.store.items()}
        assert set(mgr.store) == live_origins
        for origin, (distance, logs) in model.store.items():
            real_distance, bundle = mgr.store[origin]
            assert real_distance == distance
            for log_name, epochs in logs.items():
                _assert_log_matches(
                    bundle.log(log_name), epochs, f"{name}<-{origin}:{log_name}"
                )
        assert mgr.bytes_held() == mgr.size_bytes()


class UncompactedManager(CausalLogManager):
    """The forwarding journal without compaction: never trimmed, and a channel
    without a position scans it from the start instead of reading the
    first-chunk index."""

    def _compact(self):
        pass

    def _forwarded_since(self, pos):
        return super()._forwarded_since(0 if pos is None else pos)


def _resolved(slices):
    """A delta as its receiver reads it, in order, references resolved."""
    return [
        (t, l, e, b, end, entries[b:end], bytes(fps[4 * b : 4 * end]), n)
        for t, l, e, b, end, entries, fps, n in slices
    ]


@given(
    st.sampled_from(sorted(TOPOLOGIES)),
    st.sampled_from([2, None]),  # DSD=1 forwards nothing: no journal
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_compacted_journal_emits_identical_ordered_deltas(topology, dsd, seed):
    """Compaction and the first-chunk index change what the journal keeps,
    never what a dispatch emits: the same schedule (resets, duplicate
    deliveries and truncations included) gives the same deltas, in order."""
    rng = random.Random(seed)
    graph = TOPOLOGIES[topology]
    names = sorted(graph)
    worlds = [
        {n: CausalLogManager(n, len(graph[n]), dsd) for n in names},
        {n: UncompactedManager(n, len(graph[n]), dsd) for n in names},
    ]
    epoch_of = dict.fromkeys(names, 0)
    wires = {(n, c): deque() for n in names for c in range(len(graph[n]))}
    delivered = {key: [] for key in wires}
    kinds, weights = zip(*OPERATIONS)
    shorter = 0

    for count, op in enumerate(rng.choices(kinds, weights, k=400)):
        name = rng.choice(names)
        channels = range(len(graph[name]))
        managers = [world[name] for world in worlds]
        if op == "append":
            det = _determinant(rng.randrange(4), count)
            channel = rng.choice(channels) if channels and rng.random() < 0.3 else None
            for mgr in managers:
                if channel is None:
                    mgr.append_main(det)
                else:
                    mgr.append_queue(channel, det)
        elif op == "dispatch" and channels:
            channel = rng.choice(channels)
            deltas = [mgr.delta_for_dispatch(channel) for mgr in managers]
            (slices, nbytes), (twin_slices, twin_nbytes) = deltas
            assert _resolved(slices) == _resolved(twin_slices)
            assert nbytes == twin_nbytes
            compacted, uncompacted = managers
            shorter += len(compacted._journal) < len(uncompacted._journal)
            wires[name, channel].append(deltas)
        elif op in ("deliver", "duplicate"):
            pool = wires if op == "deliver" else delivered
            ready = sorted(key for key, queued in pool.items() if queued)
            if not ready:
                continue
            sender, channel = rng.choice(ready)
            if op == "deliver":
                deltas = wires[sender, channel].popleft()
                delivered[sender, channel].append(deltas)
            else:
                deltas = rng.choice(delivered[sender, channel])
            receiver = graph[sender][channel]
            carried = [
                world[receiver].merge_delta(slices, sender)
                for world, (slices, _nbytes) in zip(worlds, deltas)
            ]
            assert carried[0] == carried[1] == sum(
                end - base for _t, _l, _e, base, end, *_rest in deltas[0][0]
            )
        elif op == "reset" and channels:
            channel = rng.choice(channels)
            for mgr in managers:
                mgr.reset_channel_cursors(channel)
        elif op == "barrier":
            epoch_of[name] += 1
            for mgr in managers:
                mgr.on_barrier(epoch_of[name])
        elif op == "complete" and epoch_of[name]:
            checkpoint_id = rng.randint(1, epoch_of[name])
            for mgr in managers:
                mgr.on_checkpoint_complete(checkpoint_id)

    assert shorter, "the schedule never compacted the journal"
    for mgr in worlds[0].values():  # the index holds live segments only
        assert all(epoch in log._epochs for log, epoch in mgr._first_chunks)


# -- direct fingerprint walk -----------------------------------------------------


def test_direct_fingerprint_equals_generic_walk_for_every_determinant():
    samples = [
        dets.OrderDeterminant(2, 17),
        dets.TimestampDeterminant(12.5, fresh=True),
        dets.TimestampDeterminant(12.5, fresh=False),
        dets.TimerFiredDeterminant("window-3", 42),
        dets.RngSeedDeterminant(2**40 + 1),
        dets.ExternalCallDeterminant("GET /rate", "1.07"),
        dets.ExternalCallDeterminant("GET /rates", {"eur": 1.07, "gbp": [0.8, None]}),
        dets.CustomDeterminant("coin", True),
        dets.CustomDeterminant("udf", (1, [2.5, "x"], {"k": b"v"})),  # generic walk
        dets.BufferSizeDeterminant(9, 4, 1000),
        dets.BarrierInjectDeterminant(3, 120),
        dets.WatermarkEmitDeterminant(99.25, 7),
        dets.RpcDeterminant({"op": "scale", "to": 3}, 5),
        dets.RpcDeterminant(None, 5),
    ]
    covered = {type(s) for s in samples}
    concrete = {
        cls for cls in vars(dets).values()
        if isinstance(cls, type) and issubclass(cls, dets.Determinant)
        and cls is not dets.Determinant
    }
    assert covered == concrete, concrete - covered
    samples += [_tamper_determinant(s) for s in samples]
    fingerprint(samples[0])  # first sight of a class takes the generic walk
    for sample in samples:
        assert fingerprint(sample) == _fp(sample, ()), sample
        assert fingerprint(copy.deepcopy(sample)) == fingerprint(sample)
    tampered = {fingerprint(s) for s in samples}
    assert len(tampered) == len(samples), "tampering must change the digest"


# -- partitioners -------------------------------------------------------------


@given(st.one_of(st.integers(), st.text(), st.tuples(st.integers(), st.text())))
@settings(max_examples=200, deadline=None)
def test_stable_hash_is_deterministic_and_64bit(key):
    assert stable_hash(key) == stable_hash(key)
    assert 0 <= stable_hash(key) < 2**64


@given(
    st.lists(st.integers(), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_hash_partitioner_in_range_and_stable(keys, channels):
    part = HashPartitioner()
    for key in keys:
        record = StreamRecord(key, key=key)
        first = part.select(record, channels)
        assert first == part.select(record, channels)
        assert all(0 <= c < channels for c in first)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_rebalance_is_fair(channels, n_records):
    part = RebalancePartitioner()
    counts = [0] * channels
    for i in range(n_records):
        [target] = part.select(StreamRecord(i), channels)
        counts[target] += 1
    assert max(counts) - min(counts) <= 1


# -- serialization ------------------------------------------------------------


@given(
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=40), st.binary(max_size=40)),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=8), children, max_size=5),
        ),
        max_leaves=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_payload_size_is_positive_and_deterministic(value):
    size = payload_size(value)
    assert size >= 1
    assert payload_size(value) == size


# -- watermark tracker ---------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.floats(min_value=-1e6, max_value=1e6)),
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_watermark_never_regresses(channels, updates):
    tracker = WatermarkTracker(channels)
    last = tracker.current
    for channel, ts in updates:
        tracker.update(channel % channels, ts)
        assert tracker.current >= last
        last = tracker.current


# -- windows ---------------------------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_sliding_window_assignment_covers_timestamp(ts, size_steps, slide_steps):
    size = size_steps * 0.5
    slide = min(slide_steps * 0.5, size)
    op = EventTimeWindowOperator(size, CountAggregator(), slide=slide)
    windows = op._assigned_windows(ts)
    assert windows, "every timestamp belongs to at least one window"
    for window in windows:
        assert window.start <= ts < window.end
        assert abs((window.end - window.start) - size) < 1e-9
    # Expected multiplicity: ceil(size / slide) windows cover each instant.
    expected = int(size / slide + 0.5)
    assert abs(len(windows) - expected) <= 1


# -- store FIFO -------------------------------------------------------------------


@given(st.lists(st.integers(), max_size=60), st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_store_preserves_fifo_under_bounded_capacity(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items
