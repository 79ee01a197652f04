"""Unit tests for determinants and the causal log."""

import pytest

from repro.core.causal_log import (
    MAIN,
    CausalLogManager,
    EpochLog,
    LogBundle,
    delta_wire_size,
    merge_bundles,
    queue_log_name,
)
from repro.core.determinants import (
    BufferSizeDeterminant,
    OrderDeterminant,
    TimestampDeterminant,
)
from repro.errors import DeterminantLogError


def ts(v, fresh=True):
    return TimestampDeterminant(v, fresh)


class TestEpochLog:
    def test_append_returns_index_within_epoch(self):
        log = EpochLog()
        assert log.append(0, ts(1.0)) == 0
        assert log.append(0, ts(2.0)) == 1
        assert log.append(1, ts(3.0)) == 0

    def test_truncate_drops_old_epochs(self):
        log = EpochLog()
        log.append(0, ts(1.0))
        log.append(1, ts(2.0))
        log.append(2, ts(3.0))
        assert log.truncate_before(2) == 2
        assert log.epochs() == [2]

    def test_merge_slice_is_idempotent(self):
        entries = [ts(1.0), ts(2.0), ts(3.0)]
        src = EpochLog()
        src.append(0, entries[0])
        src.append(0, entries[1])
        log = EpochLog()
        log.merge_slice(*src.slice_of(0))
        src.append(0, entries[2])
        log.merge_slice(*src.slice_of(0))  # overlap: extends by one
        log.merge_slice(*src.slice_of(0, base=1))  # fully covered
        assert log.entries(0) == entries
        assert log.bytes_held == src.bytes_held == log.size_bytes()
        log.verify()

    def test_merge_slice_rejects_gap(self):
        src = EpochLog()
        for value in (1.0, 2.0, 3.0):
            src.append(0, ts(value))
        with pytest.raises(DeterminantLogError):
            EpochLog().merge_slice(*src.slice_of(0, base=2))

    def test_slices_share_the_senders_lists(self):
        src = EpochLog()
        src.append(0, ts(1.0))
        _epoch, base, end, entries, fps, nbytes = src.slice_of(0)
        assert (base, end, nbytes) == (0, 1, 9)
        assert entries is src.entries(0) and len(fps) == 4
        # The sender keeps appending; a slice cut earlier still reads [0, 1).
        src.append(0, ts(2.0))
        log = EpochLog()
        log.merge_slice(0, base, end, entries, fps, nbytes)
        assert log.entries(0) == [ts(1.0)]
        assert log.entries(0) is not entries

    def test_size_bytes_counts_wire_sizes(self):
        log = EpochLog()
        log.append(0, ts(1.0, fresh=True))   # 9 bytes
        log.append(0, ts(1.0, fresh=False))  # 1 byte (cache hit)
        assert log.size_bytes() == 10


class TestTimestampCachingEncoding:
    def test_cache_hit_is_one_byte(self):
        assert ts(5.0, fresh=True).wire_size() == 9
        assert ts(5.0, fresh=False).wire_size() == 1


class TestCausalLogManager:
    def make(self, dsd=None, channels=2, name="t"):
        return CausalLogManager(name, channels, dsd)

    def test_delta_carries_new_entries_once(self):
        mgr = self.make()
        mgr.append_main(OrderDeterminant(0, 0))
        slices, nbytes = mgr.delta_for_dispatch(0)
        assert len(slices) == 1
        assert nbytes > 0
        again, nbytes2 = mgr.delta_for_dispatch(0)
        assert again == [] and nbytes2 == 0
        # A different channel still needs the entries.
        other, _ = mgr.delta_for_dispatch(1)
        assert len(other) == 1

    def test_dsd_zero_disables_logging_delta(self):
        mgr = self.make(dsd=0)
        assert not mgr.enabled
        mgr.append_main(OrderDeterminant(0, 0))
        assert mgr.delta_for_dispatch(0) == ([], 0)

    def test_merge_delta_builds_store(self):
        up = self.make(name="up")
        down = self.make(name="down")
        up.append_main(OrderDeterminant(0, 7))
        slices, _ = up.delta_for_dispatch(0)
        down.merge_delta(slices, sender_task_id="up")
        bundle = down.stored_bundle_for("up")
        assert bundle is not None
        assert bundle.log(MAIN).entries(0) == [OrderDeterminant(0, 7)]

    def test_duplicate_delta_merge_is_harmless(self):
        up = self.make(name="up")
        down = self.make(name="down")
        up.append_main(OrderDeterminant(0, 7))
        slices, _ = up.delta_for_dispatch(0)
        down.merge_delta(slices, "up")
        down.merge_delta(slices, "up")
        assert down.stored_bundle_for("up").log(MAIN).length(0) == 1

    def test_dsd_forwarding_depth(self):
        # a -> b -> c with DSD=2: b forwards a's bundle to c.
        a = self.make(dsd=2, name="a")
        b = self.make(dsd=2, name="b")
        c = self.make(dsd=2, name="c")
        a.append_main(OrderDeterminant(0, 1))
        slices, _ = a.delta_for_dispatch(0)
        b.merge_delta(slices, "a")
        b.append_main(OrderDeterminant(0, 2))
        forward, _ = b.delta_for_dispatch(0)
        c.merge_delta(forward, "b")
        assert c.stored_bundle_for("a") is not None
        assert c.stored_bundle_for("b") is not None

    def test_dsd1_does_not_forward(self):
        a = self.make(dsd=1, name="a")
        b = self.make(dsd=1, name="b")
        a.append_main(OrderDeterminant(0, 1))
        slices, _ = a.delta_for_dispatch(0)
        b.merge_delta(slices, "a")
        forward, _ = b.delta_for_dispatch(0)
        assert all(task_id == "b" for (task_id, *_rest) in forward)

    def test_checkpoint_complete_truncates_everything(self):
        mgr = self.make()
        mgr.append_main(OrderDeterminant(0, 1))
        mgr.on_barrier(1)
        mgr.append_main(OrderDeterminant(0, 2))
        dropped = mgr.on_checkpoint_complete(1)
        assert dropped == 1
        assert mgr.bundle.log(MAIN).epochs() == [1]

    def test_queue_log_uses_explicit_epoch(self):
        mgr = self.make()
        mgr.on_barrier(3)
        # A barrier-carrying buffer belongs to the epoch it closes.
        mgr.append_queue(0, BufferSizeDeterminant(9, 4, 100), epoch=2)
        assert mgr.bundle.log(queue_log_name(0)).epochs() == [2]

    def test_reset_channel_cursors_resends_full_log(self):
        mgr = self.make()
        mgr.append_main(OrderDeterminant(0, 1))
        mgr.delta_for_dispatch(0)
        mgr.reset_channel_cursors(0)
        slices, _ = mgr.delta_for_dispatch(0)
        assert len(slices) == 1


def test_merge_bundles_keeps_longest_prefix():
    b1, b2 = LogBundle(), LogBundle()
    b1.log(MAIN).append(0, ts(1.0))
    b2.log(MAIN).append(0, ts(1.0))
    b2.log(MAIN).append(0, ts(2.0))
    merged = merge_bundles([b1, b2])
    assert merged.log(MAIN).length(0) == 2


def test_delta_wire_size_counts_headers_and_entries():
    mgr = CausalLogManager("t", 1, None)
    mgr.append_main(ts(1.0))
    mgr.append_main(ts(2.0, fresh=False))
    slices, nbytes = mgr.delta_for_dispatch(0)
    assert delta_wire_size(slices) == nbytes == 12 + 9 + 1


class TestReplicaViews:
    """A holder's replica is the first ``n`` entries of the sender's lists;
    only a slice from other lists makes it copy."""

    @staticmethod
    def sender(values, name="up"):
        mgr = CausalLogManager(name, 1, None)
        for value in values:
            mgr.append_main(ts(value))
        return mgr

    def test_merges_from_one_list_advance_a_view(self):
        up = self.sender([1.0])
        down = CausalLogManager("down", 0, None)
        down.merge_delta(up.delta_for_dispatch(0)[0], "up")
        up.append_main(ts(2.0))
        down.merge_delta(up.delta_for_dispatch(0)[0], "up")
        own = up.bundle.log(MAIN)._epochs[0]
        replica = down.stored_bundle_for("up").log(MAIN)
        seg = replica._epochs[0]
        assert seg.entries is own.entries and seg.fps is own.fps and seg.n == 2
        assert replica.entries(0) == [ts(1.0), ts(2.0)]
        assert seg.crc == own.crc
        assert replica.bytes_held == replica.size_bytes() == own.nbytes
        up.append_main(ts(3.0))  # the owner appends; the view still reads [0, 2)
        assert replica.length(0) == 2 and replica.entries(0) == [ts(1.0), ts(2.0)]
        replica.verify()

    def test_a_gap_raises_before_anything_is_stored(self):
        up = self.sender([1.0, 2.0, 3.0])
        slices, _ = up.delta_for_dispatch(0)
        gap = [(t, l, e, 2, end, entries, fps, nb)
               for t, l, e, _base, end, entries, fps, nb in slices]
        down = CausalLogManager("down", 0, None)
        with pytest.raises(DeterminantLogError):
            down.merge_delta(gap, "up")
        assert down.stored_bundle_for("up").log(MAIN).epochs() == []
        with pytest.raises(DeterminantLogError):
            EpochLog().merge_slice(*up.bundle.log(MAIN).slice_of(0, base=2))
        # A view on the same lists: the gap leaves its count where it was.
        one = self.sender([1.0])
        down.merge_delta(one.delta_for_dispatch(0)[0], "up")
        for value in (2.0, 3.0, 4.0):
            one.append_main(ts(value))
        _t, _l, e, _b, end, entries, fps, nb = one.delta_for_dispatch(0)[0][0]
        with pytest.raises(DeterminantLogError):
            down.merge_delta([("up", MAIN, e, 3, end, entries, fps, nb)], "up")
        replica = down.stored_bundle_for("up").log(MAIN)
        assert replica.length(0) == 1 and replica.bytes_held == 9

    def test_a_second_list_materialises_once_and_leaves_the_first_untouched(self):
        first = self.sender([1.0, 2.0])
        down = CausalLogManager("down", 0, None)
        down.merge_delta(first.delta_for_dispatch(0)[0], "up")
        # A new incarnation of "up" carries the same content in lists of its
        # own, then more.
        second = self.sender([1.0, 2.0, 3.0])
        down.merge_delta(second.delta_for_dispatch(0)[0], "up")
        own = first.bundle.log(MAIN)._epochs[0]
        seg = down.stored_bundle_for("up").log(MAIN)._epochs[0]
        copied = seg.entries
        assert copied is not own.entries
        assert copied is not second.bundle.log(MAIN)._epochs[0].entries
        assert copied == [ts(1.0), ts(2.0), ts(3.0)] and seg.n == 3
        assert own.entries == [ts(1.0), ts(2.0)] and len(own.fps) == 8
        second.append_main(ts(4.0))
        down.merge_delta(second.delta_for_dispatch(0)[0], "up")
        assert seg.entries is copied and seg.n == 4  # extended in place
        assert own.entries == [ts(1.0), ts(2.0)] and len(own.fps) == 8
        replica = down.stored_bundle_for("up")
        replica.verify()
        assert replica.log(MAIN).bytes_held == replica.size_bytes() == 4 * 9
