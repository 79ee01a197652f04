"""Integration tests for links, gates, and writers (no runtime layer yet)."""

import pytest

from repro.config import CostModel
from repro.graph.elements import CheckpointBarrier, StreamRecord
from repro.net import (
    BufferPool,
    HashPartitioner,
    InputChannel,
    InputGate,
    NetworkBuffer,
    NetworkLink,
    OutputChannel,
    RecordWriter,
    RebalancePartitioner,
)
from repro.sim import Environment


def make_cost(**overrides):
    cost = CostModel(**overrides)
    return cost


def build_pair(env, cost, n_channels=1, input_capacity=8, pool_buffers=10):
    """One writer with n channels wired to one input gate."""
    charges = []
    charge = charges.append
    pool = BufferPool(
        env, pool_buffers * cost.buffer_size_bytes, cost.buffer_size_bytes, "out"
    )
    links, out_channels, in_channels = [], [], []
    for i in range(n_channels):
        link = NetworkLink(env, cost, name=f"l{i}")
        in_ch = InputChannel(env, i, capacity=input_capacity)
        link.attach_receiver(in_ch)
        links.append(link)
        in_channels.append(in_ch)
        out_channels.append(OutputChannel(env, cost, i, link, pool, charge))
    gate = InputGate(env, in_channels)
    writer = RecordWriter(
        env,
        cost,
        out_channels,
        RebalancePartitioner() if n_channels > 1 else HashPartitioner(),
        charge,
    )
    return writer, gate, links, pool, charges


def drain_records(env, gate, count):
    got = []

    def consumer():
        while len(got) < count:
            _idx, buffer = yield from gate.next_buffer()
            for el in buffer.elements:
                if el.is_record:
                    got.append(el.value)
            if buffer.recycle_on_consume:
                buffer.recycle()

    env.process(consumer())
    return got


def test_records_flow_fifo_through_link():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    got = drain_records(env, gate, 50)

    def producer():
        for i in range(50):
            yield from writer.emit(StreamRecord(i, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert got == list(range(50))


def test_buffer_cut_when_full():
    env = Environment()
    cost = make_cost(buffer_size_bytes=128)
    writer, gate, links, _pool, _ = build_pair(env, cost)
    got = drain_records(env, gate, 40)

    def producer():
        for i in range(40):
            yield from writer.emit(StreamRecord(i, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert got == list(range(40))
    # 128-byte buffers hold 4 records of 32 bytes: at least 10 buffers.
    assert links[0].buffers_carried >= 10


def test_backpressure_blocks_producer_when_consumer_slow():
    env = Environment()
    cost = make_cost(buffer_size_bytes=128)
    writer, gate, _links, pool, _ = build_pair(env, cost, input_capacity=2, pool_buffers=4)
    produced = []

    def producer():
        for i in range(200):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()
            produced.append(i)

    def slow_consumer():
        while True:
            _idx, buffer = yield from gate.next_buffer()
            yield env.timeout(1.0)
            if buffer.recycle_on_consume:
                buffer.recycle()

    env.process(producer())
    env.process(slow_consumer())
    env.run(until=10.0)
    # Pipeline depth is pool(4) + wire(4) + input queue(2) plus the one being
    # consumed; the producer must be throttled well below 200.
    assert len(produced) < 20
    assert pool.available_buffers == 0


def test_rebalance_round_robin_across_channels():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=3)
    seen_channels = []

    def consumer():
        while len(seen_channels) < 3:
            idx, buffer = yield from gate.next_buffer()
            seen_channels.append(idx)
            if buffer.recycle_on_consume:
                buffer.recycle()

    def producer():
        for i in range(3):
            yield from writer.emit(StreamRecord(i, key=i))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert sorted(seen_channels) == [0, 1, 2]


def test_hash_partitioning_is_stable():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=4)
    part = HashPartitioner()
    record = StreamRecord("payload", key="user-42")
    first = part.select(record, 4)
    assert all(part.select(record, 4) == first for _ in range(10))


def test_barrier_is_flushed_immediately_and_advances_epoch():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    elements = []

    def consumer():
        while len(elements) < 3:
            _idx, buffer = yield from gate.next_buffer()
            elements.extend(buffer.elements)
            if buffer.recycle_on_consume:
                buffer.recycle()

    def producer():
        yield from writer.emit(StreamRecord(1, key=0))
        yield from writer.broadcast_barrier(CheckpointBarrier(1))
        yield from writer.emit(StreamRecord(2, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    kinds = [type(el).__name__ for el in elements]
    assert kinds == ["StreamRecord", "CheckpointBarrier", "StreamRecord"]
    assert writer.channels[0].epoch == 1


def test_epoch_tagging_of_buffers():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost)
    buffers = []

    def consumer():
        while len(buffers) < 3:
            _idx, buffer = yield from gate.next_buffer()
            buffers.append(buffer)

    def producer():
        yield from writer.emit(StreamRecord(1, key=0))
        yield from writer.broadcast_barrier(CheckpointBarrier(1))
        yield from writer.emit(StreamRecord(2, key=0))
        yield from writer.flush_all()

    env.process(producer())
    env.process(consumer())
    env.run()
    # Pre-barrier buffer (with the barrier riding last) is epoch 0; the
    # post-barrier buffer is epoch 1.
    assert [b.epoch for b in buffers] == [0, 1]
    assert buffers[0].elements[-1].is_barrier


def test_alignment_blocks_channel_until_unblocked():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=2)
    order = []

    def producer():
        # channel 0 then channel 1 (rebalance round-robin)
        yield from writer.emit(StreamRecord("a", key=0))
        yield from writer.emit(StreamRecord("b", key=0))
        yield from writer.flush_all()

    def consumer():
        idx, buffer = yield from gate.next_buffer()
        order.append((idx, buffer.elements[0].value))
        gate.block_channel(1 - idx)  # block the other channel
        # give the other channel's data time to arrive and defer
        yield env.timeout(1.0)
        assert gate.poll_buffer() is None
        gate.unblock_all()
        idx2, buffer2 = yield from gate.next_buffer()
        order.append((idx2, buffer2.elements[0].value))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert len(order) == 2
    assert {o[1] for o in order} == {"a", "b"}


def test_dead_receiver_drops_buffers():
    env = Environment()
    cost = make_cost()
    writer, gate, links, pool, _ = build_pair(env, cost)
    links[0].detach_receiver()

    def producer():
        for i in range(5):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()

    env.process(producer())
    env.run()
    assert links[0].dropped_buffers == 5
    # Dropped vanilla buffers are recycled: no pool leak.
    assert pool.available_buffers == pool.total_buffers


def test_writer_snapshot_restore_roundtrip():
    env = Environment()
    cost = make_cost()
    writer, gate, _links, _pool, _ = build_pair(env, cost, n_channels=2)

    def producer():
        for i in range(10):
            yield from writer.emit(StreamRecord(i, key=i))
        yield from writer.flush_all()

    env.process(producer())
    drain_records(env, gate, 10)
    env.run()
    state = writer.snapshot_state()
    writer.channels[0].seq = 999
    writer.restore_state(state)
    assert writer.channels[0].seq != 999
    assert state["partitioner"] == 10


def test_input_channel_close_fails_pending_put_and_recycles():
    env = Environment()
    cost = make_cost()
    writer, gate, links, pool, _ = build_pair(env, cost, input_capacity=1, pool_buffers=4)

    def producer():
        for i in range(10):
            yield from writer.emit(StreamRecord(i, key=0))
            yield from writer.flush_all()

    env.process(producer())
    env.run(until=0.5)
    gate.close()
    env.run(until=1.0)
    assert links[0].dropped_buffers > 0


# -- link semantics, one test per rule (characterization: these pin what a
# -- sender, a receiver and the chaos engine can observe of a NetworkLink) ----


def slow_link(env, input_capacity=8, pool_buffers=16):
    """One link whose every buffer takes 1 s on the wire, feeding one
    channel of one gate; buffers are cut by hand from ``pool``."""
    cost = make_cost(network_latency=1.0, network_bandwidth=float("inf"))
    pool = BufferPool(
        env, pool_buffers * cost.buffer_size_bytes, cost.buffer_size_bytes, "out"
    )
    link = NetworkLink(env, cost, name="slow")
    channel = InputChannel(env, 0, capacity=input_capacity)
    link.attach_receiver(channel)
    gate = InputGate(env, [channel])
    return link, channel, gate, pool


def cut_buffer(pool, seq, size=100):
    assert pool.try_acquire()
    buffer = NetworkBuffer(0, seq, 0, pool)
    buffer.append(StreamRecord(seq, key=0), size)
    return buffer


def send_all(env, link, buffers):
    """A sender process; returns the list of (seq, time the send returned)."""
    accepted = []

    def sender():
        for buffer in buffers:
            yield link.send(buffer)
            accepted.append((buffer.seq, env.now))

    env.process(sender())
    return accepted


def consume_all(env, gate):
    """A receiver process; returns the list of (seq, arrival time)."""
    arrived = []

    def receiver():
        while True:
            _idx, buffer = yield from gate.next_buffer()
            arrived.append((buffer.seq, env.now))
            buffer.recycle()

    env.process(receiver())
    return arrived


def test_link_counts_the_bytes_and_buffers_it_carried():
    env = Environment()
    link, _channel, gate, pool = slow_link(env)
    buffers = [cut_buffer(pool, seq, size=100 + seq) for seq in range(3)]
    buffers[1].delta_bytes = 40  # piggybacked determinants ride the wire too
    send_all(env, link, buffers)
    arrived = consume_all(env, gate)
    env.run(until=10)
    assert arrived == [(0, 1.0), (1, 2.0), (2, 3.0)]  # one at a time, FIFO
    assert link.buffers_carried == 3
    assert link.bytes_carried == 100 + (101 + 40) + 102
    assert link.dropped_buffers == 0


def test_reset_drops_the_queued_and_the_mid_transmission_buffer():
    env = Environment()
    link, channel, gate, pool = slow_link(env)
    send_all(env, link, [cut_buffer(pool, seq) for seq in range(3)])
    arrived = consume_all(env, gate)
    env.run(until=0.5)  # seq 0 is half-way down the wire, 1 and 2 queue
    assert link.in_transit == 2
    assert link.reset() == 2
    assert link.in_transit == 0
    env.run(until=5)
    # The one on the wire dies with the connection (generation bump).
    assert arrived == []
    assert channel.delivered_seq == -1
    assert link.dropped_buffers == 3
    assert pool.available_buffers == pool.total_buffers
    # The link itself survives the reset: a new sender's buffers flow.
    send_all(env, link, [cut_buffer(pool, 3)])
    env.run(until=10)
    assert arrived == [(3, 6.0)]


def test_purge_drops_everything_and_releases_the_blocked_sender():
    env = Environment()
    link, channel, gate, pool = slow_link(env)
    # One on the wire + a window of four + one sender blocked on the window.
    accepted = send_all(env, link, [cut_buffer(pool, seq) for seq in range(7)])
    arrived = consume_all(env, gate)
    env.run(until=0.5)
    assert [seq for seq, _t in accepted] == [0, 1, 2, 3, 4]
    assert link.purge() == 5  # the window and the blocked send; not the wire
    env.run(until=0.75)
    # The blocked send was admitted (then dropped); the sender moved on.
    assert accepted[5:] == [(5, 0.5), (6, 0.5)]
    env.run(until=5)
    assert arrived == [(6, 2.0)]  # seq 0 died on the wire at t=1
    assert link.dropped_buffers == 6


def test_partition_holds_delivery_keeps_fifo_and_backpressures_the_sender():
    from repro.net.link import LinkChaos

    env = Environment()
    link, _channel, gate, pool = slow_link(env)
    link.chaos = chaos = LinkChaos(env)
    chaos.partitioned = True
    accepted = send_all(env, link, [cut_buffer(pool, seq) for seq in range(7)])
    arrived = consume_all(env, gate)
    env.schedule_callback(10.0, chaos.heal)
    env.run(until=9.5)
    # seq 0 crossed the wire and is held; four wait in the window; the
    # sender is stuck on seq 5.
    assert arrived == []
    assert link.buffers_carried == 1
    assert [seq for seq, _t in accepted] == [0, 1, 2, 3, 4]
    env.run(until=20)
    assert arrived == [(seq, 10.0 + seq) for seq in range(7)]
    assert accepted[5:] == [(5, 10.0), (6, 11.0)]


def test_injected_loss_breaks_the_link_and_reports_once():
    from repro.net.link import LinkChaos

    env = Environment()
    link, _channel, gate, pool = slow_link(env)
    link.chaos = chaos = LinkChaos(env)
    chaos.drop_next = 1
    losses = []
    chaos.on_loss = losses.append
    send_all(env, link, [cut_buffer(pool, seq) for seq in range(3)])
    arrived = consume_all(env, gate)
    env.run(until=5)
    # After the first loss every successor drains to the floor: delivering
    # it would break FIFO.
    assert arrived == []
    assert chaos.broken and chaos.dropped == 3 and chaos.drop_next == 0
    assert losses == [link]
    assert link.dropped_buffers == 3
    assert pool.available_buffers == pool.total_buffers
    chaos.broken = False  # the sender-side repair
    send_all(env, link, [cut_buffer(pool, 3)])
    env.run(until=10)
    assert arrived == [(3, 6.0)]


def test_link_stalls_head_of_line_without_credits_and_resumes_on_consume():
    env = Environment()
    link, channel, gate, pool = slow_link(env, input_capacity=2)
    send_all(env, link, [cut_buffer(pool, seq) for seq in range(5)])
    env.run(until=9.5)
    # Two credits: seq 0 and 1 are queued, seq 2 crossed the wire at t=3
    # and waits for a credit; 3 and 4 never started.
    assert channel.delivered_seq == 1
    assert len(channel.queue) == 2
    assert link.buffers_carried == 3
    _idx, buffer = gate.poll_buffer()  # the task consumes seq 0 at t=9.5
    assert buffer.seq == 0
    env.run(until=10)
    assert channel.delivered_seq == 2  # the waiting buffer took the credit
    env.run(until=11)
    # ... and seq 3 started at that instant, to stall in turn at t=10.5.
    assert link.buffers_carried == 4
    assert channel.delivered_seq == 2
    assert gate.poll_buffer()[1].seq == 1
    env.run(until=20)
    assert channel.delivered_seq == 3


def test_reset_purges_the_dead_senders_blocked_send():
    """A send still waiting for window space when its sender dies must die
    with it: delivering it after the window was dropped would hand the
    receiver seq 5 right after seq -1 — a FIFO gap that the reconnect
    handshake (``delivered_seq``) would then turn into lost buffers."""
    env = Environment()
    link, channel, gate, pool = slow_link(env)
    buffers = [cut_buffer(pool, seq) for seq in range(6)]

    def sender():
        for buffer in buffers:
            yield link.send(buffer)

    proc = env.process(sender())
    arrived = consume_all(env, gate)
    env.run(until=0.5)  # seq 0 on the wire, 1-4 in the window, 5 blocked
    proc.kill()
    assert link.reset() == 5
    env.run(until=10)
    assert arrived == []
    assert channel.delivered_seq == -1
    assert link.dropped_buffers == 6
    assert pool.available_buffers == pool.total_buffers
