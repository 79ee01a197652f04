#!/usr/bin/env python3
"""Layer micro-drivers: each hot seam under synthetic load, no job around it.

Every driver builds its objects through the layer's public constructors,
runs a fixed number of operations and reports the fastest of ``ROUNDS``
rounds as ns per operation (``time.perf_counter_ns``).  The numbers say what
one operation of a layer costs in isolation; the per-workload tables of
``bench/run.py`` say how often a workload asks for it.

    python3 bench/micro.py            # print the table
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

if __name__ == "__main__":
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from repro.config import CostModel, SpillPolicy
from repro.core.causal_log import CausalLogManager
from repro.core.determinants import OrderDeterminant, TimestampDeterminant
from repro.core.inflight_log import InFlightLog
from repro.external.dfs import DistributedFileSystem
from repro.external.kafka import GeneratedTopicPartition
from repro.graph.elements import StreamRecord
from repro.integrity.fingerprint import fingerprint
from repro.net.buffer import BufferPool, NetworkBuffer
from repro.net.gate import InputChannel, InputGate
from repro.net.link import NetworkLink
from repro.net.partitioner import ForwardPartitioner
from repro.net.serialization import element_size, payload_size
from repro.net.writer import OutputChannel, RecordWriter
from repro.nexmark.generator import NexmarkGenerator
from repro.sim.core import Environment
from repro.sim.queues import Signal, Store
from repro.state.snapshot import SnapshotStore, TaskSnapshot

ROUNDS = 5
clock = time.perf_counter_ns

#: One round of a driver: returns {metric suffix: (elapsed ns, operations)}.
Round = Callable[[], Dict[str, Tuple[int, int]]]


def _cost() -> CostModel:
    return CostModel(buffer_size_bytes=4096, flush_interval=20e-3)


def _timed_run(env: Environment) -> int:
    started = clock()
    env.run()
    return clock() - started


def sim_core_timeout(n: int = 20000):
    env = Environment()

    def sleeper():
        for _ in range(n):
            yield env.timeout(1e-3)

    env.process(sleeper())
    return {"sim.core.timeout_ns_per_op": (_timed_run(env), n)}


def sim_core_any_of(n: int = 10000):
    """The source task's wait: a timeout raced against two idle signals."""
    env = Environment()
    control, timers = Signal(env), Signal(env)

    def waiter():
        for _ in range(n):
            yield env.any_of([env.timeout(1e-3), control.wait(), timers.wait()])

    env.process(waiter())
    return {"sim.core.any_of_ns_per_op": (_timed_run(env), n)}


def sim_queues_store(n: int = 20000):
    env = Environment()
    store: Store = Store(env, capacity=8)

    def producer():
        for item in range(n):
            yield store.put(item)

    def consumer():
        for _ in range(n):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    return {"sim.queues.store_putget_ns_per_op": (_timed_run(env), n)}


def _channel(env: Environment, cost: CostModel, inflight=None):
    """One wired channel: writer -> buffer pool -> link -> input gate."""
    link = NetworkLink(env, cost, name="micro")
    receiver = InputChannel(env, 0, capacity=cost.input_queue_buffers)
    link.attach_receiver(receiver)
    gate = InputGate(env, [receiver])
    pool = BufferPool(env, cost.output_pool_buffers * cost.buffer_size_bytes,
                      cost.buffer_size_bytes, name="micro-out")
    channel = OutputChannel(env, cost, 0, link, pool, lambda seconds: None,
                            inflight_log=inflight)
    return channel, link, gate


def _drain(gate: InputGate, until_records: int):
    """Consumer process body: take buffers off the gate until done."""
    seen = 0
    while seen < until_records:
        buffer = yield from gate.next_buffer()
        seen += buffer[1].n_records
        if buffer[1].recycle_on_consume:
            buffer[1].recycle()


def net_writer_emit(n: int = 20000):
    env = Environment()
    cost = _cost()
    channel, _link, gate = _channel(env, cost)
    writer = RecordWriter(env, cost, [channel], ForwardPartitioner(0), lambda s: None)
    records = [StreamRecord((0, i, 3, 0.25), timestamp=float(i), key=i) for i in range(n)]

    def producer():
        for record in records:
            tail = writer.emit_or_gen(record)
            if tail is not None:
                yield from tail
        yield from writer.flush_all()

    env.process(producer())
    env.process(_drain(gate, n))
    return {"net.writer.emit_ns_per_record": (_timed_run(env), n)}


def net_serialization(n: int = 50000):
    record = StreamRecord((3, 123456, 4, 1.25), timestamp=1.0, key=7)
    started = clock()
    for _ in range(n):
        element_size(record)
    return {"net.serialization.element_size_ns_per_op": (clock() - started, n)}


def causal_log_append(n: int = 20000):
    manager = CausalLogManager("micro", 5, None)
    determinants = [OrderDeterminant(i % 5, i) for i in range(n)]
    started = clock()
    for determinant in determinants:
        manager.append_main(determinant)
    return {"core.causal_log.append_ns_per_op": (clock() - started, n)}


def causal_log_delta_dsd1(buffers: int = 4000):
    """Own bundle only: four fresh determinants, then one delta."""
    manager = CausalLogManager("micro", 5, 1)
    elapsed = 0
    for i in range(buffers):
        for j in range(4):
            manager.append_main(TimestampDeterminant(i + j * 1e-3))
        started = clock()
        manager.delta_for_dispatch(i % 5)
        elapsed += clock() - started
    return {"core.causal_log.delta_dsd1_ns_per_buffer": (elapsed, buffers)}


def causal_log_delta_full(buffers: int = 1500):
    """DSD=Full in the middle of a chain: five upstream bundles arrive by
    delta, are merged, and are forwarded with the next own buffer."""
    upstreams = [CausalLogManager(f"up{i}", 5, None) for i in range(5)]
    manager = CausalLogManager("micro", 5, None)
    delta_ns = merge_ns = slices_merged = 0
    for i in range(buffers):
        for upstream in upstreams:
            upstream.append_main(OrderDeterminant(i % 5, i))
            upstream.append_main(TimestampDeterminant(float(i)))
            slices, _nbytes = upstream.delta_for_dispatch(0)
            started = clock()
            manager.merge_delta(slices, upstream.task_id)
            merge_ns += clock() - started
            slices_merged += len(slices)
        manager.append_main(OrderDeterminant(i % 5, i))
        started = clock()
        manager.delta_for_dispatch(i % 5)
        delta_ns += clock() - started
    return {
        "core.causal_log.delta_full_ns_per_buffer": (delta_ns, buffers),
        "core.causal_log.merge_ns_per_slice": (merge_ns, slices_merged),
    }


def inflight_log(buffers: int = 3000):
    """Append ``buffers`` dispatched buffers, then replay them all."""
    env = Environment()
    cost = _cost()
    log = InFlightLog(env, cost, (buffers + 8) * cost.buffer_size_bytes,
                      SpillPolicy.IN_MEMORY, name="micro")
    _channel_unused, link, gate = _channel(env, cost)
    pool = BufferPool(env, (buffers + 8) * cost.buffer_size_bytes,
                      cost.buffer_size_bytes, name="micro-out")
    prepared = []
    for seq in range(buffers):
        buffer = NetworkBuffer(0, seq, 0, pool)
        for i in range(4):
            buffer.append(StreamRecord((0, seq * 4 + i, 3, 0.5), key=i), 60)
        buffer.recycle_on_consume = False
        prepared.append(buffer)

    def appender():
        for buffer in prepared:
            yield pool.acquire()
            yield from log.append(0, buffer, sent=True)

    env.process(appender())
    append_ns = _timed_run(env)

    def replayer():
        yield from log.replay(0, 0, link)

    env.process(replayer())
    env.process(_drain(gate, buffers * 4))
    replay_ns = _timed_run(env)
    return {
        "core.inflight_log.append_ns_per_buffer": (append_ns, buffers),
        "core.inflight_log.replay_ns_per_buffer": (replay_ns, log.buffers_replayed),
    }


def _state_image(keys: int = 64, state_bytes: int = 100 * 1024):
    """Keyed state shaped like one chain task's: 64 keys, 100 KiB."""
    blob = "x" * (state_bytes // keys)
    return {"stage": {key: (key * 7, blob) for key in range(keys)}}


def integrity_fingerprint(n: int = 40):
    state = _state_image()
    kib = payload_size(state) / 1024.0
    started = clock()
    for _ in range(n):
        fingerprint(state)
    return {"integrity.fingerprint_ns_per_kb": (clock() - started, n * kib)}


def state_snapshot(n: int = 20):
    env = Environment()
    store = SnapshotStore(DistributedFileSystem(env, _cost()))
    state = _state_image()
    kib = [0.0]

    def cycle():
        for checkpoint_id in range(1, n + 1):
            snapshot = TaskSnapshot("micro", checkpoint_id, state, None, {"edges": []}, {}, None)
            kib[0] += snapshot.size_bytes / 1024.0
            yield from store.save(snapshot)
            yield from store.load("micro", checkpoint_id)

    env.process(cycle())
    return {"state.snapshot.save_load_ns_per_kb": (_timed_run(env), kib[0])}


def external_kafka_read(n: int = 50000, batch: int = 64):
    partition = GeneratedTopicPartition("micro", 0, lambda p, off: (p, off), 1000.0, n)
    started = clock()
    offset = 0
    while offset < n:
        offset += len(partition.read(offset, batch))
    return {"external.kafka.read_ns_per_record": (clock() - started, n)}


_generator_seeds = iter(range(10**6, 2 * 10**6))


def nexmark_generate(n: int = 5000):
    # A fresh seed per round: ``generate`` memoises per (seed, rate), and the
    # cost of interest is making an event, not looking one up.
    generator = NexmarkGenerator(seed=next(_generator_seeds), rate_per_partition=1000.0)
    started = clock()
    for offset in range(n):
        generator.generate(0, offset)
    return {"nexmark.generator.generate_ns_per_event": (clock() - started, n)}


DRIVERS: Tuple[Round, ...] = (
    sim_core_timeout, sim_core_any_of, sim_queues_store, net_writer_emit,
    net_serialization, causal_log_append, causal_log_delta_dsd1,
    causal_log_delta_full, inflight_log, integrity_fingerprint, state_snapshot,
    external_kafka_read, nexmark_generate,
)


def run_all(rounds: int = ROUNDS) -> Dict[str, Dict[str, float]]:
    """``micro.<metric> -> {"value": fastest ns/op, "unit": "ns", "rounds": k}``."""
    results: Dict[str, Dict[str, float]] = {}
    for driver in DRIVERS:
        best: Dict[str, float] = {}
        for _ in range(rounds):
            for metric, (elapsed, operations) in driver().items():
                per_op = elapsed / operations
                best[metric] = min(best.get(metric, per_op), per_op)
        for metric, value in best.items():
            results[f"micro.{metric}"] = {"value": value, "unit": "ns", "rounds": rounds}
    return results


def print_table(results: Dict[str, Dict[str, float]]) -> None:
    print(f"\n== layer micro-drivers (fastest of {ROUNDS} rounds) ==")
    for metric, cell in results.items():
        print(f"  {metric:52s} {cell['value']:12.1f} ns")


if __name__ == "__main__":
    print_table(run_all())
