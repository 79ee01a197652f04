"""The stream task: a Flink-style task executor on the simulation kernel.

One :class:`StreamTask` hosts one operator subtask.  Its mailbox loop
multiplexes control messages (RPCs), due processing timers, and input
buffers — the three asynchronous inputs whose interleaving is the
nondeterminism Clonos logs (Section 4).

The same loop runs both *normal operation* and *causal recovery*: when the
attached :class:`~repro.core.recovery.RecoveryManager` is active, control
flow is dictated by the determinant log (which channel to consume, when
timers fire, where the source cut epochs) instead of by arrival order and
the wall clock, and the causal log is rebuilt as replay proceeds.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.analysis.invariants import SANITIZER
from repro.config import JobConfig
from repro.core.causal_log import CausalLogManager
from repro.core.determinants import (
    BarrierInjectDeterminant,
    BufferSizeDeterminant,
    OrderDeterminant,
    TimerFiredDeterminant,
    WatermarkEmitDeterminant,
)
from repro.core.inflight_log import InFlightLog
from repro.core.recovery import RecoveryManager
from repro.errors import (
    DeterminantLogError,
    ExternalSystemError,
    IntegrityError,
    PoisonPillError,
    RecoveryError,
)
from repro.graph.elements import (
    CheckpointBarrier,
    EndOfStream,
    StreamRecord,
    Watermark,
)
from repro.net.buffer import NetworkBuffer
from repro.net.gate import InputGate
from repro.net.writer import CausalOutputContext, OutputChannel, RecordWriter
from repro.operators.base import Context, Operator, Services
from repro.runtime.rpc import ControlQueue
from repro.sim.core import Environment, Interrupt
from repro.sim.queues import Signal
from repro.state.backend import HashMapStateBackend
from repro.state.snapshot import TaskSnapshot
from repro.timing.timers import Timer, TimerService
from repro.timing.watermarks import WatermarkTracker


class TaskStatus(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    RECOVERING = "recovering"
    FAILED = "failed"
    FINISHED = "finished"


class InputInfo(NamedTuple):
    """Metadata of one flattened input channel."""

    flat_index: int
    input_index: int  # which logical input of the operator
    upstream_task: str  # e.g. "map[2]"
    link: Any  # NetworkLink


class OutputEdgeInfo(NamedTuple):
    """One output edge: its writer plus routing metadata."""

    writer: RecordWriter
    key_selector: Optional[Callable[[Any], Any]]
    downstream_tasks: List[str]  # per channel position


class _TaskCausalContext(CausalOutputContext):
    """Adapter feeding the writer's buffer-cut events into the causal log."""

    def __init__(self, causal: CausalLogManager):
        self.causal = causal

    def on_buffer_cut(self, channel_index, seq, num_elements, size_bytes, reason, epoch):
        self.causal.append_queue(
            channel_index,
            BufferSizeDeterminant(seq, num_elements, size_bytes),
            epoch=epoch,
        )

    def delta_for_dispatch(self, channel_index):
        return self.causal.delta_for_dispatch(channel_index)


class StreamTask:
    """One running (or standby-activated) subtask."""

    SOURCE_BATCH = 64

    def __init__(
        self,
        env: Environment,
        config: JobConfig,
        name: str,
        vertex_name: str,
        subtask_index: int,
        num_subtasks: int,
        operator: Operator,
        jobmanager,
        is_source: bool,
        is_sink: bool,
    ):
        self.env = env
        self.config = config
        self.cost = config.cost
        self.name = name
        self.vertex_name = vertex_name
        self.subtask_index = subtask_index
        self.num_subtasks = num_subtasks
        self.operator = operator
        self.jm = jobmanager
        self.is_source = is_source
        self.is_sink = is_sink

        self.backend = HashMapStateBackend()
        #: The one signal an idle task waits on: the control queue, the timer
        #: service and the input gate all pulse it.
        self.wakeup = Signal(env)
        self.timers = TimerService(env, self.wakeup)
        self.control = ControlQueue(env, self.cost, name, jm=jobmanager, signal=self.wakeup)
        self.recovery = RecoveryManager(
            name,
            trace=getattr(jobmanager, "trace", None),
            clock=(lambda: env.now),
        )
        self.causal: Optional[CausalLogManager] = None
        self.inflight: Optional[InFlightLog] = None
        self.services: Optional[Services] = None

        self.gate: Optional[InputGate] = None
        self.input_infos: List[InputInfo] = []
        self.out_edges: List[OutputEdgeInfo] = []

        self.epoch = 0
        self.offset_in_epoch = 0
        self.records_processed = 0
        self.status = TaskStatus.CREATED

        self._cpu_debt = 0.0
        #: Straggler-node multiplier (chaos ``compute_slowdown``); 1.0 keeps
        #: ``_pay`` on the exact historical arithmetic.
        self.compute_slowdown = 1.0
        #: True only while the poison registry has pills/arms for this task
        #: name — the per-record registry consult is skipped entirely
        #: otherwise (hot-path passivity).
        self._poison_active = False
        self._aligning: Optional[int] = None
        self._barriers_received: set = set()
        #: Checkpoint ids whose alignment was cancelled because an upstream
        #: died mid-alignment (the coordinator aborted the cut); their
        #: replayed barriers must be ignored, not re-aligned on.
        self._cancelled_alignments: set = set()
        self._channels_done: set = set()
        self._last_wm_check = 0.0
        self._acked_checkpoints: set = set()
        self._main_proc = None
        self._flusher_proc = None
        self._service_procs: list = []
        #: Live replay server per output channel; a newer replay_request for
        #: the same channel supersedes (kills) the older server.
        self._active_replays: Dict[int, Any] = {}
        self.ctx: Optional[Context] = None
        self.node_id: Optional[int] = None

        #: SEEP-baseline receiver-side deduplication (Table 1): count records
        #: per (channel, epoch); on upstream replay, drop the first N
        #: re-received records.  Correct iff upstream regeneration is
        #: deterministic — which is exactly the assumption Clonos removes.
        self.seep_dedup = config.policy.receiver_dedup
        self._seep_counts: Dict[int, Dict[int, int]] = {}
        self._seep_channel_epoch: Dict[int, int] = {}
        self._seep_drop: Dict[int, int] = {}
        self.seep_records_dropped = 0

        #: Output buffer pool (set by deployment when the task has outputs);
        #: the sanitizer's leak accounting reads it at end of job.
        self.out_pool = None
        self._fifo_strict = config.policy.fifo_strict

    # -- wiring (done by deployment) ------------------------------------------------

    def attach_inputs(self, gate: InputGate, infos: List[InputInfo]) -> None:
        self.gate = gate
        self.input_infos = infos
        self._wm_tracker = WatermarkTracker(max(1, len(infos)))

    def attach_outputs(self, out_edges: List[OutputEdgeInfo]) -> None:
        self.out_edges = out_edges

    def attach_ft(
        self,
        services: Services,
        causal: Optional[CausalLogManager],
        inflight: Optional[InFlightLog],
    ) -> None:
        self.services = services
        self.causal = causal
        self.inflight = inflight

    def make_context(self) -> Context:
        self.ctx = Context(
            self.name,
            self.subtask_index,
            self.num_subtasks,
            self.backend,
            self.timers,
            self.services,
            env=self.env,
        )
        return self.ctx

    def causal_output_context(self) -> Optional[CausalOutputContext]:
        return _TaskCausalContext(self.causal) if self.causal is not None else None

    @property
    def all_output_channels(self) -> List[OutputChannel]:
        return [ch for edge in self.out_edges for ch in edge.writer.channels]

    def output_channel_by_flat_index(self, flat_index: int) -> OutputChannel:
        for channel in self.all_output_channels:
            if channel.index == flat_index:
                return channel
        raise RecoveryError(f"{self.name}: no output channel {flat_index}")

    def _set_status(self, status: "TaskStatus") -> None:
        """All status transitions go through here so the job manager can run
        status-subscription callbacks (deferred failure injections etc.)."""
        self.status = status
        notify = getattr(self.jm, "task_status_changed", None)
        if notify is not None:
            notify(self)

    # -- lifecycle ----------------------------------------------------------------------

    def start(
        self,
        snapshot: Optional[TaskSnapshot] = None,
        recovery_bundle=None,
        replay_from_epoch: int = 0,
    ) -> None:
        """Begin execution, optionally restoring state / entering recovery."""
        if SANITIZER.enabled:
            SANITIZER.on_task_start(self.name)
        if snapshot is not None:
            self._restore(snapshot)
        if self.services is not None and hasattr(self.services, "reseed_for_epoch"):
            if recovery_bundle is None:
                self.services.reseed_for_epoch(self.epoch)
        self.operator.open(self.ctx)
        if recovery_bundle is not None:
            # Step 4 of the recovery protocol starts here: replay logged
            # in-flight records under the loaded order determinants.
            self.jm.trace.emit(
                self.env.now, "phase-mark", self.name, phase="inflight-replay"
            )
            self.recovery.load(recovery_bundle, replay_from_epoch)
            self._prepare_replay()
            if self.status is not TaskStatus.RUNNING:
                self._set_status(TaskStatus.RECOVERING)
        else:
            self.timers.arm_parked()
            self._set_status(TaskStatus.RUNNING)
        self._last_wm_check = self.env.now
        loop = self._source_loop() if self.is_source else self._data_loop()
        self._main_proc = self.env.process(loop, name=f"task:{self.name}")
        if self.out_edges:
            self._flusher_proc = self.env.process(
                self._flusher(), name=f"flusher:{self.name}"
            )

    def _restore(self, snapshot: TaskSnapshot) -> None:
        self.backend.restore(snapshot.keyed_state)
        self.operator.restore(snapshot.operator_state)
        self.timers.restore(snapshot.timer_state)
        if snapshot.watermark_state is not None and self.input_infos:
            self._wm_tracker.restore(snapshot.watermark_state)
            self.ctx.current_watermark = self._wm_tracker.current
        for edge, state in zip(self.out_edges, snapshot.network_state["edges"]):
            edge.writer.restore_state(state)
        # The writer state was imaged before the barrier broadcast bumped the
        # channel epochs, so the stored epoch is the one the checkpoint
        # closes.  A restored task resumes in the epoch the checkpoint opens:
        # stamp regenerated buffers accordingly, or a downstream replay
        # request with from_epoch=checkpoint_id would skip them.
        for channel in self.all_output_channels:
            channel.epoch = snapshot.checkpoint_id
        self.epoch = snapshot.checkpoint_id
        self.offset_in_epoch = 0
        if self.causal is not None:
            self.causal.current_epoch = snapshot.checkpoint_id

    def _prepare_replay(self) -> None:
        """Step 6 prep: pre-load forced buffer cuts so the network threads
        rebuild identical buffers (Section 5.2), and re-anchor each writer's
        sequence numbering on the logged cuts.

        The checkpoint images ``channel.seq`` *before* the epoch-closing
        barrier goes out.  When that barrier opened a fresh buffer, the
        buffer consumed a sequence number the image never saw: regenerated
        buffers would come out numbered one low, and after the replayed cuts
        were deduplicated the first buffer of *fresh* records would collide
        with ``suppress_until_seq`` and be silently dropped.  The
        output-queue log is authoritative for where replay resumes; with no
        logged cuts, the only delivered-but-unlogged buffer is the barrier
        one (its cut belongs to the closed epoch), so its number is skipped.
        """
        if self.services is not None and hasattr(self.services, "replay_reseed"):
            if self.recovery.has_value("rng"):
                self.services.replay_reseed()
        gap_channel = None
        for channel in self.all_output_channels:
            cuts = self.recovery.forced_cuts_for_channel(channel.index)
            channel.forced_cuts.clear()
            channel.forced_cuts.extend(cuts)
            first = self.recovery.first_replayed_seq(channel.index)
            if first is not None:
                channel.seq = first
                next_fresh_seq = first + len(cuts)
            else:
                if channel.seq == channel.suppress_until_seq:
                    channel.seq += 1
                next_fresh_seq = channel.seq
            if next_fresh_seq <= channel.suppress_until_seq and gap_channel is None:
                gap_channel = channel.index
        if gap_channel is not None:
            # The receiver holds delivered buffers beyond anything the
            # determinant log can regenerate, so exact sender-side dedup is
            # impossible for that window.  Never guess silently — announce
            # and regenerate from the sources instead.
            self.jm.coordinator.degrade(
                self.name, f"replay-horizon-gap:ch{gap_channel}"
            )
        if not self.recovery.active:
            self._finish_recovery()

    def fail(self) -> None:
        """Failure injection: the task process dies instantly and silently."""
        self._set_status(TaskStatus.FAILED)
        for proc in (self._main_proc, self._flusher_proc, *self._service_procs):
            if proc is not None and proc.is_alive:
                proc.kill()
        self.control.close()
        if self.gate is not None:
            for info in self.input_infos:
                info.link.detach_receiver()
            self.gate.close()
        for edge in self.out_edges:
            for channel in edge.writer.channels:
                channel.link.reset()

    # -- cpu accounting ----------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        self._cpu_debt += seconds

    def _pay(self):
        if self._cpu_debt > 0:
            debt, self._cpu_debt = self._cpu_debt, 0.0
            if self.compute_slowdown != 1.0:
                debt *= self.compute_slowdown
            yield self.env.timeout(debt)

    # -- main loops --------------------------------------------------------------------------

    def _data_loop(self):
        try:
            while True:
                message = self.control.poll()
                if message is not None:
                    yield from self._handle_control(message)
                    continue
                if self.recovery.active:
                    yield from self._data_replay_step()
                    continue
                if self.timers.has_due():
                    yield from self._fire_timer(self.timers.pop_due())
                    continue
                item = self.gate.poll_buffer()
                if item is not None:
                    yield from self._process_buffer(item[0], item[1])
                    yield from self._pay()
                    if len(self._channels_done) == len(self.input_infos):
                        yield from self._finish()
                        return
                    continue
                yield self.wakeup.wait()
        except Interrupt:
            return
        except PoisonPillError:
            # A pill is an injected *fault*, not a job bug: this incarnation
            # dies like a task_kill and the normal recovery path replays it
            # back to the same record, where the registry rules again.
            name = self.name
            jm = self.jm
            jm.recovery_events.append((self.env.now, "poison-crash", name))
            jm.trace.emit(self.env.now, "poison-crash", name)
            self.env.schedule_callback(
                0.0, lambda: jm.kill_task(name, force=True)
            )
            return
        except ExternalSystemError as exc:
            # An external system refused an operation mid-stream (broker
            # outage/brownout reaching a sink append).  Production runtimes
            # fail the task, not the job: recovery replays the sink's input
            # byte-identically and the Section 5.5 skip counts dedupe what
            # already landed, so once the external system returns the output
            # is still exactly-once.
            name = self.name
            jm = self.jm
            jm.recovery_events.append((self.env.now, "external-crash", name))
            jm.trace.emit(self.env.now, "external-crash", name, error=str(exc))
            self.env.schedule_callback(
                0.0, lambda: jm.kill_task(name, force=True)
            )
            return
        except Exception as exc:  # noqa: BLE001 — surface bugs to the JM
            self.jm.task_crashed(self, exc)
            raise

    def _source_loop(self):
        #: The arrival the last poll reported.  Offsets only grow while this
        #: loop runs, so polling before that instant would just rediscover it.
        next_arrival = None
        try:
            while True:
                message = self.control.poll()
                if message is not None:
                    yield from self._handle_control(message)
                    continue
                if self.recovery.active:
                    yield from self._source_replay_step()
                    continue
                if self.timers.has_due():
                    yield from self._fire_timer(self.timers.pop_due())
                    continue
                if next_arrival is None or next_arrival <= self.env.now:
                    records, next_arrival = self.operator.poll(self.ctx, self.SOURCE_BATCH)
                    if records:
                        record_cpu_cost = self.cost.record_cpu_cost
                        for record in records:
                            self.offset_in_epoch += 1
                            self.records_processed += 1
                            self._cpu_debt += record_cpu_cost
                            tail = self._emit_nowait(record)
                            if tail is not None:
                                yield from tail
                        yield from self._maybe_emit_watermark()
                        yield from self._pay()
                        continue
                    if next_arrival is None:
                        yield from self._finish_source()
                        return
                delay = max(next_arrival - self.env.now, 1e-4)
                next_arrival = None  # whatever ends the sleep, poll afresh
                yield self.wakeup.sleep(delay)
        except Interrupt:
            return
        except Exception as exc:  # noqa: BLE001 — surface bugs to the JM
            self.jm.task_crashed(self, exc)
            raise

    def _flusher(self):
        """The output-flusher thread: time-based (nondeterministic) cuts."""
        try:
            while True:
                yield self.env.timeout(self.cost.flush_interval)
                if self.recovery.active:
                    continue
                for edge in self.out_edges:
                    for channel in edge.writer.channels:
                        flush_gen = channel.try_flush_from_timer()
                        if flush_gen is not None:
                            yield from flush_gen
        except Interrupt:
            return

    # -- normal-path processing ------------------------------------------------------------

    def _process_buffer(self, channel_index: int, buffer: NetworkBuffer):
        if SANITIZER.enabled:
            SANITIZER.on_buffer(
                self.name, channel_index, buffer.seq, strict=self._fifo_strict
            )
        self.charge(
            self.cost.buffer_overhead_cost
            + self.cost.serialize_time(buffer.size_bytes)
        )
        if self.causal is not None:
            # A delta lives from its cut to this merge: a replayed buffer
            # carries a fresh one, so the logged buffer lets it go.
            delta, buffer.delta = buffer.delta, None
            if delta:
                # Store the piggybacked determinants BEFORE processing the
                # records that depend on them (always-no-orphans, Section 5.3).
                try:
                    entries = self.causal.merge_delta(
                        delta, self.input_infos[channel_index].upstream_task
                    )
                except DeterminantLogError:
                    # A compound incident (e.g. a zone outage) can rebuild
                    # both ends of a channel into disagreeing log positions.
                    # Under fallback_to_global that is an announced global
                    # rollback, not a job crash; without it, surface the bug.
                    if not self.config.clonos.fallback_to_global:
                        raise
                    self.jm.recovery_events.append(
                        (self.env.now, "determinant-delta-gap", self.name)
                    )
                    self.jm.coordinator.degrade(self.name, "determinant-delta-gap")
                    if buffer.recycle_on_consume:
                        buffer.recycle()
                    return
                self.charge(
                    self.cost.serialize_time(buffer.delta_bytes)
                    + entries * self.cost.determinant_cpu_cost
                )
            self.causal.append_main(OrderDeterminant(channel_index, buffer.seq))
            self.charge(self.cost.determinant_cpu_cost)
        # Per-record fast path: the record loop is inlined and emission uses
        # the non-blocking writer path, so a record that does not cut a
        # buffer costs zero generator frames and zero kernel interactions.
        ctx = self.ctx
        input_index = self.input_infos[channel_index].input_index
        set_current_key = self.backend.set_current_key
        operator_process = self.operator.process
        record_cpu_cost = self.cost.record_cpu_cost
        for element in buffer.elements:
            if element.is_record:
                if self.seep_dedup:
                    epoch = self._seep_channel_epoch.get(channel_index, 0)
                    counts = self._seep_counts.setdefault(channel_index, {})
                    counts[epoch] = counts.get(epoch, 0) + 1
                    if self._seep_drop.get(channel_index, 0) > 0:
                        self._seep_drop[channel_index] -= 1
                        self.seep_records_dropped += 1
                        continue
                if self._poison_active:
                    # Consulted BEFORE any counter or operator touch: a
                    # "crash" verdict must leave no artifact containing this
                    # record, and a skip must be byte-identical on every
                    # incarnation that replays past it.
                    verdict = self.jm.poison.on_record(self.name, element.value)
                    if verdict != "pass":
                        if verdict == "crash":
                            raise PoisonPillError(
                                self.name, self.jm.poison.origin_of(element.value)
                            )
                        if verdict == "quarantine":
                            self.jm.note_poison_quarantine(
                                self.name, self.jm.poison.origin_of(element.value)
                            )
                        continue
                self.offset_in_epoch += 1
                self.records_processed += 1
                self._cpu_debt += record_cpu_cost
                ctx.current_key = element.key
                ctx.element_timestamp = element.timestamp
                ctx.element_created_at = element.created_at
                ctx.input_index = input_index
                set_current_key(element.key)
                operator_process(element, ctx)
                pending = ctx.pending_output
                if pending:
                    ctx.pending_output = []
                    for record in pending:
                        tail = self._emit_nowait(record)
                        if tail is not None:
                            yield from tail
            elif element.is_watermark:
                yield from self._handle_watermark(channel_index, element.timestamp)
            elif element.is_barrier:
                if self.seep_dedup:
                    self._seep_channel_epoch[channel_index] = element.checkpoint_id
                yield from self._handle_barrier(channel_index, element)
            elif isinstance(element, EndOfStream):
                self._channels_done.add(channel_index)
        if buffer.recycle_on_consume:
            buffer.recycle()

    def _fire_timer(self, timer: Timer):
        if self.causal is not None:
            self.causal.append_main(
                TimerFiredDeterminant(timer.timer_id, self.offset_in_epoch)
            )
        self.charge(self.cost.record_cpu_cost)
        ctx = self.ctx
        ctx.current_key = timer.key
        ctx.element_timestamp = timer.fire_time
        ctx.element_created_at = None
        self.backend.set_current_key(timer.key)
        self.operator.on_timer(timer, ctx)
        yield from self._drain_output()
        yield from self._pay()

    def _handle_watermark(self, channel_index: int, watermark_ts: float):
        advanced = self._wm_tracker.update(channel_index, watermark_ts)
        if advanced is None:
            return
        ctx = self.ctx
        ctx.current_watermark = advanced
        for timer in self.timers.advance_watermark(advanced):
            self.charge(self.cost.record_cpu_cost)
            ctx.current_key = timer.key
            ctx.element_timestamp = timer.fire_time
            ctx.element_created_at = None
            self.backend.set_current_key(timer.key)
            self.operator.on_timer(timer, ctx)
            yield from self._drain_output()
        self.operator.on_watermark(advanced, ctx)
        yield from self._drain_output()
        for edge in self.out_edges:
            yield from edge.writer.broadcast(Watermark(advanced))

    def _handle_barrier(self, channel_index: int, barrier: CheckpointBarrier):
        checkpoint_id = barrier.checkpoint_id
        if SANITIZER.enabled:
            SANITIZER.on_barrier(self.name, channel_index, checkpoint_id)
        if checkpoint_id <= self.epoch:
            return  # duplicate barrier re-delivered by an at-least-once replay
        if checkpoint_id in self._cancelled_alignments:
            # This cut was aborted when an upstream died mid-alignment; a
            # recovered upstream replays its barrier at the logged offset,
            # but the epoch it would close no longer exists.
            return
        if self._aligning is None:
            self._aligning = checkpoint_id
            self._barriers_received = set()
        self._barriers_received.add(channel_index)
        if not self.recovery.active:
            self.gate.block_channel(channel_index)
        alive = set(range(len(self.input_infos))) - self._channels_done
        if self._barriers_received >= alive:
            yield from self._take_checkpoint(checkpoint_id)
            self._aligning = None
            self._barriers_received = set()
            self.gate.unblock_all()

    def on_upstream_reconnected(self, channel_index: int) -> None:
        """A failed upstream's replacement re-attached to ``channel_index``
        (the Section 6.2 reconfiguration handshake).

        If this task is mid-alignment and still owes that upstream's barrier,
        the barrier died with the old incarnation: it re-arrives only after
        the replacement finishes determinant replay, and replay progress can
        depend -- through backpressure on the channels this alignment holds
        shut -- on the alignment releasing first.  That cycle is a
        distributed deadlock (sink aligned on a dead peer's barrier blocks
        its live input, which wedges the common upstream mid-send, which can
        then never serve the replacement's replay request).

        The coordinator aborted the pending cut when it detected the failure
        (``_on_detected``), so the epoch this alignment would close no longer
        exists; cancel it task-side and release the blocked channels.  The
        checkpoint id is remembered so the replayed barrier is dropped
        instead of starting a fresh, never-completable alignment.
        """
        if self._aligning is None or channel_index in self._barriers_received:
            return
        if self.recovery.active:
            # Replay never blocks channels (order determinants dictate the
            # interleaving), so the alignment holds no credits hostage.
            return
        cancelled = self._aligning
        self._cancelled_alignments.add(cancelled)
        self._aligning = None
        self._barriers_received = set()
        self.jm.recovery_events.append(
            (self.env.now, f"alignment-cancelled:{cancelled}", self.name)
        )
        self.gate.unblock_all()

    def _take_checkpoint(self, checkpoint_id: int):
        state_size = self.backend.size_bytes()
        # Synchronous part of the (mostly asynchronous) snapshot.
        self.charge(1e-4 + self.cost.serialize_time(state_size) * 0.05)
        # The operator sees the epoch boundary BEFORE its state is imaged,
        # so a restore resumes in the epoch the checkpoint opens.
        self.operator.on_barrier(checkpoint_id, self.ctx)
        snapshot = self.build_snapshot(checkpoint_id)
        self.jm.snapshot_taken(self, snapshot)
        if self.causal is not None:
            self.causal.on_barrier(checkpoint_id)
            if self.recovery.active:
                self.services.replay_reseed()
            else:
                self.services.reseed_for_epoch(checkpoint_id)
        self.epoch = checkpoint_id
        self.offset_in_epoch = 0
        for edge in self.out_edges:
            yield from edge.writer.broadcast_barrier(CheckpointBarrier(checkpoint_id))
        yield from self._pay()

    def build_snapshot(self, checkpoint_id: int) -> TaskSnapshot:
        return TaskSnapshot(
            self.name,
            checkpoint_id,
            self.backend.snapshot(),
            self.operator.snapshot(),
            {"edges": [edge.writer.snapshot_state() for edge in self.out_edges]},
            self.timers.snapshot(),
            self._wm_tracker.snapshot() if self.input_infos else None,
        )

    # -- emission ----------------------------------------------------------------------------

    def _drain_output(self):
        ctx = self.ctx
        if not ctx.pending_output:
            return
        pending = ctx.pending_output
        ctx.pending_output = []
        for record in pending:
            tail = self._emit_nowait(record)
            if tail is not None:
                yield from tail

    def _emit_record(self, record: StreamRecord):
        tail = self._emit_nowait(record)
        if tail is not None:
            yield from tail

    def _emit_nowait(self, record: StreamRecord):
        """Emit ``record`` on every out edge without touching the kernel when
        possible.  Returns None when fully emitted, else a generator that the
        caller must drive to completion (the blocking remainder)."""
        out_edges = self.out_edges
        for position, edge in enumerate(out_edges):
            out = record
            selector = edge.key_selector
            if selector is not None:
                out = StreamRecord(
                    record.value,
                    timestamp=record.timestamp,
                    key=selector(record.value),
                    created_at=record.created_at,
                )
            tail = edge.writer.emit_or_gen(out)
            if tail is not None:
                return self._emit_tail(tail, record, position + 1)
        return None

    def _emit_tail(self, tail, record: StreamRecord, next_edge: int):
        yield from tail
        for edge in self.out_edges[next_edge:]:
            out = record
            if edge.key_selector is not None:
                out = StreamRecord(
                    record.value,
                    timestamp=record.timestamp,
                    key=edge.key_selector(record.value),
                    created_at=record.created_at,
                )
            yield from edge.writer.emit(out)

    def _maybe_emit_watermark(self):
        if self.env.now - self._last_wm_check < self.config.watermark_interval:
            return
        if any(ch.forced_cuts for ch in self.all_output_channels):
            # Still regenerating pre-failure buffers: inserting a fresh
            # watermark would shift the reproduced buffer boundaries.
            return
        self._last_wm_check = self.env.now
        generator = self.operator.watermark_generator()
        if generator is None:
            return
        watermark = generator.next_watermark()
        if watermark is None:
            return
        if self.causal is not None:
            self.causal.append_main(
                WatermarkEmitDeterminant(watermark, self.offset_in_epoch)
            )
        for edge in self.out_edges:
            yield from edge.writer.broadcast(Watermark(watermark))

    # -- control messages ------------------------------------------------------------------------

    def _handle_control(self, message):
        kind = message.kind
        if kind == "inject_barrier":
            yield from self._inject_barrier(message.payload)
        elif kind == "checkpoint_complete":
            self._on_checkpoint_complete(message.payload)
        elif kind == "replay_request":
            self._on_replay_request(**message.payload)
        elif kind == "cancel_alignment":
            self._cancel_alignment(message.payload)
        elif kind == "stop":
            raise Interrupt("stopped")
        else:
            raise RecoveryError(f"{self.name}: unknown control message {kind!r}")

    def _inject_barrier(self, checkpoint_id: int):
        if self.recovery.active:
            # The barrier will be re-injected at its logged offset instead.
            return
        if self.causal is not None:
            self.causal.append_main(
                BarrierInjectDeterminant(checkpoint_id, self.offset_in_epoch)
            )
        yield from self._take_checkpoint(checkpoint_id)

    def _cancel_alignment(self, checkpoint_id: int) -> None:
        """The coordinator aborted this pending cut on its timeout (e.g. the
        barrier-injection RPC to one source was lost, so one input never
        carries the barrier).  An alignment on it would hold channels —
        and, through the bounded buffer pool, the whole pipeline — blocked
        forever.  Drop the cut and release the channels; the id is
        remembered so a late barrier cannot restart the alignment."""
        self._cancelled_alignments.add(checkpoint_id)
        if self._aligning != checkpoint_id:
            return
        self._aligning = None
        self._barriers_received = set()
        self.jm.recovery_events.append(
            (self.env.now, f"alignment-cancelled:{checkpoint_id}", self.name)
        )
        self.gate.unblock_all()

    def _on_checkpoint_complete(self, checkpoint_id: int) -> None:
        if self.causal is not None:
            self.causal.on_checkpoint_complete(checkpoint_id)
        if self.inflight is not None:
            self.inflight.truncate_before(checkpoint_id)
        self.operator.on_checkpoint_complete(checkpoint_id, self.ctx)

    def _on_replay_request(
        self,
        flat_channel: int,
        from_epoch: int,
        delivered_seq: int,
        requester: str,
        live_seq: bool = False,
    ) -> None:
        """An in-flight log replay request from a recovering downstream
        (step 4 of the protocol); serving it is step 5.

        ``live_seq`` (link repair): re-read the receiver's delivered sequence
        number at serve time, excluding anything that trickled in between the
        repair decision and this request's arrival.
        """
        channel = self.output_channel_by_flat_index(flat_channel)
        if live_seq and channel.link.receiver is not None:
            delivered_seq = max(delivered_seq, channel.link.receiver.delivered_seq)
            channel.suppress_until_seq = max(channel.suppress_until_seq, delivered_seq)
        else:
            # A recovering receiver's delivered_seq is authoritative, not a
            # floor: it rolls back to its restored checkpoint, which may be
            # BELOW the previous incarnation's high-water mark — and the
            # buffers between the two must be re-sent, not deduplicated
            # against a dead incarnation's progress.
            channel.suppress_until_seq = delivered_seq
        if self.causal is not None:
            # Re-send the full log on the next buffers: the reconnected
            # receiver may have lost its causal store (idempotent merge makes
            # over-sending safe).
            self.causal.reset_channel_cursors(flat_channel)
        if self.inflight is None:
            raise RecoveryError(
                f"{self.name}: replay requested but no in-flight log configured"
            )
        # A retried/duplicated request for the same channel supersedes the
        # server already running: the newest delivered_seq wins (the older
        # replay would re-deliver sequences the newer request excludes).
        stale = self._active_replays.get(flat_channel)
        if stale is not None and stale.is_alive:
            stale.kill()
        # If this task is itself recovering (lineage, Section 5.1), the same
        # mechanism works: regenerated buffers are parked unsent while
        # ``replaying`` and the rescan loop streams them out in order.
        proc = self.env.process(
            self._serve_replay(channel, from_epoch, delivered_seq),
            name=f"replay:{self.name}->ch{flat_channel}",
        )
        self._active_replays[flat_channel] = proc
        self._service_procs.append(proc)

    def _serve_replay(self, channel: OutputChannel, from_epoch: int, delivered_seq: int):
        channel.replaying = True
        delta_provider = (
            self.causal.delta_for_dispatch if self.causal is not None else None
        )
        try:
            yield from self.inflight.replay(
                channel.index,
                from_epoch,
                channel.link,
                skip_up_to_seq=delivered_seq,
                delta_provider=delta_provider,
            )
        except IntegrityError:
            # A logged buffer failed its checksum: this log cannot reproduce
            # the lost data, and replaying the corrupt copy would be silent
            # wrong output downstream.  Degrade — the global restart
            # regenerates the records from the sources instead.
            self.jm.coordinator.degrade(self.name, "inflight-replay-corrupt")
        finally:
            channel.replaying = False

    # -- determinant-driven replay (recovery) ---------------------------------------------------

    def _abandon_replay(self, exc: DeterminantLogError) -> bool:
        """Replay cannot proceed consistently from the logs (an upstream
        recovered without determinants, or a compound incident — e.g. a
        zone outage — rebuilt both ends of a channel into disagreeing log
        positions).

        Consistency mode (``fallback_to_global``): announce the divergence
        and degrade to a global rollback, which regenerates the lost data
        from the sources — an injected compound fault is absorbed, never
        surfaced as a job crash.  Returns True: the caller must stop
        replaying (the restart cancels this incarnation).

        Availability mode (Section 5.4, fallback disabled): abandon the log
        and continue divergently — at-least-once.  Returns False: the
        caller keeps processing the buffer it holds."""
        self.jm.recovery_events.append((self.env.now, "replay-diverged", self.name))
        if self.config.clonos.fallback_to_global:
            self.recovery.force_finish()
            self.jm.coordinator.degrade(self.name, "replay-diverged")
            return True
        for channel in self.all_output_channels:
            channel.suppress_until_seq = -1
            channel.forced_cuts.clear()
        self.recovery.force_finish()
        self._finish_recovery()
        return False

    def _data_replay_step(self):
        det = self.recovery.peek_control()
        if det is None:
            self.recovery.force_finish()
            self._finish_recovery()
            return
        if det.kind == "order":
            self.recovery.pop_control()
            buffer = yield from self.gate.take_from(det.channel)
            if buffer.seq != det.seq:
                if self._abandon_replay(
                    DeterminantLogError(
                        f"{self.name}: replay expected buffer seq {det.seq} on "
                        f"channel {det.channel}, got {buffer.seq}"
                    )
                ):
                    if buffer.recycle_on_consume:
                        buffer.recycle()
                    return
            try:
                yield from self._process_buffer(det.channel, buffer)
            except DeterminantLogError as exc:
                if self._abandon_replay(exc):
                    return
            yield from self._pay()
        elif det.kind == "timer":
            self.recovery.pop_control()
            timer = self.timers.force_fire(det.timer_id)
            if timer is not None:
                yield from self._fire_timer(timer)
        else:
            raise DeterminantLogError(
                f"{self.name}: unexpected control determinant {det.kind} in data task"
            )
        if not self.recovery.active:
            self._finish_recovery()

    def _source_replay_step(self):
        det = self.recovery.peek_control()
        if det is None:
            self.recovery.force_finish()
            self._finish_recovery()
            return
        if det.kind in ("barrier", "watermark") and self.offset_in_epoch < det.offset:
            yield from self._replay_emit(det.offset - self.offset_in_epoch)
        elif det.kind == "barrier":
            self.recovery.pop_control()
            if self.causal is not None:
                self.causal.append_main(det)
            yield from self._take_checkpoint(det.checkpoint_id)
        elif det.kind == "watermark":
            self.recovery.pop_control()
            if self.causal is not None:
                self.causal.append_main(det)
            generator = self.operator.watermark_generator()
            if generator is not None:
                generator.last_emitted = det.value
            for edge in self.out_edges:
                yield from edge.writer.broadcast(Watermark(det.value))
        elif det.kind == "timer":
            self.recovery.pop_control()
            timer = self.timers.force_fire(det.timer_id)
            if timer is not None:
                yield from self._fire_timer(timer)
        else:
            raise DeterminantLogError(
                f"{self.name}: unexpected control determinant {det.kind} in source"
            )
        if not self.recovery.active:
            self._finish_recovery()

    def _replay_emit(self, count: int):
        records, _next = self.operator.poll(self.ctx, min(count, self.SOURCE_BATCH))
        if not records:
            raise DeterminantLogError(
                f"{self.name}: source replay starved — determinants reference "
                "records the durable log no longer serves"
            )
        for record in records:
            self.offset_in_epoch += 1
            self.records_processed += 1
            self.charge(self.cost.record_cpu_cost)
            yield from self._emit_record(record)
        yield from self._pay()

    def enter_seep_dedup(self, channel_index: int, from_epoch: int) -> None:
        """Arm receiver-side dedup on one channel: the upstream will replay
        everything from ``from_epoch``; drop as many records as we already
        consumed of those epochs."""
        counts = self._seep_counts.setdefault(channel_index, {})
        to_drop = 0
        for epoch in [e for e in counts if e >= from_epoch]:
            to_drop += counts.pop(epoch)
        self._seep_drop[channel_index] = self._seep_drop.get(channel_index, 0) + to_drop

    def _finish_recovery(self) -> None:
        # Leftover forced cuts cover buffers the predecessor dispatched after
        # its last logged nondeterministic event; they MUST keep driving the
        # boundaries (sender-side dedup needs byte-identical regeneration up
        # to the last delivered buffer), so they drain naturally.
        # Step 6: the downstream dedup horizon flushes from here on.
        self.jm.trace.emit(
            self.env.now, "phase-mark", self.name, phase="dedup-flush"
        )
        self.timers.arm_parked()
        self._last_wm_check = self.env.now
        self._set_status(TaskStatus.RUNNING)
        self.jm.task_recovered(self)

    # -- termination --------------------------------------------------------------------------------

    def _finish(self):
        self.operator.close(self.ctx)
        yield from self._drain_output()
        for edge in self.out_edges:
            yield from edge.writer.broadcast(EndOfStream())
            yield from edge.writer.flush_all("eos")
        yield from self._pay()
        self._set_status(TaskStatus.FINISHED)
        self.jm.task_finished(self)
        # A finished task's in-flight/causal logs keep serving recoveries of
        # downstream tasks (the durable-source assumption of Section 5.1):
        # keep draining control messages.
        self._service_procs.append(
            self.env.process(
                self._finished_control_loop(), name=f"finished-ctl:{self.name}"
            )
        )

    def _finished_control_loop(self):
        try:
            while True:
                message = self.control.poll()
                if message is None:
                    yield self.wakeup.wait()
                    continue
                if message.kind == "replay_request":
                    self._on_replay_request(**message.payload)
                elif message.kind == "checkpoint_complete":
                    self._on_checkpoint_complete(message.payload)
                # inject_barrier and the rest are meaningless after EOS.
        except Interrupt:
            return

    def _finish_source(self):
        final_wm = Watermark(float("inf"))
        if self.causal is not None:
            self.causal.append_main(
                WatermarkEmitDeterminant(float("inf"), self.offset_in_epoch)
            )
        for edge in self.out_edges:
            yield from edge.writer.broadcast(final_wm)
        yield from self._finish()

    def __repr__(self) -> str:
        return f"StreamTask({self.name}, {self.status.value})"
