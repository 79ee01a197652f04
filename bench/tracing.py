"""Bench-owned tracing: spans at each layer's public seam, recorded from here.

Nothing in ``src/repro`` knows about this module.  For one traced repetition
the benchmark

* hangs a :class:`Recorder` on the documented ``Environment._profiler_factory``
  hook, which hands it every kernel step and brackets every callback, and
* swaps class attributes (and by-name imports of module functions) listed in
  :data:`SEAMS` for timing wrappers, and puts the originals back afterwards.

A span is (name, parent, start, end).  Hot seams never materialise spans:
they aggregate in place by (name, parent) into calls / total ns / self ns,
self being the duration minus the child spans.  Coarse seams (snapshot
save/load, replay, standby dispatch, failure handling) keep every span too.
Generator seams are wrapped *per resume*, so the simulated time a coroutine
spends suspended is never counted as host time busy.

Every ``*_s`` layer figure is **self** time: the layers partition the traced
repetition, and the shares add up to at most one.  What a wrapper cannot see
is attributed to the enclosing span — in particular the kernel's resume
machinery lands in the layer that owns the resumed process.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import FaultToleranceMode
from repro.metrics.collectors import recovery_summary
from repro.sim.core import Environment, Process
from repro.trace.timeline import PHASE_ORDER, timeline_of

#: Layers, most specific prefix first; a span belongs to the first match.
LAYERS: Tuple[str, ...] = (
    "sim.core", "sim.queues", "operators.source", "external.kafka",
    "nexmark.generator", "runtime.task", "operators.process", "state.backend",
    "net.writer", "net.serialization", "net.link", "net.gate", "net.buffer",
    "core.causal_log", "core.inflight_log", "integrity.fingerprint",
    "state.snapshot", "core.standby", "runtime.jobmanager", "ft.coordinators",
    "core.recovery", "trace", "recovery.watchdog", "harness",
)

#: Which layer owns a sim process, by name prefix.
PROCESS_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("task:", "runtime.task"), ("flusher:", "runtime.task"),
    ("replay:", "runtime.task"), ("finished-ctl:", "runtime.task"),
    ("link-pump:", "net.link"), ("spiller:", "core.inflight_log"),
    ("checkpoint-coordinator", "runtime.jobmanager"), ("upload:", "runtime.jobmanager"),
    ("standby-", "runtime.jobmanager"), ("wait-done", "runtime.jobmanager"),
    ("failure-detector", "runtime.jobmanager"),
    ("recover:", "ft.coordinators"), ("step:", "ft.coordinators"),
    ("restart:", "ft.coordinators"), ("global-restart", "ft.coordinators"),
    ("source-progress", "harness"), ("throughput:", "harness"),
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return "other"


class Recorder:
    """In-memory span recorder and kernel profiler-hook object."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Frame = [span name, ns spent in child spans, (kernel only) start].
        self.stack: List[list] = [["<repetition>", 0]]
        #: span name -> parent name -> [calls, total ns, self ns]
        self.aggs: Dict[str, Dict[str, List[int]]] = {}
        #: Coarse spans: (name, parent, start ns, end ns), origin = creation.
        self.spans: List[Tuple[str, str, int, int]] = []
        self.counters: Dict[str, int] = {}
        self.steps = 0
        #: Seam targets that did not resolve in this tree (see ``_bindings``).
        self.unresolved: List[str] = []
        self.origin = clock()
        #: Filled by :meth:`finish`.
        self.net_self_ns: Dict[str, float] = {}
        self.overhead_ns = 0.0
        self._env: Optional[Environment] = None
        self._process_spans: Dict[str, str] = {}

    # -- Environment._profiler_factory protocol --------------------------------

    def on_step(self, when: float, priority: int, event: Any) -> None:
        self.steps += 1
        self._env = event.env

    def begin(self) -> list:
        frame = [None, 0, 0]
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def record(self, event: Any, callback: Callable[..., Any], frame: list) -> None:
        elapsed = self.clock() - frame[2]
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        name = frame[0]
        if name is None:
            owner = getattr(callback, "__self__", None)
            name = (
                self._process_span(owner.name)
                if isinstance(owner, Process)
                else "sim.core.callback"
            )
        self.add(name, parent[0], elapsed, elapsed - frame[1])

    # -- shared by the wrappers ------------------------------------------------

    def _process_span(self, process_name: str) -> str:
        span = self._process_spans.get(process_name)
        if span is None:
            layer = "other"
            for prefix, owner in PROCESS_LAYERS:
                if process_name.startswith(prefix):
                    layer = owner
                    break
            span = self._process_spans[process_name] = layer + ".resume"
        return span

    def kernel_frame_name(self) -> str:
        """Name of the kernel callback frame a seam finds itself under: the
        layer of the process being resumed (known only once it runs)."""
        process = self._env.active_process if self._env is not None else None
        if process is None:
            return "sim.core.callback"
        return self._process_span(process.name)

    def add(self, name: str, parent: str, total: int, self_ns: int) -> None:
        by_parent = self.aggs.get(name)
        if by_parent is None:
            by_parent = self.aggs[name] = {}
        cell = by_parent.get(parent)
        if cell is None:
            by_parent[parent] = [1, total, self_ns]
        else:
            cell[0] += 1
            cell[1] += total
            cell[2] += self_ns

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        cells = self.aggs.get(name, {})
        if parent is not None:
            return cells[parent][0] if parent in cells else 0
        return sum(cell[0] for cell in cells.values())

    def finish(self, overhead: "Overhead") -> None:
        """Close the books: per span name, self time net of what the
        wrappers themselves cost.  A wrapper's cost splits into the part its
        own span measures and the part that lands in the enclosing span; both
        were calibrated on an empty function and are taken out here, or
        layers with many cheap children would be charged for being watched."""
        net: Dict[str, float] = {}
        landed: Dict[str, float] = {}
        for name, cells in self.aggs.items():
            kernel = name == "sim.core.callback" or name.endswith(".resume")
            inside = overhead.kernel_inside if kernel else overhead.span_inside
            outside = overhead.kernel_outside if kernel else overhead.span_outside
            for parent, cell in cells.items():
                net[name] = net.get(name, 0.0) + cell[2] - cell[0] * inside
                landed[parent] = landed.get(parent, 0.0) + cell[0] * outside
                self.overhead_ns += cell[0] * (inside + outside)
        self.net_self_ns = {
            name: max(0.0, value - landed.get(name, 0.0)) for name, value in net.items()
        }

    def self_ns(self, prefix: str) -> float:
        """Net self time of every span named ``prefix`` or ``prefix.<more>``."""
        return sum(
            value
            for name, value in self.net_self_ns.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def layer_self_ns(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, value in self.net_self_ns.items():
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0.0) + value
        return totals

    def aggregate_rows(self) -> List[Tuple[str, str, int, int, int]]:
        return sorted(
            (name, parent, cell[0], cell[1], cell[2])
            for name, cells in self.aggs.items()
            for parent, cell in cells.items()
        )


def _close(recorder: Recorder, name: str, frame: list, started: int, coarse: bool) -> None:
    """Pop ``frame`` and book the span that just ended."""
    ended = recorder.clock()
    elapsed = ended - started
    stack = recorder.stack
    stack.pop()
    parent = stack[-1]
    parent[1] += elapsed
    parent_name = parent[0]
    if parent_name is None:
        parent_name = parent[0] = recorder.kernel_frame_name()
    recorder.add(name, parent_name, elapsed, elapsed - frame[1])
    if coarse:
        recorder.spans.append(
            (name, parent_name, started - recorder.origin, ended - recorder.origin)
        )


def wrap_function(recorder: Recorder, name: str, fn: Callable, coarse: bool = False,
                  on_call: Optional[Callable] = None,
                  on_result: Optional[Callable] = None) -> Callable:
    """Time every call of ``fn`` as one span."""
    stack = recorder.stack
    clock = recorder.clock
    by_parent = recorder.aggs.setdefault(name, {})
    kernel_frame_name = recorder.kernel_frame_name

    if coarse or on_call is not None or on_result is not None:

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(recorder, args, kwargs)
            frame = [name, 0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                _close(recorder, name, frame, started, coarse)
            if on_result is not None:
                on_result(recorder, result)
            return result

    else:
        # The hot variant: _close() inlined, no hooks, no span list.
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                parent_name = parent[0]
                if parent_name is None:
                    parent_name = parent[0] = kernel_frame_name()
                cell = by_parent.get(parent_name)
                if cell is None:
                    by_parent[parent_name] = [1, elapsed, elapsed - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[1]

    return functools.wraps(fn)(wrapper)


def wrap_generator(recorder: Recorder, name: str, fn: Callable, coarse: bool = False,
                   on_call: Optional[Callable] = None) -> Callable:
    """Time a generator function per resume: each stretch between two yields
    is a span; the first also counts the call.  Behaves like ``yield from``
    towards both sides (values, thrown exceptions, close)."""
    stack = recorder.stack
    clock = recorder.clock
    resumes = name + ".resumed"

    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(recorder, args, kwargs)
        generator = fn(*args, **kwargs)
        span = name
        value = None
        thrown: Optional[BaseException] = None
        while True:
            frame = [span, 0]
            stack.append(frame)
            started = clock()
            try:
                if thrown is None:
                    event = generator.send(value)
                else:
                    pending, thrown = thrown, None
                    event = generator.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                _close(recorder, span, frame, started, coarse)
            span = resumes
            try:
                value = yield event
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to the inner generator
                thrown = exc

    return functools.wraps(fn)(wrapper)


class Overhead(NamedTuple):
    """Calibrated wrapper cost in ns per span: ``inside`` is what the span's
    own clock readings include, ``outside`` what the enclosing span pays."""

    span_inside: float
    span_outside: float
    kernel_inside: float
    kernel_outside: float


def calibrate(calls: int = 20000, rounds: int = 5) -> Overhead:
    """Measure the wrappers on an empty function (fastest of ``rounds``)."""

    def empty() -> None:
        return None

    def per_call(fn: Callable[[], Any]) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter_ns() - started) / calls)
        return best

    bare = per_call(empty)

    recorder = Recorder()
    span_full = per_call(wrap_function(recorder, "calibration", empty))
    cell = recorder.aggs["calibration"]["<repetition>"]
    span_inside = cell[1] / cell[0]

    recorder = Recorder()
    kernel_full = per_call(lambda: recorder.record(None, empty, recorder.begin()))
    cell = recorder.aggs["sim.core.callback"]["<repetition>"]
    kernel_inside = cell[1] / cell[0]
    return Overhead(
        span_inside,
        max(0.0, span_full - bare - span_inside),
        kernel_inside,
        max(0.0, kernel_full - bare - kernel_inside),
    )


# -- the seam table ------------------------------------------------------------


class Seam(NamedTuple):
    """``target`` is ``module:Class.attr`` (class-level swap) or
    ``module:function`` (every other ``repro.*`` module that imported the
    function by name is repointed; the defining module keeps the original,
    so its own recursion stays unwrapped)."""

    span: str
    target: str
    generator: bool = False
    coarse: bool = False
    on_call: Optional[Callable] = None
    on_result: Optional[Callable] = None


def _count_polled(recorder, result):
    recorder.count("operators.source.records", len(result[0]))


def _count_fastpath(recorder, result):
    if result is None:
        recorder.count("net.writer.fastpath")


def _count_delta(recorder, result):
    slices, nbytes = result
    recorder.count("core.causal_log.delta_slices", len(slices))
    recorder.count("core.causal_log.delta_bytes", nbytes)


def _count_blocked_acquire(recorder, result):
    if not result.triggered:
        recorder.count("net.buffer.acquire_blocked")


def _count_snapshot_bytes(recorder, args, kwargs):
    recorder.count("state.snapshot.bytes", args[1].size_bytes)


def _methods(span: str, cls: str, *names: str, **kw) -> List[Seam]:
    return [Seam(span, f"{cls}.{name}", **kw) for name in names]


SEAMS: List[Seam] = [
    # sim.core: the drive loop is the span the kernel callbacks hang under.
    Seam("sim.core.run", "repro.runtime.jobmanager:JobManager.run_until_done"),
    *_methods("sim.core.api", "repro.sim.core:Environment",
              "timeout", "any_of", "all_of", "event", "process", "schedule_callback"),
    *_methods("sim.queues.store", "repro.sim.queues:Store",
              "put", "get", "try_put", "try_get", "clear", "cancel_waiters"),
    *_methods("sim.queues.signal", "repro.sim.queues:Signal", "wait", "pulse"),
    *_methods("sim.queues.resource", "repro.sim.queues:Resource",
              "acquire", "try_acquire", "release"),
    # sources and the external log
    Seam("operators.source.poll", "repro.operators.source:KafkaSource.poll",
         on_result=_count_polled),
    Seam("external.kafka.read", "repro.external.kafka:TopicPartition.read"),
    Seam("external.kafka.read", "repro.external.kafka:GeneratedTopicPartition.read"),
    Seam("external.kafka.read", "repro.external.kafka:ShapedGeneratedTopicPartition.read"),
    *_methods("external.kafka.offsets", "repro.external.kafka:GeneratedTopicPartition",
              "next_arrival_after", "end_offset"),
    *_methods("external.kafka.broker", "repro.external.kafka:DurableLog",
              "append", "check_available"),
    Seam("nexmark.generator.generate", "repro.nexmark.generator:NexmarkGenerator.generate"),
    # state
    Seam("state.backend.op", "repro.state.backend:HashMapStateBackend.get_state"),
    *_methods("state.backend.op", "repro.state.backend:ValueState", "value", "update", "clear"),
    *_methods("state.backend.op", "repro.state.backend:ListState", "get", "add", "update", "clear"),
    *_methods("state.backend.op", "repro.state.backend:MapState",
              "get", "put", "remove", "contains", "items", "is_empty", "clear"),
    *_methods("state.backend.op", "repro.state.backend:ReducingState", "get", "add", "clear"),
    *_methods("state.backend.image", "repro.state.backend:HashMapStateBackend",
              "snapshot", "restore", "size_bytes"),
    # net
    Seam("net.writer.emit", "repro.net.writer:RecordWriter.emit_or_gen",
         on_result=_count_fastpath),
    Seam("net.writer.emit_blocking", "repro.net.writer:RecordWriter.emit", generator=True),
    *_methods("net.writer.broadcast", "repro.net.writer:RecordWriter",
              "broadcast", "broadcast_barrier", "flush_all", generator=True),
    Seam("net.writer.append", "repro.net.writer:OutputChannel.append_element", generator=True),
    Seam("net.writer.flush", "repro.net.writer:OutputChannel.flush", generator=True),
    Seam("net.writer.flush_timer", "repro.net.writer:OutputChannel.try_flush_from_timer"),
    Seam("net.buffer.new", "repro.net.buffer:NetworkBuffer.__init__"),
    Seam("net.buffer.acquire", "repro.net.buffer:BufferPool.acquire",
         on_result=_count_blocked_acquire),
    *_methods("net.buffer.release", "repro.net.buffer:BufferPool", "release_bytes", "release"),
    Seam("net.serialization.size", "repro.net.serialization:element_size"),
    Seam("net.serialization.size", "repro.net.serialization:payload_size"),
    *_methods("net.link.send", "repro.net.link:NetworkLink", "send", "try_send"),
    *_methods("net.link.reset", "repro.net.link:NetworkLink", "reset", "purge"),
    Seam("net.gate.poll", "repro.net.gate:InputGate.poll_buffer"),
    Seam("net.gate.take", "repro.net.gate:InputGate.take_from", generator=True),
    *_methods("net.gate.align", "repro.net.gate:InputGate", "block_channel", "unblock_all"),
    Seam("net.gate.deliver", "repro.net.gate:InputChannel.deliver"),
    # the two logs
    *_methods("core.causal_log.append", "repro.core.causal_log:CausalLogManager",
              "append_main", "append_queue"),
    Seam("core.causal_log.delta", "repro.core.causal_log:CausalLogManager.delta_for_dispatch",
         on_result=_count_delta),
    Seam("core.causal_log.merge", "repro.core.causal_log:CausalLogManager.merge_delta"),
    *_methods("core.causal_log.epoch", "repro.core.causal_log:CausalLogManager",
              "on_barrier", "on_checkpoint_complete", "reset_channel_cursors"),
    Seam("core.inflight_log.append", "repro.core.inflight_log:InFlightLog.append",
         generator=True),
    Seam("core.inflight_log.replay", "repro.core.inflight_log:InFlightLog.replay",
         generator=True, coarse=True),
    Seam("core.inflight_log.truncate", "repro.core.inflight_log:InFlightLog.truncate_before"),
    # integrity, snapshots, standby
    Seam("integrity.fingerprint.digest", "repro.integrity.fingerprint:fingerprint"),
    # Sealing a logged buffer is all LogEntry's constructor does.
    Seam("integrity.fingerprint.digest", "repro.core.inflight_log:LogEntry.__init__"),
    Seam("integrity.fingerprint.verify", "repro.core.causal_log:EpochLog.verify"),
    Seam("integrity.fingerprint.verify", "repro.core.inflight_log:LogEntry.verify"),
    Seam("integrity.fingerprint.verify", "repro.state.snapshot:TaskSnapshot.verify"),
    Seam("state.snapshot.save.image", "repro.state.snapshot:TaskSnapshot.__init__"),
    Seam("state.snapshot.save", "repro.state.snapshot:SnapshotStore.save",
         generator=True, coarse=True, on_call=_count_snapshot_bytes),
    Seam("state.snapshot.load", "repro.state.snapshot:SnapshotStore.load",
         generator=True, coarse=True),
    Seam("core.standby.dispatch", "repro.core.standby:StandbyState.dispatch",
         generator=True, coarse=True),
    Seam("core.standby.activate", "repro.core.standby:StandbyState.wait_ready",
         generator=True, coarse=True),
    # control plane and recovery
    *_methods("runtime.jobmanager.api", "repro.runtime.jobmanager:JobManager",
              "deploy", "snapshot_taken", "task_finished", "task_recovered",
              "task_status_changed"),
    Seam("runtime.jobmanager.kill", "repro.runtime.jobmanager:JobManager.kill_task",
         coarse=True),
    Seam("ft.coordinators.failure", "repro.ft.coordinators:GlobalRollbackCoordinator.on_failure_detected",
         coarse=True),
    Seam("ft.coordinators.failure", "repro.ft.coordinators:ClonosCoordinator.on_failure_detected",
         coarse=True),
    Seam("ft.coordinators.degrade", "repro.ft.coordinators:BaseCoordinator.degrade",
         coarse=True),
    Seam("core.recovery.load", "repro.core.recovery:RecoveryManager.load", coarse=True),
    *_methods("core.recovery.replay", "repro.core.recovery:RecoveryManager",
              "peek_control", "pop_control", "pop_value", "forced_cuts_for_channel",
              "first_replayed_seq"),
    Seam("core.recovery.merge_bundles", "repro.core.causal_log:merge_bundles", coarse=True),
    # always-on guards
    Seam("trace.emit", "repro.trace.events:TraceLog.emit"),
    *_methods("recovery.watchdog.tick", "repro.recovery.watchdog:RecoveryWatchdog",
              "on_tick", "incident_opened"),
]


def _operator_bindings() -> List[Tuple[Any, str, Seam]]:
    """Every loaded operator class that defines its own record/timer hook;
    sources are covered by ``operators.source.poll`` instead."""
    from repro.operators.base import Operator
    from repro.operators.source import SourceOperator

    bindings = []
    pending = list(Operator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if issubclass(cls, SourceOperator):
            continue
        for hook, span in (
            ("process", "operators.process"),
            ("on_timer", "operators.process.timer"),
            ("on_watermark", "operators.process.timer"),
        ):
            if hook in cls.__dict__:
                bindings.append((cls, hook, Seam(span, f"{cls.__qualname__}.{hook}")))
    return bindings


def _bindings(unresolved: List[str]) -> List[Tuple[Any, str, Seam]]:
    """(owner, attribute, seam) for every seam that exists in this tree.  A
    seam a refactor has renamed is listed in ``unresolved`` and its metrics
    read zero; the run itself goes on."""
    bindings = _operator_bindings()
    for seam in SEAMS:
        module_name, _, qualname = seam.target.partition(":")
        module = sys.modules.get(module_name)
        try:
            if module is None:
                raise AttributeError(module_name)
            if "." in qualname:
                cls = getattr(module, qualname.rsplit(".", 1)[0])
                attr = qualname.rsplit(".", 1)[1]
                cls.__dict__[attr]
                bindings.append((cls, attr, seam))
            else:
                original = getattr(module, qualname)
                bindings.extend(
                    (importer, qualname, seam)
                    for name, importer in list(sys.modules.items())
                    if name.startswith("repro.")
                    and importer is not module
                    and getattr(importer, qualname, None) is original
                )
        except (AttributeError, KeyError):
            unresolved.append(seam.target)
    return bindings


@contextmanager
def tracing(recorder: Recorder) -> Iterator[Recorder]:
    """Install the recorder on the kernel hook and on every seam; restore
    every original on exit, whatever happened inside."""
    restore: List[Tuple[Any, str, Any]] = []
    previous_factory = Environment._profiler_factory
    try:
        for owner, attr, seam in _bindings(recorder.unresolved):
            original = vars(owner)[attr]
            if seam.generator:
                wrapped = wrap_generator(
                    recorder, seam.span, original, seam.coarse, seam.on_call
                )
            else:
                wrapped = wrap_function(
                    recorder, seam.span, original, seam.coarse, seam.on_call,
                    seam.on_result,
                )
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        Environment._profiler_factory = staticmethod(lambda: recorder)
        yield recorder
    finally:
        Environment._profiler_factory = previous_factory
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- from spans and counters to the named per-layer metrics --------------------


class Harvest:
    """Counters read off each finished job of the traced repetition (the
    program's own public tallies, not spans)."""

    def __init__(self) -> None:
        self.peak_causal_bytes = 0
        self.spilled_buffers = 0
        self.replayed_buffers = 0
        self.determinants_replayed = 0
        self.checkpoints_completed = 0
        self.trace_events = 0
        self.recoveries = 0
        self.escalations = 0
        self.phase_sim_s: Dict[str, float] = {phase: 0.0 for phase in PHASE_ORDER}

    def on_result(self, arm: Any, result: Any) -> None:
        jm = result.jm
        for vertex in jm.vertices.values():
            task = vertex.task
            if task is None:
                continue
            if task.causal is not None:
                task.causal.note_peak()
                self.peak_causal_bytes = max(
                    self.peak_causal_bytes, task.causal.peak_bytes_held
                )
            if task.inflight is not None:
                self.spilled_buffers += task.inflight.buffers_spilled
                self.replayed_buffers += task.inflight.buffers_replayed
            self.determinants_replayed += (
                task.recovery.replayed_control + task.recovery.replayed_values
            )
        self.checkpoints_completed += len(jm.checkpoints_completed)
        self.trace_events += len(jm.trace)
        summary = recovery_summary(jm.recovery_events)
        self.recoveries += summary["detected"]
        self.escalations += summary["recovery_retries"] + summary["degradations"]
        if arm.kills and arm.config.mode is FaultToleranceMode.CLONOS:
            # The §7.4 decomposition of the last kill's incident: the phases
            # are a partition of [failure, latency back in its envelope].
            incident = timeline_of(result).incidents[-1]
            for phase, seconds in incident.phase_totals().items():
                self.phase_sim_s[phase] += seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, harvest: Harvest, records_in: int
                  ) -> Dict[str, Tuple[float, str]]:
    """The named per-layer metrics of BENCHMARK.json, ``name -> (value, unit)``."""
    calls = recorder.calls
    count = recorder.counters.get

    def seconds(*prefixes: str) -> Tuple[float, str]:
        return sum(recorder.self_ns(p) for p in prefixes) / 1e9, "s"

    def number(value: float) -> Tuple[float, str]:
        return value, "count"

    def ratio(numerator: float, denominator: float) -> Tuple[float, str]:
        return _ratio(numerator, denominator), "ratio"

    queue_ops = sum(
        calls(n) for n in ("sim.queues.store", "sim.queues.signal", "sim.queues.resource")
    )
    polls = calls("operators.source.poll")
    emitted = calls("net.writer.emit")
    writer_records = emitted + calls("net.writer.emit_blocking")
    buffers = calls("net.buffer.new")
    deltas = calls("core.causal_log.delta")
    saves = calls("state.snapshot.save")
    metrics = {
        "sim.core.steps": number(recorder.steps),
        "sim.core.steps_per_record": ratio(recorder.steps, records_in),
        "sim.core.dispatch_self_s": seconds("sim.core"),
        "sim.queues.ops": number(queue_ops),
        "sim.queues.busy_s": seconds("sim.queues"),
        "operators.source.polls": number(polls),
        "operators.source.records_per_poll": ratio(count("operators.source.records", 0), polls),
        "operators.source.busy_s": seconds("operators.source"),
        "external.kafka.reads": number(calls("external.kafka.read")),
        "external.kafka.busy_s": seconds("external.kafka"),
        "nexmark.generator.events": number(calls("nexmark.generator.generate")),
        "nexmark.generator.busy_s": seconds("nexmark.generator"),
        "runtime.task.records_in": number(
            count("operators.source.records", 0) + calls("operators.process")
        ),
        "runtime.task.self_s": seconds("runtime.task"),
        "operators.process_calls": number(calls("operators.process")),
        "operators.process_self_s": seconds("operators.process"),
        "state.backend.ops": number(calls("state.backend.op")),
        "state.backend.busy_s": seconds("state.backend"),
        "net.writer.records": number(writer_records),
        "net.writer.fastpath_ratio": ratio(count("net.writer.fastpath", 0), emitted),
        "net.writer.buffers": number(buffers),
        "net.writer.records_per_buffer": ratio(writer_records, buffers),
        "net.writer.self_s": seconds("net.writer"),
        "net.serialization.calls": number(calls("net.serialization.size")),
        "net.serialization.busy_s": seconds("net.serialization"),
        "net.link.buffers": number(calls("net.link.send")),
        "net.link.busy_s": seconds("net.link"),
        "net.gate.polls": number(calls("net.gate.poll")),
        "net.gate.busy_s": seconds("net.gate"),
        "net.buffer.acquire_blocked_ratio": ratio(
            count("net.buffer.acquire_blocked", 0), calls("net.buffer.acquire")
        ),
        "core.causal_log.appends": number(calls("core.causal_log.append")),
        "core.causal_log.append_busy_s": seconds("core.causal_log.append"),
        "core.causal_log.delta_calls": number(deltas),
        "core.causal_log.delta_slices_per_call": ratio(
            count("core.causal_log.delta_slices", 0), deltas
        ),
        "core.causal_log.delta_bytes_per_buffer": ratio(
            count("core.causal_log.delta_bytes", 0), deltas
        ),
        "core.causal_log.delta_busy_s": seconds("core.causal_log.delta"),
        "core.causal_log.merge_calls": number(calls("core.causal_log.merge")),
        "core.causal_log.merge_busy_s": seconds("core.causal_log.merge"),
        "core.causal_log.peak_bytes_held": (harvest.peak_causal_bytes, "bytes"),
        "core.inflight_log.appends": number(calls("core.inflight_log.append")),
        "core.inflight_log.append_busy_s": seconds("core.inflight_log.append"),
        "core.inflight_log.replayed_buffers": number(harvest.replayed_buffers),
        "core.inflight_log.replay_busy_s": seconds("core.inflight_log.replay"),
        "core.inflight_log.spilled_buffers": number(harvest.spilled_buffers),
        "integrity.fingerprint.calls": number(
            calls("integrity.fingerprint.digest") + calls("integrity.fingerprint.verify")
        ),
        "integrity.fingerprint.busy_s": seconds("integrity.fingerprint"),
        "state.snapshot.saves": number(saves),
        "state.snapshot.save_busy_s": seconds("state.snapshot.save"),
        "state.snapshot.loads": number(calls("state.snapshot.load")),
        "state.snapshot.load_busy_s": seconds("state.snapshot.load"),
        "state.snapshot.bytes_per_checkpoint": (
            _ratio(count("state.snapshot.bytes", 0), harvest.checkpoints_completed),
            "bytes",
        ),
        "core.standby.dispatches": number(calls("core.standby.dispatch")),
        "core.standby.busy_s": seconds("core.standby"),
        "runtime.jobmanager.checkpoints_completed": number(harvest.checkpoints_completed),
        "runtime.jobmanager.self_s": seconds("runtime.jobmanager"),
        "ft.coordinators.recoveries": number(harvest.recoveries),
        "ft.coordinators.escalations": number(harvest.escalations),
        "ft.coordinators.self_s": seconds("ft.coordinators"),
        "core.recovery.determinants_replayed": number(harvest.determinants_replayed),
        "core.recovery.busy_s": seconds("core.recovery"),
        "trace.events": number(harvest.trace_events),
        "trace.busy_s": seconds("trace"),
        "recovery.watchdog.busy_s": seconds("recovery.watchdog"),
    }
    for phase in PHASE_ORDER:
        metrics[f"ft.recovery.phase_sim_s.{phase}"] = (harvest.phase_sim_s[phase], "s")
    return metrics


def is_host_time(metric: str, unit: str) -> bool:
    """Host-clock figures carry noise; everything else must repeat exactly."""
    return unit == "s" and not metric.startswith("ft.recovery.phase_sim_s.")
