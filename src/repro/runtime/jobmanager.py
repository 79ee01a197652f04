"""Job manager: deployment, checkpoint coordination, failure detection.

Builds the physical execution graph (tasks, links, gates, writers) from a
logical :class:`~repro.graph.logical.JobGraph`, drives periodic aligned
checkpoints (Section 3.2), detects failures (heartbeat timeout for vanilla
Flink, connection-reset for Clonos), and delegates recovery to the
:class:`~repro.ft.coordinators.RecoveryCoordinator`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.invariants import SANITIZER
from repro.config import JobConfig, RecoveryScope
from repro.core.causal_log import CausalLogManager
from repro.core.inflight_log import InFlightLog
from repro.core.services import CausalServices, NaiveServices
from repro.core.standby import StandbyState
from repro.errors import (
    ExternalSystemError,
    FailureInjectionError,
    IntegrityError,
    JobError,
    RecoveryStallError,
)
from repro.external.dfs import DistributedFileSystem
from repro.integrity.monitor import IntegrityMonitor
from repro.external.http import ExternalService
from repro.graph.logical import FORWARD, JobGraph, LogicalEdge, LogicalNode
from repro.net.buffer import BufferPool
from repro.net.gate import InputChannel, InputGate
from repro.net.link import NetworkLink
from repro.net.partitioner import (
    BroadcastPartitioner,
    ForwardPartitioner,
    HashPartitioner,
    RebalancePartitioner,
)
from repro.net.writer import OutputChannel, RecordWriter
from repro.recovery.watchdog import RecoveryWatchdog, stall_diagnostics
from repro.runtime.cluster import Cluster
from repro.runtime.task import InputInfo, OutputEdgeInfo, StreamTask, TaskStatus
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.state.snapshot import SnapshotStore, TaskSnapshot
from repro.trace.events import TraceLog


def task_name_of(vertex_name: str, subtask: int) -> str:
    return f"{vertex_name}[{subtask}]"


class VertexRuntime:
    """Stable physical identity of one subtask across task incarnations."""

    def __init__(self, node: LogicalNode, subtask_index: int):
        self.node = node
        self.subtask_index = subtask_index
        self.name = task_name_of(node.name, subtask_index)
        #: Flattened input descriptors: (flat_idx, input_index, upstream task
        #: name, link, upstream_flat_out_idx) in deterministic order.
        self.in_links: List[Tuple[int, int, str, NetworkLink, int]] = []
        #: Per output edge: list of (flat_channel_idx, downstream task name,
        #: link, edge).
        self.out_links: List[Tuple[LogicalEdge, List[Tuple[int, str, NetworkLink]]]] = []
        self.task: Optional[StreamTask] = None
        self.standby: Optional[StandbyState] = None
        self.node_id: Optional[int] = None

    @property
    def is_source(self) -> bool:
        return self.node.is_source

    @property
    def is_sink(self) -> bool:
        return self.node.is_sink

    def downstream_names(self) -> List[str]:
        return [down for (_e, chans) in self.out_links for (_f, down, _l) in chans]

    def __repr__(self) -> str:
        return f"VertexRuntime({self.name})"


class JobManager:
    """Owns one job's physical graph and its fault-tolerance machinery."""

    def __init__(
        self,
        env: Environment,
        graph: JobGraph,
        config: JobConfig,
        external: Optional[ExternalService] = None,
        cluster: Optional[Cluster] = None,
    ):
        config.validate()
        self.env = env
        self.graph = graph
        self.config = config
        self.cost = config.cost
        self.external = external
        self.streams = RandomStreams(config.seed)
        self.dfs = DistributedFileSystem(env, config.cost)
        #: Structured sim-time-stamped event bus (repro.trace); always on,
        #: passive by construction — recording only appends to a list.
        self.trace = TraceLog()
        self.integrity = IntegrityMonitor(validate=config.integrity.validate)
        self.integrity.bind_trace(self.trace, lambda: self.env.now)
        self.snapshot_store = SnapshotStore(
            self.dfs,
            incremental=config.incremental_checkpoints,
            retain=config.integrity.retain_checkpoints,
            monitor=self.integrity,
        )
        self.cluster = cluster or Cluster(
            num_nodes=max(4, graph.total_tasks), slots_per_node=2
        )
        self.vertices: Dict[str, VertexRuntime] = {}
        self._adjacency: Dict[str, List[str]] = {}

        # Checkpoint coordination state.
        self.checkpoint_counter = 0
        self.completed_checkpoint = 0
        self._pending_checkpoint: Optional[int] = None
        self._pending_since: Optional[float] = None
        self._pending_acks: Set[str] = set()
        self._aborted_checkpoints: Set[int] = set()
        self._snapshots_of_pending: Dict[str, TaskSnapshot] = {}
        self.checkpoints_completed: List[Tuple[int, float]] = []
        self.checkpoints_aborted = 0

        # Failure / recovery state.
        self.dead_tasks: Set[str] = set()
        self.recovering_tasks: Set[str] = set()
        self.coordinator = None  # set in deploy()
        self.failures_injected: List[Tuple[float, str]] = []
        self.recovery_events: List[Tuple[float, str, str]] = []
        #: Installed by the chaos engine; ControlQueues consult it per
        #: delivery.  None = healthy control plane.
        self.control_chaos = None
        #: Control-plane drop ledger: (owner, kind, reason) -> count,
        #: aggregated here from every ControlQueue for chaos loss accounting.
        self.control_plane_drops: Counter = Counter()
        #: Status-transition subscriptions: task name -> [(predicate, action)].
        self._status_waiters: Dict[str, List[Tuple[Callable, Callable]]] = {}

        self._finished_tasks: Set[str] = set()
        #: Lazily cached sink-vertex names: vertex topology never changes
        #: after construction (recovery swaps tasks *inside* vertices), so
        #: the hot ``_job_finished`` poll need not rescan every vertex.
        self._sink_names: Optional[frozenset] = None
        #: Only while :meth:`drive` runs the kernel does the end of the job
        #: stop it (a hand-stepped ``env.run(until=...)`` keeps its horizon).
        self._driving = False
        self._checkpoint_proc = None
        #: NDLint report of the last ``submit(lint=...)`` call, if any.
        self.lint_report = None
        #: (task_name, exception) for tasks that crashed on a bug (as opposed
        #: to injected failures); surfaced by run_until_done.
        self.crashed: List[Tuple[str, BaseException]] = []
        #: Recovery-liveness monitor: armed on the first detected failure,
        #: ticked by the checkpoint coordinator (zero events of its own).
        self.watchdog = RecoveryWatchdog(self)
        #: Poison-pill bookkeeping (chaos ``poison_pill``): job-scoped so
        #: pill identity and crash counts survive task incarnations.  (Local
        #: import: the chaos package's __init__ imports this module back.)
        from repro.chaos.poison import PoisonRegistry

        self.poison = PoisonRegistry(config.poison_quarantine_after)
        #: Straggler nodes (chaos ``compute_slowdown``): node id -> CPU-cost
        #: multiplier, consulted at task (re)build time so replacement
        #: incarnations landing on a slow node inherit the slowdown.
        self.node_slowdowns: Dict[int, float] = {}

    # -- deployment --------------------------------------------------------------------

    def submit(self, lint: str = "off"):
        """Lint the job graph for un-intercepted nondeterminism, then deploy.

        ``lint`` selects the per-graph NDLint policy:

        * ``"off"``    — deploy without analysis (same as :meth:`deploy`);
        * ``"warn"``   — run NDLint, print findings to stderr, deploy anyway;
        * ``"strict"`` — refuse graphs with error-severity findings by
          raising :class:`~repro.errors.DeterminismViolation`.

        The framework's own causal coverage is a property of the source
        tree, not of a job: ``repro verify-static`` and CI check it.

        Returns the :class:`~repro.analysis.report.LintReport` (None when
        ``lint="off"``), also kept on :attr:`lint_report`.
        """
        if lint not in ("off", "warn", "strict"):
            raise JobError(f"unknown lint policy {lint!r} (off|warn|strict)")
        report = None
        if lint != "off":
            import sys

            from repro.analysis import lint_graph
            from repro.errors import DeterminismViolation

            report = lint_graph(self.graph)
            self.lint_report = report
            if lint == "strict" and report.errors:
                raise DeterminismViolation.from_findings(report.errors)
            if report.findings:
                print(report.render(), file=sys.stderr)
        self.deploy()
        return report

    def deploy(self) -> None:
        """Build the physical graph, start every task, start coordination."""
        from repro.ft.coordinators import RecoveryCoordinator

        self._build_physical()
        self.coordinator = RecoveryCoordinator(self)
        for vertex in self.vertices.values():
            self._place(vertex)
            task = self._build_task(vertex)
            vertex.task = task
            task.start()
        if self._uses_standbys():
            for vertex in self.vertices.values():
                avoid = {vertex.node_id} if self.config.clonos.standby_anti_affinity else set()
                standby_node = self.cluster.allocate(f"standby:{vertex.name}", avoid)
                vertex.standby = StandbyState(
                    self.env,
                    self.cost,
                    vertex.name,
                    standby_node,
                    monitor=self.integrity,
                    trace=self.trace,
                )
        self._checkpoint_proc = self.env.process(
            self._checkpoint_coordinator(), name="checkpoint-coordinator"
        )

    def _uses_standbys(self) -> bool:
        return (
            self.config.policy.scope is RecoveryScope.TASK
            and self.config.clonos.standby_tasks
        )

    def _place(self, vertex: VertexRuntime) -> None:
        vertex.node_id = self.cluster.allocate(vertex.name)

    def _build_physical(self) -> None:
        for node in self.graph.topological_order():
            for subtask in range(node.parallelism):
                vertex = VertexRuntime(node, subtask)
                self.vertices[vertex.name] = vertex
        # Wire links edge by edge.
        for node in self.graph.topological_order():
            for edge in node.outputs:
                self._wire_edge(edge)
        self._adjacency = {
            name: vertex.downstream_names() for name, vertex in self.vertices.items()
        }

    def _wire_edge(self, edge: LogicalEdge) -> None:
        up, down = edge.upstream, edge.downstream
        for i in range(up.parallelism):
            sender = self.vertices[task_name_of(up.name, i)]
            targets = (
                [i]
                if edge.partitioning == FORWARD
                else list(range(down.parallelism))
            )
            channels: List[Tuple[int, str, NetworkLink]] = []
            flat_base = sum(len(chans) for (_e, chans) in sender.out_links)
            for pos, j in enumerate(targets):
                receiver = self.vertices[task_name_of(down.name, j)]
                link = NetworkLink(
                    self.env,
                    self.cost,
                    name=f"{sender.name}->{receiver.name}",
                )
                flat_idx = flat_base + pos
                channels.append((flat_idx, receiver.name, link))
                in_flat = len(receiver.in_links)
                receiver.in_links.append(
                    (in_flat, edge.input_index, sender.name, link, flat_idx)
                )
            sender.out_links.append((edge, channels))

    def _make_partitioner(self, edge: LogicalEdge, subtask_index: int):
        if edge.partitioning == "forward":
            return ForwardPartitioner(subtask_index)
        if edge.partitioning == "hash":
            return HashPartitioner()
        if edge.partitioning == "rebalance":
            return RebalancePartitioner()
        if edge.partitioning == "broadcast":
            return BroadcastPartitioner()
        raise JobError(f"unknown partitioning {edge.partitioning}")

    def _build_task(self, vertex: VertexRuntime) -> StreamTask:
        node = vertex.node
        operator = node.factory()
        task = StreamTask(
            self.env,
            self.config,
            vertex.name,
            node.name,
            vertex.subtask_index,
            node.parallelism,
            operator,
            self,
            is_source=node.is_source,
            is_sink=node.is_sink,
        )
        task.node_id = vertex.node_id
        # Per-incarnation inheritance of scenario-pack faults: a replacement
        # (or activated standby) built on a straggler node is slow too, and
        # a task with live/quarantined pills keeps consulting the registry.
        if self.node_slowdowns and vertex.node_id is not None:
            task.compute_slowdown = self.node_slowdowns.get(vertex.node_id, 1.0)
        task._poison_active = self.poison.is_armed(vertex.name)

        num_out_channels = sum(len(chans) for (_e, chans) in vertex.out_links)
        policy = self.config.policy
        causal: Optional[CausalLogManager] = None
        inflight: Optional[InFlightLog] = None
        dsd = self.config.clonos.determinant_sharing_depth
        if policy.inflight_log and num_out_channels:
            inflight = InFlightLog(
                self.env,
                self.cost,
                self.config.clonos.inflight_pool_bytes,
                self.config.clonos.spill_policy,
                self.config.clonos.spill_threshold_fraction,
                name=vertex.name,
                monitor=self.integrity,
            )
        if policy.causal_log and (dsd is None or dsd > 0):
            causal = CausalLogManager(vertex.name, num_out_channels, dsd)
        if causal is not None:
            services = CausalServices(
                self.env,
                causal,
                task.recovery,
                self.external,
                vertex.name,
                root_seed=self.config.seed,
                timestamp_granularity=self.config.clonos.timestamp_granularity,
                external_retry=self.config.clonos.external_retry,
            )
            services.availability_mode = not self.config.clonos.fallback_to_global
        else:
            services = NaiveServices(
                self.env, self.external, vertex.name, root_seed=self.config.seed
            )
        task.attach_ft(services, causal, inflight)
        task.make_context()

        # Inputs.
        in_channels: List[InputChannel] = []
        infos: List[InputInfo] = []
        for flat_idx, input_index, upstream_name, link, _up_flat in vertex.in_links:
            channel = InputChannel(
                self.env,
                flat_idx,
                capacity=self.cost.input_queue_buffers,
                upstream_name=upstream_name,
            )
            link.attach_receiver(channel)
            in_channels.append(channel)
            infos.append(InputInfo(flat_idx, input_index, upstream_name, link))
        task.attach_inputs(InputGate(self.env, in_channels, task.wakeup), infos)

        # Outputs: one shared output pool per task, one writer per edge.
        out_edges: List[OutputEdgeInfo] = []
        if num_out_channels:
            pool = BufferPool(
                self.env,
                self.cost.output_pool_buffers
                * self.cost.buffer_size_bytes
                * num_out_channels,
                self.cost.buffer_size_bytes,
                name=f"out:{vertex.name}",
            )
            task.out_pool = pool
            causal_ctx = task.causal_output_context()
            for edge, channels in vertex.out_links:
                out_channels = [
                    OutputChannel(
                        self.env,
                        self.cost,
                        flat_idx,
                        link,
                        pool,
                        task.charge,
                        causal_ctx=causal_ctx,
                        inflight_log=inflight,
                    )
                    for (flat_idx, _down, link) in channels
                ]
                writer = RecordWriter(
                    self.env,
                    self.cost,
                    out_channels,
                    self._make_partitioner(edge, vertex.subtask_index),
                    task.charge,
                )
                out_edges.append(
                    OutputEdgeInfo(
                        writer,
                        edge.key_selector,
                        [down for (_f, down, _l) in channels],
                    )
                )
        task.attach_outputs(out_edges)
        return task

    # -- checkpoint coordination ----------------------------------------------------------

    def _checkpoint_coordinator(self):
        while True:
            yield self.env.timeout(self.config.checkpoint_interval)
            # Recovery-liveness check rides this loop's existing cadence (it
            # keeps firing through a wedge: stuck checkpoints abort on their
            # timeout below and the loop continues), so the watchdog needs
            # no events of its own and healthy schedules stay byte-identical.
            self.watchdog.on_tick()
            if self._pending_checkpoint is not None:
                # No concurrent checkpoints (Section 6.4) — but a checkpoint
                # stuck past its timeout (lost barrier RPC, DFS outage) is
                # aborted so the job does not stop checkpointing forever.
                pending_for = self.env.now - (self._pending_since or self.env.now)
                if pending_for >= self.config.effective_checkpoint_timeout:
                    cid = self._pending_checkpoint
                    self.abort_pending_checkpoint()
                    self.recovery_events.append(
                        (self.env.now, "checkpoint-aborted:timeout", str(cid))
                    )
                    # Release tasks still aligned on the aborted cut.  If the
                    # barrier-injection RPC to one source was lost, no task
                    # ever sees that source's barrier: the alignment holds
                    # its channels (and, via the bounded buffer pool, the
                    # whole pipeline) blocked forever.  Recovery can't fix
                    # this — nothing is dead — so the abort must unwedge it.
                    for vertex in self.vertices.values():
                        if vertex.is_source or vertex.task is None:
                            continue
                        vertex.task.control.send(
                            "cancel_alignment",
                            cid,
                            reliable=self.config.reliable_control_plane,
                            retry=self.config.rpc_retry,
                        )
                continue
            if self.dead_tasks or self.recovering_tasks:
                continue  # pause during recovery
            if self._job_finished():
                return
            self.checkpoint_counter += 1
            self._pending_checkpoint = self.checkpoint_counter
            self._pending_since = self.env.now
            self._pending_acks = set()
            self._snapshots_of_pending = {}
            self.trace.emit(
                self.env.now,
                "checkpoint-triggered",
                checkpoint_id=self._pending_checkpoint,
            )
            for vertex in self.vertices.values():
                if vertex.is_source and vertex.task is not None:
                    vertex.task.control.send(
                        "inject_barrier", self._pending_checkpoint
                    )

    def snapshot_taken(self, task: StreamTask, snapshot: TaskSnapshot) -> None:
        """A task took its local snapshot; persist it asynchronously, then
        count the ack."""
        self.trace.emit(
            self.env.now,
            "snapshot-taken",
            task.name,
            checkpoint_id=snapshot.checkpoint_id,
        )
        self.env.process(
            self._upload_snapshot(task, snapshot),
            name=f"upload:{task.name}:{snapshot.checkpoint_id}",
        )

    def _upload_snapshot(self, task: StreamTask, snapshot: TaskSnapshot):
        delta = task.backend.incremental_delta_bytes()
        policy = self.config.clonos.dfs_retry
        rng = self.streams.stream(f"upload-retry:{task.name}")
        attempt = 0
        while True:
            try:
                yield from self.snapshot_store.save(snapshot, delta_bytes=delta)
                break
            except ExternalSystemError:
                if attempt >= policy.max_attempts - 1:
                    # Give up: the pending checkpoint aborts via its timeout;
                    # the job keeps running on the previous completed one.
                    self.recovery_events.append(
                        (self.env.now, "checkpoint-upload-failed", task.name)
                    )
                    return
                yield self.env.timeout(policy.delay(attempt, rng))
                attempt += 1
        self._ack_checkpoint(task.name, snapshot)

    def _ack_checkpoint(self, task_name: str, snapshot: TaskSnapshot) -> None:
        cid = snapshot.checkpoint_id
        if cid in self._aborted_checkpoints or cid != self._pending_checkpoint:
            return
        self._pending_acks.add(task_name)
        self._snapshots_of_pending[task_name] = snapshot
        if self._pending_acks >= set(self.vertices.keys()) - self._finished_tasks:
            self._complete_checkpoint(cid)

    def _complete_checkpoint(self, checkpoint_id: int) -> None:
        self._pending_checkpoint = None
        self._pending_since = None
        self.completed_checkpoint = checkpoint_id
        self.checkpoints_completed.append((checkpoint_id, self.env.now))
        self.trace.emit(
            self.env.now, "checkpoint-complete", checkpoint_id=checkpoint_id
        )
        snapshots = dict(self._snapshots_of_pending)
        self._snapshots_of_pending = {}
        # Retain-last-N subsumption GC: keep the newest N completed epochs
        # (the multi-epoch fallback ladder's raw material), delete everything
        # older from memory *and* the DFS so the blob footprint stays bounded.
        self.snapshot_store.retire([cid for cid, _t in self.checkpoints_completed])
        for vertex in self.vertices.values():
            if vertex.task is not None and vertex.task.status in (
                TaskStatus.RUNNING,
                TaskStatus.RECOVERING,
            ):
                vertex.task.control.send("checkpoint_complete", checkpoint_id)
            # State-snapshot dispatch to standbys (Section 6.4).  A standby
            # lost to a node crash self-heals here: re-provision before
            # dispatching so HA is restored with the freshest state.
            if vertex.standby is not None and vertex.standby.failed:
                self.reprovision_standby(vertex)
            if vertex.standby is not None and vertex.name in snapshots:
                self.env.process(
                    vertex.standby.dispatch(snapshots[vertex.name]),
                    name=f"standby-dispatch:{vertex.name}",
                )

    def abort_pending_checkpoint(self) -> None:
        if self._pending_checkpoint is not None:
            self._aborted_checkpoints.add(self._pending_checkpoint)
            self.trace.emit(
                self.env.now,
                "checkpoint-aborted",
                checkpoint_id=self._pending_checkpoint,
            )
            self._pending_checkpoint = None
            self._pending_since = None
            self._snapshots_of_pending = {}
            self.checkpoints_aborted += 1

    # -- failure handling -------------------------------------------------------------------

    def detection_delay(self) -> float:
        """How long until the failure is noticed (Section 7.1 heartbeats for
        job-scope rollback, i.e. vanilla Flink; connection reset otherwise)."""
        if self.config.policy.scope is RecoveryScope.JOB:
            return self.cost.heartbeat_timeout
        return self.cost.connection_failure_detection

    def _killable_statuses(self, force: bool) -> Tuple[TaskStatus, ...]:
        return (
            (TaskStatus.RUNNING, TaskStatus.RECOVERING)
            if force
            else (TaskStatus.RUNNING,)
        )

    def kill_task(self, task_name: str, force: bool = False) -> None:
        """Failure injection entry point.

        If the victim is not currently running (e.g. the previous failure's
        global restart is still redeploying it), the injection is deferred
        until its status transitions to a killable one — the experiment's
        "three sequential failures" really means three failures of live
        tasks.  The deferral is subscription-based (no polling) and bounded
        by ``cost.kill_deferral_deadline``; a victim that never becomes
        killable raises :class:`~repro.errors.FailureInjectionError` naming
        its actual status.

        ``force=True`` (chaos) also kills tasks mid-recovery — the
        failure-during-ongoing-recovery scenario.
        """
        vertex = self.vertices[task_name]
        task = vertex.task
        if task is None or task.status not in self._killable_statuses(force):
            self._defer_kill(vertex, force)
            return
        self.failures_injected.append((self.env.now, task_name))
        self.trace.emit(self.env.now, "failure-injected", task_name)
        task.fail()
        self.dead_tasks.add(task_name)
        self.cluster.release(task_name)
        # Connection reset: surviving upstreams observe the broken channel
        # instantly and park further output in their in-flight logs (§6.1's
        # unsent parking) until the replacement requests replay.  Without
        # this, live buffers would race ahead of the replayed ones.
        for _in_flat, _inp, up_name, _link, up_flat in vertex.in_links:
            up_task = self.vertices[up_name].task
            if (
                up_task is not None
                and up_task.status is not TaskStatus.FAILED
                and up_task.inflight is not None
            ):
                up_task.output_channel_by_flat_index(up_flat).replaying = True
        self.env.schedule_callback(
            self.detection_delay(), lambda name=task_name: self._on_detected(name)
        )

    def _defer_kill(self, vertex: VertexRuntime, force: bool) -> None:
        name = vertex.name
        current = vertex.task.status if vertex.task is not None else None
        if name in self._finished_tasks or current is TaskStatus.FINISHED:
            raise FailureInjectionError(name, current)
        state = {"done": False}
        killable = self._killable_statuses(force)

        def pred(task: StreamTask) -> bool:
            return not state["done"] and task.status in killable

        def action(task: StreamTask) -> None:
            state["done"] = True
            # Defer one tick: killing synchronously from inside the status
            # notification would tear the task down mid-``start()``.
            self.env.schedule_callback(0.0, lambda: self.kill_task(name, force))

        self._add_status_waiter(name, pred, action)
        deadline = self.cost.kill_deferral_deadline

        def give_up() -> None:
            if state["done"]:
                return
            state["done"] = True
            task = vertex.task
            raise FailureInjectionError(
                name,
                task.status if task is not None else None,
                waited=deadline,
            )

        self.env.schedule_callback(deadline, give_up)

    def _add_status_waiter(
        self,
        task_name: str,
        pred: Callable[[StreamTask], bool],
        action: Callable[[StreamTask], None],
    ) -> None:
        self._status_waiters.setdefault(task_name, []).append((pred, action))

    def task_status_changed(self, task: StreamTask) -> None:
        """Called by every :class:`StreamTask` status transition; fires (and
        removes) any subscription whose predicate now holds."""
        waiters = self._status_waiters.get(task.name)
        if not waiters:
            return
        remaining = []
        for pred, action in waiters:
            if pred(task):
                action(task)
            else:
                remaining.append((pred, action))
        if remaining:
            self._status_waiters[task.name] = remaining
        else:
            self._status_waiters.pop(task.name, None)

    def kill_node(self, node_id: int, force: bool = False, fail_node: bool = False) -> None:
        """Kill every running task placed on a cluster node, and fail any
        standby replicas hosted there (their snapshots die with the node).

        ``fail_node=True`` additionally marks the node dead in the cluster,
        so replacements must be placed elsewhere.
        """
        occupants = sorted(self.cluster.occupants_of_node(node_id))
        if fail_node:
            self.cluster.fail_node(node_id)
        killable = self._killable_statuses(force)
        for occupant in occupants:
            if occupant.startswith("standby:"):
                name = occupant[len("standby:"):]
                vertex = self.vertices.get(name)
                if vertex is not None and vertex.standby is not None:
                    vertex.standby.fail()
                    self.recovery_events.append(
                        (self.env.now, "standby-lost", name)
                    )
                if not fail_node:
                    self.cluster.release(occupant)
                continue
            if occupant in self.vertices:
                vertex = self.vertices[occupant]
                if vertex.task is not None and vertex.task.status in killable:
                    self.kill_task(occupant, force=force)

    def allocate_task_slot(self, vertex: VertexRuntime) -> int:
        """Allocate a slot for a (re)starting task, evicting a standby under
        slot pressure.

        After a node failure the cluster may no longer fit every task plus
        every standby.  Running tasks outrank HA spares: when allocation
        fails, sacrifice a standby (preferring the restarting vertex's own —
        its state is superseded by the restart anyway), record the eviction,
        and retry.  Only when no standby is left to evict does the slot
        exhaustion propagate."""
        while True:
            try:
                return self.cluster.allocate(vertex.name)
            except JobError:
                if not self._evict_one_standby(prefer=vertex.name):
                    raise

    def _evict_one_standby(self, prefer: Optional[str] = None) -> bool:
        candidates = sorted(
            name
            for name, vx in self.vertices.items()
            if vx.standby is not None
            and not vx.standby.failed
            and self.cluster.node_of(f"standby:{name}") is not None
        )
        if not candidates:
            return False
        victim = prefer if prefer in candidates else candidates[0]
        self.cluster.release(f"standby:{victim}")
        self.vertices[victim].standby.fail()
        self.recovery_events.append((self.env.now, "standby-evicted", victim))
        return True

    def reprovision_standby(self, vertex: VertexRuntime) -> Optional[StandbyState]:
        """Escalation-ladder HA repair: replace a failed standby with a fresh
        one (anti-affine placement), hydrated in the background from the
        latest completed DFS checkpoint.  Deferred (not fatal) when the
        cluster has no free slot — a task outranks its spare."""
        if not self._uses_standbys():
            return None
        avoid = (
            {vertex.node_id}
            if self.config.clonos.standby_anti_affinity and vertex.node_id is not None
            else set()
        )
        try:
            node = self.cluster.allocate(f"standby:{vertex.name}", avoid)
        except JobError:
            self.recovery_events.append(
                (self.env.now, "standby-reprovision-deferred", vertex.name)
            )
            return None
        standby = StandbyState(
            self.env, self.cost, vertex.name, node, monitor=self.integrity,
            trace=self.trace,
        )
        vertex.standby = standby
        self.recovery_events.append(
            (self.env.now, "standby-reprovisioned", vertex.name)
        )
        cid = self.completed_checkpoint
        if cid > 0 and self.snapshot_store.get(vertex.name, cid) is not None:
            self.env.process(
                self._hydrate_standby(vertex, standby, cid),
                name=f"standby-hydrate:{vertex.name}",
            )
        return standby

    def _hydrate_standby(self, vertex: VertexRuntime, standby: StandbyState, cid: int):
        try:
            snapshot = yield from self.snapshot_store.load(vertex.name, cid)
        except (ExternalSystemError, IntegrityError):
            return  # the next completed checkpoint's dispatch will hydrate it
        if vertex.standby is standby and not standby.failed:
            yield from standby.dispatch(snapshot)

    def note_control_drop(self, owner: str, kind: str, reason: str) -> None:
        """Per-queue drop accounting rollup (chaos loss ledger)."""
        self.control_plane_drops[(owner, kind, reason)] += 1

    def note_poison_quarantine(self, task_name: str, origin) -> None:
        """A poison pill crossed its crash budget and is now skipped forever:
        an *announced* degradation (the record is knowingly dropped), so
        divergence-from-baseline checkers can tell it from silent loss."""
        self.recovery_events.append(
            (self.env.now, "degraded:poison_quarantined", task_name)
        )
        self.trace.emit(
            self.env.now, "poison-quarantined", task_name, origin=str(origin)
        )

    def repair_channel(self, up_name: str, flat_idx: int, down_name: str) -> None:
        """Sender-driven repair of a link that lost buffers (chaos
        ``link_loss``): purge everything on the wire, clear the broken flag,
        and have the upstream's in-flight log retransmit from the receiver's
        delivered sequence number — FIFO restored without killing a task."""
        up_vertex = self.vertices[up_name]
        link = None
        for _edge, channels in up_vertex.out_links:
            for f_idx, d_name, lnk in channels:
                if f_idx == flat_idx and d_name == down_name:
                    link = lnk
        if link is None:
            return
        up_task = up_vertex.task
        down_task = self.vertices[down_name].task
        if (
            up_task is None
            or up_task.status is TaskStatus.FAILED
            or down_task is None
            or down_task.status is TaskStatus.FAILED
        ):
            # An endpoint is dead: its own recovery rebuilds this channel
            # (and performs the dedup handshake); just clear the breakage.
            if link.chaos is not None:
                link.chaos.broken = False
            return
        channel = up_task.output_channel_by_flat_index(flat_idx)
        channel.replaying = True  # park fresh output until the replay runs
        link.purge()
        if link.chaos is not None:
            link.chaos.broken = False
        self.recovery_events.append((self.env.now, "link-repair", link.name))
        receiver = link.receiver
        delivered = receiver.delivered_seq if receiver is not None else -1
        self.coordinator.request_replay(
            up_task, flat_idx, self.completed_checkpoint, delivered, down_name,
            "chaos-repair", live_seq=True,
        )

    def _on_detected(self, task_name: str) -> None:
        if task_name not in self.dead_tasks:
            return  # already recovered via a broader action (global restart)
        self.abort_pending_checkpoint()
        self.recovery_events.append((self.env.now, "detected", task_name))
        self.trace.emit(self.env.now, "failure-detected", task_name)
        self.watchdog.incident_opened(task_name)
        self.coordinator.on_failure_detected(task_name)

    # -- task callbacks ----------------------------------------------------------------------

    def task_recovered(self, task: StreamTask) -> None:
        self.recovering_tasks.discard(task.name)
        self.recovery_events.append((self.env.now, "recovered", task.name))
        self.trace.emit(self.env.now, "task-recovered", task.name)

    def task_crashed(self, task: StreamTask, exc: BaseException) -> None:
        self.crashed.append((task.name, exc))
        self._job_over()

    def task_finished(self, task: StreamTask) -> None:
        self._finished_tasks.add(task.name)
        if self._job_finished():
            self._job_over()

    def _job_over(self) -> None:
        if self._driving:
            self.env.stop()

    def _job_finished(self) -> bool:
        sinks = self._sink_names
        if sinks is None:
            sinks = self._sink_names = frozenset(
                v.name for v in self.vertices.values() if v.is_sink
            )
        return bool(sinks) and sinks <= self._finished_tasks

    # -- harness helpers -------------------------------------------------------------------------

    def drive(self, deadline: float) -> bool:
        """Dispatch kernel events until the job is over (True) or nothing is
        scheduled up to ``deadline`` (False); a crashed task raises."""
        if not (self.crashed or self._job_finished()):
            self._driving = True
            try:
                self.env.run(until=deadline)
            finally:
                self._driving = False
        if self.crashed:
            name, exc = self.crashed[0]
            if isinstance(exc, RecoveryStallError):
                # The watchdog's structured verdict: surface it as-is.
                raise exc
            raise JobError(f"task {name} crashed: {exc!r}") from exc
        return self._job_finished()

    def run_until_done(self, limit: float = 3600.0) -> float:
        """Drive the simulation until the job finishes; returns the time."""
        if not self.drive(self.env.now + limit):
            # Deadline expiry never dies as a bare timeout: attach the
            # incident id, the stuck phase, and every task's replay
            # position (works with the watchdog disabled too).
            raise stall_diagnostics(
                self,
                last_progress_at=self.watchdog.last_progress_at,
                detail=f"job did not finish within {limit}s of simulated time",
            )
        if SANITIZER.enabled:
            SANITIZER.on_job_done(self)
        return self.env.now

    def task_of(self, task_name: str) -> StreamTask:
        return self.vertices[task_name].task

    def start_failure_detector(self, threshold: Optional[int] = None):
        """Opt-in heartbeat failure detector (see
        :class:`SuspicionFailureDetector`); returns the detector."""
        detector = SuspicionFailureDetector(self, threshold=threshold)
        detector.start()
        return detector

    @property
    def adjacency(self) -> Dict[str, List[str]]:
        return self._adjacency


class SuspicionFailureDetector:
    """Heartbeat-based failure detection with false-positive suppression.

    Every task heartbeats the job manager each ``cost.heartbeat_interval``;
    heartbeats ride the control plane, so chaos-injected RPC loss makes a
    perfectly healthy task *look* dead.  A naive detector (threshold 1)
    fails over on a single missed beat — a spurious recovery costing a full
    local-recovery cycle.  The hardened detector only declares failure after
    ``cost.suspicion_threshold`` *consecutive* missed heartbeats: isolated
    drops raise suspicion (recorded in ``recovery_events``) without
    triggering recovery.
    """

    def __init__(self, jm: JobManager, threshold: Optional[int] = None):
        self.jm = jm
        self.env = jm.env
        self.cost = jm.config.cost
        self.threshold = (
            threshold if threshold is not None else max(1, self.cost.suspicion_threshold)
        )
        self.last_beat: Dict[str, float] = {}
        self.missed: Dict[str, int] = {}
        #: (time, task, consecutive misses) for every suspicion raised.
        self.suspicions: List[Tuple[float, str, int]] = []
        #: (time, task) for every declared (spurious) failure.
        self.declared_failed: List[Tuple[float, str]] = []
        self.heartbeats_lost = 0

    def start(self) -> None:
        for name in self.jm.vertices:
            self.last_beat[name] = self.env.now
            self.missed[name] = 0
            self._schedule_beat(name)
        self.env.process(self._monitor(), name="failure-detector")

    def _alive(self, name: str) -> bool:
        task = self.jm.vertices[name].task
        return task is not None and task.status in (
            TaskStatus.RUNNING,
            TaskStatus.RECOVERING,
        )

    def _schedule_beat(self, name: str) -> None:
        def beat() -> None:
            if self._alive(name):
                chaos = self.jm.control_chaos
                if chaos is not None and chaos.should_drop(self.env.now, name):
                    self.heartbeats_lost += 1
                    self.jm.note_control_drop(name, "heartbeat", "chaos-lost")
                else:
                    self.last_beat[name] = self.env.now
            self.env.schedule_callback(self.cost.heartbeat_interval, beat)

        self.env.schedule_callback(self.cost.heartbeat_interval, beat)

    def _monitor(self):
        interval = self.cost.heartbeat_interval
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for name in self.jm.vertices:
                if not self._alive(name):
                    self.missed[name] = 0
                    continue
                if now - self.last_beat[name] > 1.5 * interval:
                    self.missed[name] += 1
                    self.suspicions.append((now, name, self.missed[name]))
                    self.jm.recovery_events.append(
                        (now, f"suspected:{self.missed[name]}", name)
                    )
                    if self.missed[name] >= self.threshold:
                        self.missed[name] = 0
                        self.declared_failed.append((now, name))
                        self.jm.recovery_events.append(
                            (now, "spurious-failover", name)
                        )
                        self.jm.kill_task(name, force=True)
                else:
                    self.missed[name] = 0
