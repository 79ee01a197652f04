"""The recovery coordinator: one object for every fault-tolerance mode.

The job manager delegates detected failures here.  What a failure rolls
back is the ``scope`` of the mode's :class:`~repro.config.RecoveryPolicy`:

* task scope — every local mode.  The paper's protocol (Section 2.2):
  activate a standby, reconfigure the network, retrieve the determinant log
  from downstream, request in-flight replay from upstream, replay with
  causal consistency, deduplicate at the sender; the job scope when the
  Figure-4 analysis finds an orphan (DSD exceeded).  The weaker schemes are
  the same pipeline with steps switched off: divergent replay fetches no
  determinants and resends everything (at-least-once, Section 5.4); SEEP
  adds receiver-side count-based dedup (exact only for deterministic
  operators, Table 1); gap recovery requests no replay and restarts sources
  at live data (at-most-once).
* job scope — vanilla Flink (Section 3.2): cancel the whole graph, restart
  every task from the last completed checkpoint.  It is also the global rung
  every task-scope escalation lands on (Section 5.4, Figure 4).
* no scope — mode NONE: a failure fails the job.

Recovery itself is supervised (the ``repro.chaos`` hardening): every step
of the six-step protocol runs under a per-step deadline, failed attempts
retry with jittered exponential backoff, and the pipeline escalates along
a ladder — (1) retry local recovery via the standby, (2) re-provision from
the DFS checkpoint with a fresh deployment, (3) graceful degradation to
global-rollback semantics, recorded as a ``degraded:global_rollback``
recovery event.  Replay requests ride the reliable (acked, resent) control
plane so a lossy network cannot wedge step 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import RecoveryScope
from repro.core.causal_log import merge_bundles
from repro.core.dsd import (
    RecoveryCase,
    classify_failed_task,
    downstream_within,
    transitive_downstream,
)
from repro.errors import (
    ExternalSystemError,
    IntegrityError,
    RecoveryError,
    ReproError,
)
from repro.operators.source import KafkaSource
from repro.runtime.task import TaskStatus


class RecoveryCoordinator:
    """Recovers detected failures at the scope of the job's policy.

    The task scope runs the six-step protocol of Section 2.2 per failed task
    — supervised — with the steps its policy switches off skipped.  Failure
    of an attempt escalates along the ladder: retry locally via the standby,
    then re-provision a fresh deployment from the DFS checkpoint, and finally
    degrade to the job scope (recorded as ``degraded:global_rollback``).
    """

    def __init__(self, jm):
        self.jm = jm
        self.env = jm.env
        self.cost = jm.config.cost
        self.policy = jm.config.policy
        #: A job restart is running; it covers every failure meanwhile.
        self._restarting = False
        #: Live recovery processes per vertex (supervisor + current step),
        #: so a repeat failure or a job restart can supersede them.
        self._procs: Dict[str, List] = {}

    def on_failure_detected(self, task_name: str) -> None:
        if self.policy.scope is not RecoveryScope.TASK or self._restarting:
            self.escalate(task_name)
            return
        vertex = self.jm.vertices[task_name]
        # Figure 4 applies where determinants are logged; a mode without a
        # causal log recovers determinant-free by policy (no case).
        case = self._classify(task_name) if self.policy.causal_log else None
        if case is RecoveryCase.ORPHANED:
            if self.jm.config.clonos.fallback_to_global:
                # Figure 4, DSD < D, orphaned leaf: trigger a global rollback
                # (favour consistency, Section 5.4).
                self.jm.recovery_events.append(
                    (self.env.now, "orphan-fallback", task_name)
                )
                self.jm.trace.emit(self.env.now, "orphan-fallback", task_name)
                self.escalate(task_name)
                return
            # Favour availability: recover locally WITHOUT determinants,
            # skipping deduplication — at-least-once (Section 5.4).
            self.jm.recovery_events.append(
                (self.env.now, "orphan-skip-dedup", task_name)
            )
        self.jm.recovering_tasks.add(task_name)
        self._spawn_recovery(vertex, self._supervised_recovery(vertex, case))

    def escalate(self, task_name: str) -> None:
        """The job scope: restart every task from the last completed
        checkpoint.  Also the global rung of the escalation ladder, the
        orphan fallback, :meth:`degrade`'s and the watchdog's target."""
        if self.policy.scope is None:
            raise RecoveryError(
                f"task {task_name} failed and mode={self.jm.config.mode.name}"
            )
        if self._restarting:
            return  # the ongoing restart covers this failure too
        self._restarting = True
        self.env.process(self._restart_job(), name="global-restart")

    def degrade(self, task_name: str, reason: str) -> None:
        """A recovery artifact needed for exact replay is corrupt beyond
        local repair (e.g. a logged in-flight buffer failed its checksum
        during replay): announce the degradation and restart globally, which
        regenerates the lost data from the sources instead of replaying the
        corrupt copy."""
        jm = self.jm
        jm.recovery_events.append((self.env.now, f"integrity:{reason}", task_name))
        jm.recovery_events.append(
            (self.env.now, "degraded:global_rollback", task_name)
        )
        jm.trace.emit(self.env.now, "degraded", task_name, reason=reason)
        self.escalate(task_name)

    # -- recovery supervision ---------------------------------------------------------

    def _cancel(self, names) -> bool:
        """Kill the live recovery processes of the named vertices; whether
        any was still running."""
        alive = False
        for name in names:
            procs = self._procs.get(name, [])
            for proc in procs:
                if proc.is_alive:
                    proc.kill()
                    alive = True
            procs.clear()
        return alive

    def _spawn_recovery(self, vertex, generator):
        """Run ``generator`` as this vertex's recovery process, superseding
        (killing) any still-running recovery for the same vertex — a repeat
        failure mid-recovery restarts the procedure instead of racing it."""
        if self._cancel([vertex.name]):
            self.jm.recovery_events.append(
                (self.env.now, "recovery-superseded", vertex.name)
            )
        proc = self.env.process(generator, name=f"recover:{vertex.name}")
        self._procs.setdefault(vertex.name, []).append(proc)
        return proc

    def _step(self, vertex_name: str, generator, deadline: float, label: str):
        """Generator: run one protocol step with a deadline.  Returns
        ``("ok", value)`` or ``("<label>:timeout"/"<label>:error", None)``;
        a timed-out step is killed (its ``finally`` blocks release held
        resources)."""
        proc = self.env.process(generator, name=f"step:{label}:{vertex_name}")
        self._procs.setdefault(vertex_name, []).append(proc)
        self.jm.trace.emit(self.env.now, "phase-begin", vertex_name, phase=label)
        try:
            yield self.env.any_of([proc, self.env.timeout(deadline)])
        except ReproError:
            self.jm.recovery_events.append(
                (self.env.now, f"step-failed:{label}", vertex_name)
            )
            self.jm.trace.emit(
                self.env.now, "phase-end", vertex_name, phase=label, status="error"
            )
            return (f"{label}:error", None)
        if proc.triggered and proc.ok:
            self.jm.trace.emit(
                self.env.now, "phase-end", vertex_name, phase=label, status="ok"
            )
            return ("ok", proc.value)
        proc.kill()
        self.jm.recovery_events.append(
            (self.env.now, f"step-timeout:{label}", vertex_name)
        )
        self.jm.trace.emit(
            self.env.now, "phase-end", vertex_name, phase=label, status="timeout"
        )
        return (f"{label}:timeout", None)

    # -- shared helpers ---------------------------------------------------------------

    def _obtain_snapshot(
        self, vertex, prefer_standby: bool = True, checkpoint_id: Optional[int] = None
    ):
        """Generator: standby activation (fast path) or fresh deployment +
        restore of ``checkpoint_id`` (default: the latest completed) from
        the DFS (slow path).  Returns the snapshot (or None when there is no
        checkpoint to restore).  The DFS read retries transient failures
        (outages, brownout timeouts) with backoff."""
        standby = vertex.standby
        if prefer_standby and standby is not None and standby.usable:
            yield self.env.timeout(self.cost.standby_activation_time)
            snapshot = yield from standby.wait_ready()
            vertex.node_id = self.jm.allocate_task_slot(vertex)
            return snapshot
        yield self.env.timeout(self.cost.task_deploy_time)
        vertex.node_id = self.jm.allocate_task_slot(vertex)
        cid = self.jm.completed_checkpoint if checkpoint_id is None else checkpoint_id
        if cid <= 0 or self.jm.snapshot_store.get(vertex.name, cid) is None:
            return None
        snapshot = yield from self._load_with_retry(vertex.name, cid)
        return snapshot

    def _load_with_retry(self, task_name: str, checkpoint_id: int):
        """Generator: ``snapshot_store.load`` under the DFS retry policy."""
        policy = self.jm.config.clonos.dfs_retry
        rng = self.jm.streams.stream(f"dfs-retry:{task_name}")
        attempt = 0
        while True:
            try:
                snapshot = yield from self.jm.snapshot_store.load(
                    task_name, checkpoint_id
                )
                return snapshot
            except ExternalSystemError as exc:
                if attempt >= policy.max_attempts - 1:
                    raise RecoveryError(
                        f"{task_name}: checkpoint {checkpoint_id} restore "
                        f"failed after {attempt + 1} attempts: {exc}"
                    ) from exc
                self.jm.recovery_events.append(
                    (self.env.now, "dfs-retry", task_name)
                )
                yield self.env.timeout(policy.delay(attempt, rng))
                attempt += 1

    def _rebuild_task(self, vertex, snapshot):
        """Construct the replacement and perform the network reconfiguration
        handshake (Section 6.2): fresh input channels attach to the existing
        links; surviving receivers report their delivered sequence numbers
        for sender-side dedup."""
        # Step 2 of the protocol; channel rewiring is instantaneous in the
        # sim, so this is a named zero-width phase in the timeline.
        self.jm.trace.emit(
            self.env.now, "phase-mark", vertex.name, phase="network-reconfigure"
        )
        task = self.jm._build_task(vertex)
        vertex.task = task
        for _edge, channels in vertex.out_links:
            for flat_idx, down_name, link in channels:
                channel = task.output_channel_by_flat_index(flat_idx)
                receiver = link.receiver
                if receiver is None and task.inflight is not None:
                    # The downstream is dead too: park output in the log (as
                    # kill_task does for surviving upstreams) until its
                    # replacement's replay request, or live buffers would
                    # race ahead of the replayed ones.
                    channel.replaying = True
                if receiver is not None:
                    channel.suppress_until_seq = receiver.delivered_seq
                    # If the surviving receiver is mid-alignment waiting on
                    # the dead incarnation's barrier, the blocked channels
                    # can deadlock the whole job (they backpressure the very
                    # upstreams this replacement needs for replay); cancel
                    # that alignment -- its cut was aborted on detection.
                    down_task = self.jm.vertices[down_name].task
                    if down_task is not None:
                        down_task.on_upstream_reconnected(receiver.index)
        return task

    def _dismantle(self, vertex, task) -> None:
        """Tear down a partially-built replacement whose recovery attempt
        failed before ``task.start``.

        The rebuild already attached the replacement's input channels to the
        links (the Section 6.2 reconfiguration handshake).  Abandoning it
        without closing its gate leaves links blocked forever on its
        credit queues — upstream replay/regeneration fills the orphaned
        queue, the link waits on its ``deliver``, and no later incarnation
        (not even a global restart's) ever receives another buffer on that
        link.  Failing the abandoned incarnation detaches its receivers and
        cancels every waiter so the link recovers, and the next attempt
        attaches a fresh one."""
        if vertex.task is task and task.status is TaskStatus.CREATED:
            task.fail()
            self.jm.recovery_events.append(
                (self.env.now, "recovery-incarnation-abandoned", vertex.name)
            )

    def _request_replays(self, vertex, from_epoch: int) -> None:
        """Step 4: ask upstream tasks to replay their in-flight logs."""
        jm = self.jm
        for in_flat, _input_index, upstream_name, _link, up_flat in vertex.in_links:
            upstream = jm.vertices[upstream_name].task
            if upstream is None or upstream.status is TaskStatus.FAILED:
                continue  # its own recovery will regenerate and send
            delivered = vertex.task.gate.channels[in_flat].delivered_seq
            self.request_replay(
                upstream, up_flat, from_epoch, delivered, vertex.name, vertex.name
            )

    def request_replay(
        self, upstream, flat: int, from_epoch: int, delivered_seq: int,
        requester: str, sender: str, **extra,
    ) -> None:
        """Ask ``upstream`` to replay output channel ``flat`` from its
        in-flight log, past what the receiver already delivered.

        Replay requests are recovery-critical: with the reliable control
        plane they carry ids and are resent until acked, every resend and a
        final give-up recorded in ``recovery_events``."""
        jm = self.jm
        name = upstream.name
        upstream.control.send(
            "replay_request",
            {
                "flat_channel": flat,
                "from_epoch": from_epoch,
                "delivered_seq": delivered_seq,
                "requester": requester,
                **extra,
            },
            sender=sender,
            reliable=jm.config.reliable_control_plane,
            retry=jm.config.rpc_retry,
            on_retry=lambda n: jm.recovery_events.append(
                (self.env.now, f"rpc-retry:replay_request:{n}", name)
            ),
            on_give_up=lambda _n: jm.recovery_events.append(
                (self.env.now, "rpc-exhausted:replay_request", name)
            ),
        )

    # -- job scope --------------------------------------------------------------------

    def _restart_job(self):
        jm = self.jm
        jm.abort_pending_checkpoint()
        self._cancel(list(self._procs))
        jm.recovery_events.append((self.env.now, "global-restart-begin", "*"))
        jm.trace.emit(self.env.now, "global-restart-begin", "*")
        jm.trace.emit(self.env.now, "phase-mark", "*", phase="task-cancellation")
        # Cancel every surviving task (they stop processing immediately) —
        # including tasks still mid-local-recovery: the restart supersedes
        # their replay.  CREATED tasks are abandoned half-built replacements
        # (their recovery proc was cancelled between rebuild and start);
        # they too must be failed so their attached gates release any link
        # blocked on their credit queues.
        for vertex in jm.vertices.values():
            task = vertex.task
            if task is not None and task.status in (
                TaskStatus.RUNNING,
                TaskStatus.RECOVERING,
                TaskStatus.CREATED,
            ):
                task.fail()
                jm.cluster.release(vertex.name)
        yield self.env.timeout(self.cost.task_cancel_time)
        jm.trace.emit(
            self.env.now, "phase-mark", "*", phase="checkpoint-restore"
        )
        # Multi-epoch fallback ladder: restore the newest epoch that passes
        # validation for *every* task (mixed-epoch restores are inconsistent,
        # so epoch selection is all-or-nothing).  If a load still trips an
        # integrity check (corruption injected after the metadata probe),
        # exclude that epoch and re-select an older one.
        excluded: set = set()
        while True:
            cid = self._select_restore_epoch(excluded)
            procs = [
                self.env.process(
                    self._obtain_snapshot(vertex, False, cid),
                    name=f"restart:{vertex.name}",
                )
                for vertex in jm.vertices.values()
            ]
            try:
                snapshots = yield self.env.all_of(procs)
            except IntegrityError as exc:
                jm.recovery_events.append(
                    (self.env.now, "integrity:restore-failed", repr(exc))
                )
                excluded.add(cid)
                continue
            except ReproError as exc:
                # A restart that cannot complete (e.g. the cluster lost too
                # much capacity) must surface as a job failure, not a silent
                # wedge.
                jm.recovery_events.append(
                    (self.env.now, "global-restart-failed", repr(exc))
                )
                jm.crashed.append(("global-restart", exc))
                return
            break
        if cid < jm.completed_checkpoint:
            # The fallback committed to an older epoch: checkpoints newer
            # than it belong to the abandoned timeline.  Rewind the job's
            # checkpoint bookkeeping and drop the newer snapshots, or a
            # later *local* recovery would restore a task from a future the
            # rest of the job rolled back past.
            dropped = jm.snapshot_store.discard_newer_than(cid)
            jm.checkpoints_completed = [
                (c, t) for (c, t) in jm.checkpoints_completed if c <= cid
            ]
            jm.completed_checkpoint = cid
            # Standby images newer than the restored epoch are from the
            # abandoned timeline too: a later standby activation would
            # resurrect state (and channel sequence expectations) the rest
            # of the job no longer has.  Downgrade them to the restored
            # epoch's snapshot.
            for vertex in jm.vertices.values():
                standby = vertex.standby
                if (
                    standby is not None
                    and standby.snapshot is not None
                    and standby.snapshot.checkpoint_id > cid
                ):
                    standby.snapshot = jm.snapshot_store.get(vertex.name, cid)
            jm.recovery_events.append(
                (self.env.now, f"integrity:timeline-rewind:{cid}", f"dropped={dropped}")
            )
        # Attach every rebuilt task to the links before any of them starts:
        # snapshot loads finish at different times, and an upstream that
        # started early would stream into a predecessor's torn-down gate —
        # losing buffers (and advancing determinant-delta cursors past what
        # the late-attaching receiver ever saw).
        jm.trace.emit(self.env.now, "phase-mark", "*", phase="task-restart")
        started = []
        for vertex, snapshot in zip(jm.vertices.values(), snapshots):
            task = jm._build_task(vertex)
            vertex.task = task
            # A global restart replays without causal determinants, so
            # replayed input can diverge from the original run: count-based
            # external dedup (ExactlyOnceKafkaSink) would turn that
            # divergence into silent loss.  Degraded semantics are
            # at-least-once — sinks drop their dedup state and re-append.
            reset = getattr(task.operator, "reset_external_dedup", None)
            if reset is not None:
                reset()
            started.append((task, snapshot))
        for task, snapshot in started:
            task.start(snapshot)
        jm.dead_tasks.clear()
        jm.recovering_tasks.clear()
        self._restarting = False
        jm.recovery_events.append((self.env.now, "global-restart-done", "*"))
        jm.trace.emit(
            self.env.now, "global-restart-done", "*", epoch=cid
        )

    def _select_restore_epoch(self, excluded=()) -> int:
        """The multi-epoch rung of the fallback ladder.

        Walk the retained completed checkpoints newest-first and pick the
        first whose every stored snapshot passes validation (metadata probe,
        no I/O); falling back past the newest epoch — or all the way to an
        empty restart — is announced as ``degraded:global_rollback`` because
        replaying an older epoch can re-emit output already committed
        externally (at-least-once, not exactly-once).
        """
        jm = self.jm
        latest = jm.completed_checkpoint
        if latest <= 0:
            return 0
        if not jm.integrity.validate:
            return latest if latest not in excluded else 0
        store = jm.snapshot_store
        candidates = sorted(
            {
                cid
                for (_name, cid) in store._snapshots
                if cid <= latest and cid not in excluded
            },
            reverse=True,
        )
        for cid in candidates:
            corrupt = [
                vertex.name
                for vertex in jm.vertices.values()
                if store.get(vertex.name, cid) is not None
                and not store.peek_valid(vertex.name, cid)
            ]
            if not corrupt:
                if cid != latest:
                    jm.recovery_events.append(
                        (self.env.now, f"integrity:epoch-fallback:{latest}->{cid}", "*")
                    )
                    jm.recovery_events.append(
                        (self.env.now, "degraded:global_rollback", "epoch-fallback")
                    )
                return cid
            jm.recovery_events.append(
                (
                    self.env.now,
                    f"integrity:epoch-invalid:{cid}",
                    ",".join(sorted(corrupt)),
                )
            )
        jm.recovery_events.append((self.env.now, "integrity:no-valid-epoch", "*"))
        jm.recovery_events.append(
            (self.env.now, "degraded:global_rollback", "no-valid-epoch")
        )
        return 0

    # -- task scope -------------------------------------------------------------------

    def _classify(self, task_name: str) -> RecoveryCase:
        """The Figure-4 leaf for this failure, externalized output included."""
        dsd = self.jm.config.clonos.determinant_sharing_depth
        case = classify_failed_task(
            self.jm.adjacency, set(self.jm.dead_tasks), task_name, dsd
        )
        if case is RecoveryCase.FREE and self._externalized_dependent(task_name):
            # Figure 4 calls this FREE — every dependent failed with it, so
            # a fresh (divergent) execution is consistent *inside* the job.
            # But a failed downstream sink that already externalized output
            # leaves a dependent the analysis cannot see: the external
            # system's stored order (Section 5.5).  Regenerating that
            # sink's input without determinants would silently corrupt its
            # count-based dedup, so treat the task as orphaned instead.
            case = RecoveryCase.ORPHANED
            self.jm.recovery_events.append(
                (self.env.now, "orphan-externalized-output", task_name)
            )
            self.jm.trace.emit(
                self.env.now, "orphan-externalized-output", task_name
            )
        return case

    def _externalized_dependent(self, task_name: str) -> bool:
        """Does any *strictly* downstream task hold externalized output?

        The failed task itself is excluded: a sink recovering alone replays
        byte-identically from its (surviving) upstreams plus its own
        externally stored determinant bundle, so its externalized output is
        safe.  Only an upstream regenerating *fresh* invalidates it."""
        jm = self.jm
        for name in transitive_downstream(jm.adjacency, task_name):
            vertex = jm.vertices.get(name)
            task = vertex.task if vertex is not None else None
            operator = getattr(task, "operator", None)
            if getattr(operator, "output_is_externalized", False):
                return True
        return False

    def _supervised_recovery(self, vertex, case: Optional[RecoveryCase]):
        """The escalation ladder around :meth:`_attempt_recovery`."""
        jm = self.jm
        retry = jm.config.clonos.recovery_retry
        rng = jm.streams.stream(f"recovery-backoff:{vertex.name}")
        attempts = max(1, retry.max_attempts)
        for attempt in range(attempts):
            # Rung 1 uses the standby; later rungs re-provision from the
            # DFS checkpoint with a fresh deployment.
            label = yield from self._attempt_recovery(
                vertex, case, prefer_standby=(attempt == 0)
            )
            if label is None:
                return
            jm.recovery_events.append(
                (self.env.now, f"recovery-retry:{label}", vertex.name)
            )
            jm.trace.emit(
                self.env.now,
                "recovery-retry",
                vertex.name,
                attempt=attempt + 1,
                label=label,
            )
            if label.startswith("checkpoint-restore") and self._latest_epoch_corrupt(
                vertex
            ):
                # The only local restore source is corrupt — retrying cannot
                # fix a bad artifact.  Skip straight to the global fallback,
                # which can select an older validated epoch.
                jm.recovery_events.append(
                    (self.env.now, "integrity:local-restore-unavailable", vertex.name)
                )
                break
            if attempt < attempts - 1:
                yield self.env.timeout(retry.delay(attempt, rng))
        # Rung 3: graceful degradation to global-rollback semantics.
        jm.recovery_events.append(
            (self.env.now, "degraded:global_rollback", vertex.name)
        )
        jm.trace.emit(
            self.env.now, "degraded", vertex.name, reason="ladder-exhausted"
        )
        jm.recovering_tasks.discard(vertex.name)
        self.escalate(vertex.name)

    def _latest_epoch_corrupt(self, vertex) -> bool:
        """Whether the newest completed checkpoint of this task exists but
        fails validation (a metadata probe, no I/O)."""
        jm = self.jm
        cid = jm.completed_checkpoint
        return (
            jm.integrity.validate
            and cid > 0
            and jm.snapshot_store.get(vertex.name, cid) is not None
            and not jm.snapshot_store.peek_valid(vertex.name, cid)
        )

    def _attempt_recovery(
        self, vertex, case: Optional[RecoveryCase], prefer_standby: bool
    ):
        """One pass over the six steps, each under the step deadline, minus
        the steps the policy switches off.  Returns None on success, else a
        label naming the failed step."""
        jm = self.jm
        policy = self.policy
        deadline = jm.config.clonos.recovery_step_deadline
        standby = vertex.standby
        fast_path = prefer_standby and standby is not None and standby.usable
        # Step 1: activate standby / start replacement.
        status, snapshot = yield from self._step(
            vertex.name,
            self._obtain_snapshot(vertex, prefer_standby),
            deadline,
            "standby-activation" if fast_path else "checkpoint-restore",
        )
        if status != "ok":
            jm.cluster.release(vertex.name)
            return status
        restore_epoch = snapshot.checkpoint_id if snapshot is not None else 0
        # Step 2: reconfigure network connections (+ dedup handshake).
        task = self._rebuild_task(vertex, snapshot)
        # Step 3: retrieve the determinant log from downstream tasks.  An
        # orphaned task with fallback disabled skips this (and therefore
        # dedup): divergent replay, at-least-once.
        bundle = None
        if task.causal is not None and case is not RecoveryCase.ORPHANED:
            status, bundle = yield from self._step(
                vertex.name,
                self._fetch_determinants(vertex),
                deadline,
                "determinant-fetch",
            )
            if status != "ok":
                self._dismantle(vertex, task)
                jm.cluster.release(vertex.name)
                return status
        if case is RecoveryCase.ORPHANED or not policy.sender_dedup:
            # No determinants: suppression would misalign with the
            # regenerated (divergent) buffer boundaries, so the sender
            # resends everything.
            for channel in task.all_output_channels:
                channel.suppress_until_seq = -1
        if policy.receiver_dedup:
            self._arm_receiver_dedup(vertex, restore_epoch)
        jm.dead_tasks.discard(vertex.name)
        # Steps 5+6 run inside the task: determinant-driven replay with
        # sender-side dedup; the task reports recovered when replay ends.
        task.start(snapshot, recovery_bundle=bundle, replay_from_epoch=restore_epoch)
        if policy.gap_skip and vertex.is_source and isinstance(task.operator, KafkaSource):
            # Jump over the gap: resume from live data, not the checkpoint.
            partition = task.operator.log.partition(
                task.operator.topic, vertex.subtask_index
            )
            task.operator.offset = max(
                task.operator.offset, partition.end_offset(self.env.now)
            )
        if bundle is None:
            # Nothing to replay: the task is live from here.
            jm.task_recovered(task)
        # Step 4: request in-flight replay from upstream (parallel to 3).
        if policy.inflight_log:
            self._request_replays(vertex, restore_epoch)
        # HA restored: if the standby was consumed by a crash of its own,
        # re-provision a fresh one (hydrated from the DFS checkpoint).
        if jm._uses_standbys() and standby is not None and standby.failed:
            jm.reprovision_standby(vertex)
        return None

    def _arm_receiver_dedup(self, vertex, from_epoch: int) -> None:
        """SEEP: every surviving direct downstream drops as many replayed
        records as it already consumed since ``from_epoch``."""
        for _edge, channels in vertex.out_links:
            for _flat_idx, down_name, link in channels:
                receiver = link.receiver
                down_task = self.jm.vertices[down_name].task
                if (
                    receiver is not None
                    and down_task is not None
                    and down_task.status is not TaskStatus.FAILED
                ):
                    down_task.enter_seep_dedup(receiver.index, from_epoch)

    def _fetch_determinants(self, vertex):
        """Collect this task's replicated bundle from every surviving holder
        within the sharing depth, charging RPC + transfer time."""
        jm = self.jm
        bundles = []

        def take(stored, owner: str, holder: str) -> None:
            if stored is None:
                return
            if jm.integrity.validate:
                # A truncated/corrupt replica cannot be told apart from a
                # legitimately short prefix, so a holder failing its
                # checksum fails the step: the ladder degrades rather than
                # risk divergent replay from partial determinants.
                try:
                    stored.verify(owner=owner)
                except IntegrityError as exc:
                    jm.integrity.record_failure(exc.artifact, exc.name, str(exc))
                    jm.recovery_events.append(
                        (self.env.now, "integrity:determinant-log", holder)
                    )
                    raise
                jm.integrity.record_ok("determinant-log")
            bundles.append(stored)

        dsd = jm.config.clonos.determinant_sharing_depth
        for name in sorted(downstream_within(jm.adjacency, vertex.name, dsd)):
            holder = jm.vertices[name].task
            if holder is None or holder.status is TaskStatus.FAILED:
                continue
            if holder.causal is not None:
                take(
                    holder.causal.stored_bundle_for(vertex.name),
                    f"{name}:{vertex.name}",
                    name,
                )
        # Sinks have no downstream holder: the external system stores their
        # determinants alongside the output (Section 5.5) and returns them
        # here, so sink replay is byte-identical and count-based output
        # dedup stays sound.
        operator = getattr(jm.vertices[vertex.name].task, "operator", None)
        fetch_external = getattr(operator, "external_determinant_bundle", None)
        if fetch_external is not None:
            take(fetch_external(vertex.name), f"external:{vertex.name}", vertex.name)
        total_bytes = sum(stored.size_bytes() for stored in bundles)
        yield self.env.timeout(
            2 * self.cost.rpc_latency + self.cost.transmission_time(total_bytes)
        )
        return merge_bundles(bundles)


#: The SEAMS bridge: ``bench/tracing.py`` binds its recovery seams by these
#: names; the benchmark's seam remap deletes this line.
BaseCoordinator = GlobalRollbackCoordinator = ClonosCoordinator = RecoveryCoordinator
