"""Standby tasks and state-snapshot dispatch (Sections 2.1, 6.3, 6.4).

A standby mirrors a running task: same logic, same placement constraints
machinery, but idle.  After every completed checkpoint the job manager
dispatches the running task's snapshot to its standby; activation waits for
any in-flight transfer, so a standby is never more than one checkpoint
behind.

A standby is itself a process on a node and can crash (node failure, chaos
``standby_loss``) — including *during* activation.  :meth:`fail` models
that: the held snapshot is gone, an in-flight activation raises
:class:`~repro.errors.RecoveryError`, and the recovery supervisor escalates
to a fresh deployment from the DFS checkpoint.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CostModel
from repro.errors import IntegrityError, RecoveryError
from repro.integrity.monitor import IntegrityMonitor
from repro.sim.core import Environment
from repro.state.snapshot import TaskSnapshot


class StandbyState:
    """The standby side of one task: last received snapshot + transfer state."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        task_name: str,
        node_id: int,
        monitor: Optional[IntegrityMonitor] = None,
        trace=None,
    ):
        self.env = env
        self.cost = cost
        self.task_name = task_name
        #: Cluster node hosting the standby (anti-affinity decided at
        #: placement time, Section 6.3).
        self.node_id = node_id
        self.monitor = monitor
        #: Optional repro.trace event bus (passive observability only).
        self.trace = trace
        self.snapshot: Optional[TaskSnapshot] = None
        self._transfer_done = None  # event while a dispatch is in flight
        self.transfers_received = 0
        self.failed = False
        self._fail_event = None  # event while an activation is waiting

    @property
    def usable(self) -> bool:
        """Whether the fast-path activation can use this standby."""
        return not self.failed and self.snapshot is not None

    def fail(self, evicted: bool = False) -> None:
        """The standby process crashed (or was ``evicted`` under slot
        pressure): its in-memory state is lost."""
        if self.failed:
            return
        self.failed = True
        self.snapshot = None
        if self.trace is not None:
            self.trace.emit(
                self.env.now, "standby-evicted" if evicted else "standby-lost",
                self.task_name,
            )
        if self._fail_event is not None:
            event, self._fail_event = self._fail_event, None
            event.succeed()

    def dispatch(self, snapshot: TaskSnapshot):
        """Generator: ship ``snapshot`` to the standby over the network.

        Bound by checkpoint frequency in practice (Section 6.4): the caller
        (checkpoint coordinator) never overlaps two dispatches for one task.
        """
        self._transfer_done = self.env.event()
        if self.trace is not None:
            self.trace.emit(
                self.env.now,
                "standby-transfer-begin",
                self.task_name,
                checkpoint_id=snapshot.checkpoint_id,
            )
        try:
            yield self.env.timeout(self.cost.transmission_time(snapshot.size_bytes))
            if not self.failed:
                self.snapshot = snapshot
                self.transfers_received += 1
                if self.trace is not None:
                    self.trace.emit(
                        self.env.now,
                        "standby-transfer-done",
                        self.task_name,
                        checkpoint_id=snapshot.checkpoint_id,
                    )
        finally:
            done, self._transfer_done = self._transfer_done, None
            done.succeed()

    def wait_ready(self):
        """Generator: if a transfer is in flight, wait for it (Section 6.4:
        activation waits for the transfer to complete).  Raises
        :class:`RecoveryError` if the standby crashed — before or *during*
        the wait."""
        if self.failed:
            raise RecoveryError(f"standby for {self.task_name} has failed")
        if self._transfer_done is not None:
            self._fail_event = self.env.event()
            yield self.env.any_of([self._transfer_done, self._fail_event])
            self._fail_event = None
        if self.failed:
            raise RecoveryError(
                f"standby for {self.task_name} crashed during activation"
            )
        # No snapshot (no checkpoint completed yet) is fine: activation
        # proceeds with empty state.
        if (
            self.snapshot is not None
            and self.monitor is not None
            and self.monitor.validate
        ):
            # Installing a corrupt image would silently fork the task's
            # state; a failed check escalates to the DFS checkpoint instead.
            try:
                self.snapshot.verify(artifact="standby-image")
            except IntegrityError as exc:
                self.monitor.record_failure(exc.artifact, exc.name, str(exc))
                raise
            self.monitor.record_ok("standby-image")
        return self.snapshot

    @property
    def checkpoint_id(self) -> Optional[int]:
        return self.snapshot.checkpoint_id if self.snapshot is not None else None
