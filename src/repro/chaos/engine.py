"""The chaos engine: schedules a :class:`FaultPlan` against a deployed job.

All randomness derives from the plan's seed (named substreams), so a run is
exactly reproducible.  Every applied or skipped fault is recorded on the
engine for post-run accounting.
"""

from __future__ import annotations

import random
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import LINK_KINDS, FaultPlan, FaultSpec
from repro.config import POLICIES
from repro.errors import ChaosError
from repro.integrity.corruption import (
    corrupt_checkpoint,
    corrupt_inflight_entry,
    truncate_determinant_log,
)
from repro.net.link import LinkChaos, NetworkLink
from repro.runtime.task import TaskStatus
from repro.sim.rng import derive_seed


class ControlPlaneChaos:
    """A windowed lossy/duplicating control plane, consulted by every
    :class:`~repro.runtime.rpc.ControlQueue` delivery while installed.

    ``target`` restricts the faults to traffic involving matching parties
    (sender or receiver, exact name or glob): a *partial* control-plane
    partition, isolating one task or node while the rest of the job's
    control traffic flows normally."""

    def __init__(
        self,
        env,
        rng: random.Random,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        start: float = 0.0,
        until: float = float("inf"),
        target: Optional[str] = None,
    ):
        self.env = env
        self.rng = rng
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.start = start
        self.until = until
        self.target = None if target in (None, "*") else target

    def _active(self, now: float) -> bool:
        return self.start <= now < self.until

    def _matches(self, parties) -> bool:
        if self.target is None:
            return True
        for party in parties:
            if party is None:
                continue
            if party == self.target or fnmatch(party, self.target):
                return True
        return False

    def should_drop(self, now: float, *parties: Optional[str]) -> bool:
        return (
            self._active(now)
            and self._matches(parties)
            and self.rng.random() < self.drop_rate
        )

    def should_duplicate(self, now: float, *parties: Optional[str]) -> bool:
        return (
            self._active(now)
            and self._matches(parties)
            and self.rng.random() < self.dup_rate
        )


class ChaosEngine:
    """Arms a plan against a deployed :class:`JobManager`."""

    def __init__(self, jm, plan: FaultPlan):
        plan.validate()
        self.jm = jm
        self.env = jm.env
        self.plan = plan
        self.rng = random.Random(derive_seed(plan.seed, "chaos-engine"))
        #: (time, kind, target) of faults actually injected.
        self.applied: List[Tuple[float, str, str]] = []
        #: (time, kind, target, reason) of faults that could not apply.
        self.skipped: List[Tuple[float, str, str, str]] = []
        #: link -> (upstream task name, flat channel index, downstream name).
        self._links: Dict[NetworkLink, Tuple[str, int, str]] = {}
        for vertex in jm.vertices.values():
            for _edge, channels in vertex.out_links:
                for flat_idx, down_name, link in channels:
                    self._links[link] = (vertex.name, flat_idx, down_name)
        self._armed = False

    # -- arming -----------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every spec.  Raises :class:`ChaosError` up front for
        faults the job's mode cannot absorb (``link_loss`` needs upstream
        in-flight logs to repair from)."""
        if self._armed:
            raise ChaosError("chaos engine already armed")
        self._armed = True
        config = self.jm.config
        for spec in self.plan.specs:
            if spec.kind == "link_loss" and not config.policy.inflight_log:
                modes = "/".join(m.name for m, p in POLICIES.items() if p.inflight_log)
                raise ChaosError(
                    f"link_loss requires an in-flight-log mode "
                    f"({modes}), job runs {config.mode.name}"
                )
            self.env.schedule_callback(
                max(0.0, spec.at - self.env.now), lambda s=spec: self._apply(s)
            )

    # -- helpers ----------------------------------------------------------------

    def _note(self, spec: FaultSpec, target: str) -> None:
        self.applied.append((self.env.now, spec.kind, target))
        self.jm.trace.emit(self.env.now, "chaos-fault", target, fault=spec.kind)

    def _skip(self, spec: FaultSpec, reason: str) -> None:
        self.skipped.append((self.env.now, spec.kind, spec.target, reason))

    def _pick_task(self, pattern: str) -> Optional[str]:
        # Exact names first: task names contain "[0]" which fnmatch would
        # read as a character class.
        if pattern in self.jm.vertices:
            return pattern
        names = sorted(n for n in self.jm.vertices if fnmatch(n, pattern))
        if not names:
            return None
        return self.rng.choice(names)

    def _matched_links(self, pattern: str) -> List[NetworkLink]:
        exact = [link for link in self._links if link.name == pattern]
        if exact:
            return exact
        return [link for link in self._links if fnmatch(link.name, pattern)]

    def _chaos_for(self, link: NetworkLink) -> LinkChaos:
        if link.chaos is None:
            link.chaos = LinkChaos(self.env)
        if link.chaos.on_loss is None:
            link.chaos.on_loss = self._on_link_loss
        return link.chaos

    def _on_link_loss(self, link: NetworkLink) -> None:
        """First drop of a loss episode: schedule the sender-driven repair
        after the connection-level detection delay."""
        up_name, flat_idx, down_name = self._links[link]
        self.env.schedule_callback(
            self.jm.cost.connection_failure_detection,
            lambda: self.jm.repair_channel(up_name, flat_idx, down_name),
        )

    # -- application ------------------------------------------------------------

    def _apply(self, spec: FaultSpec) -> None:
        handler = getattr(self, f"_apply_{spec.kind}")
        handler(spec)

    def _apply_task_kill(self, spec: FaultSpec) -> None:
        name = self._pick_task(spec.target)
        if name is None:
            self._skip(spec, "no matching task")
            return
        task = self.jm.vertices[name].task
        if task is None or task.status not in (
            TaskStatus.RUNNING,
            TaskStatus.RECOVERING,
        ):
            self._skip(spec, f"status {task.status.value if task else 'absent'}")
            return
        self._note(spec, name)
        self.jm.kill_task(name, force=True)

    def _resolve_node(self, target: str) -> Optional[int]:
        """Node-targeting kinds accept a node id *or* a task name/glob (the
        node currently hosting it), per the :class:`FaultSpec` docstring.  A
        digit target outside the cluster resolves to None (skip) instead of
        blowing up placement bookkeeping."""
        if target.isdigit():
            node_id = int(target)
            return node_id if self.jm.cluster.has_node(node_id) else None
        name = self._pick_task(target)
        return self.jm.cluster.node_of(name) if name is not None else None

    def _apply_node_crash(self, spec: FaultSpec) -> None:
        node_id = self._resolve_node(spec.target)
        if node_id is None:
            self._skip(spec, "no such node")
            return
        self._note(spec, f"node:{node_id}")
        self.jm.kill_node(node_id, force=True, fail_node=spec.fail_node)

    def _apply_standby_loss(self, spec: FaultSpec) -> None:
        name = self._pick_task(spec.target)
        vertex = self.jm.vertices.get(name) if name is not None else None
        if vertex is None or vertex.standby is None or vertex.standby.failed:
            self._skip(spec, "no live standby")
            return
        self._note(spec, name)
        vertex.standby.fail()

    def _apply_link_partition(self, spec: FaultSpec) -> None:
        links = self._matched_links(spec.target)
        if not links:
            self._skip(spec, "no matching link")
            return
        for link in links:
            chaos = self._chaos_for(link)
            chaos.partitioned = True
            self._note(spec, link.name)
            self.env.schedule_callback(spec.duration, chaos.heal)

    def _apply_link_delay(self, spec: FaultSpec) -> None:
        links = self._matched_links(spec.target)
        if not links:
            self._skip(spec, "no matching link")
            return
        for link in links:
            chaos = self._chaos_for(link)
            chaos.delay_factor = spec.factor
            self._note(spec, link.name)

            def restore(c=chaos) -> None:
                c.delay_factor = 1.0

            self.env.schedule_callback(spec.duration, restore)

    def _apply_link_loss(self, spec: FaultSpec) -> None:
        links = self._matched_links(spec.target)
        if not links:
            self._skip(spec, "no matching link")
            return
        link = self.rng.choice(sorted(links, key=lambda l: l.name))
        chaos = self._chaos_for(link)
        chaos.drop_next += spec.count
        self._note(spec, link.name)

    def _apply_recovery_freeze(self, spec: FaultSpec) -> None:
        """Kill the victim *and* partition every one of its input links, so
        the replacement's in-flight replay can never receive a buffer: the
        injected recovery-stall scenario the liveness watchdog exists for.
        ``duration`` bounds the partition (0 = frozen forever — the job can
        then only end via the watchdog's announced stall verdict)."""
        name = self._pick_task(spec.target)
        if name is None:
            self._skip(spec, "no matching task")
            return
        vertex = self.jm.vertices[name]
        task = vertex.task
        if task is None or task.status not in (
            TaskStatus.RUNNING,
            TaskStatus.RECOVERING,
        ):
            self._skip(spec, f"status {task.status.value if task else 'absent'}")
            return
        if not vertex.in_links:
            self._skip(spec, "victim has no input links to freeze")
            return
        for _in_flat, _inp, _up, link, _up_flat in vertex.in_links:
            chaos = self._chaos_for(link)
            chaos.partitioned = True
            if spec.duration:
                self.env.schedule_callback(spec.duration, chaos.heal)
        self._note(spec, name)
        self.jm.kill_task(name, force=True)

    def _apply_rpc_chaos(self, spec: FaultSpec) -> None:
        rng = random.Random(
            derive_seed(self.plan.seed, f"rpc-chaos@{spec.at:g}")
        )
        self.jm.control_chaos = ControlPlaneChaos(
            self.env,
            rng,
            drop_rate=spec.rate,
            dup_rate=spec.dup_rate,
            start=self.env.now,
            until=self.env.now + spec.duration
            if spec.duration
            else float("inf"),
            target=spec.target,
        )
        self._note(spec, f"drop={spec.rate:g},dup={spec.dup_rate:g}")

    def _apply_dfs_outage(self, spec: FaultSpec) -> None:
        self.jm.dfs.set_outage(self.env.now + spec.duration)
        self._note(spec, f"{spec.duration:g}s")

    def _apply_dfs_brownout(self, spec: FaultSpec) -> None:
        self.jm.dfs.set_brownout(self.env.now + spec.duration, spec.factor)
        self._note(spec, f"{spec.duration:g}s x{spec.factor:g}")

    def _apply_external_faults(self, spec: FaultSpec) -> None:
        external = self.jm.external
        if external is None:
            self._skip(spec, "no external service")
            return
        rng = random.Random(
            derive_seed(self.plan.seed, f"external-faults@{spec.at:g}")
        )
        external.set_faults(
            self.env.now + spec.duration,
            error_rate=spec.rate,
            timeout_factor=spec.factor,
            rng=rng,
        )
        self._note(spec, external.name)

    # -- production-incident primitives ------------------------------------------

    def _apply_compute_slowdown(self, spec: FaultSpec) -> None:
        """Straggler node: every record processed on the node costs
        ``factor`` times more CPU for ``duration`` seconds (0 = until the
        run ends).  Replacement incarnations landing on the node inherit
        the slowdown via ``JobManager._build_task``."""
        node_id = self._resolve_node(spec.target)
        if node_id is None:
            self._skip(spec, "no such node")
            return
        jm = self.jm
        jm.node_slowdowns[node_id] = spec.factor
        self._set_node_slowdown(node_id, spec.factor)
        self._note(spec, f"node:{node_id} x{spec.factor:g}")
        if spec.duration:

            def restore(node_id=node_id) -> None:
                jm.node_slowdowns.pop(node_id, None)
                self._set_node_slowdown(node_id, 1.0)

            self.env.schedule_callback(spec.duration, restore)

    def _set_node_slowdown(self, node_id: int, factor: float) -> None:
        for occupant in sorted(self.jm.cluster.occupants_of_node(node_id)):
            if occupant.startswith("standby:"):
                continue
            vertex = self.jm.vertices.get(occupant)
            if vertex is not None and vertex.task is not None:
                vertex.task.compute_slowdown = factor

    def _apply_poison_pill(self, spec: FaultSpec) -> None:
        """Arm the next ``count`` distinct records at the victim as
        permanent pills (see :mod:`repro.chaos.poison`).  Sources poll
        rather than process records, so only non-source tasks qualify."""
        if spec.target in self.jm.vertices:
            name = spec.target
        else:
            names = sorted(
                n
                for n, v in self.jm.vertices.items()
                if not v.is_source and fnmatch(n, spec.target)
            )
            name = self.rng.choice(names) if names else None
        if name is None:
            self._skip(spec, "no matching task")
            return
        if self.jm.vertices[name].is_source:
            self._skip(spec, "cannot poison a source task")
            return
        self.jm.poison.arm(name, spec.count)
        vertex = self.jm.vertices[name]
        if vertex.task is not None:
            vertex.task._poison_active = True
        self._note(spec, f"{name} x{spec.count}")

    def _apply_zone_outage(self, spec: FaultSpec) -> None:
        """Fail every live node in one availability zone at once; with a
        ``duration``, the zone's nodes come back (empty) afterwards."""
        cluster = self.jm.cluster
        if spec.target == "*":
            zones = cluster.live_zones()
            if not zones:
                self._skip(spec, "no live zones")
                return
            zone = self.rng.choice(zones)
        else:
            zone = int(spec.target)
        victims = [n for n in cluster.nodes_in_zone(zone) if n.alive]
        if not victims:
            self._skip(spec, f"zone {zone} has no live nodes")
            return
        self._note(spec, f"zone:{zone}")
        for node in sorted(victims, key=lambda n: n.node_id):
            self.jm.kill_node(node.node_id, force=True, fail_node=True)
        if spec.duration:
            self.env.schedule_callback(
                spec.duration, lambda z=zone: cluster.revive_zone(z)
            )

    def _broker_logs(self) -> List:
        """Every distinct durable log (message broker) the job's sources and
        sinks talk to, in deterministic order."""
        from repro.external.kafka import DurableLog

        logs: List = []
        for name in sorted(self.jm.vertices):
            task = self.jm.vertices[name].task
            operator = task.operator if task is not None else None
            log = getattr(operator, "log", None)
            if isinstance(log, DurableLog) and not any(log is l for l in logs):
                logs.append(log)
        return logs

    def _apply_broker_outage(self, spec: FaultSpec) -> None:
        logs = self._broker_logs()
        if not logs:
            self._skip(spec, "no broker in the job")
            return
        until = self.env.now + spec.duration
        for log in logs:
            log.set_outage(until)
        self._note(spec, f"{spec.duration:g}s")

    def _apply_broker_brownout(self, spec: FaultSpec) -> None:
        logs = self._broker_logs()
        if not logs:
            self._skip(spec, "no broker in the job")
            return
        until = self.env.now + spec.duration
        seed = derive_seed(self.plan.seed, f"broker@{spec.at:g}")
        for log in logs:
            log.set_brownout(until, spec.rate, seed=seed)
        self._note(spec, f"{spec.duration:g}s p={spec.rate:g}")

    # -- artifact corruption -----------------------------------------------------

    #: Corruption needs a live artifact to damage; if none exists yet (first
    #: checkpoint still uploading, log empty) the fault defers and retries.
    _CORRUPTION_RETRY_DELAY = 0.06
    _CORRUPTION_RETRIES = 25

    def _candidates(self, pattern: str) -> List[str]:
        if pattern in self.jm.vertices:
            return [pattern]
        return sorted(n for n in self.jm.vertices if fnmatch(n, pattern))

    def _try_corrupt(self, spec: FaultSpec, attempt, miss: str, attempts=None) -> None:
        """Run ``attempt()`` (returns a detail string or None); defer and
        retry while it misses, then record a skip."""
        attempts = self._CORRUPTION_RETRIES if attempts is None else attempts
        detail = attempt()
        if detail is not None:
            self._note(spec, detail)
            return
        if attempts <= 0:
            self._skip(spec, miss)
            return
        self.env.schedule_callback(
            self._CORRUPTION_RETRY_DELAY,
            lambda: self._try_corrupt(spec, attempt, miss, attempts - 1),
        )

    def _apply_blob_corruption(self, spec: FaultSpec) -> None:
        self._corrupt_checkpoint(spec, torn=False)

    def _apply_torn_write(self, spec: FaultSpec) -> None:
        self._corrupt_checkpoint(spec, torn=True)

    def _corrupt_checkpoint(self, spec: FaultSpec, torn: bool) -> None:
        rng = random.Random(derive_seed(self.plan.seed, f"{spec.kind}@{spec.at:g}"))

        def attempt():
            names = self._candidates(spec.target)
            rng.shuffle(names)
            for name in names:
                cid = corrupt_checkpoint(self.jm, name, torn=torn)
                if cid is not None:
                    return f"{name}@{cid}"
            return None

        self._try_corrupt(spec, attempt, "no stored checkpoint")

    def _apply_buffer_bitflip(self, spec: FaultSpec) -> None:
        rng = random.Random(derive_seed(self.plan.seed, f"bitflip@{spec.at:g}"))

        def attempt():
            names = self._candidates(spec.target)
            rng.shuffle(names)
            for name in names:
                detail = corrupt_inflight_entry(self.jm, name, rng)
                if detail is not None:
                    return f"{name}:{detail}"
            return None

        self._try_corrupt(spec, attempt, "no logged in-flight buffers")

    def _apply_determinant_truncation(self, spec: FaultSpec) -> None:
        rng = random.Random(derive_seed(self.plan.seed, f"det-trunc@{spec.at:g}"))

        def attempt():
            names = self._candidates(spec.target)
            rng.shuffle(names)
            # The targeted victim may have no downstream holders at all (a
            # sink's determinants are never replicated): widen to any task
            # rather than deferring forever.
            names += [n for n in sorted(self.jm.vertices) if n not in names]
            for name in names:
                detail = truncate_determinant_log(self.jm, name, rng)
                if detail is not None:
                    return f"{name}:{detail}"
            return None

        self._try_corrupt(spec, attempt, "no held determinant replicas")

    # -- accounting --------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "applied": len(self.applied),
            "skipped": len(self.skipped),
            "kinds": sorted({k for (_t, k, _x) in self.applied}),
            "control_plane_drops": sum(self.jm.control_plane_drops.values()),
            "link_buffers_dropped": sum(
                link.chaos.dropped for link in self._links if link.chaos is not None
            ),
        }
