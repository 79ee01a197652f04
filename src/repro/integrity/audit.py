"""Artifact-integrity audit: sweep every stored artifact of a job and verify
its fingerprint, regardless of whether the job would have read it yet.

This is the offline complement to the read-path validation wired through
``SnapshotStore`` / ``InFlightLog`` / ``StandbyState`` / the recovery
coordinators: restores only validate what they touch; the audit touches
everything, which is what the ``repro audit`` CLI verb and CI's
``fault-gates`` job want.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chaos.experiment import OUT_TOPIC, SoakJob, fast_chaos_config
from repro.errors import IntegrityError
from repro.harness.experiment import deploy_experiment
from repro.integrity.monitor import ARTIFACT_KINDS

__all__ = ["AuditReport", "audit_job", "audit_matches", "audit_run"]


@dataclass
class AuditReport:
    """Outcome of one sweep: per-kind counts plus the violation list."""

    checked: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in ARTIFACT_KINDS}
    )
    violations: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    def _check(self, kind: str) -> None:
        self.checked[kind] = self.checked.get(kind, 0) + 1

    def _violation(self, kind: str, name: str, detail: str) -> None:
        self.violations.append((kind, name, detail))

    def render(self) -> str:
        lines = [f"audit: {self.total_checked} artifacts checked"]
        for kind in sorted(self.checked):
            lines.append(f"  {kind:18s} {self.checked[kind]:5d} checked")
        if self.ok:
            lines.append("audit: OK (no integrity violations)")
        else:
            lines.append(f"audit: {len(self.violations)} VIOLATION(S)")
            for kind, name, detail in self.violations:
                lines.append(f"  [{kind}] {name}: {detail}")
        return "\n".join(lines)


def audit_job(jm) -> AuditReport:
    """Verify every artifact the job currently retains.

    Covers: checkpoint snapshots + their DFS blobs, spilled in-flight log
    segments, determinant logs (each task's own bundle and every replica it
    stores for its upstreams), and standby state images.
    """
    report = AuditReport()
    _audit_checkpoints(jm, report)
    _audit_inflight(jm, report)
    _audit_determinants(jm, report)
    _audit_standbys(jm, report)
    return report


def _audit_checkpoints(jm, report: AuditReport) -> None:
    store = jm.snapshot_store
    for (task_name, cid), snapshot in sorted(store._snapshots.items()):
        name = f"{task_name}@{cid}"
        report._check("checkpoint")
        try:
            snapshot.verify()
        except IntegrityError as exc:
            report._violation("checkpoint", name, exc.detail or str(exc))
        path = store.blob_path(task_name, cid)
        record = jm.dfs.blob_record(path)
        if record is None:
            continue  # upload still in flight; nothing durable to audit yet
        report._check("blob")
        try:
            jm.dfs.verify_blob(path)
        except IntegrityError as exc:
            report._violation("blob", path, exc.detail or str(exc))


def _audit_inflight(jm, report: AuditReport) -> None:
    for vertex in jm.vertices.values():
        task = vertex.task
        log = getattr(task, "inflight", None)
        if log is None:
            continue
        for epoch in sorted(log._entries):
            for entry in log._entries[epoch]:
                report._check("inflight-segment")
                try:
                    entry.verify(log.name)
                except IntegrityError as exc:
                    report._violation(
                        "inflight-segment", exc.name, exc.detail or str(exc)
                    )


def _audit_determinants(jm, report: AuditReport) -> None:
    for vertex in jm.vertices.values():
        task = vertex.task
        causal = getattr(task, "causal", None)
        if causal is None:
            continue
        bundles = [(f"{vertex.name}:own", causal.bundle)]
        for origin, (_distance, bundle) in sorted(causal.store.items()):
            bundles.append((f"{vertex.name}:stored[{origin}]", bundle))
        for owner, bundle in bundles:
            report._check("determinant-log")
            try:
                bundle.verify(owner)
            except IntegrityError as exc:
                report._violation(
                    "determinant-log", exc.name, exc.detail or str(exc)
                )


def _audit_standbys(jm, report: AuditReport) -> None:
    for vertex in jm.vertices.values():
        standby = getattr(vertex, "standby", None)
        snapshot = getattr(standby, "snapshot", None)
        if snapshot is None:
            continue
        report._check("standby-image")
        try:
            snapshot.verify(artifact="standby-image")
        except IntegrityError as exc:
            report._violation(
                "standby-image",
                f"{vertex.name}@{snapshot.checkpoint_id}",
                exc.detail or str(exc),
            )


def audit_run(seed: int = 0, n_records: int = 1200):
    """Deploy the soak chain and run it to mid-flight, so every artifact
    class is populated: retained checkpoints, standby images, logged
    in-flight buffers, determinant replicas.  Returns the job manager."""
    job = SoakJob(n_records=n_records, rate=1000.0)
    config = fast_chaos_config(seed=seed, checkpoint_interval=0.25)
    result = deploy_experiment(job.build, config, out_topic=OUT_TOPIC)
    return result.run(duration=n_records / job.rate * 0.6).jm


def audit_matches(kind: str, detail: str, violations) -> bool:
    """Did the sweep flag the artifact this injection
    (:func:`~repro.integrity.corruption.random_corruptions`) damaged?"""
    names = [name for (_kind, name, _detail) in violations]
    if kind in ("blob_corruption", "torn_write"):
        task, cid = detail.rsplit("@", 1)
        return any(detail in n or f"chk/{task}/{cid}" in n for n in names)
    if kind == "standby_image":
        return any(
            vkind == "standby-image" and name == detail
            for (vkind, name, _d) in violations
        )
    if kind == "buffer_bitflip":
        artifact = detail.rsplit(":", 1)[0]  # strip the mutation suffix
        return any(artifact in n for n in names)
    # determinant_truncation: "holder:log@epochN:-k" vs
    # "holder:stored[victim]:log@epochN"
    holder, rest = detail.split(":", 1)
    log_at_epoch = rest.rsplit(":", 1)[0]
    return any(n.startswith(holder) and log_at_epoch in n for n in names)
