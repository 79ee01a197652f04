"""The ``repro audit`` sweep: exits clean on an uncorrupted run and flags
100% of seeded injections across every artifact family."""

import random

import pytest

from repro.core.causal_log import CausalLogManager
from repro.integrity.audit import audit_job, audit_matches, audit_run
from repro.integrity.corruption import (
    corrupt_checkpoint,
    corrupt_standby_image,
    random_corruptions,
    tampered_copy,
    truncate_determinant_log,
)
from repro.sim.rng import derive_seed


def fresh_job(events=800):
    return audit_run(seed=0, n_records=events)


def test_uncorrupted_run_audits_clean():
    report = audit_job(fresh_job())
    assert report.ok, report.render()
    assert report.total_checked > 0
    assert report.checked["checkpoint"] > 0
    assert report.checked["determinant-log"] > 0


def test_every_seeded_injection_is_flagged():
    jm = fresh_job()
    rng = random.Random(derive_seed(0, "audit-inject"))
    injected = random_corruptions(jm, 5, rng)
    assert injected, "the run must hold corruptible artifacts"
    report = audit_job(jm)
    assert not report.ok
    missed = [
        (kind, detail)
        for kind, detail in injected
        if not audit_matches(kind, detail, report.violations)
    ]
    assert not missed, f"audit missed {missed}; flagged {report.violations}"


def test_injections_hit_distinct_artifacts():
    jm = fresh_job()
    injected = random_corruptions(jm, 6, random.Random(42))
    # blob_corruption and torn_write share the checkpoint namespace; a
    # standby image may legitimately carry the same task@cid detail as a
    # checkpoint injection — distinctness is per (family, artifact).
    family = {"blob_corruption": "checkpoint", "torn_write": "checkpoint"}
    pairs = [(family.get(kind, kind), detail) for (kind, detail) in injected]
    assert len(pairs) == len(set(pairs))
    # Distinctness at audit granularity: at least one violation per injection.
    assert len(audit_job(jm).violations) >= len(injected)


def test_report_render_names_the_damage():
    jm = fresh_job()
    corrupt_checkpoint(jm, sorted(jm.vertices)[0])
    report = audit_job(jm)
    text = report.render()
    assert "violation" in text
    assert any(kind == "checkpoint" for (kind, _n, _d) in report.violations)


def test_corruption_is_copy_on_corrupt():
    # The store and a standby share the snapshot object a completed
    # checkpoint dispatched: corrupting the stored blob must not damage the
    # standby's image (and vice versa), like a real single-replica fault.
    jm = fresh_job()
    victim = None
    for name in sorted(jm.vertices):
        vertex = jm.vertices[name]
        standby = getattr(vertex, "standby", None)
        if standby is not None and standby.snapshot is not None:
            cid = standby.snapshot.checkpoint_id
            if jm.snapshot_store.get(name, cid) is standby.snapshot:
                victim = (name, cid, standby)
                break
    assert victim is not None, "no vertex shares store/standby snapshots"
    name, cid, standby = victim
    assert corrupt_checkpoint(jm, name, checkpoint_id=cid) == cid
    assert not jm.snapshot_store.get(name, cid).intact
    assert standby.snapshot.intact, "standby replica must stay undamaged"

    assert corrupt_standby_image(jm, name) is not None
    assert not standby.snapshot.intact


def test_tampered_copy_changes_payload_not_seal():
    jm = fresh_job()
    name = sorted(jm.vertices)[0]
    cid = jm.snapshot_store.latest_id(name)
    original = jm.snapshot_store.get(name, cid)
    clone = tampered_copy(original)
    assert original.intact
    assert not clone.intact
    assert clone.crc == original.crc  # the seal survives; the payload drifted


@pytest.mark.parametrize(
    "events, damage",
    [(800, "entry-corrupt"), (850, "-")],  # open epoch only / a sealed epoch too
)
def test_determinant_corruption_never_rewrites_a_delta_on_the_wire(events, damage):
    # Delta slices reference the holder's entry lists, they do not copy them.
    # Damaging a holder's replica must therefore swap in a damaged copy: a
    # delta the holder already cut still delivers the undamaged log.
    jm = fresh_job(events)
    victim = "stage1[0]"
    on_the_wire = {}
    for name, vertex in jm.vertices.items():
        causal = vertex.task.causal
        if causal.stored_bundle_for(victim) is not None and vertex.task.all_output_channels:
            causal.reset_channel_cursors(0)  # next delta re-carries the full store
            on_the_wire[name] = causal.delta_for_dispatch(0)[0]

    def replica_after(slices, sender):
        receiver = CausalLogManager("receiver", 0, None)
        receiver.merge_delta(slices, sender)
        bundle = receiver.stored_bundle_for(victim)
        bundle.verify()
        return {
            (name, epoch): list(log.entries(epoch))
            for name, log in bundle.logs.items()
            for epoch in log.epochs()
        }

    before = {name: replica_after(s, name) for name, s in on_the_wire.items()}
    assert before and all(before.values())

    detail = truncate_determinant_log(jm, victim, random.Random(1))
    assert detail is not None and detail.rsplit(":", 1)[1].startswith(damage), detail
    holder = detail.split(":", 1)[0]
    assert holder in on_the_wire, "damage must hit a holder with a delta in flight"

    for name, slices in on_the_wire.items():
        assert replica_after(slices, name) == before[name], name
    report = audit_job(jm)
    assert audit_matches("determinant_truncation", detail, report.violations), (
        detail, report.violations,
    )
