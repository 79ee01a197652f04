"""The integrity-soak property: **corruption is never silent**.

Every seeded corruption run (silent blob corruption, torn writes, in-flight
bit-flips, truncated determinant replicas, each paired with kills that force
recovery to read the damage) must end ``transparent`` or as an
``announced-degradation`` — never silent loss, duplication, or a hang (a
deadline expiry grades ``violation:recovery-stalled``, which Hypothesis
reports with the offending seed).  The control arm (``validate=False``) proves the layer
is load-bearing: the same plan then produces a silent violation.

The per-run Hypothesis example budget is widened on the nightly soak job via
``REPRO_SOAK_EXAMPLES`` (PR CI keeps the fast default) so newly-sampled
seeds keep stress-testing the recovery path without slowing PR CI.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.experiment import Observation
from repro.chaos.plan import CORRUPTION_KINDS, random_plan
from repro.integrity.soak import run_integrity_experiment
from repro.runtime.task import TaskStatus

LIMIT = 120.0

#: Hypothesis example budget: 8 on PR CI, widened on the nightly soak job.
SOAK_EXAMPLES = int(os.environ.get("REPRO_SOAK_EXAMPLES", "8"))

#: A seed whose plan corrupts a stored source checkpoint that recovery then
#: restores: with validation off the run silently loses records (the control
#: violation); with validation on the ladder falls back to an older epoch.
CONTROL_SEED = 5


@pytest.fixture
def kept_cluster(monkeypatch):
    """Keep each run's simulated cluster for inspection (a gate run
    releases it once the verdict and the closing audit have read it)."""
    monkeypatch.setattr(Observation, "release", lambda self: None)


def describe(result):
    return (
        f"seed {result.label}: outcome={result.outcome} ({result.detail}) "
        f"missing={result.missing} duplicated={result.duplicated} "
        f"injected={result.corruptions_injected} detected={result.detected} "
        f"summary={result.integrity_summary}"
    )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=SOAK_EXAMPLES, deadline=None)
def test_corruption_is_detected_or_announced_never_silent(seed):
    result = run_integrity_experiment(seed, limit=LIMIT)
    assert result.ok, describe(result)
    assert result.obs.duration < LIMIT
    if result.outcome != "transparent":
        # Degradation is only acceptable when announced.
        assert result.obs.degradations, describe(result)


# Formerly-bad seeds found by overnight soaks (the closed ROADMAP §0 item),
# kept as permanent named regression tests — one per failure mode — so the
# exact workload timings that exposed each bug are re-checked on every run
# instead of waiting for Hypothesis to resample them.


def test_seed_1655_regression_silent_loss_mode(kept_cluster):
    """Loss mode: a single ``task_kill src[0]`` under this seed's timing
    used to silently drop a 41-record tail.

    Root cause: the checkpoint images each writer's ``seq`` *before* the
    epoch-closing barrier goes out; when the barrier opened a fresh buffer,
    regenerated buffers came out numbered one low and — after the replayed
    cuts were deduplicated — the first buffer of fresh records collided with
    ``suppress_until_seq`` and was suppressed.  The fix re-anchors the
    writer's numbering on the output-queue log at replay preparation.
    """
    result = run_integrity_experiment(1655, limit=LIMIT)
    assert result.outcome == "transparent", describe(result)
    assert result.missing == 0, describe(result)
    assert result.duplicated == 0, describe(result)
    jm = result.obs.jm
    for vertex in jm.vertices.values():
        task = vertex.task
        assert task is not None and task.status is TaskStatus.FINISHED
        # Source resume offset: the recovered source drained its entire
        # partition — nothing was skipped on restore.
        operator = task.operator
        if vertex.is_source and hasattr(operator, "offset"):
            assert operator.offset == 1200, (vertex.name, operator.offset)
        # Sink dedup window: no writer may end with fresh output numbered
        # inside its sender-side dedup window — that is exactly the
        # collision that silently dropped the tail.
        for channel in task.all_output_channels:
            assert channel.seq > channel.suppress_until_seq, (
                vertex.name,
                channel.index,
                channel.seq,
                channel.suppress_until_seq,
            )


def test_seed_64853_regression_recovery_hang_mode(kept_cluster):
    """Hang mode: recovery never converged and the run died on the 120 s
    ``run_until_done`` deadline.

    Root cause: a recovery attempt that failed *after* the network
    reconfiguration handshake abandoned its half-built replacement without
    closing its gate; a link pump blocked forever on the orphaned credit
    queue, so no later incarnation (not even the global restart's) ever
    received another buffer on that link.  The fix dismantles abandoned
    incarnations so their gates cancel every blocked waiter.
    """
    result = run_integrity_experiment(64853, limit=LIMIT)
    assert result.ok, describe(result)
    assert result.obs.duration < LIMIT, describe(result)
    assert result.missing == 0, describe(result)
    kinds = [k for (_t, k, _w) in result.obs.recovery_events]
    # The wedge is real in this plan (a truncated determinant replica fails
    # the fetch step after the rebuild) and must be announced + torn down.
    assert "recovery-incarnation-abandoned" in kinds, kinds
    assert result.obs.degradations, describe(result)
    # Convergence: every vertex's live incarnation drained to completion —
    # nobody is left waiting on a wedged link pump.
    jm = result.obs.jm
    for vertex in jm.vertices.values():
        task = vertex.task
        assert task is not None and task.status is TaskStatus.FINISHED, (
            vertex.name,
            None if task is None else task.status,
        )


def test_seed_16079_regression_in_transit_corruption_mode():
    """Wire-corruption mode: a bitflip landing on an already-dispatched log
    entry used to duplicate a record the receiver had yet to consume.

    Root cause: the in-flight log shares buffer objects with the network
    layer (the §6.1 no-copy exchange), and ``corrupt_inflight_entry``
    mutated the shared element list in place — so a flip injected *after*
    the replay's checksum-then-send leaked into the delivery anyway, which
    no real on-disk flip can do to bytes already on the wire.  The fix makes
    the bitflip copy-on-corrupt: the log entry gets a tampered clone and the
    in-transit original stays intact.
    """
    result = run_integrity_experiment(16079, limit=LIMIT)
    assert result.outcome == "transparent", describe(result)
    assert result.missing == 0, describe(result)
    assert result.duplicated == 0, describe(result)
    # The at-rest damage itself is still real and still detected: the
    # closing audit flags the tampered stored entry.
    assert any(
        kind == "inflight-segment" for (kind, _n, _d) in result.audit.violations
    ), result.audit.violations


def test_bitflip_never_touches_the_buffer_in_motion():
    """The copy-on-corrupt contract, unit-level: after the flip, the log
    stores a tampered clone (audit-detectable) while the originally
    dispatched buffer object — what a receiver would consume — is intact."""
    import random

    from repro.integrity.corruption import corrupt_inflight_entry
    from tests.chaos.helpers import deploy_chaos_chain

    env, log, jm = deploy_chaos_chain()
    victim = "stage1[0]"
    originals = {}

    def snapshot():
        task = jm.vertices[victim].task
        for entries in task.inflight._entries.values():
            for entry in entries:
                key = (entry.buffer.channel_id, entry.buffer.seq)
                originals[key] = (entry.buffer, list(entry.buffer.elements))

    detail = {}

    def flip():
        snapshot()
        detail["flipped"] = corrupt_inflight_entry(jm, victim, random.Random(1))

    env.schedule_callback(0.4, flip)
    jm.run_until_done(limit=600)
    assert detail["flipped"] is not None
    ch, seq, _kind = detail["flipped"].split(":")
    key = (int(ch[2:]), int(seq[3:]))
    buffer, elements = originals[key]
    assert buffer.elements == elements, "in-motion buffer was mutated"


def test_validation_disabled_is_demonstrably_silent():
    # The control arm: identical plan, checksums exist but nothing checks
    # them — the corrupted restore flows through and records are lost with
    # no announced degradation.  This is the wrong output the soak verdict
    # exists to catch.
    control = run_integrity_experiment(CONTROL_SEED, validate=False, limit=LIMIT)
    assert control.outcome == "violation:data-loss", describe(control)
    assert control.missing > 0

    validated = run_integrity_experiment(CONTROL_SEED, validate=True, limit=LIMIT)
    assert validated.ok, describe(validated)
    assert validated.detected > 0, describe(validated)


def test_epoch_fallback_rewinds_the_timeline():
    # End-to-end multi-epoch fallback on the control seed: the newest epoch
    # fails validation, the ladder commits the job to the newest *older*
    # epoch that passes, and the abandoned timeline is discarded so later
    # local recoveries cannot resurrect it.
    result = run_integrity_experiment(CONTROL_SEED, limit=LIMIT)
    kinds = [kind for (_t, kind, _w) in result.obs.recovery_events]
    assert any(k.startswith("integrity:epoch-invalid") for k in kinds), kinds
    assert any(k.startswith("integrity:epoch-fallback") for k in kinds), kinds
    assert any(k.startswith("integrity:timeline-rewind") for k in kinds), kinds
    assert result.outcome == "announced-degradation", describe(result)
    assert result.missing == 0, "degraded still means at-least-once"


class TestCorruptionPlans:
    TASKS = ["source[0]", "stage1[0]", "sink[0]"]

    def test_corruption_kinds_stay_out_of_the_default_palette(self):
        # Existing chaos seeds must keep producing the exact same plans.
        for seed in range(10):
            plan = random_plan(seed, 1.0, task_names=self.TASKS, max_faults=5)
            assert not set(plan.kinds()) & CORRUPTION_KINDS

    def test_corruption_plans_pair_damage_with_kills(self):
        plan = random_plan(
            3, 1.0, task_names=self.TASKS, max_faults=3,
            kinds=sorted(CORRUPTION_KINDS),
        )
        kinds = [spec.kind for spec in plan.specs]
        assert set(kinds) & CORRUPTION_KINDS, kinds
        # Every corruption plan forces a recovery to read the damage.
        assert "task_kill" in kinds, kinds

    def test_corruption_injection_is_biased_late(self):
        # Artifacts must exist before they can be damaged: corruption never
        # lands in the first 30% of the horizon.
        for seed in range(20):
            plan = random_plan(
                seed, 1.0, task_names=self.TASKS, max_faults=2,
                kinds=sorted(CORRUPTION_KINDS),
            )
            for spec in plan.specs:
                if spec.kind in CORRUPTION_KINDS:
                    assert spec.at >= 0.3, (seed, spec)
