"""At-least-once control RPCs: ack/resend under loss, idempotent receivers,
and the acceptance scenario — recovery over a lossy control plane completes
with visible retries, while the same scenario without reliable RPCs wedges.
"""

import random

import pytest

from repro.chaos.engine import ControlPlaneChaos
from repro.config import CostModel
from repro.errors import JobError
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraphBuilder
from repro.operators import KafkaSink, KafkaSource
from repro.runtime.jobmanager import JobManager
from repro.runtime.rpc import ControlQueue
from repro.sim.core import Environment

from tests.chaos.helpers import assert_exactly_once, deploy_chaos_chain
from tests.runtime.helpers import make_config


class _JmStub:
    def __init__(self, control_chaos=None):
        self.control_chaos = control_chaos
        self.drops = []

    def note_control_drop(self, owner, kind, reason):
        self.drops.append((owner, kind, reason))


def drain(queue):
    messages = []
    while True:
        message = queue.poll()
        if message is None:
            return messages
        messages.append(message)


class TestReliableRpcUnit:
    def test_unreliable_send_is_lost_under_total_drop(self):
        env = Environment()
        chaos = ControlPlaneChaos(env, random.Random(1), drop_rate=1.0)
        jm = _JmStub(chaos)
        queue = ControlQueue(env, CostModel(), "victim", jm=jm)
        queue.send("probe", sender="test")
        env.run(until=5.0)
        assert drain(queue) == []
        assert queue.drops_lost == 1
        assert jm.drops == [("victim", "probe", "lost")]

    def test_reliable_send_survives_a_loss_window(self):
        env = Environment()
        # Total loss for the first 0.2s, clean afterwards.
        chaos = ControlPlaneChaos(env, random.Random(1), drop_rate=1.0,
                                  until=0.2)
        jm = _JmStub(chaos)
        queue = ControlQueue(env, CostModel(), "victim", jm=jm)
        retries = []
        queue.send("probe", payload={"n": 1}, sender="test", reliable=True,
                   on_retry=retries.append)
        env.run(until=10.0)
        delivered = drain(queue)
        assert [m.kind for m in delivered] == ["probe"]
        assert retries, "loss window must force at least one resend"
        assert queue.drops_lost >= 1
        assert queue.delivered == 1

    def test_receiver_dedups_resent_duplicates(self):
        env = Environment()
        # Acks are also control traffic: dropping them forces resends of a
        # message the receiver already holds — dedup must suppress those.
        chaos = ControlPlaneChaos(env, random.Random(3), drop_rate=0.7,
                                  until=0.3)
        jm = _JmStub(chaos)
        queue = ControlQueue(env, CostModel(), "victim", jm=jm)
        for n in range(6):
            queue.send("probe", payload={"n": n}, sender="test", reliable=True)
        env.run(until=10.0)
        delivered = drain(queue)
        assert sorted(m.payload["n"] for m in delivered) == list(range(6))
        assert queue.duplicates_suppressed >= 1

    def test_chaos_duplication_of_reliable_messages_is_idempotent(self):
        env = Environment()
        chaos = ControlPlaneChaos(env, random.Random(5), dup_rate=1.0,
                                  until=1.0)
        jm = _JmStub(chaos)
        queue = ControlQueue(env, CostModel(), "victim", jm=jm)
        queue.send("probe", payload={"n": 0}, sender="test", reliable=True)
        env.run(until=10.0)
        assert [m.payload["n"] for m in drain(queue)] == [0]
        assert queue.duplicates_suppressed >= 1

    def test_give_up_after_retry_budget(self):
        env = Environment()
        chaos = ControlPlaneChaos(env, random.Random(7), drop_rate=1.0)
        jm = _JmStub(chaos)
        queue = ControlQueue(env, CostModel(), "victim", jm=jm)
        gave_up = []
        queue.send("probe", sender="test", reliable=True,
                   on_give_up=gave_up.append)
        env.run(until=60.0)
        assert gave_up and gave_up[0] >= 1
        assert drain(queue) == []


class TestLossyRecoveryScenario:
    """The acceptance pair: identical lossy-recovery scenarios, with and
    without reliable control RPCs."""

    KILL_AT = 0.25
    # Total control-plane loss from just before the kill until after the
    # replay requests go out.  No checkpoint has completed at the kill
    # instant, so the standby is not usable and recovery takes the slow
    # deploy path: detection (0.02) + deploy (0.2) puts the replay requests
    # around t=0.48, well inside the window.
    LOSS_FROM = 0.24
    LOSS_UNTIL = 0.70

    def _run(self, reliable):
        env, log, jm = deploy_chaos_chain()
        jm.config.reliable_control_plane = reliable
        jm.control_chaos = ControlPlaneChaos(
            env, random.Random(11), drop_rate=1.0,
            start=self.LOSS_FROM, until=self.LOSS_UNTIL,
        )
        env.schedule_callback(
            self.KILL_AT, lambda: jm.kill_task("stage1[0]", force=True)
        )
        jm.run_until_done(limit=30.0)
        return log, jm

    def test_reliable_control_plane_completes_with_visible_retries(self):
        log, jm = self._run(reliable=True)
        retries = [
            (t, kind, who)
            for (t, kind, who) in jm.recovery_events
            if kind.startswith("rpc-retry:replay_request")
        ]
        assert retries, "resends during the loss window must be recorded"
        assert sum(jm.control_plane_drops.values()) > 0
        assert_exactly_once(log, 2, 1200)

    def test_unacked_link_repair_request_is_announced(self):
        # A link repair's replay request rides the same reliable RPC as a
        # recovery's: when every resend is lost, the give-up is recorded
        # instead of the repaired channel staying parked in silence.
        env = Environment()
        log = DurableLog()
        log.create_generated_topic("in", 1, lambda p, off: off, 2000.0, 3000)
        log.create_topic("out", 1)
        builder = JobGraphBuilder("link-repair")
        builder.source("src", lambda: KafkaSource(log, "in")).sink(
            "sink", lambda: KafkaSink(log, "out")
        )
        jm = JobManager(env, builder.build(), make_config())
        jm.deploy()
        jm.control_chaos = ControlPlaneChaos(
            env, random.Random(0), drop_rate=1.0, target="chaos-repair"
        )
        env.schedule_callback(0.2, lambda: jm.repair_channel("src[0]", 0, "sink[0]"))
        env.run(until=10.0)
        kinds = [kind for _t, kind, who in jm.recovery_events if who == "src[0]"]
        assert "rpc-retry:replay_request:1" in kinds
        assert "rpc-exhausted:replay_request" in kinds

    def test_unreliable_control_plane_wedges(self):
        # Fire-and-forget replay requests die in the loss window; the
        # recovering task waits for a replay that never comes and the job
        # never finishes: the simulation deadline is the only way out.
        with pytest.raises(JobError):
            self._run(reliable=False)
