"""The headline property, tested property-style: for random workloads,
failure times, victims, and checkpoint cadences, Clonos recovery is
exactly-once — even with nondeterministic operators.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FaultToleranceMode
from repro.errors import FailureInjectionError
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraphBuilder
from repro.operators import KafkaSink, KafkaSource, Operator
from repro.runtime.jobmanager import JobManager
from repro.sim.core import Environment

from tests.runtime.helpers import make_config, sink_values


class NondetFanout(Operator):
    deterministic = False

    def process(self, record, ctx):
        copies = 1 + int(ctx.services.random() * 2)
        for copy_index in range(copies):
            ctx.collect((record.value, copy_index, copies))


RATE = 2000.0


@st.composite
def scenarios(draw):
    n_records = draw(st.integers(min_value=800, max_value=2000))
    victim = draw(st.sampled_from(["src[0]", "mid[0]", "mid[1]"]))
    # The source ingests its last record at (n_records - 1) / RATE and then
    # FINISHES: a later kill has no task to land on.
    latest = min(0.9, (n_records - 1) / RATE) if victim == "src[0]" else 0.9
    return dict(
        n_records=n_records,
        kill_at=draw(st.floats(min_value=0.15, max_value=latest, exclude_max=True)),
        victim=victim,
        checkpoint_interval=draw(st.sampled_from([0.2, 0.35, 0.5])),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
    )


@given(scenarios())
# Pinned regression: killing a fan-in peer just after it forwards a barrier
# its siblings have already aligned on downstream used to deadlock the job —
# the sinks' alignment held the live channels' credits, the blocked
# backpressure wedged the common upstream mid-send, and the wedged upstream
# could then never serve the replacement's replay request.  Fixed by
# cancelling the (already aborted) alignment when the replacement reconnects
# (StreamTask.on_upstream_reconnected).
@example(
    dict(
        n_records=981,
        kill_at=0.3515625,
        victim="mid[0]",
        checkpoint_interval=0.35,
        seed=0,
    )
)
# Pinned regression: a kill that lands after its victim finished.  The
# source drains 998 records by t=0.499, so this kill finds ``src[0]``
# FINISHED.  That used to fail the test with FailureInjectionError; an
# unlanded kill now leaves a failure-free run, which must be exactly-once
# all the same.
@example(
    dict(
        n_records=998,
        kill_at=0.5,
        victim="src[0]",
        checkpoint_interval=0.2,
        seed=0,
    )
)
@settings(max_examples=12, deadline=None)
def test_clonos_exactly_once_everywhere(params):
    env = Environment()
    log = DurableLog()
    log.create_generated_topic(
        "in", 1, lambda p, off: off, RATE, params["n_records"]
    )
    log.create_topic("out", 1)
    config = make_config(
        FaultToleranceMode.CLONOS,
        checkpoint_interval=params["checkpoint_interval"],
    )
    config.seed = params["seed"]
    builder = JobGraphBuilder("prop")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    mid = stream.key_by(lambda v: v % 5).process(
        "mid", NondetFanout, parallelism=2
    )
    mid.key_by(lambda v: v[0] % 2).sink(
        "sink", lambda: KafkaSink(log, "out"), parallelism=2
    )
    jm = JobManager(env, builder.build(), config)
    jm.deploy()

    def kill():
        try:
            jm.kill_task(params["victim"])
        except FailureInjectionError:
            pass  # victim already FINISHED: nothing to recover from

    env.schedule_callback(params["kill_at"], kill)
    jm.run_until_done(limit=600)

    by_input = {}
    for input_id, copy_index, copies in sink_values(log):
        by_input.setdefault(input_id, []).append((copy_index, copies))
    assert set(by_input) == set(range(params["n_records"])), "records lost"
    for input_id, entries in by_input.items():
        copies = entries[0][1]
        assert sorted(e[0] for e in entries) == list(range(copies)), (
            f"input {input_id}: duplicates or divergent regeneration {entries}"
        )
