"""Exactly-once *output* (Section 5.5): three sinks, one failure.

    python examples/exactly_once_output.py

Exactly-once processing keeps operator *state* consistent, but the moment a
sink task itself is replayed, its appends to the external system repeat —
the classic output-commit problem.  The paper discusses three answers:

1. plain sink            -> duplicates in the output topic after recovery;
2. transactional sink    -> exactly-once, but output is held back until the
                            epoch's checkpoint completes (latency += up to a
                            whole checkpoint interval);
3. Clonos' §5.5 sink     -> determinants piggybacked on the records let the
                            recovering sink skip exactly what the external
                            system already stores: exactly-once at plain-sink
                            latency.

This script runs the same alerting pipeline with each sink, kills the sink
task mid-run, and prints duplicates / losses / output latency for all three.
"""

from collections import Counter

from repro import FaultToleranceMode, JobConfig, JobGraphBuilder
from repro.core.output import ExactlyOnceKafkaSink
from repro.harness.experiment import run_experiment
from repro.metrics.collectors import percentile
from repro.operators import (
    FilterOperator,
    KafkaSink,
    KafkaSource,
    TransactionalKafkaSink,
)

N_READINGS = 6000
RATE = 3000.0


def reading(partition: int, offset: int):
    """A sensor reading: (id, temperature)."""
    return (offset, 15.0 + (offset * 37) % 30)


def run(sink_factory):
    def build(log, external):
        log.create_generated_topic("readings", 1, reading, RATE, N_READINGS)
        log.create_topic("alerts", 1)
        builder = JobGraphBuilder("alerts")
        stream = builder.source("src", lambda: KafkaSource(log, "readings"))
        hot = stream.key_by(lambda r: r[0] % 4).process(
            "hot", lambda: FilterOperator(lambda r: r[1] >= 30.0)
        )
        hot.key_by(lambda r: 0).sink("sink", lambda: sink_factory(log))
        return builder.build()

    config = JobConfig(mode=FaultToleranceMode.CLONOS, checkpoint_interval=0.5)
    result = run_experiment(
        build, config, kills=[(1.0, "sink[0]")], out_topic="alerts", limit=300
    )

    counts = Counter(value[0] for value in result.output_values())
    expected = {i for i in range(N_READINGS) if reading(0, i)[1] >= 30.0}
    duplicates = sum(c - 1 for c in counts.values())
    lost = len(expected - set(counts))
    pre_failure = [p.latency for p in result.latencies if p.time < 1.0]
    return duplicates, lost, percentile(pre_failure, 50) * 1e3


def main() -> None:
    print(f"{'sink':<28}{'duplicates':>11}{'lost':>6}{'p50 latency':>14}")
    for label, factory in (
        ("plain KafkaSink", lambda log: KafkaSink(log, "alerts")),
        ("TransactionalKafkaSink", lambda log: TransactionalKafkaSink(log, "alerts")),
        ("ExactlyOnceKafkaSink (§5.5)", lambda log: ExactlyOnceKafkaSink(log, "alerts")),
    ):
        duplicates, lost, p50 = run(factory)
        print(f"{label:<28}{duplicates:>11}{lost:>6}{p50:>12.1f}ms")
    print(
        "\nThe §5.5 sink matches the transactional sink's exactly-once output\n"
        "while keeping the plain sink's low latency."
    )


if __name__ == "__main__":
    main()
