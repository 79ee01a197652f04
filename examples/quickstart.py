"""Quickstart: build a streaming job, run it, kill an operator, and watch
Clonos recover it with exactly-once results.

    python examples/quickstart.py

The pipeline is the classic keyed word-count:

    kafka source -> tokenize (flat_map) -> count per word (keyed) -> sink

Halfway through, we kill the counting operator.  Clonos activates its
standby, retrieves the determinant log from the sink, replays the in-flight
records from the tokenizer, and the final counts come out exactly as if the
failure never happened — which this script verifies.
"""

from collections import Counter

from repro import FaultToleranceMode, JobConfig, JobGraph, JobGraphBuilder
from repro.external.kafka import DurableLog
from repro.harness.experiment import run_experiment
from repro.operators import FlatMapOperator, KafkaSink, KafkaSource, KeyedCounterOperator

SENTENCES = (
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "a fox is quick",
)


def build_job(log: DurableLog, external=None) -> JobGraph:
    """The input topic, then source -> tokenize -> count -> sink."""
    # 4000 sentences arriving at 2000/s: a ~2 second stream.
    log.create_generated_topic(
        "lines", 1, lambda p, off: SENTENCES[off % len(SENTENCES)], 2000.0, 4000
    )
    log.create_topic("counts", 1)
    builder = JobGraphBuilder("wordcount")
    lines = builder.source("lines", lambda: KafkaSource(log, "lines"))
    words = lines.process(
        "tokenize", lambda: FlatMapOperator(lambda line: line.split())
    )
    counts = words.key_by(lambda word: word).process(
        "count", lambda: KeyedCounterOperator()
    )
    counts.key_by(lambda pair: pair[0]).sink("sink", lambda: KafkaSink(log, "counts"))
    return builder.build()


def run(kill_the_counter: bool) -> Counter:
    config = JobConfig(mode=FaultToleranceMode.CLONOS, checkpoint_interval=0.5)
    result = run_experiment(
        build_job,
        config,
        kills=[(1.0, "count[0]")] if kill_the_counter else (),
        out_topic="counts",
        limit=120,
    )

    # The sink topic holds every (word, running_count) update; the final
    # count per word is the largest update seen.
    finals: Counter = Counter()
    for word, count in result.output_values():
        finals[word] = max(finals[word], count)
    return finals


def main() -> None:
    print("run 1: failure-free baseline ...")
    baseline = run(kill_the_counter=False)
    print("run 2: killing count[0] at t=1.0s ...")
    with_failure = run(kill_the_counter=True)

    print("\nword counts (failure-free == with failure?):")
    for word in sorted(baseline):
        marker = "ok" if baseline[word] == with_failure[word] else "MISMATCH"
        print(f"  {word:8s} {baseline[word]:6d} {with_failure[word]:6d}  {marker}")
    assert baseline == with_failure, "exactly-once violated!"
    print("\nexactly-once holds: the failure left no trace in the results.")


if __name__ == "__main__":
    main()
