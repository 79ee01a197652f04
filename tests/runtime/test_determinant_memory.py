"""How long the causal log's host memory lives (DESIGN.md §7, addendum): a
delta from its cut to its merge, a forwarding-journal chunk only while some
output channel still owes it."""

from repro.config import FaultToleranceMode
from repro.harness.experiment import run_experiment
from repro.workloads.synthetic import synthetic_chain

from tests.runtime.helpers import make_config

PARALLELISM = 3
RECORDS = 600


def chain(log, external):
    return synthetic_chain(
        log,
        depth=4,
        parallelism=PARALLELISM,
        rate_per_partition=1500.0,
        total_per_partition=RECORDS,
        nondeterministic=True,
        out_topic="out",
    )


def test_failure_free_clonos_keeps_no_merged_delta_and_a_compact_journal():
    config = make_config(FaultToleranceMode.CLONOS)
    config.clonos.determinant_sharing_depth = None  # DSD=Full: every hop forwards
    result = run_experiment(chain, config, limit=120)
    assert not result.failures
    assert len(result.output_values()) == PARALLELISM * RECORDS
    tasks = [v.task for v in result.jm.vertices.values() if v.task is not None]

    # A merged delta is gone from the buffer the in-flight log keeps for replay.
    sent = [
        entry
        for task in tasks
        if task.inflight is not None
        for entries in task.inflight._entries.values()
        for entry in entries
        if entry.sent
    ]
    assert sent
    pinned = sum(entry.buffer.delta is not None for entry in sent)
    assert pinned == 0, f"{pinned} of {len(sent)} logged buffers still pin a delta"

    # The journal holds at most twice what its slowest positioned channel
    # still owes (nothing at all once no channel has a position: the sinks).
    forwarding = 0
    for task in tasks:
        causal = task.causal
        journal = causal._journal
        end = causal._journal_base + len(journal)
        owed = end - min(causal._journal_pos.values(), default=end)
        assert len(journal) <= 2 * owed, (task.name, len(journal), owed)
        forwarding += bool(causal._first_chunks)
    assert forwarding
