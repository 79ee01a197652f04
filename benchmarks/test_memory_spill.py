"""Section 7.5: in-flight log memory usage and spill policies.

Paper findings to match in shape (sizes scaled ~1000x):

* in-memory / spill-epoch can block processing outright when an epoch
  outgrows the pool;
* spill-buffer is memory-frugal but does synchronous work per buffer;
* spill-threshold is the well-rounded default: it works at every pool size,
  deteriorates at tiny pools and has diminishing returns beyond ~80 (KB
  here, MB in the paper).
"""

from repro.config import SpillPolicy
from repro.harness.figures import (
    determinant_pool_study,
    memory_spill_study,
    render_determinant_pool,
    render_spill,
)
from repro.harness.reporters import render_table


def test_spill_policy_study(once):
    rows = once(memory_spill_study)
    print()
    print(render_spill(rows))
    by = {(r.policy, r.pool_kbytes): r for r in rows}
    small, mid, large = sorted({r.pool_kbytes for r in rows})

    # in-memory / spill-epoch wedge when the epoch outgrows the pool...
    assert by[("in-memory", small)].rate == 0.0
    assert by[("spill-epoch", small)].rate == 0.0
    # ...but run fine once the pool fits an epoch.
    assert by[("in-memory", large)].rate > 0.0
    assert by[("spill-epoch", large)].rate > 0.0

    # spill-buffer and spill-threshold never block, at any pool size.
    for pool in (small, mid, large):
        assert by[("spill-buffer", pool)].rate > 0.0
        assert by[("spill-threshold", pool)].rate > 0.0

    # spill-buffer never holds log memory; threshold stays within its pool.
    assert all(
        by[("spill-buffer", p)].peak_memory_buffers == 0 for p in (small, mid, large)
    )
    # Diminishing returns: threshold at the large pool stops spilling at all.
    assert by[("spill-threshold", large)].spilled_buffers == 0
    assert by[("spill-threshold", small)].spilled_buffers > 0

    # The well-rounded default: at every pool size, spill-threshold is at
    # least as fast as every other policy (small tolerance for sampling).
    for pool in (small, mid, large):
        best_other = max(
            by[(p.value, pool)].rate
            for p in SpillPolicy
            if p is not SpillPolicy.SPILL_THRESHOLD
        )
        assert by[("spill-threshold", pool)].rate >= best_other * 0.95


def test_determinant_pool_grows_with_dsd(once):
    """Section 7.5: 'for DSD=1 a determinant buffer pool of 5MB is more than
    sufficient... When DSD=Full, this value must be increased as D grows, as
    more logs are replicated.'"""
    rows = once(determinant_pool_study)
    print()
    print(render_determinant_pool(rows))
    by = {(r.dsd_label, r.depth): r.peak_determinant_bytes for r in rows}
    # Full sharing holds strictly more than DSD=1 at every depth...
    assert by[("full", 3)] > by[("dsd1", 3)]
    assert by[("full", 5)] > by[("dsd1", 5)]
    # ...and grows with depth much faster than DSD=1 does.
    full_growth = by[("full", 5)] / by[("full", 3)]
    dsd1_growth = by[("dsd1", 5)] / max(1, by[("dsd1", 3)])
    assert full_growth > dsd1_growth


def test_saturated_spill_buffer_pays_synchronous_work(once):
    """At saturation the synchronous spill-buffer writes cost throughput
    relative to the asynchronous threshold spiller."""
    rows = once(
        memory_spill_study,
        policies=(SpillPolicy.SPILL_BUFFER, SpillPolicy.SPILL_THRESHOLD),
        pool_bytes_options=(80 * 1024,),
        rate=200000.0,
        duration=10.0,
    )
    by = {r.policy: r for r in rows}
    print()
    print(
        render_table(
            ["policy", "saturated ingest rec/s"],
            [(r.policy, f"{r.rate:.0f}") for r in rows],
        )
    )
    assert by["spill-threshold"].rate > by["spill-buffer"].rate * 1.1
