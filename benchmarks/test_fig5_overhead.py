"""Figure 5 + Section 7.3: Clonos overhead under normal operation.

Reproduces the relative-throughput bars of Figure 5 (Clonos DSD=1 and
DSD=Full vs vanilla Flink, Nexmark Q1-Q9/Q11-Q14) and the latency-overhead
claim of Section 7.3.  Paper findings to match in shape:

* average throughput penalty ~6% (DSD=1) / ~7% (DSD=Full);
* deep queries (Q5, Q7; D=6) hit hardest by full sharing (up to 26%);
* shallow queries (Q1, Q2) essentially unaffected;
* latency: DSD=1 within ~10%, DSD=Full tail up to ~20%.
"""

from repro.harness.figures import (
    fig5_overhead,
    latency_overhead,
    render_fig5,
    render_latency,
)
from repro.harness.reporters import render_table


def test_fig5_relative_throughput(once):
    rows = once(fig5_overhead)
    print()
    print(render_fig5(rows))
    avg_dsd1 = sum(r.rel_dsd1 for r in rows) / len(rows)
    avg_full = sum(r.rel_full for r in rows) / len(rows)

    by_query = {r.query: r for r in rows}
    # Clonos never beats Flink by more than noise, never costs more than ~35%.
    for r in rows:
        assert 0.65 <= r.rel_dsd1 <= 1.05, r
        assert 0.65 <= r.rel_full <= 1.05, r
    # Average penalty in the paper's single-digit band.
    assert avg_dsd1 >= 0.93
    assert avg_full >= 0.90
    # Shallow map/filter queries are essentially unaffected.
    assert by_query["Q1"].rel_dsd1 >= 0.96
    assert by_query["Q2"].rel_dsd1 >= 0.96
    # The deep aggregation-tree queries pay the most for full sharing...
    deep_full = min(by_query["Q5"].rel_full, by_query["Q7"].rel_full)
    shallow_full = min(by_query["Q1"].rel_full, by_query["Q2"].rel_full)
    assert deep_full < shallow_full - 0.02
    # ...and lowering the sharing depth buys that overhead back (Section 5.4).
    assert by_query["Q5"].rel_dsd1 > by_query["Q5"].rel_full + 0.02
    assert by_query["Q7"].rel_dsd1 > by_query["Q7"].rel_full + 0.02


def test_fusion_ablation(once):
    """Section 7.3 runs Nexmark with operator fusion on; this ablation shows
    why: fusing forward chains removes network hops — and with Clonos, those
    hops' in-flight logging and determinant traffic."""
    from repro.config import FaultToleranceMode
    from repro.graph.fusion import fuse
    from repro.harness.experiment import run_experiment
    from repro.harness.figures import experiment_config, nexmark_graph_fn

    def run_q5(fused: bool) -> float:
        graph_builder = nexmark_graph_fn("Q5", 2, 6000, 100000.0)

        def graph_fn(log, external):
            graph = graph_builder(log, external)
            return fuse(graph) if fused else graph

        config = experiment_config(
            FaultToleranceMode.CLONOS, None, checkpoint_interval=1.0
        )
        result = run_experiment(graph_fn, config, limit=3600)
        return 12000 / result.duration

    def both():
        return run_q5(True), run_q5(False)

    fused_rate, plain_rate = once(both)
    print()
    print(
        render_table(
            ["Q5 variant", "ingest rec/s"],
            [("fused", f"{fused_rate:.0f}"), ("unfused", f"{plain_rate:.0f}")],
        )
    )
    assert fused_rate >= plain_rate * 0.98  # fusion never hurts


def test_section73_latency_overhead(once):
    row = once(latency_overhead)
    print()
    print(render_latency(row))
    # DSD=1 within ~10% of Flink's latency; full sharing tail within ~25%.
    assert row.dsd1_p50 <= row.flink_p50 * 1.10 + 1e-3
    assert row.dsd1_p99 <= row.flink_p99 * 1.15 + 1e-3
    assert row.full_p99 <= row.flink_p99 * 1.25 + 2e-3
