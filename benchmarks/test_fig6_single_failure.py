"""Figures 6a/6e (Q3) and 6b/6f (Q8): single-operator failures.

Paper findings to match in shape:

* Clonos switches to the standby sub-second and is fully caught up within
  seconds; only records on causally affected paths see elevated latency.
* Vanilla Flink loses availability on ALL tasks and needs tens of seconds
  (heartbeat detection + full restart + state restore + catch-up).
* Clonos recovers an order of magnitude faster.
"""

from repro.harness.figures import fig6_single_failure, render_fig6_single

from benchmarks.conftest import attach_recovery_phases


def run_query_failure(once, query, benchmark):
    runs = once(fig6_single_failure, query=query)
    attach_recovery_phases(benchmark, runs)
    return runs


def test_fig6a_e_q3_single_failure(once, benchmark):
    runs = run_query_failure(once, "Q3", benchmark)
    print()
    print(render_fig6_single(runs))
    clonos, flink = runs["clonos"].recovery_time, runs["flink"].recovery_time
    assert clonos is not None and flink is not None
    # Clonos: a few seconds including catch-up; Flink: tens of seconds.
    assert clonos < 5.0
    assert flink > 10.0
    assert clonos < flink / 5.0
    # Flink's restart includes the 6s heartbeat detection alone.
    assert flink > 6.0


def test_fig6b_f_q8_single_failure(once, benchmark):
    runs = run_query_failure(once, "Q8", benchmark)
    print()
    print(render_fig6_single(runs))
    clonos, flink = runs["clonos"].recovery_time, runs["flink"].recovery_time
    assert clonos is not None and flink is not None
    assert clonos < 5.0
    assert flink > 10.0
    assert clonos < flink / 5.0


def test_fig6e_throughput_barely_dips_for_clonos(once, benchmark):
    runs = run_query_failure(once, "Q3", benchmark)
    # Clonos: records keep flowing through the surviving join subtask the
    # whole time; Flink: complete downtime while the graph restarts.
    _base_c, worst_clonos = runs["clonos"].result.throughput_dip_after(0)
    _base_f, worst_flink = runs["flink"].result.throughput_dip_after(0)
    assert worst_flink == 0.0
    fail_t = runs["clonos"].failure_time
    clonos_rates = [
        s.records_per_second
        for s in runs["clonos"].result.output_throughput
        if fail_t <= s.time <= fail_t + 3.0
    ]
    assert sum(clonos_rates) > 0.0  # output continued during recovery
