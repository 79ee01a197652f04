"""Figures 6c/6g (staggered) and 6d/6h (concurrent) multiple failures.

Synthetic workload per the paper: parallelism 5, depth 5, checkpoint
interval 5 s, per-operator state (scaled).  Three failures on *connected*
dataflows (stage1[0] -> stage2[0] -> stage3[0]).

Findings to match in shape:

* Clonos behaves similarly whether the failures are staggered or
  concurrent; downstream recoveries wait on upstream replay.
* Only partial throughput is lost: causally unaffected paths keep flowing.
* Flink pays a full restart (or several).
"""

from repro.harness.figures import fig6_multi_failures, render_fig6_multi

from benchmarks.conftest import attach_recovery_phases


def check_common(runs):
    clonos, flink = runs["clonos"], runs["flink"]
    # Clonos finishes the job well before Flink (several full restarts).
    assert clonos.result.duration < flink.result.duration
    # Partial progress: Clonos' output never fully stops for long — between
    # the first failure and +4s, some records still flow (unaffected paths).
    t0 = clonos.failure_time
    window = [
        s.records_per_second
        for s in clonos.result.output_throughput
        if t0 <= s.time <= t0 + 4.0
    ]
    assert sum(window) > 0.0
    # Every downstream recovery completes after its upstream's (replay order).
    recovered = {
        name: t
        for (t, kind, name) in clonos.result.recovery_events
        if kind == "recovered"
    }
    assert recovered["stage1[0]"] <= recovered["stage2[0]"] <= recovered["stage3[0]"]


def test_fig6c_g_staggered_failures(once, benchmark):
    runs = once(fig6_multi_failures, concurrent=False)
    attach_recovery_phases(benchmark, runs)
    print()
    print(render_fig6_multi(runs))
    check_common(runs)


def test_fig6d_h_concurrent_failures(once, benchmark):
    runs = once(fig6_multi_failures, concurrent=True)
    attach_recovery_phases(benchmark, runs)
    print()
    print(render_fig6_multi(runs))
    check_common(runs)


def test_staggered_and_concurrent_behave_similarly(once):
    def both():
        return (
            fig6_multi_failures(concurrent=False),
            fig6_multi_failures(concurrent=True),
        )

    staggered, concurrent = once(both)
    rt_s = staggered["clonos"].recovery_time
    rt_c = concurrent["clonos"].recovery_time
    assert rt_s is not None and rt_c is not None
    # "Independently of the frequency of failures ... Clonos' recovery
    # behaves similarly": same order of magnitude. Staggered failures span
    # an extra 2x5s of injection time by construction.
    kill_times = [when for when, _victim in staggered["clonos"].result.failures]
    spread = kill_times[-1] - kill_times[0]
    assert abs((rt_s - spread) - rt_c) < max(rt_c, 5.0) * 1.5
