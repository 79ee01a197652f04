"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper (see
EXPERIMENTS.md); they run single-shot (``rounds=1``) because every run is a
full simulated experiment, and they print the reproduced table/series so
``pytest benchmarks/ --benchmark-only`` output doubles as the results log.
"""

import sys
from functools import lru_cache
from pathlib import Path

import pytest

RESULTS_PATH = Path(__file__).parent / "latest_results.txt"


@lru_cache(maxsize=1)
def _lint_status() -> str:
    """NDLint verdict over the Nexmark queries a benchmark run exercises
    (computed once per session; recorded in every benchmark's extra_info so
    a regression that sneaks nondeterminism into the workloads is visible
    next to the numbers it would corrupt)."""
    try:
        from repro.analysis import lint_graph
        from repro.external.kafka import DurableLog
        from repro.nexmark.queries import QUERIES

        class _Probe:
            def get_now(self, key):
                return key

        errors = 0
        for name in sorted(QUERIES):
            graph = QUERIES[name](
                DurableLog(), external=_Probe() if name == "Q13" else None
            )
            errors += len(lint_graph(graph).errors)
        return "clean" if errors == 0 else f"{errors} errors"
    except Exception as exc:  # pragma: no cover - keep benchmarks running
        return f"unavailable ({type(exc).__name__})"


#: The fault-gate cases every benchmark records a verdict for: a handful of
#: each gate's own cases, run at the gate's declared parameters.
GATE_PROBES = {
    "chaos": ["0", "1", "2", "3"],
    "integrity": ["0", "1", "2"],
    "scenarios": ["backpressure_storm", "poison_pill"],
}


@lru_cache(maxsize=None)
def _gate_status(gate: str) -> str:
    """One fault gate's verdict over its probe cases (computed once per
    session; recorded in every benchmark's extra_info next to the NDLint
    verdict, so a recovery regression that would corrupt the failure
    experiments is visible in the saved numbers).  A red case reproduces
    locally with ``python -m repro gates --only <gate> --case <label>
    --verbose``."""
    try:
        from repro.harness.gates import select

        (cases,) = select([gate], GATE_PROBES[gate]).values()
        results = [run() for _label, run in cases]
        violations = [r.label for r in results if not r.ok]
        if violations:
            return f"violations at {violations}"
        degraded = sum(r.outcome != "transparent" for r in results)
        return f"clean ({len(results)} runs, {degraded} degraded)"
    except Exception as exc:  # pragma: no cover - keep benchmarks running
        return f"unavailable ({type(exc).__name__})"


@lru_cache(maxsize=1)
def _audit_status() -> str:
    """The audit self-test (computed once per session; recorded in every
    benchmark's extra_info): a seeded sweep must flag every injected
    corruption, as ``python -m repro audit --inject K`` requires."""
    try:
        import random

        from repro.integrity.audit import audit_job, audit_matches, audit_run
        from repro.integrity.corruption import random_corruptions
        from repro.sim.rng import derive_seed

        jm = audit_run(seed=0, n_records=600)
        injected = random_corruptions(
            jm, 4, random.Random(derive_seed(0, "audit-inject"))
        )
        report = audit_job(jm)
        missed = [
            (kind, detail)
            for kind, detail in injected
            if not audit_matches(kind, detail, report.violations)
        ]
        if missed or not injected:
            return f"audit missed {len(missed)}/{len(injected)} injections"
        return f"clean ({len(injected)}/{len(injected)} detected)"
    except Exception as exc:  # pragma: no cover - keep benchmarks running
        return f"unavailable ({type(exc).__name__})"


@pytest.fixture(autouse=True)
def surface_reproduced_tables(capsys, request):
    """Benchmarks print the reproduced paper tables; pytest would normally
    swallow them.  Re-emit them to the real stdout (so they land in the
    tee'd bench log) and append them to benchmarks/latest_results.txt."""
    yield
    captured = capsys.readouterr().out
    if not captured.strip():
        return
    banner = f"\n===== {request.node.nodeid} =====\n"
    with capsys.disabled():
        print(banner + captured, end="")
    with RESULTS_PATH.open("a") as fh:
        fh.write(banner + captured)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole experiment exactly once under the benchmark timer.

    The run is traced by the determinism sanitizer: its combined schedule
    hash (and the session's NDLint verdict) land in ``extra_info``, so two
    benchmark runs of the same code can be checked for schedule divergence
    straight from the saved JSON."""
    from repro.analysis.sanitizer import combined_digest, traced_environments

    with traced_environments(keep_trace=False) as tracers:
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info["ndlint"] = _lint_status()
    for gate in GATE_PROBES:
        benchmark.extra_info[gate] = _gate_status(gate)
    benchmark.extra_info["audit"] = _audit_status()
    benchmark.extra_info["schedule_hash"] = combined_digest(tracers)
    benchmark.extra_info["schedule_events"] = sum(t.steps for t in tracers)
    return result


def attach_recovery_phases(benchmark, runs):
    """Record each arm's per-phase recovery breakdown (from ``repro.trace``)
    in ``extra_info``, so the saved benchmark JSON carries the protocol-phase
    decomposition next to the end-to-end recovery time it sums to."""
    from repro.trace import breakdown_extra_info

    for label in sorted(runs):
        benchmark.extra_info[f"recovery_phases_{label}"] = breakdown_extra_info(
            runs[label].result
        )


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner
