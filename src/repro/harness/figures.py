"""Per-figure experiment runners: one function per table/figure of Section 7.

Each runner's defaults are the figure of record: ``benchmarks/``, the perf
suites and ``repro figures`` all run them as declared here.  Each runner
returns plain data, and its ``render_*`` function beside it prints that data
in the shape the paper reports; the benchmark suite asserts the qualitative
claims on it (who wins, by roughly what factor).  :data:`FIGURES` is what
``repro figures`` runs.  See EXPERIMENTS.md for the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import CostModel, FaultToleranceMode, JobConfig, SpillPolicy
from repro.errors import ReproError
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.reporters import render_series, render_table
from repro.metrics.collectors import percentile
from repro.nexmark.generator import NexmarkGenerator
from repro.nexmark.queries import QUERIES
from repro.workloads.synthetic import synthetic_chain


def default_cost(**overrides) -> CostModel:
    """The experiment cost model: paper-like detection constants, scaled
    compute/network costs."""
    defaults = dict(
        heartbeat_interval=4.0,
        heartbeat_timeout=6.0,
        connection_failure_detection=0.25,
        task_deploy_time=8.0,
        task_cancel_time=1.0,
        standby_activation_time=0.3,
        buffer_size_bytes=4096,
        flush_interval=20e-3,
    )
    defaults.update(overrides)
    return CostModel(**defaults)


def experiment_config(mode: FaultToleranceMode, dsd: Optional[int] = None,
                      checkpoint_interval: float = 5.0, **cost_overrides) -> JobConfig:
    config = JobConfig(
        mode=mode,
        checkpoint_interval=checkpoint_interval,
        cost=default_cost(**cost_overrides),
    )
    config.clonos.determinant_sharing_depth = dsd
    return config


# ---------------------------------------------------------------------------
# Figure 5 + Section 7.3: overhead under normal operation
# ---------------------------------------------------------------------------


@dataclass
class OverheadRow:
    query: str
    flink_rate: float
    clonos_dsd1_rate: float
    clonos_full_rate: float

    @property
    def rel_dsd1(self) -> float:
        return self.clonos_dsd1_rate / self.flink_rate if self.flink_rate else 0.0

    @property
    def rel_full(self) -> float:
        return self.clonos_full_rate / self.flink_rate if self.flink_rate else 0.0


def nexmark_graph_fn(query: str, parallelism: int, events_per_partition: int,
                     rate: float, seed: int = 11):
    def build(log, external):
        generator = NexmarkGenerator(seed=seed, rate_per_partition=rate)
        generator.install_topic(log, "nexmark", parallelism, events_per_partition)
        log.create_topic("out", parallelism)
        return QUERIES[query](log, parallelism=parallelism, external=external)

    return build


def fig5_overhead(
    queries: Sequence[str] = tuple(sorted(QUERIES, key=lambda q: int(q[1:]))),
    parallelism: int = 2,
    events_per_partition: int = 6000,
    rate: float = 100000.0,
    checkpoint_interval: float = 1.0,
) -> List[OverheadRow]:
    """Relative throughput of Clonos (DSD=1, DSD=Full) vs vanilla Flink under
    normal operation, Nexmark queries (Figure 5).

    Sources are saturated (``rate`` far above capacity), so the sustained
    ingest rate measures the engine's capacity under each scheme.
    """
    rows = []
    for query in queries:
        rates = {}
        for label, mode, dsd in (
            ("flink", FaultToleranceMode.GLOBAL_ROLLBACK, None),
            ("dsd1", FaultToleranceMode.CLONOS, 1),
            ("full", FaultToleranceMode.CLONOS, None),
        ):
            config = experiment_config(mode, dsd, checkpoint_interval)
            result = run_experiment(
                nexmark_graph_fn(query, parallelism, events_per_partition, rate),
                config,
                with_external=(query == "Q13"),
                limit=3600,
            )
            rates[label] = events_per_partition * parallelism / result.duration
        rows.append(OverheadRow(query, rates["flink"], rates["dsd1"], rates["full"]))
    return rows


def render_fig5(rows: Sequence[OverheadRow]) -> str:
    avg_dsd1 = sum(r.rel_dsd1 for r in rows) / len(rows)
    avg_full = sum(r.rel_full for r in rows) / len(rows)
    return "\n".join([
        "Figure 5: relative throughput vs vanilla Flink (1.00 = no overhead)",
        render_table(
            ["query", "flink rec/s", "clonos DSD=1", "clonos DSD=Full"],
            [
                (r.query, f"{r.flink_rate:.0f}", f"{r.rel_dsd1:.3f}", f"{r.rel_full:.3f}")
                for r in rows
            ],
        ),
        f"average: DSD=1 {avg_dsd1:.3f}  DSD=Full {avg_full:.3f}",
    ])


@dataclass
class LatencyOverheadRow:
    query: str
    flink_p50: float
    flink_p99: float
    dsd1_p50: float
    dsd1_p99: float
    full_p50: float
    full_p99: float


def latency_overhead(
    query: str = "Q1",
    parallelism: int = 2,
    events_per_partition: int = 6000,
    rate: float = 2000.0,
) -> LatencyOverheadRow:
    """Section 7.3's latency claim: DSD=1 within ~10%, DSD=Full tail up to
    ~20% over Flink.  Run *unsaturated* so latency reflects overhead, not
    queueing."""
    stats = {}
    for label, mode, dsd in (
        ("flink", FaultToleranceMode.GLOBAL_ROLLBACK, None),
        ("dsd1", FaultToleranceMode.CLONOS, 1),
        ("full", FaultToleranceMode.CLONOS, None),
    ):
        config = experiment_config(mode, dsd, checkpoint_interval=1.0)
        result = run_experiment(
            nexmark_graph_fn(query, parallelism, events_per_partition, rate),
            config,
            with_external=(query == "Q13"),
            limit=3600,
        )
        lats = [p.latency for p in result.latencies]
        stats[label] = (percentile(lats, 50), percentile(lats, 99))
    return LatencyOverheadRow(
        query,
        *stats["flink"], *stats["dsd1"], *stats["full"],
    )


def render_latency(row: LatencyOverheadRow) -> str:
    return "\n".join([
        f"Section 7.3: end-to-end latency overhead (unsaturated {row.query})",
        render_table(
            ["variant", "p50 (ms)", "p99 (ms)"],
            [
                ("flink", f"{row.flink_p50 * 1e3:.2f}", f"{row.flink_p99 * 1e3:.2f}"),
                ("clonos DSD=1", f"{row.dsd1_p50 * 1e3:.2f}", f"{row.dsd1_p99 * 1e3:.2f}"),
                ("clonos DSD=Full", f"{row.full_p50 * 1e3:.2f}", f"{row.full_p99 * 1e3:.2f}"),
            ],
        ),
    ])


# ---------------------------------------------------------------------------
# Figure 6: failure experiments
# ---------------------------------------------------------------------------


@dataclass
class FailureRunResult:
    label: str
    result: ExperimentResult
    failure_time: float
    #: The Nexmark query of a single-failure run; None on the synthetic chain.
    query: Optional[str] = None

    @property
    def recovery_time(self) -> Optional[float]:
        return self.result.recovery_time_after(0)

    def latency_series(self) -> List[Tuple[float, float]]:
        return [(p.time, p.latency) for p in self.result.latencies]

    def throughput_series(self) -> List[Tuple[float, float]]:
        return [(s.time, s.records_per_second) for s in self.result.output_throughput]


def _require_kills(figure: str, kills: Sequence[Tuple[float, str]],
                   result: ExperimentResult) -> None:
    """A Figure 6 run measures recovery from its kills: one that ended
    before a kill landed measured nothing."""
    if len(result.failures) < len(kills):
        when, victim = kills[len(result.failures)]
        raise ReproError(
            f"{figure}: the kill of {victim} at {when:g}s never landed; the "
            f"run ended at {result.duration:.2f}s simulated (input too small)"
        )


def fig6_single_failure(
    query: str = "Q3",
    victim: str = "join[0]",
    parallelism: int = 2,
    events_per_partition: int = 36000,
    rate: float = 6000.0,
    kill_at: float = 4.0,
    checkpoint_interval: float = 2.0,
) -> Dict[str, FailureRunResult]:
    """Figures 6a/6e (Q3) and 6b/6f (Q8): one failed task, Clonos vs Flink."""
    kills = [(kill_at, victim)]
    out = {}
    for label, mode, dsd in (
        ("clonos", FaultToleranceMode.CLONOS, None),
        ("flink", FaultToleranceMode.GLOBAL_ROLLBACK, None),
    ):
        config = experiment_config(mode, dsd, checkpoint_interval)
        result = run_experiment(
            nexmark_graph_fn(query, parallelism, events_per_partition, rate),
            config,
            kills=kills,
            limit=3600,
        )
        _require_kills(f"fig6-single ({query}, {label})", kills, result)
        out[label] = FailureRunResult(label, result, kill_at, query)
    return out


def _recovery_cells(run: FailureRunResult) -> Tuple[str, str, str, str]:
    baseline, worst = run.result.throughput_dip_after(0)
    recovery = run.recovery_time
    return (
        run.label,
        f"{recovery:.2f}" if recovery is not None else "n/a",
        f"{baseline:.0f}",
        f"{worst:.0f}",
    )


def render_fig6_single(runs: Dict[str, FailureRunResult]) -> str:
    query = runs["clonos"].query
    return "\n".join([
        f"Figure 6 ({query}): failure at t={runs['clonos'].failure_time:.0f}s",
        render_table(
            ["variant", "recovery time (s)", "pre-fail rate", "worst rate", "outputs"],
            [
                (*_recovery_cells(runs[label]), len(runs[label].result.output_values()))
                for label in ("clonos", "flink")
            ],
        ),
        *(
            render_series(f"{query} {label} output rate", runs[label].throughput_series())
            for label in ("clonos", "flink")
        ),
    ])


def fig6_multi_failures(
    concurrent: bool = False,
    depth: int = 5,
    parallelism: int = 5,
    rate: float = 700.0,
    events_per_partition: int = 14000,
    checkpoint_interval: float = 5.0,
    first_kill_at: float = 6.0,
    interval: float = 5.0,
    state_bytes: int = 100 * 1024,
) -> Dict[str, FailureRunResult]:
    """Figures 6c/6g (three staggered failures) and 6d/6h (three concurrent
    failures) on the synthetic chain; failed operators have connected
    dataflows (stage1 -> stage2 -> stage3, subtask 0 of each)."""
    victims = [f"stage{i}[0]" for i in (1, 2, 3)]
    gap = 0.0 if concurrent else interval
    kills = [(first_kill_at + i * gap, v) for i, v in enumerate(victims)]

    def graph_fn(log, external):
        return synthetic_chain(
            log,
            depth=depth,
            parallelism=parallelism,
            rate_per_partition=rate,
            total_per_partition=events_per_partition,
            state_bytes_per_task=state_bytes,
            out_topic="out",
        )

    out = {}
    for label, mode in (
        ("clonos", FaultToleranceMode.CLONOS),
        ("flink", FaultToleranceMode.GLOBAL_ROLLBACK),
    ):
        config = experiment_config(mode, None, checkpoint_interval)
        result = run_experiment(graph_fn, config, kills=kills, limit=3600)
        _require_kills(f"fig6-multi ({label})", kills, result)
        out[label] = FailureRunResult(label, result, kills[0][0])
    return out


def render_fig6_multi(runs: Dict[str, FailureRunResult]) -> str:
    kill_times = [when for when, _victim in runs["clonos"].result.failures]
    gap = kill_times[1] - kill_times[0]
    title = (
        f"Figure 6c/6g: three staggered failures ({gap:.0f}s apart)"
        if gap
        else "Figure 6d/6h: three concurrent failures"
    )
    return "\n".join([
        title,
        render_table(
            ["variant", "recovery (s)", "pre-fail rate", "worst rate", "job time (s)"],
            [
                (*_recovery_cells(runs[label]), f"{runs[label].result.duration:.1f}")
                for label in ("clonos", "flink")
            ],
        ),
        *(
            render_series(f"{label} output rate", runs[label].throughput_series())
            for label in ("clonos", "flink")
        ),
    ])


# ---------------------------------------------------------------------------
# Section 7.5: memory usage / spill policies
# ---------------------------------------------------------------------------


@dataclass
class SpillRow:
    policy: str
    pool_kbytes: int
    duration: float
    rate: float
    peak_memory_buffers: int
    spilled_buffers: int


def memory_spill_study(
    policies: Sequence[SpillPolicy] = tuple(SpillPolicy),
    pool_bytes_options: Sequence[int] = (16 * 1024, 80 * 1024, 1024 * 1024),
    parallelism: int = 2,
    depth: int = 3,
    rate: float = 10000.0,
    duration: float = 12.0,
    checkpoint_interval: float = 0.5,
) -> List[SpillRow]:
    """Throughput and memory across spill policies and in-flight pool sizes
    (Section 7.5's 50 MB / 80 MB findings, scaled ~1000x).

    Runs for a fixed duration and measures sustained ingest: a policy that
    blocks on an exhausted pool (in-memory with a too-small pool) shows up
    as collapsed throughput rather than a wedged experiment — the
    "deteriorating performance" of the paper.
    """
    rows = []
    for policy in policies:
        for pool_bytes in pool_bytes_options:
            config = experiment_config(
                FaultToleranceMode.CLONOS, None, checkpoint_interval
            )
            config.clonos.spill_policy = policy
            config.clonos.inflight_pool_bytes = pool_bytes

            def graph_fn(log, external):
                return synthetic_chain(
                    log,
                    depth=depth,
                    parallelism=parallelism,
                    rate_per_partition=rate,
                    total_per_partition=None,  # unbounded: run for `duration`
                    out_topic="out",
                )

            result = run_experiment(graph_fn, config, duration=duration, limit=3600)
            peak = 0
            spilled = 0
            for vertex in result.jm.vertices.values():
                task = vertex.task
                if task is not None and task.inflight is not None:
                    peak = max(peak, task.inflight.pool.peak_in_use)
                    spilled += task.inflight.buffers_spilled
            rows.append(
                SpillRow(
                    policy.value,
                    pool_bytes // 1024,
                    result.duration,
                    result.sustained_input_rate(warmup=1.0),
                    peak,
                    spilled,
                )
            )
    return rows


def render_spill(rows: Sequence[SpillRow]) -> str:
    return "\n".join([
        "Section 7.5: spill policies x in-flight pool size",
        render_table(
            ["policy", "pool (KB)", "ingest rec/s", "peak bufs", "spilled"],
            [
                (r.policy, r.pool_kbytes, f"{r.rate:.0f}", r.peak_memory_buffers,
                 r.spilled_buffers)
                for r in rows
            ],
        ),
    ])


@dataclass
class DeterminantPoolRow:
    dsd_label: str
    depth: int
    peak_determinant_bytes: int


def determinant_pool_study(
    depths: Sequence[int] = (3, 5),
    parallelism: int = 2,
    rate: float = 8000.0,
    duration: float = 5.0,
    checkpoint_interval: float = 1.0,
) -> List[DeterminantPoolRow]:
    """Section 7.5's second finding: the determinant buffer pool is small at
    DSD=1, but must grow with graph depth when DSD=Full (more upstream logs
    are replicated at each hop)."""
    rows = []
    for depth in depths:
        for label, dsd in (("dsd1", 1), ("full", None)):
            config = experiment_config(
                FaultToleranceMode.CLONOS, dsd, checkpoint_interval
            )

            def graph_fn(log, external, depth=depth):
                return synthetic_chain(
                    log,
                    depth=depth,
                    parallelism=parallelism,
                    rate_per_partition=rate,
                    total_per_partition=None,
                    out_topic="out",
                )

            result = run_experiment(graph_fn, config, duration=duration, limit=3600)
            peak = 0
            for vertex in result.jm.vertices.values():
                task = vertex.task
                if task is not None and task.causal is not None:
                    task.causal.note_peak()
                    peak = max(peak, task.causal.peak_bytes_held)
            rows.append(DeterminantPoolRow(label, depth, peak))
    return rows


def render_determinant_pool(rows: Sequence[DeterminantPoolRow]) -> str:
    return "\n".join([
        "Section 7.5: peak determinant bytes held per task",
        render_table(
            ["sharing", "graph depth", "peak determinant bytes"],
            [(r.dsd_label, r.depth, r.peak_determinant_bytes) for r in rows],
        ),
    ])


# ---------------------------------------------------------------------------
# Table 1 operationalised: consistency vs determinism assumptions
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyCell:
    mode: str
    deterministic: bool
    lost: int
    duplicated: int
    inconsistent: int

    @property
    def exactly_once(self) -> bool:
        return self.lost == 0 and self.duplicated == 0 and self.inconsistent == 0


def _consistency_of(values: list, n_inputs: int) -> Tuple[int, int, int]:
    """(lost, duplicated, inconsistent) for NondetFanout-shaped outputs
    (input_id, copy_index, copies)."""
    by_input: Dict[int, List[Tuple[int, int]]] = {}
    for input_id, copy_index, copies in values:
        by_input.setdefault(input_id, []).append((copy_index, copies))
    lost = sum(1 for i in range(n_inputs) if i not in by_input)
    duplicated = 0
    inconsistent = 0
    for entries in by_input.values():
        copies = entries[0][1]
        indexes = sorted(e[0] for e in entries)
        if len(indexes) > len(set(indexes)):
            duplicated += 1
        elif indexes != list(range(copies)) or any(e[1] != copies for e in entries):
            inconsistent += 1
    return lost, duplicated, inconsistent


def table1_assumptions(
    n_records: int = 4000,
    rate: float = 2000.0,
    kill_at: float = 0.8,
    checkpoint_interval: float = 0.4,
) -> List[ConsistencyCell]:
    """Every local-recovery scheme against deterministic *and*
    nondeterministic operators: only Clonos stays exactly-once in both."""
    from repro.external.kafka import DurableLog
    from repro.graph.logical import JobGraphBuilder
    from repro.operators import KafkaSink, KafkaSource, Operator

    class DetFanout(Operator):
        def process(self, record, ctx):
            copies = 1 + (record.value % 2)
            for copy_index in range(copies):
                ctx.collect((record.value, copy_index, copies))

    class NondetFanout(Operator):
        deterministic = False

        def process(self, record, ctx):
            copies = 1 + int(ctx.services.random() * 2)
            for copy_index in range(copies):
                ctx.collect((record.value, copy_index, copies))

    cells = []
    for mode in (
        FaultToleranceMode.CLONOS,
        FaultToleranceMode.SEEP,
        FaultToleranceMode.DIVERGENT,
        FaultToleranceMode.GAP_RECOVERY,
    ):
        for deterministic, factory in ((True, DetFanout), (False, NondetFanout)):

            def graph_fn(log, external, factory=factory):
                log.create_generated_topic(
                    "in", 1, lambda p, off: off, rate, n_records
                )
                log.create_topic("out", 1)
                builder = JobGraphBuilder("table1")
                stream = builder.source("src", lambda: KafkaSource(log, "in"))
                mid = stream.key_by(lambda v: v % 7).process("mid", factory)
                mid.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
                return builder.build()

            config = experiment_config(
                mode,
                None,
                checkpoint_interval,
                connection_failure_detection=0.05,
                standby_activation_time=0.05,
                task_deploy_time=0.5,
                heartbeat_interval=0.2,
                heartbeat_timeout=0.3,
            )
            result = run_experiment(
                graph_fn, config, kills=[(kill_at, "mid[0]")], limit=3600
            )
            lost, dup, inconsistent = _consistency_of(
                result.output_values(), n_records
            )
            cells.append(
                ConsistencyCell(mode.value, deterministic, lost, dup, inconsistent)
            )
    return cells


def render_table1(cells: Sequence[ConsistencyCell]) -> str:
    return "\n".join([
        "Table 1 (operationalised): exactly-once violations after recovery",
        render_table(
            ["scheme", "operator", "lost", "duplicated", "inconsistent", "exactly-once"],
            [
                (
                    c.mode,
                    "deterministic" if c.deterministic else "nondeterministic",
                    c.lost,
                    c.duplicated,
                    c.inconsistent,
                    "yes" if c.exactly_once else "NO",
                )
                for c in cells
            ],
        ),
    ])


# ---------------------------------------------------------------------------
# repro figures: every figure above, at its declared parameters
# ---------------------------------------------------------------------------


def _finite(events: Optional[int], name: str = "events_per_partition") -> Dict[str, int]:
    return {} if events is None else {name: events}


#: What ``repro figures --only NAME`` runs and prints.  ``events`` overrides
#: the input size of the figures with a finite input; the Section 7.5 runs
#: are timed, not sized, and ignore it.
FIGURES: Dict[str, Callable[[Optional[int]], List[str]]] = {
    "fig5": lambda events: [
        render_fig5(fig5_overhead(**_finite(events))),
        render_latency(latency_overhead(**_finite(events))),
    ],
    "fig6-single": lambda events: [
        render_fig6_single(fig6_single_failure(query=query, **_finite(events)))
        for query in ("Q3", "Q8")
    ],
    "fig6-multi": lambda events: [
        render_fig6_multi(fig6_multi_failures(concurrent=concurrent, **_finite(events)))
        for concurrent in (False, True)
    ],
    "memory": lambda events: [
        render_spill(memory_spill_study()),
        render_determinant_pool(determinant_pool_study()),
    ],
    "table1": lambda events: [
        render_table1(table1_assumptions(**_finite(events, "n_records")))
    ],
}
