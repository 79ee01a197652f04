"""Tests for the experiment harness and reporters."""

import pytest

from repro.config import FaultToleranceMode
from repro.harness.experiment import run_experiment
from repro.harness.figures import _consistency_of, experiment_config
from repro.harness.reporters import render_series, render_table
from repro.workloads.synthetic import synthetic_chain

from tests.runtime.helpers import fast_cost, make_config


def simple_graph(total=1500):
    def build(log, external):
        return synthetic_chain(
            log,
            depth=3,
            parallelism=1,
            rate_per_partition=2000.0,
            total_per_partition=total,
            out_topic="out",
        )

    return build


class TestRunExperiment:
    def test_finite_run_to_completion(self):
        result = run_experiment(
            simple_graph(), make_config(FaultToleranceMode.CLONOS), limit=120
        )
        assert len(result.output_values()) == 1500
        assert result.duration > 0
        assert result.input_throughput  # source progress was sampled
        assert result.sustained_input_rate(warmup=0.1) > 0

    def test_duration_bounded_run(self):
        def unbounded(log, external):
            return synthetic_chain(
                log,
                depth=3,
                parallelism=1,
                rate_per_partition=2000.0,
                total_per_partition=None,
                out_topic="out",
            )

        result = run_experiment(
            unbounded, make_config(FaultToleranceMode.CLONOS), duration=2.0
        )
        assert result.duration == pytest.approx(2.0, abs=0.2)
        assert result.output_values()

    def test_a_crashed_task_is_a_job_error_with_or_without_a_duration(self):
        """Both ways of driving a run share one loop, so a buggy operator
        surfaces as the same structured error (a duration-bounded run used
        to raise a bare RuntimeError)."""
        from repro.errors import JobError
        from repro.graph.logical import JobGraphBuilder
        from repro.operators import KafkaSink, KafkaSource, MapOperator

        def boom(value):
            if value == 100:
                raise ValueError("operator bug")
            return value

        def buggy(log, external):
            log.create_generated_topic("in", 1, lambda p, off: off, 2000.0, 400)
            log.create_topic("out", 1)
            builder = JobGraphBuilder("buggy")
            stream = builder.source("src", lambda: KafkaSource(log, "in"))
            stream.process("map", lambda: MapOperator(boom)).sink(
                "sink", lambda: KafkaSink(log, "out")
            )
            return builder.build()

        for bounds in ({"duration": 2.0}, {"limit": 120}):
            with pytest.raises(JobError, match="map\\[0\\] crashed"):
                run_experiment(
                    buggy, make_config(FaultToleranceMode.GLOBAL_ROLLBACK), **bounds
                )

    def test_kills_are_recorded(self):
        result = run_experiment(
            simple_graph(),
            make_config(FaultToleranceMode.CLONOS),
            kills=[(0.3, "stage1[0]")],
            limit=120,
        )
        assert [name for _t, name in result.failures] == ["stage1[0]"]
        assert any(kind == "recovered" for _t, kind, _n in result.recovery_events)

    @pytest.mark.parametrize("as_callable", [False, True])
    def test_faults_land_as_plan_or_callable(self, as_callable):
        from repro.chaos import FaultPlan

        plan = FaultPlan(seed=1).add(0.3, "task_kill", target="stage1[0]")
        result = run_experiment(
            simple_graph(),
            make_config(FaultToleranceMode.CLONOS),
            limit=120,
            faults=(lambda jm: plan) if as_callable else plan,
        )
        assert ("chaos:task_kill", "stage1[0]") in [
            (kind, name) for _t, kind, name in result.recovery_events
        ]
        assert [name for _t, name in result.failures] == ["stage1[0]"]
        assert result.engine.applied

    def test_latency_percentile_accessor(self):
        result = run_experiment(
            simple_graph(), make_config(FaultToleranceMode.CLONOS), limit=120
        )
        assert result.latency_percentile(50) > 0
        assert result.latency_percentile(99) >= result.latency_percentile(50)


class TestConsistencyClassifier:
    def test_clean_output(self):
        values = [(0, 0, 1), (1, 0, 2), (1, 1, 2)]
        assert _consistency_of(values, 2) == (0, 0, 0)

    def test_detects_loss(self):
        assert _consistency_of([(0, 0, 1)], 3) == (2, 0, 0)

    def test_detects_duplicates(self):
        values = [(0, 0, 1), (0, 0, 1)]
        assert _consistency_of(values, 1) == (0, 1, 0)

    def test_detects_contradictory_copies(self):
        # Record 0 claims 2 copies but only copy 0 arrived.
        values = [(0, 0, 2)]
        assert _consistency_of(values, 1) == (0, 0, 1)


class TestReporters:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [(1, "xy"), (100, "z")])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_render_series_sketch(self):
        series = [(float(t), float(t % 5)) for t in range(50)]
        out = render_series("demo", series, bins=5)
        assert out.count("|") == 2 * 5  # two bars per bin row
        assert "demo" in out

    def test_render_series_empty(self):
        assert "(empty)" in render_series("demo", [])


def test_experiment_config_overrides_costs():
    config = experiment_config(
        FaultToleranceMode.CLONOS, dsd=2, checkpoint_interval=1.0,
        task_deploy_time=42.0,
    )
    assert config.clonos.determinant_sharing_depth == 2
    assert config.cost.task_deploy_time == 42.0
