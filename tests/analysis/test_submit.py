"""Submission-path tests: ``JobManager.submit(lint=...)`` gates deployment
on the NDLint verdict."""

import pytest

from repro import Environment, FaultToleranceMode, JobConfig, JobGraphBuilder, JobManager
from repro.errors import DeterminismViolation, JobError, LintError
from repro.external.kafka import DurableLog
from repro.operators import KafkaSink, KafkaSource, ProcessOperator

from tests.analysis import fixture_udfs as fx


def _job(udf):
    env = Environment()
    log = DurableLog()
    log.create_generated_topic("in", 1, lambda p, off: off, 2000.0, 200)
    log.create_topic("out", 1)
    builder = JobGraphBuilder("lintjob")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    stream.key_by(lambda v: v % 2).process("op", lambda: ProcessOperator(udf)).key_by(
        lambda v: 0
    ).sink("snk", lambda: KafkaSink(log, "out"))
    config = JobConfig(mode=FaultToleranceMode.CLONOS, checkpoint_interval=0.5)
    return env, log, JobManager(env, builder.build(), config)


def test_strict_submit_rejects_wall_clock_udf():
    _env, _log, jm = _job(fx.bad_wall_clock)
    with pytest.raises(DeterminismViolation) as excinfo:
        jm.submit(lint="strict")
    exc = excinfo.value
    assert exc.rule_id == "ND101"
    assert "fixture_udfs.py" in exc.location
    assert "ctx.services.timestamp()" in exc.hint
    assert exc.findings
    # Structured errors still form one hierarchy.
    assert isinstance(exc, LintError)


def test_strict_submit_accepts_sanctioned_udf():
    env, log, jm = _job(fx.good_wall_clock)
    report = jm.submit(lint="strict")
    assert report.ok(strict=False)
    jm.run_until_done(limit=120)
    assert list(log.read_all("out"))


def test_warn_submit_deploys_despite_findings(capsys):
    env, _log, jm = _job(fx.bad_wall_clock)
    report = jm.submit(lint="warn")
    assert report.errors
    assert "ND101" in capsys.readouterr().err
    # Deployment went ahead: the job can run to completion.
    jm.run_until_done(limit=120)


def test_off_submit_skips_linting():
    _env, _log, jm = _job(fx.bad_wall_clock)
    assert jm.submit(lint="off") is None
    assert jm.lint_report is None


def test_unknown_lint_policy_rejected():
    _env, _log, jm = _job(fx.good_wall_clock)
    with pytest.raises(JobError):
        jm.submit(lint="loose")
