"""Measurement, the way the paper does it (Section 7.1).

Throughput: sample the output Kafka topic three times per second and divide
new records by elapsed time.  Latency: per output record, append time minus
the record's creation (availability) time at the source.  Recovery time
(Section 7.4): from the failure instant until observed latency returns to
within 10% of the pre-failure level — including catch-up.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.external.kafka import DurableLog
from repro.sim.core import Environment


class ThroughputSample(NamedTuple):
    time: float
    records_per_second: float


class LatencyPoint(NamedTuple):
    time: float  # when the record appeared at the sink topic
    latency: float


class RateSampler:
    """Polls a record count on a fixed period (default 1/3 s, as the paper)
    and samples its rate of growth since the previous poll."""

    def __init__(
        self,
        env: Environment,
        count: Callable[[], int],
        name: str,
        period: float = 1.0 / 3.0,
    ):
        self.env = env
        self.count = count
        self.period = period
        self.samples: List[ThroughputSample] = []
        self._last = 0
        self._proc = env.process(self._run(), name=name)

    def _run(self):
        while True:
            yield self.env.timeout(self.period)
            total = self.count()
            rate = (total - self._last) / self.period
            self._last = total
            self.samples.append(ThroughputSample(self.env.now, rate))

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.kill()

    def mean_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        rates = [s.records_per_second for s in self.samples if start <= s.time <= end]
        return sum(rates) / len(rates) if rates else 0.0


class ThroughputSampler(RateSampler):
    """Samples the growth rate of ``topic``: the paper's throughput measure."""

    def __init__(
        self,
        env: Environment,
        log: DurableLog,
        topic: str,
        period: float = 1.0 / 3.0,
    ):
        super().__init__(
            env, lambda: log.topic_size(topic), f"throughput:{topic}", period
        )


def latency_points(log: DurableLog, topic: str) -> List[LatencyPoint]:
    """End-to-end latency of every record in the output topic.

    Records emitted by timers (window results) have no source record to
    inherit ``created_at`` from; for those we fall back to the record's
    event time, which in all our workloads equals the availability time at
    the broker — so the fallback still measures "output appeared this long
    after the data existed" (plus the constant watermark wait).
    """
    points = []
    for when, entry in log.read_all_with_times(topic):
        if entry.created_at is not None:
            points.append(LatencyPoint(when, when - entry.created_at))
        elif entry.event_time is not None and entry.event_time == entry.event_time \
                and abs(entry.event_time) != float("inf"):
            points.append(LatencyPoint(when, max(0.0, when - entry.event_time)))
    points.sort(key=lambda p: p.time)
    return points


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def recovery_time(
    points: Iterable[LatencyPoint],
    failure_time: float,
    tolerance: float = 0.10,
    baseline_window: float = 5.0,
) -> Optional[float]:
    """The paper's recovery-time metric (Section 7.4): time from the failure
    until observed latency is back within ``tolerance`` of the pre-failure
    level — including stream catch-up.

    Pre-failure level = p95 latency over ``baseline_window`` seconds before
    the failure.  Because unaffected parallel paths keep emitting at normal
    latency throughout (Section 7.4), we take the *last* post-failure record
    above the threshold: after it, the whole job is back to normal.
    """
    pts = sorted(points, key=lambda p: p.time)
    before = [
        p.latency
        for p in pts
        if failure_time - baseline_window <= p.time < failure_time
    ]
    if not before:
        return None
    threshold = percentile(before, 95) * (1.0 + tolerance) + 1e-9
    late = [p.time for p in pts if p.time >= failure_time and p.latency > threshold]
    if not late:
        return 0.0  # nothing ever exceeded the pre-failure envelope
    return max(late) - failure_time


def count_events(
    recovery_events: Iterable[Tuple[float, str, str]],
    prefix: str,
    who: Optional[str] = None,
) -> int:
    """How many recovery events have a kind starting with ``prefix``
    (optionally restricted to one subject).  Event kinds are structured as
    ``"family[:detail]"`` — e.g. ``count_events(evs, "rpc-retry")`` counts
    every control-plane resend, ``count_events(evs, "recovery-retry")``
    every escalation-ladder step."""
    return sum(
        1
        for (_t, kind, subject) in recovery_events
        if kind.startswith(prefix) and (who is None or subject == who)
    )


def recovery_summary(
    recovery_events: Sequence[Tuple[float, str, str]],
) -> dict:
    """Tally the hardened-recovery machinery's event families for one run:
    how often steps timed out or failed, how often recovery retried or
    degraded, how many control RPCs were resent, how many spurious
    failovers the suspicion threshold let through."""
    return {
        "detected": count_events(recovery_events, "detected"),
        "recovered": count_events(recovery_events, "recovered"),
        "step_timeouts": count_events(recovery_events, "step-timeout"),
        "step_failures": count_events(recovery_events, "step-failed"),
        "recovery_retries": count_events(recovery_events, "recovery-retry"),
        "rpc_retries": count_events(recovery_events, "rpc-retry"),
        "rpc_exhausted": count_events(recovery_events, "rpc-exhausted"),
        "dfs_retries": count_events(recovery_events, "dfs-retry"),
        "degradations": count_events(recovery_events, "degraded"),
        "recovery_stalls": count_events(recovery_events, "recovery-stalled"),
        "spurious_failovers": count_events(recovery_events, "spurious-failover"),
        "standby_losses": count_events(recovery_events, "standby-lost"),
        "standby_reprovisioned": count_events(
            recovery_events, "standby-reprovisioned"
        ),
        "chaos_injected": count_events(recovery_events, "chaos:"),
        "integrity_events": count_events(recovery_events, "integrity:"),
        "epoch_fallbacks": count_events(recovery_events, "integrity:epoch-fallback"),
    }


def integrity_summary(jm) -> dict:
    """Per-artifact validation counters for one run: everything the
    :class:`~repro.integrity.monitor.IntegrityMonitor` verified or flagged,
    plus the integrity events the recovery ladder recorded (epoch fallbacks,
    invalidated epochs, timeline rewinds).  Flat dict, benchmark
    ``extra_info``-friendly."""
    summary = jm.integrity.summary()
    summary["integrity_events"] = count_events(jm.recovery_events, "integrity:")
    summary["epoch_fallbacks"] = count_events(
        jm.recovery_events, "integrity:epoch-fallback"
    )
    return summary


def stall_summary(jm) -> dict:
    """Recovery-liveness verdict for one run, benchmark ``extra_info``-
    friendly: ``verdict`` is ``"stalled"`` iff the watchdog detected a
    frozen progress fingerprint (or the run died on a structured
    :class:`~repro.errors.RecoveryStallError`), else ``"ok"``."""
    from repro.errors import RecoveryStallError

    watchdog = getattr(jm, "watchdog", None)
    stalls = getattr(watchdog, "stalls_detected", 0)
    stall_crash = any(
        isinstance(exc, RecoveryStallError) for (_name, exc) in jm.crashed
    )
    return {
        "verdict": "stalled" if (stalls or stall_crash) else "ok",
        "stalls_detected": stalls,
        "stall_escalations": getattr(watchdog, "escalations", 0),
        "stalls_announced": count_events(
            jm.recovery_events, "degraded:recovery_stalled"
        ),
    }


def throughput_dip(
    samples: Sequence[ThroughputSample],
    failure_time: float,
    baseline_window: float = 5.0,
) -> Tuple[float, float]:
    """(baseline rate, minimum rate after the failure): quantifies downtime."""
    before = [
        s.records_per_second
        for s in samples
        if failure_time - baseline_window <= s.time < failure_time
    ]
    after = [s.records_per_second for s in samples if s.time >= failure_time]
    baseline = sum(before) / len(before) if before else 0.0
    worst = min(after) if after else 0.0
    return baseline, worst


def scenario_summary(results) -> dict:
    """Aggregate verdict of a scenario-pack run (duck-typed: accepts
    :class:`~repro.scenarios.runner.ScenarioResult` objects or their
    ``to_dict()`` forms), shaped for benchmark ``extra_info``."""
    def _field(r, name, default=None):
        if isinstance(r, dict):
            return r.get(name, default)
        return getattr(r, name, default)

    failed = sorted(
        _field(r, "name", "?") for r in results
        if _field(r, "verdict") != "pass"
    )
    worst = [
        (
            _field(r, "recovery_time", _field(r, "recovery_time_s")) or 0.0,
            _field(r, "name", "?"),
        )
        for r in results
    ]
    slowest = max(worst, default=(0.0, None))
    return {
        "scenarios": len(results),
        "passed": sum(1 for r in results if _field(r, "verdict") == "pass"),
        "failed": failed,
        "verdict": "ok" if not failed else "fail",
        "worst_recovery_s": round(slowest[0], 6),
        "worst_recovery_scenario": slowest[1],
    }
