"""Failure-transparency explorer: enumeration is exhaustive, verdicts sound.

The CI gate runs the full default matrix via ``repro gates --only
transparency``; the tests here keep a reduced matrix (the 2- and 3-operator
graphs) in the tier-1 suite so a transparency regression fails the PR, and
unit-test the enumeration and verdict logic in isolation.
"""

from collections import Counter

from repro.chaos.experiment import Baseline, Observation, baseline, grade
from repro.transparency.explorer import (
    CHECKPOINT_INTERVAL,
    SEED,
    FailurePoint,
    default_topologies,
    enumerate_failure_points,
    failure_points,
    reports_of,
    run_case,
    suite_payload,
)


def topo(name):
    (match,) = [t for t in default_topologies() if t.name == name]
    return match


def explore_topology(t, boundaries=2, compound=True):
    """Run every failure point of one topology; its report."""
    points = failure_points(t, boundaries, compound)
    (report,) = reports_of([run_case(t, point) for point in points.values()])
    return report


class TestEnumeration:
    def baseline(self):
        return Baseline(
            duration=1.0,
            snapshot_times={
                ("src[0]", 1): 0.25,
                ("src[0]", 2): 0.50,
                ("sink[0]", 1): 0.26,
                ("sink[0]", 2): 0.51,
            },
            completed={1: 0.30, 2: 0.55},
            tasks=("sink[0]", "src[0]"),
        )

    def test_singles_cover_task_x_boundary_x_side(self):
        points = enumerate_failure_points(self.baseline(), compound=False)
        labels = {p.label for p in points}
        assert labels == {
            "src[0]@cp1-pre", "src[0]@cp1-post",
            "src[0]@cp2-pre", "src[0]@cp2-post",
            "sink[0]@cp1-pre", "sink[0]@cp1-post",
            "sink[0]@cp2-pre", "sink[0]@cp2-post",
        }
        for point in points:
            assert len(point.kills) == 1
            (at, victim) = point.kills[0]
            side = point.label.rsplit("-", 1)[1]
            cid = int(point.label.split("@cp")[1].split("-")[0])
            snap = self.baseline().snapshot_times[(victim, cid)]
            assert (at < snap) == (side == "pre")

    def test_compound_pairs_overlap_recoveries(self):
        points = enumerate_failure_points(self.baseline(), compound=True)
        pairs = [p for p in points if p.label.startswith("pair:")]
        assert len(pairs) == 1  # C(2, 2)
        (pair,) = pairs
        assert len(pair.kills) == 2
        (t0, _a), (t1, _b) = pair.kills
        assert t1 > t0  # second kill lands inside the first recovery

    def test_boundaries_knob_truncates_epochs(self):
        points = enumerate_failure_points(
            self.baseline(), boundaries=1, compound=False
        )
        assert {p.label for p in points} == {
            "src[0]@cp1-pre", "src[0]@cp1-post",
            "sink[0]@cp1-pre", "sink[0]@cp1-post",
        }


class TestPairTopology:
    def test_baseline_is_exactly_once_and_harvests_boundaries(self):
        # baseline() raises unless the failure-free output is exactly-once.
        reference = baseline(topo("pair-p1").job, SEED, CHECKPOINT_INTERVAL)
        assert reference.duration > 0
        assert len(reference.completed) >= 2
        assert reference.tasks == ("sink[0]", "src[0]")

    def test_full_matrix_has_no_silent_divergence(self):
        report = explore_topology(topo("pair-p1"))
        assert report.cases, "matrix must not be empty"
        assert report.violations == []
        tally = report.tally()
        assert (
            tally["transparent"] + tally["announced_degradation"] + tally["skipped"]
            == tally["cases"]
            == len(report.cases)
        )


class TestChainTopology:
    def test_three_operator_matrix_has_no_silent_divergence(self):
        report = explore_topology(topo("chain3-p1"))
        assert report.cases
        assert report.violations == []
        # Every task must be probed on both sides of at least one boundary.
        probed = {
            p.kills[0][1]
            for p in report.points.values()
            if not p.label.startswith("pair:")
        }
        assert probed == {"src[0]", "stage1[0]", "sink[0]"}


class TestPayload:
    def test_payload_shape_and_tallies(self):
        report = explore_topology(topo("pair-p1"), boundaries=1, compound=False)
        payload = suite_payload([report])
        assert payload["suite"] == "transparency"
        assert payload["cases_total"] == len(report.cases)
        assert payload["violations"] == 0
        assert payload["violating_cases"] == []
        (entry,) = payload["topologies"]
        assert entry["name"] == "pair-p1"
        assert entry["tasks"] == 2 and entry["expected_records"] == 600
        assert entry["operators"] == 2
        assert (
            entry["transparent"]
            + entry["announced_degradation"]
            + entry["skipped"]
            == entry["cases"]
        )

    def test_violating_case_is_replayable_from_payload(self):
        point = FailurePoint(label="x@cp1-pre", kills=((0.23, "x"),))
        lossy = Observation(expected={(0, 0), (0, 1), (0, 2)}, projection=Counter())
        bad = grade("pair-p1/x@cp1-pre", lossy)
        assert bad.outcome == "violation:data-loss"
        report = explore_topology(topo("pair-p1"), boundaries=1, compound=False)
        report.cases.append(bad)
        report.points[bad.label] = point
        payload = suite_payload([report])
        assert payload["violations"] == 1
        (case,) = payload["violating_cases"]
        assert case["case"] == "x@cp1-pre"
        assert case["kills"] == [[0.23, "x"]]
        assert case["missing"] == 3


class TestVerdicts:
    def test_kill_that_never_lands_is_skipped_not_transparent(self):
        t = topo("pair-p1")
        # Scheduled far beyond the baseline duration (~0.6s): the job ends
        # first, the kill never lands, and the case probed nothing.
        late = FailurePoint(label="src[0]@late", kills=((50.0, "src[0]"),))
        result = run_case(t, late)
        assert result.outcome == "skipped:kill-not-landed"
        assert result.ok

    def test_single_kill_case_is_transparent(self):
        t = topo("pair-p1")
        point = FailurePoint(label="src[0]@cp1-post", kills=((0.27, "src[0]"),))
        result = run_case(t, point)
        assert result.outcome == "transparent"
        assert result.missing == 0
        assert result.duplicated == 0
