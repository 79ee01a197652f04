"""The fault-experiment engine's verdict function, walked over the whole
lattice with hand-built observations — no simulation."""

from collections import Counter

import pytest

from repro.chaos.experiment import Observation, grade
from repro.errors import FailureInjectionError, JobError, RecoveryStallError

EXPECTED = {(0, 0), (0, 1), (0, 2)}
ANNOUNCED = [(0.5, "degraded:global_rollback", "job")]


def observe(counts, **fields):
    projection = Counter({(0, off): n for off, n in enumerate(counts) if n})
    return Observation(expected=EXPECTED, projection=projection, **fields)


@pytest.mark.parametrize(
    "obs, kwargs, outcome",
    [
        (observe([1, 1, 1]), {}, "transparent"),
        (observe([1, 0, 1]), {}, "violation:data-loss"),
        (observe([1, 1, 1, 1]), {}, "violation:alien-output"),
        (observe([2, 1, 1]), {}, "violation:silent-duplication"),
        (observe([2, 1, 1], recovery_events=ANNOUNCED), {}, "announced-degradation"),
        # Loss is never excused by an announcement alone...
        (observe([1, 0, 1], recovery_events=ANNOUNCED), {}, "violation:data-loss"),
        # ...only for records the poison registry quarantined.
        (observe([1, 0, 1], quarantined=frozenset({(0, 1)})), {}, "announced-degradation"),
        (observe([0, 0, 1], quarantined=frozenset({(0, 1)})), {}, "violation:data-loss"),
        # Strict mode: announcements excuse nothing.
        (
            observe([2, 1, 1], recovery_events=ANNOUNCED),
            {"strict": True},
            "violation:degradation-not-permitted",
        ),
        (
            observe([1, 0, 1], quarantined=frozenset({(0, 1)})),
            {"strict": True},
            "violation:data-loss",
        ),
        (observe([1, 1, 1]), {"strict": True}, "transparent"),
        # A run that did not end on its own is graded by how it ended,
        # whatever output it managed to produce.
        (
            observe([1, 1, 1], error=RecoveryStallError("job", "replay", 0.4, {})),
            {},
            "violation:recovery-stalled",
        ),
        (observe([1, 0, 0], error=JobError("task crashed")), {}, "violation:hang"),
        (
            observe([1, 1, 1], error=FailureInjectionError("src[0]", "finished")),
            {},
            "skipped:victim-finished",
        ),
        # A schedule whose kills did not all land probed nothing.
        (observe([1, 1, 1], kills_landed=1), {"kills_planned": 2}, "skipped:kill-not-landed"),
        (observe([1, 1, 1], kills_landed=2), {"kills_planned": 2}, "transparent"),
    ],
)
def test_verdict_lattice(obs, kwargs, outcome):
    result = grade("case", obs, **kwargs)
    assert result.outcome == outcome, result.detail
    assert result.ok == (not outcome.startswith("violation"))


def test_result_counts_are_the_one_diff():
    obs = observe([3, 0, 1, 2], recovery_events=ANNOUNCED)
    result = grade(7, obs)
    assert result.label == "7"
    assert (result.expected, result.delivered) == (3, 6)
    assert (result.missing, result.duplicated, result.extra) == (1, 2, 2)
    assert result.outcome == "violation:data-loss"
    assert "silently lost" in result.detail
