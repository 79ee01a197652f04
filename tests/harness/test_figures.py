"""Characterization of the paper's figure runners at small scale.

Pins the numbers the CLI prints for Figure 5 / Section 7.3 and Table 1, and
what the Figure 6 and Section 7.5 runners return for explicit small
parameters, so a change to how the figures are declared or rendered can be
checked against the values they produced before.
"""

import re

import pytest

from repro.cli import main
from repro.harness.figures import (
    determinant_pool_study,
    fig6_multi_failures,
    fig6_single_failure,
    memory_spill_study,
)


def _table_rows(out):
    """``(label, cells)`` for every printed table row (cells split on runs of
    two or more spaces)."""
    rows = []
    for line in out.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) > 1:
            rows.append((cells[0], tuple(cells[1:])))
    return rows


def _numeric(cells):
    try:
        return tuple(float(c) for c in cells)
    except ValueError:
        return None


FIG5_300 = {
    "Q1": (61515, 0.992, 0.991),
    "Q2": (70859, 0.995, 0.993),
    "Q3": (64450, 0.987, 0.964),
    "Q4": (31103, 0.989, 0.960),
    "Q5": (35963, 0.989, 0.949),
    "Q6": (45373, 0.987, 0.946),
    "Q7": (46312, 0.986, 0.943),
    "Q8": (58973, 0.987, 0.965),
    "Q9": (31958, 0.988, 0.959),
    "Q11": (34098, 0.994, 0.988),
    "Q12": (50107, 0.942, 0.934),
    "Q13": (57075, 0.945, 0.942),
    "Q14": (57297, 1.002, 0.999),
}

#: Section 7.3 latency rows (flink, DSD=1, DSD=Full): p50 ms, p99 ms.
LATENCY_Q1_300 = [(28.52, 40.52)] * 3


def test_fig5_numbers_at_300_events(capsys):
    assert main(["figures", "--only", "fig5", "--events", "300"]) == 0
    rows = [
        (label, _numeric(cells))
        for label, cells in _table_rows(capsys.readouterr().out)
        if _numeric(cells) is not None
    ]
    assert {label: nums for label, nums in rows if re.fullmatch(r"Q\d+", label)} == FIG5_300
    assert [nums for label, nums in rows if not label.startswith("Q")] == LATENCY_Q1_300


TABLE1_1200 = [
    (mode, operator, "0", "0", "0", "yes")
    for mode in ("clonos", "seep", "divergent", "gap_recovery")
    for operator in ("deterministic", "nondeterministic")
]


def test_table1_cells_at_1200_events(capsys):
    assert main(["figures", "--only", "table1", "--events", "1200"]) == 0
    modes = {mode for mode, *_ in TABLE1_1200}
    rows = [(label, *cells) for label, cells in _table_rows(capsys.readouterr().out)
            if label in modes]
    assert rows == TABLE1_1200


def _arm(run):
    result = run.result
    return (
        round(run.recovery_time, 6),
        result.throughput_dip_after(0),
        len(result.output_values()),
        round(result.duration, 6),
    )


def test_fig6_single_small():
    runs = fig6_single_failure(
        query="Q3", victim="join[0]", parallelism=2, events_per_partition=6000,
        rate=3000.0, kill_at=1.2, checkpoint_interval=0.5,
    )
    assert {label: _arm(run) for label, run in runs.items()} == {
        "clonos": (0.575035, (37.0, 12.0), 83, 2.002856),
        "flink": (15.075589, (37.0, 0.0), 101, 16.275954),
    }


@pytest.mark.parametrize(
    "concurrent, clonos_recovery, clonos_duration",
    [(False, 2.760939, 4.290157), (True, 0.621284, 4.290241)],
    ids=["staggered", "concurrent"],
)
def test_fig6_multi_small(concurrent, clonos_recovery, clonos_duration):
    runs = fig6_multi_failures(
        concurrent=concurrent, depth=5, parallelism=2, rate=700.0,
        events_per_partition=3000, checkpoint_interval=1.0, first_kill_at=1.5,
        interval=1.0, state_bytes=1024,
    )
    gap = 0.0 if concurrent else 1.0
    for run in runs.values():
        assert run.result.failures == [
            (1.5 + i * gap, f"stage{i + 1}[0]") for i in range(3)
        ]
    assert round(runs["clonos"].recovery_time, 6) == clonos_recovery
    assert round(runs["clonos"].result.duration, 6) == clonos_duration
    assert round(runs["flink"].recovery_time, 6) == 15.072093
    assert round(runs["flink"].result.duration, 6) == 16.572896


def test_memory_spill_small():
    rows = memory_spill_study(
        pool_bytes_options=(16 * 1024, 1024 * 1024), rate=2000.0, duration=1.5
    )
    assert [
        (r.policy, r.pool_kbytes, r.rate, r.peak_memory_buffers, r.spilled_buffers)
        for r in rows
    ] == [
        ("in-memory", 16, 0.0, 4, 0),
        ("in-memory", 1024, 3999.0, 52, 0),
        ("spill-epoch", 16, 0.0, 4, 0),
        ("spill-epoch", 1024, 3999.0, 52, 0),
        ("spill-buffer", 16, 3999.0, 0, 814),
        ("spill-buffer", 1024, 3999.0, 0, 814),
        ("spill-threshold", 16, 3999.0, 4, 840),
        ("spill-threshold", 1024, 3999.0, 52, 0),
    ]


def test_determinant_pool_small():
    rows = determinant_pool_study(rate=2000.0, duration=1.0)
    assert [(r.dsd_label, r.depth, r.peak_determinant_bytes) for r in rows] == [
        ("dsd1", 3, 4043),
        ("full", 3, 7491),
        ("dsd1", 5, 4043),
        ("full", 5, 12255),
    ]
