"""The gate table and its one selection: labels, seeds, and the usage
errors that keep a gate from running nothing.  Nothing here runs a case;
``test_fault_goldens.py`` runs each gate once."""

import pytest

from repro.harness.gates import GATES, GateSelectionError, select
from repro.scenarios import SCENARIOS


def labels(cases):
    return [label for label, _run in cases]


def test_gates_are_the_golden_keys_in_order():
    assert list(GATES) == ["chaos", "integrity", "transparency", "scenarios"]
    assert [name for name, gate in GATES.items() if gate.payload] == [
        "transparency", "scenarios",
    ]


def test_default_seeded_cases_are_the_ci_sets():
    selected = select(["chaos", "integrity", "scenarios"])
    assert labels(selected["chaos"]) == [str(seed) for seed in range(16)]
    assert labels(selected["integrity"]) == [str(seed) for seed in range(12)]
    assert labels(selected["scenarios"]) == [s.name for s in SCENARIOS]


def test_scenario_cases_filter_by_label_and_reject_unknown():
    selected = select(["scenarios"], ["crashloop"])
    assert list(selected) == ["scenarios"]
    assert labels(selected["scenarios"]) == ["crashloop"]
    with pytest.raises(GateSelectionError, match="no case matches: nope"):
        select(["scenarios"], ["nope"])


def test_a_label_entry_keeps_the_cases_under_it():
    cases = labels(select(["transparency"], ["pair-p1"])["transparency"])
    assert len(cases) == 9
    assert all(label.startswith("pair-p1/") for label in cases)
    # An entry matches a whole label or a whole '/' prefix, never a fragment.
    with pytest.raises(GateSelectionError, match="no case matches: pair"):
        select(["transparency"], ["pair"])


def test_a_label_selection_drops_the_gates_it_leaves_empty():
    selected = select(["chaos", "integrity", "scenarios"], ["9"])
    assert {name: labels(cases) for name, cases in selected.items()} == {
        "chaos": ["9"],
        "integrity": ["9"],
    }


def test_seeds_replace_the_seed_sets_and_every_scenario_seed():
    selected = select(["chaos", "integrity", "scenarios"], seeds=[5, 7])
    assert labels(selected["chaos"]) == labels(selected["integrity"]) == ["5", "7"]
    runs = [run for _label, run in selected["scenarios"]]
    assert len(runs) == 2 * len(SCENARIOS)
    assert {run.args[1] for run in runs} == {5, 7}
    scenario_labels = labels(selected["scenarios"])
    assert len(set(scenario_labels)) == len(scenario_labels)
    both = select(["scenarios"], ["zone_failover"], seeds=[5, 7])["scenarios"]
    assert labels(both) == ["zone_failover/5", "zone_failover/7"]
    one = select(["scenarios"], ["zone_failover/7"], seeds=[5, 7])["scenarios"]
    assert labels(one) == ["zone_failover/7"]
    assert one[0][1].args[1] == 7
    with pytest.raises(GateSelectionError, match="transparency takes no seeds"):
        select(["transparency"], seeds=[1])


def test_unknown_gate_is_refused():
    with pytest.raises(GateSelectionError, match="unknown gates: nope"):
        select(["chaos", "nope"])
