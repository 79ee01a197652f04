"""The acceptance gate: the shipped tree passes its own causal analyzer."""

from repro.analysis.causal import CAUSAL_RULES, analyze_tree
from repro.analysis.causal.model import RULES_BY_KEY


def test_shipped_tree_is_clean():
    report = analyze_tree()
    assert report.parse_errors == []
    assert report.findings == [], report.render()
    assert report.ok
    # With an empty allowlist nothing can be exempted either.
    assert report.exempted == []


def test_analyzer_covers_the_real_tree():
    report = analyze_tree()
    # Sanity-check the scan actually saw the runtime, not an empty dir.
    assert report.stats["modules"] > 50
    assert report.stats["functions"] > 500
    assert report.stats["fixpoint_iterations"] >= 1
    assert report.stats["wall_clock_s"] > 0


def test_causal_rules_registered_for_suppression_comments():
    # `# ndlint: disable=ND201` names a rule by its id or its name.
    for rule in CAUSAL_RULES:
        assert RULES_BY_KEY[rule.rule_id] is rule
        assert RULES_BY_KEY[rule.name] is rule
