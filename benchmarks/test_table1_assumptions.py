"""Table 1, operationalised: what each scheme's assumptions buy you.

The paper's Table 1 lists the *assumptions* of related local-recovery
systems; this benchmark measures their *consequences*: each scheme recovers
the same failed operator, once deterministic and once nondeterministic, and
we count exactly-once violations in the output.

Expected matrix (matching Section 5.4 and Table 1):

* Clonos            — exactly-once, both columns.
* SEEP-style dedup  — exactly-once iff the operator is deterministic.
* Divergent replay  — at-least-once (duplicates), both columns.
* Gap recovery      — at-most-once (loss), both columns.
"""

from repro.harness.figures import render_table1, table1_assumptions


def test_table1_consistency_matrix(once):
    cells = once(table1_assumptions)
    print()
    print(render_table1(cells))
    by = {(c.mode, c.deterministic): c for c in cells}
    # Clonos: exactly-once regardless of determinism (the paper's claim).
    assert by[("clonos", True)].exactly_once
    assert by[("clonos", False)].exactly_once
    # SEEP-style receiver dedup: sound only under its determinism assumption.
    assert by[("seep", True)].exactly_once
    assert not by[("seep", False)].exactly_once
    # Divergent replay duplicates; gap recovery loses.
    assert by[("divergent", True)].duplicated > 0
    assert by[("divergent", False)].duplicated > 0
    assert by[("divergent", True)].lost == 0
    assert by[("gap_recovery", True)].lost > 0
    assert by[("gap_recovery", True)].duplicated == 0
