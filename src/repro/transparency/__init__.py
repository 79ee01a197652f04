"""Failure transparency: exhaustive observational-equivalence checking.

Clonos' headline guarantee (Section 3) is *failure transparency*: a consumer
of the job's output cannot tell, from the output alone, whether a failure
happened.  This package turns that claim into an executable check — an
explorer that enumerates **every** interesting failure point on small
topologies (each task x each epoch boundary x just-before / just-after its
snapshot, plus compound kill pairs) and asserts that the recovered run's
sink output is observationally equivalent to the failure-free baseline.

Equivalence is judged on the **origin projection**: the multiset of input
identities ``(partition, offset)`` reaching the sink.  Wall-clock stamps and
per-key interleaving legitimately vary between legal executions, so full
value equality would reject failure-free reruns too; the origin projection
is exactly the identity exactly-once is defined over.  Divergence is
tolerated only when it is *announced* — the run recorded a degradation
marker — and even then only downward to at-least-once (duplicates allowed,
loss never).  See DESIGN.md, "Failure transparency as a checkable property".
"""

from repro.transparency.explorer import (
    FailurePoint,
    Topology,
    TransparencyReport,
    default_topologies,
    enumerate_failure_points,
    explore_topology,
    run_transparency_suite,
    suite_payload,
)

__all__ = [
    "FailurePoint",
    "Topology",
    "TransparencyReport",
    "default_topologies",
    "enumerate_failure_points",
    "explore_topology",
    "run_transparency_suite",
    "suite_payload",
]
