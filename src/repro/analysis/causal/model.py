"""The causal-coverage model: what counts as a source, sink, and sanitizer.

NDLint's per-function rules (ND101–ND107) flag *call sites*; the causal
analyzer proves a whole-program property instead: no nondeterminism source
can reach replayable state or sink output without flowing through
determinant logging.  That property needs a shared vocabulary:

* **Sources** create values that differ across re-executions: the wall
  clock, un-seeded RNG, hash/identity-ordered containers, and the
  cross-channel select order of the input gate.
* **Sinks** are where a nondeterministic value becomes *load-bearing* for
  recovery: persisted task state (``TaskSnapshot``, operator snapshots,
  the keyed state backend) and emitted output (``Context.collect``,
  ``RecordWriter.emit``, in-flight log entries).
* **Sanitizers** are the determinant-recording calls of
  :mod:`repro.core.determinants` / :mod:`repro.core.causal_log`: once a
  value (or the decision that produced it) is appended to the causal log,
  replay regenerates it exactly and the flow is covered.

Each category lists *dotted-name patterns* matched against call
expressions — the same matching discipline as :mod:`repro.analysis.rules`,
kept file-based and import-free so the analyzer never executes the code it
scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.analysis.rules import (
    _AMBIENT_CALLS,
    _AMBIENT_PREFIXES,
    _RNG_CALLS,
    _RNG_PREFIXES,
    _WALL_CLOCK_CALLS,
    RULES_BY_KEY,
    Rule,
    SEV_ERROR,
)

# -- the interprocedural rule catalogue ---------------------------------------------

ND_STATE = Rule(
    "ND201",
    "unlogged-nd-reaches-state",
    SEV_ERROR,
    "nondeterministic value reaches replayable state without a determinant",
    "any — the flow must pass a determinant-recording call",
    "§4 (determinant taxonomy), §5 (causal replay)",
    "route the nondeterministic read through ctx.services (or append a "
    "determinant) before it is persisted into snapshot/keyed state",
)

ND_OUTPUT = Rule(
    "ND202",
    "unlogged-nd-reaches-output",
    SEV_ERROR,
    "nondeterministic value reaches sink output without a determinant",
    "any — the flow must pass a determinant-recording call",
    "§4.3 (piggybacked determinants), §5.2 (byte-identical replay)",
    "log the value as a determinant before emitting; replayed output must "
    "be byte-identical to the original run",
)

ND_DEAD = Rule(
    "ND203",
    "dead-determinant",
    SEV_ERROR,
    "determinant type is recorded but never replayed",
    "the recorded type itself",
    "§5 (replay consumes every logged determinant)",
    "consume the determinant kind in the replay path "
    "(repro.core.recovery / services), or stop recording it",
)

ND_PHASE = Rule(
    "ND210",
    "phase-protocol",
    SEV_ERROR,
    "phase-begin/phase-end emissions are not well-nested on every path",
    "none — recovery observability invariant (PR 5)",
    "DESIGN.md, Causal tracing: phases partition the incident",
    "close every phase-begin with a matching phase-end on each "
    "early-return/exception edge (try/finally), or demote it to phase-mark",
)

CAUSAL_RULES: Tuple[Rule, ...] = (ND_STATE, ND_OUTPUT, ND_DEAD, ND_PHASE)

# Register in the shared key map so `# ndlint: disable=ND201` comments and
# report rendering resolve causal rules exactly like the per-function ones.
for _rule in CAUSAL_RULES:
    RULES_BY_KEY.setdefault(_rule.rule_id, _rule)
    RULES_BY_KEY.setdefault(_rule.name, _rule)


# -- source taxonomy ---------------------------------------------------------------

#: Source categories (used to pair sources with the sanitizers that cover them).
RNG = "rng"
CLOCK = "clock"
HASH_ORDER = "hash_order"
SELECT_ORDER = "select_order"
AMBIENT = "ambient"

#: Dotted-name prefixes and calls that draw module-level / OS randomness
#: (shared with ND102).  Seeded streams (``random.Random(derive_seed(...))``,
#: ``self.rng.random()``) deliberately do NOT match: prefixes anchor at the
#: start of the dotted name, so only the *module-level* ``random.*`` API is a
#: source.
RNG_PREFIXES: Tuple[str, ...] = _RNG_PREFIXES
RNG_CALLS: FrozenSet[str] = _RNG_CALLS
#: ``random.Random()`` *without* a seed argument falls back to OS entropy;
#: with one it is the standard deterministic-stream idiom and is exempt.
UNSEEDED_RNG_CTORS: FrozenSet[str] = frozenset({"random.Random", "Random"})

#: Wall-clock reads (shared with ND101).
CLOCK_CALLS: FrozenSet[str] = frozenset(_WALL_CLOCK_CALLS)

#: Identity/hash observations: values vary per process (PYTHONHASHSEED,
#: allocator layout), so anything derived from them is nondeterministic.
HASH_ORDER_CALLS: FrozenSet[str] = frozenset({"id", "hash"})

#: Cross-channel select order: which input channel the main loop consumes
#: next is a race outcome; it must be captured as an OrderDeterminant.
SELECT_ORDER_SUFFIXES: Tuple[str, ...] = (
    ".poll_buffer",
    ".next_buffer",
    ".take_ready",
    "._take_ready",
)

#: Ambient host/process environment reads (shared with ND106).
AMBIENT_PREFIXES: Tuple[str, ...] = _AMBIENT_PREFIXES
AMBIENT_CALLS: FrozenSet[str] = _AMBIENT_CALLS


# -- sanitizer taxonomy ------------------------------------------------------------

#: Determinant constructors sanitize the category they log.  Any class name
#: ending in ``Determinant`` is recognized; this map refines *which*
#: category each known constructor covers (unknown ``*Determinant`` names
#: cover every category — custom determinants log arbitrary results).
DETERMINANT_CATEGORIES = {
    "TimestampDeterminant": (CLOCK,),
    "RngSeedDeterminant": (RNG,),
    "OrderDeterminant": (SELECT_ORDER,),
    "TimerFiredDeterminant": (CLOCK, SELECT_ORDER),
    "WatermarkEmitDeterminant": (CLOCK,),
    "BarrierInjectDeterminant": (SELECT_ORDER,),
    "BufferSizeDeterminant": (SELECT_ORDER,),
}

#: Call-name suffixes that append to the causal log: passing a value to one
#: of these *is* logging it.
LOG_APPEND_SUFFIXES: Tuple[str, ...] = (
    ".append_main",
    ".append_queue",
    ".merge_slice",
)

#: The causal services facade: results of these calls are logged/replayed by
#: construction, so the call expression itself is deterministic.
SERVICE_CALL_SUFFIXES: Tuple[str, ...] = (
    "services.timestamp",
    "services.random",
    "services.http_get",
    "services.custom",
    ".processing_time",
)

#: Canonicalisers: remove hash-order nondeterminism from their argument.
CANONICALIZERS: FrozenSet[str] = frozenset({"sorted", "fingerprint", "min", "max"})


# -- sink taxonomy ----------------------------------------------------------------

STATE_SINK = "state"
OUTPUT_SINK = "output"

#: Constructing a TaskSnapshot persists its arguments.
STATE_SINK_CTORS: FrozenSet[str] = frozenset({"TaskSnapshot"})

#: Writes into the keyed state backend.
STATE_SINK_SUFFIXES: Tuple[str, ...] = (
    ".update",
    ".put",
    ".add",
)
#: ...but only on receivers that look like state handles; bare ``x.append``
#: on a local list must not count.  A call matches only when its receiver
#: name contains one of these tokens.
STATE_RECEIVER_TOKENS: Tuple[str, ...] = ("state", "backend")

#: Functions whose *return value* is persisted verbatim into checkpoints.
SNAPSHOT_DEFS: FrozenSet[str] = frozenset(
    {"snapshot", "snapshot_state", "snapshot_keyed_state"}
)

#: Emission entry points: anything passed here leaves the task.
OUTPUT_SINK_SUFFIXES: Tuple[str, ...] = (
    ".collect",
    ".collect_record",
    ".emit",
    ".broadcast",
    ".append_element",
)


@dataclass(frozen=True)
class FlowStep:
    """One hop of a reported source→sink path."""

    file: str
    line: int
    description: str


@dataclass(frozen=True)
class CausalFinding:
    """An interprocedural finding, carrying its full flow path."""

    rule: Rule
    file: str
    line: int
    message: str
    path: Tuple[FlowStep, ...] = field(default_factory=tuple)
    #: Stable identity used by the allowlist: ``rule:file-suffix:symbol``.
    symbol: str = ""

    @property
    def location(self) -> str:
        """``file:line`` — same shape as per-function lint findings, so
        :meth:`DeterminismViolation.from_findings` accepts either kind."""
        return f"{self.file}:{self.line}"


def match_suffix(name: Optional[str], suffixes: Tuple[str, ...]) -> bool:
    return bool(name) and any(name.endswith(s) for s in suffixes)


def match_prefix(name: Optional[str], prefixes: Tuple[str, ...]) -> bool:
    return bool(name) and any(
        name == p.rstrip(".") or name.startswith(p) for p in prefixes
    )
