"""The causal-coverage model: what counts as a source, sink, and sanitizer.

The analyzer proves one property: no nondeterminism source can reach
replayable state or emitted output without flowing through determinant
logging.  That property needs a shared vocabulary:

* **Sources** create values that differ across re-executions: the wall
  clock, un-seeded RNG, direct external calls, ambient host reads,
  hash/identity-ordered values (set iteration, ``id()``/``hash()``,
  directory listings), the cross-channel select order of the input gate,
  and closure state a UDF mutates across records (no checkpoint holds it).
* **Sinks** are where a nondeterministic value becomes *load-bearing* for
  recovery: persisted task state (``TaskSnapshot``, operator snapshots,
  the keyed state backend) and emitted output (``Context.collect``,
  ``RecordWriter.emit``, in-flight log entries, a UDF's return value).
* **Sanitizers** are the determinant-recording calls of
  :mod:`repro.core.determinants` / :mod:`repro.core.causal_log` and the
  ``ctx.services`` facade: once a value (or the decision that produced it)
  is appended to the causal log, replay regenerates it exactly.

Each category lists *dotted-name patterns* matched against call
expressions, kept file-based and import-free so the analyzer never
executes the code it scans.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: its id and its name."""

    rule_id: str
    name: str


#: A nondeterministic value reaches replayable state without a determinant.
ND_STATE = Rule("ND201", "unlogged-nd-reaches-state")
#: A nondeterministic value reaches sink output without a determinant.
ND_OUTPUT = Rule("ND202", "unlogged-nd-reaches-output")
#: A determinant type is recorded but never replayed.
ND_DEAD = Rule("ND203", "dead-determinant")
#: phase-begin/phase-end emissions are not well-nested on every path.
ND_PHASE = Rule("ND210", "phase-protocol")

CAUSAL_RULES: Tuple[Rule, ...] = (ND_STATE, ND_OUTPUT, ND_DEAD, ND_PHASE)

#: Rule id or name -> rule, for ``# ndlint: disable=<rule>`` comments.
RULES_BY_KEY: Dict[str, Rule] = {
    key: rule for rule in CAUSAL_RULES for key in (rule.rule_id, rule.name)
}

#: ``# ndlint: disable`` or ``# ndlint: disable=ND202,ND201`` (ids or names).
_DISABLE_RE = re.compile(r"#\s*ndlint:\s*disable(?:=([\w\-,\s]+))?")


def suppresses(line: str, rule: Rule) -> bool:
    """Does an inline comment on ``line`` waive ``rule``?  A bare
    ``# ndlint: disable`` waives every rule."""
    match = _DISABLE_RE.search(line)
    if match is None:
        return False
    if not match.group(1):
        return True
    return any(
        RULES_BY_KEY.get(key.strip()) is rule for key in match.group(1).split(",")
    )


# -- source taxonomy ---------------------------------------------------------------

#: Source categories (used to pair sources with the sanitizers that cover them).
RNG = "rng"
CLOCK = "clock"
HASH_ORDER = "hash_order"
SELECT_ORDER = "select_order"
AMBIENT = "ambient"
EXTERNAL = "external"
CAPTURED = "captured_state"

#: The rewrite that makes each category causally loggable, quoted in findings.
FIXES: Dict[str, str] = {
    CLOCK: "use ctx.services.timestamp() (TimestampDeterminant)",
    RNG: "use ctx.services.random() (RngSeedDeterminant)",
    EXTERNAL: "route the call through ctx.services.http_get(key) or "
    "ctx.services.custom(name, fn, arg) (ExternalCallDeterminant)",
    AMBIENT: "wrap the read in ctx.services.custom(name, fn, arg) "
    "(CustomDeterminant)",
    HASH_ORDER: "iterate or persist a sorted(...) copy",
    SELECT_ORDER: "log the consumed channel as an OrderDeterminant",
    CAPTURED: "keep cross-record state in ctx.state(StateDescriptor(...)) "
    "so snapshots and replay see it",
}

#: Wall-clock reads.
CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Dotted-name prefixes and calls that draw module-level / OS randomness.
#: Seeded streams (``random.Random(derive_seed(...))``, ``self.rng.random()``)
#: deliberately do NOT match: prefixes anchor at the start of the dotted
#: name, so only the *module-level* ``random.*`` API is a source.
RNG_PREFIXES: Tuple[str, ...] = ("random.", "np.random.", "numpy.random.", "secrets.")
RNG_CALLS: FrozenSet[str] = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "os.getrandom"}
)
#: ``random.Random()`` *without* a seed argument falls back to OS entropy;
#: with one it is the standard deterministic-stream idiom and is exempt.
UNSEEDED_RNG_CTORS: FrozenSet[str] = frozenset({"random.Random", "Random"})

#: Direct I/O and network entry points that bypass the causal services.
EXTERNAL_PREFIXES: Tuple[str, ...] = (
    "requests.", "urllib.", "socket.", "http.client.", "subprocess."
)
#: Matched exactly: ``path.open(...)`` on a local file is not a service call.
EXTERNAL_CALLS: FrozenSet[str] = frozenset({"open"})
#: The simulated drifting external service's synchronous accessor
#: (repro.external.http.ExternalService.get_now): calling it outside
#: ctx.services is exactly the un-intercepted external call.
EXTERNAL_SUFFIXES: Tuple[str, ...] = (".get_now",)

#: Identity/hash observations: values vary per process (PYTHONHASHSEED,
#: allocator layout), so anything derived from them is nondeterministic.
HASH_ORDER_CALLS: FrozenSet[str] = frozenset({"id", "hash"})
#: Calls whose results come back in filesystem order.
UNORDERED_CALLS: FrozenSet[str] = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
#: Set constructors: iterating one, or persisting one from a snapshot
#: method, observes hash order.
SET_CTORS: FrozenSet[str] = frozenset({"set", "frozenset"})
#: Calls that iterate their argument in order (``str.join`` by its leaf).
SEQUENCERS: FrozenSet[str] = frozenset({"list", "tuple", "enumerate", "join"})

#: Cross-channel select order: which input channel the main loop consumes
#: next is a race outcome; it must be captured as an OrderDeterminant.
SELECT_ORDER_SUFFIXES: Tuple[str, ...] = (
    ".poll_buffer",
    ".next_buffer",
    ".take_ready",
    "._take_ready",
)

#: Ambient host/process environment reads.
AMBIENT_PREFIXES: Tuple[str, ...] = ("os.environ", "platform.", "sys.stdin")
AMBIENT_CALLS: FrozenSet[str] = frozenset(
    {
        "os.getenv",
        "os.getpid",
        "os.getppid",
        "os.getcwd",
        "os.cpu_count",
        "socket.gethostname",
        "socket.getfqdn",
        "input",
    }
)

#: Methods that mutate their receiver in place: calling one on a captured
#: closure variable makes that variable cross-record state.
MUTATORS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "setdefault",
    }
)


# -- sanitizer taxonomy ------------------------------------------------------------

#: Determinant constructors sanitize the category they log.  Any class name
#: ending in ``Determinant`` is recognized; this map refines *which*
#: category each known constructor covers (unknown ``*Determinant`` names
#: cover every category — custom determinants log arbitrary results).
DETERMINANT_CATEGORIES = {
    "TimestampDeterminant": (CLOCK,),
    "RngSeedDeterminant": (RNG,),
    "ExternalCallDeterminant": (EXTERNAL,),
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
#: construction, so the call expression itself is deterministic, and a
#: callable handed to one runs under its determinant.
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
    #: Stable identity used by the allowlist: ``module:qualname``.
    symbol: str = ""
    #: Waived by an inline ``# ndlint: disable`` comment: reported, not failed.
    suppressed: bool = False


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def match_call(name: Optional[str], names: FrozenSet[str]) -> bool:
    """``name`` is one of ``names``, or ends in ``.<one of them>``."""
    return bool(name) and (
        name in names or any(name.endswith("." + n) for n in names)
    )


def match_suffix(name: Optional[str], suffixes: Tuple[str, ...]) -> bool:
    return bool(name) and any(name.endswith(s) for s in suffixes)


def match_prefix(name: Optional[str], prefixes: Tuple[str, ...]) -> bool:
    return bool(name) and any(
        name == p.rstrip(".") or name.startswith(p) for p in prefixes
    )
