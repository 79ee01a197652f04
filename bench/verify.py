"""Reference checks behind ``failed_share``.

Every check compares a sink multiset against an *expected* multiset that is
computed from the generated inputs alone, never from a second run of the
simulator, so a bug shared by every fault-tolerance mode still shows.

* chain workloads: the sink's ``(partition, id)`` origins must be exactly the
  generated input set;
* Nexmark: Q1, Q3 and Q8 are recomputed from the generator, Q12
  (processing-time windows, nondeterministic window contents) must conserve
  bids per bidder;
* recovery: the exactly-once arm must equal the input set, the at-least-once
  arm must lose nothing (its duplicates are announced and reported apart).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.nexmark.generator import NexmarkGenerator
from repro.nexmark.model import Auction, Bid, Person
from repro.nexmark.queries import DOLLAR_TO_EURO, WINDOW


@dataclass(frozen=True)
class Verdict:
    """Outcome of one multiset comparison, in sink records."""

    attempted: int
    lost: int = 0
    duplicated: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.lost + self.duplicated + self.mismatched

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(
            self.attempted + other.attempted,
            self.lost + other.lost,
            self.duplicated + other.duplicated,
            self.mismatched + other.mismatched,
        )


def failed_share(verdict: Verdict) -> float:
    return verdict.failed / verdict.attempted if verdict.attempted else 1.0


def compare_multisets(actual: Counter, expected: Counter) -> Verdict:
    """``lost`` = expected copies that are missing, ``duplicated`` = surplus
    copies of an expected record, ``mismatched`` = records nobody expected."""
    lost = sum((expected - actual).values())
    duplicated = mismatched = 0
    for key, surplus in (actual - expected).items():
        if key in expected:
            duplicated += surplus
        else:
            mismatched += surplus
    return Verdict(sum(expected.values()), lost, duplicated, mismatched)


def ignoring_duplicates(verdict: Verdict) -> Tuple[Verdict, int]:
    """The at-least-once grading: duplicates are the announced cost of a
    plain sink under rollback, so they are returned apart, not failed."""
    graded = Verdict(verdict.attempted, verdict.lost, 0, verdict.mismatched)
    return graded, verdict.duplicated


# -- chain workloads --------------------------------------------------------


def chain_expected(parallelism: int, total: int, base: int) -> Counter:
    """The generated input set of a chain workload (one copy of each id)."""
    return Counter(
        (p, base + off) for p in range(parallelism) for off in range(total)
    )


def chain_origins(sink_values: Iterable[Any]) -> Counter:
    """Project chain sink values ``(partition, id, stage, stamp)`` onto their
    origin; the stamp is a processing-time read and differs run to run."""
    return Counter((v[0], v[1]) for v in sink_values)


# -- Nexmark ----------------------------------------------------------------


def _events(generator: NexmarkGenerator, parallelism: int, total: int):
    for partition in range(parallelism):
        for offset in range(total):
            yield generator.generate(partition, offset)


def _q1_expected(events) -> Counter:
    return Counter(
        (e.auction, e.bidder, round(e.price * DOLLAR_TO_EURO, 2), e.event_time)
        for e in events
        if isinstance(e, Bid)
    )


def _q3_expected(events) -> Counter:
    events = list(events)
    sellers = {
        e.person_id: e
        for e in events
        if isinstance(e, Person) and e.state in ("OR", "ID", "CA")
    }
    out: Counter = Counter()
    for e in events:
        if isinstance(e, Auction) and e.category < 4 and e.seller in sellers:
            person = sellers[e.seller]
            out[(person.name, person.city, person.state, e.auction_id)] += 1
    return out


def _q8_expected(events) -> Counter:
    events = list(events)
    persons: Dict[Tuple[int, int], Person] = {}
    for e in events:
        if isinstance(e, Person):
            persons[(e.person_id, int(e.event_time // WINDOW))] = e
    out: Counter = Counter()
    for e in events:
        if isinstance(e, Auction):
            person = persons.get((e.seller, int(e.event_time // WINDOW)))
            if person is not None:
                out[(person.person_id, person.name, e.auction_id)] += 1
    return out


def _q12_expected(events) -> Counter:
    return Counter(e.bidder for e in events if isinstance(e, Bid))


def _q1_project(values) -> Counter:
    return Counter((v.auction, v.bidder, v.price, v.event_time) for v in values)


def _q12_project(values) -> Counter:
    """Windows split a bidder's bids nondeterministically; their sum may not."""
    totals: Counter = Counter()
    for bidder, count in values:
        totals[bidder] += count
    return totals


#: query -> (expected multiset from the events, projection of sink values)
NEXMARK_REFERENCES: Dict[str, Tuple[Callable, Callable]] = {
    "Q1": (_q1_expected, _q1_project),
    "Q3": (_q3_expected, Counter),
    "Q8": (_q8_expected, Counter),
    "Q12": (_q12_expected, _q12_project),
}


def nexmark_expected(query: str, seed: int, rate: float, parallelism: int,
                     total: int) -> Counter:
    generator = NexmarkGenerator(seed=seed, rate_per_partition=rate)
    return NEXMARK_REFERENCES[query][0](_events(generator, parallelism, total))


def nexmark_check(query: str, sink_values: Iterable[Any], expected: Counter) -> Verdict:
    return compare_multisets(NEXMARK_REFERENCES[query][1](sink_values), expected)
