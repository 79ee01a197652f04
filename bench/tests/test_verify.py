"""The reference checks behind ``failed_share``, on planted defects."""

from collections import Counter

import pytest

from bench import verify
from repro.nexmark.generator import NexmarkGenerator
from repro.nexmark.model import Bid


def _chain_sink(expected: Counter):
    return [(p, ident, 4, 0.125) for (p, ident) in expected.elements()]


def test_exact_chain_output_passes():
    expected = verify.chain_expected(parallelism=3, total=40, base=1000)
    verdict = verify.compare_multisets(verify.chain_origins(_chain_sink(expected)), expected)
    assert verdict == verify.Verdict(attempted=120)
    assert verify.failed_share(verdict) == 0.0


def test_dropped_record_is_lost():
    expected = verify.chain_expected(3, 40, 1000)
    sink = _chain_sink(expected)
    sink.remove((1, 1017, 4, 0.125))
    verdict = verify.compare_multisets(verify.chain_origins(sink), expected)
    assert (verdict.lost, verdict.duplicated, verdict.mismatched) == (1, 0, 0)
    assert verify.failed_share(verdict) == pytest.approx(1 / 120)


def test_duplicated_record_is_counted_and_only_forgiven_when_announced():
    expected = verify.chain_expected(3, 40, 1000)
    sink = _chain_sink(expected) + [(2, 1003, 4, 0.5)] * 2
    verdict = verify.compare_multisets(verify.chain_origins(sink), expected)
    assert (verdict.lost, verdict.duplicated, verdict.mismatched) == (0, 2, 0)
    graded, duplicates = verify.ignoring_duplicates(verdict)
    assert graded.failed == 0 and duplicates == 2


def test_foreign_record_is_mismatched_not_forgiven():
    expected = verify.chain_expected(2, 10, 0)
    sink = _chain_sink(expected) + [(7, 999, 4, 0.5)]
    verdict = verify.compare_multisets(verify.chain_origins(sink), expected)
    assert verdict.mismatched == 1
    assert verify.ignoring_duplicates(verdict)[0].failed == 1


def test_verdicts_add_up():
    total = verify.Verdict(10, lost=1) + verify.Verdict(5, duplicated=2, mismatched=1)
    assert (total.attempted, total.failed) == (15, 4)


def _q1_sink(seed, total):
    generator = NexmarkGenerator(seed=seed, rate_per_partition=100_000.0)
    events = [generator.generate(p, off) for p in range(2) for off in range(total)]
    return [
        Bid(e.auction, e.bidder, round(e.price * 0.908, 2), e.event_time)
        for e in events
        if isinstance(e, Bid)
    ]


def test_nexmark_q1_reference_catches_drop_and_duplicate():
    expected = verify.nexmark_expected("Q1", seed=5, rate=100_000.0, parallelism=2, total=200)
    sink = _q1_sink(5, 200)
    assert verify.nexmark_check("Q1", sink, expected).failed == 0
    assert verify.nexmark_check("Q1", sink[1:], expected).lost == 1
    assert verify.nexmark_check("Q1", sink + sink[:1], expected).duplicated == 1


def test_nexmark_q12_conserves_bids_per_bidder_whatever_the_windows():
    expected = verify.nexmark_expected("Q12", seed=5, rate=100_000.0, parallelism=2, total=200)
    bidder, count = next(iter(expected.items()))
    others = [(b, c) for b, c in expected.items() if b != bidder]
    # One bidder's bids split over two processing-time windows: still exact.
    split = others + [(bidder, count - 1), (bidder, 1)] if count > 1 else others + [(bidder, 1)]
    assert verify.nexmark_check("Q12", split, expected).failed == 0
    assert verify.nexmark_check("Q12", others, expected).lost == count
