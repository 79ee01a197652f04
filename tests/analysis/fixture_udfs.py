"""UDF fixtures for the causal analyzer's tests: the analyzer's spec.

Each ``bad_*`` function (and each op a ``make_bad_*`` factory returns, and
each ``Bad*`` class) exhibits exactly the nondeterminism its name says;
each ``good_*`` function is the causally-loggable rewrite the finding's fix
asks for.  The analyzer reads this file's source, so keep each violation on
its own line.
"""

import os
import random
import time


def bad_wall_clock(record, ctx):
    ctx.collect((record.value, time.time()))


def good_wall_clock(record, ctx):
    ctx.collect((record.value, ctx.services.timestamp()))


def bad_rng(record, ctx):
    if random.random() < 0.5:
        ctx.collect(record.value)


def good_rng(record, ctx):
    if ctx.services.random() < 0.5:
        ctx.collect(record.value)


#: Swapped in by tests that actually run these UDFs.
_EXTERNAL_SERVICE = None


def bad_external(record, ctx):
    ctx.collect(_EXTERNAL_SERVICE.get_now(record.value))


def good_external(record, ctx):
    ctx.collect(
        ctx.services.custom(
            "risk", lambda key: _EXTERNAL_SERVICE.get_now(key), record.value
        )
    )


def bad_unordered(record, ctx):
    for item in {record.value, record.value * 2, -record.value}:
        ctx.collect(item)


def good_unordered(record, ctx):
    for item in sorted({record.value, record.value * 2, -record.value}):
        ctx.collect(item)


def make_bad_closure_counter():
    counts = {}

    def op(record, ctx):
        counts[record.value] = counts.get(record.value, 0) + 1
        ctx.collect((record.value, counts[record.value]))

    return op


def make_bad_nonlocal_counter():
    total = 0

    def op(record, ctx):
        nonlocal total
        total += 1
        ctx.collect((record.value, total))

    return op


def bad_ambient(record, ctx):
    ctx.collect((record.value, os.getenv("HOSTNAME", "?")))


def bad_key_selector(stream):
    return stream.key_by(lambda value: random.randrange(4))


def good_key_selector(stream):
    return stream.key_by(lambda value: value % 4)


def suppressed_wall_clock(record, ctx):
    ctx.collect((record.value, time.time()))  # ndlint: disable=ND202


class BadSnapshotKeys:
    """Persists a hash-ordered projection of its keyed state, so the
    same logical state serializes (and fingerprints) differently per run."""

    def __init__(self):
        self.seen = {}

    def process(self, record, ctx):
        self.seen[record.value] = True
        ctx.collect(record.value)

    def snapshot(self):
        return {"seen": set(self.seen)}

    def restore(self, state):
        self.seen = dict.fromkeys(state["seen"], True)


class BadDigestWriter:
    """Persists a hash() of a frozenset: both process-dependent."""

    def __init__(self):
        self.channels = []

    def snapshot_state(self):
        return {"digest": hash(frozenset(self.channels))}


class GoodSnapshotKeys:
    """The fix: persist a sorted projection."""

    def __init__(self):
        self.seen = {}

    def snapshot(self):
        return {"seen": sorted(set(self.seen))}

    def restore(self, state):
        self.seen = dict.fromkeys(state["seen"], True)
