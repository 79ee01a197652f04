"""ND201/ND202: taint flows from nondeterminism sources to state/output.

Each test builds a synthetic mini-package (see conftest) shaped like the
real runtime: operator classes with ``snapshot`` methods, a causal-log
handle, determinant constructors, and context/writer sinks.
"""

import pytest

from tests.analysis.causal.conftest import findings_of, rule_ids

BAD_STATE = """
import time


class WindowOp:
    def __init__(self):
        self.last_seen = 0.0

    def process(self, record, ctx):
        self.last_seen = time.time()

    def snapshot(self):
        return {"last_seen": self.last_seen}
"""

BAD_OUTPUT = """
import time


class StampOp:
    def process(self, record, ctx):
        ctx.collect((record, time.time()))
"""

SANITIZED = """
import time


class TimestampDeterminant:
    kind = "timestamp"

    def __init__(self, value):
        self.value = value


class GoodOp:
    def __init__(self, causal):
        self.causal = causal
        self.last_seen = 0.0

    def process(self, record, ctx):
        now = time.time()
        if self.causal is not None:
            self.causal.append_main(TimestampDeterminant(now))
        self.last_seen = now
        ctx.collect((record, now))

    def snapshot(self):
        return {"last_seen": self.last_seen}
"""

INTERPROCEDURAL = """
import random


def draw():
    return random.random()


class SampleOp:
    def __init__(self, backend):
        self.state_backend = backend

    def process(self, record, ctx):
        value = draw()
        self.state_backend.put(record, value)
"""

SEEDED = """
import random


class SeededOp:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def process(self, record, ctx):
        ctx.collect(self.rng.random())
"""


def test_unlogged_clock_reaches_snapshot_state(mini_tree):
    report = mini_tree({"ops.py": BAD_STATE})
    hits = findings_of(report, "ND201")
    assert hits, report.render()
    finding = hits[0]
    assert finding.file.endswith("ops.py")
    # The flow path names both the source and the sink, with line numbers.
    descriptions = " ".join(step.description for step in finding.path)
    assert "time.time" in descriptions
    assert all(step.line > 0 for step in finding.path)


def test_unlogged_clock_reaches_output(mini_tree):
    report = mini_tree({"ops.py": BAD_OUTPUT})
    hits = findings_of(report, "ND202")
    assert hits, report.render()
    assert hits[0].file.endswith("ops.py")
    assert "ND201" not in rule_ids(report)  # no snapshot method -> no state sink


def test_determinant_logging_sanitizes_the_flow(mini_tree):
    report = mini_tree({"ops.py": SANITIZED})
    assert findings_of(report, "ND201") == [], report.render()
    assert findings_of(report, "ND202") == [], report.render()


def test_interprocedural_rng_through_helper_return(mini_tree):
    report = mini_tree({"ops.py": INTERPROCEDURAL})
    hits = findings_of(report, "ND201")
    assert hits, report.render()
    # The path crosses the helper call: source inside draw(), sink in process.
    descriptions = " ".join(step.description for step in hits[0].path)
    assert "random.random" in descriptions
    assert len(hits[0].path) >= 2


def test_seeded_rng_stream_is_deterministic(mini_tree):
    report = mini_tree({"ops.py": SEEDED})
    assert findings_of(report, "ND202") == [], report.render()


def test_inline_suppression_applies_to_causal_rules(mini_tree):
    suppressed = BAD_STATE.replace(
        "self.last_seen = time.time()",
        "self.last_seen = time.time()  # ndlint: disable=ND201",
    )
    report = mini_tree({"ops.py": suppressed})
    assert findings_of(report, "ND201") == [], report.render()


def test_early_exit_under_a_nondeterministic_test(mini_tree):
    # Whether the emit runs at all is decided by the draw.
    report = mini_tree(
        {
            "ops.py": "import random\n\n\ndef op(record, ctx):\n"
            "    if random.random() < 0.5:\n        return\n"
            "    ctx.collect(record)\n"
        }
    )
    (finding,) = findings_of(report, "ND202")
    assert "random.random" in finding.path[0].description


def test_report_json_carries_flow_paths(mini_tree):
    import json

    report = mini_tree({"ops.py": BAD_STATE})
    payload = json.loads(report.to_json())
    assert payload["ok"] is False
    assert payload["counts"].get("ND201", 0) >= 1
    finding = next(f for f in payload["findings"] if f["rule"] == "ND201")
    assert finding["path"], "JSON findings must carry their flow path"
    assert all(step["line"] > 0 for step in finding["path"])


AMBIENT_STATE = """
import os
import platform
import socket


class HostOp:
    def __init__(self):
        self.host = None

    def process(self, record, ctx):
        self.host = {read}

    def snapshot(self):
        return {{"host": self.host}}
"""


@pytest.mark.parametrize(
    "read",
    [
        "os.getpid()",
        "os.getppid()",
        "socket.gethostname()",
        "os.environ.get('HOSTNAME')",
        "platform.node()",
    ],
)
def test_ambient_read_reaching_snapshot_state(mini_tree, read):
    """Every ambient host read is a source."""
    report = mini_tree({"ops.py": AMBIENT_STATE.format(read=read)})
    hits = findings_of(report, "ND201")
    assert hits, report.render()
    descriptions = " ".join(step.description for step in hits[0].path)
    assert "ambient environment read" in descriptions
