"""Determinants: logged descriptions of nondeterministic events (Section 4).

Each determinant type corresponds to one source of nondeterminism from the
paper's taxonomy (Section 4.1) and carries exactly the information needed to
force the same outcome during recovery replay.  ``wire_size`` feeds the
overhead model: determinant bytes piggyback on buffers (Section 4.3) and
inflate network/serialisation cost — the throughput penalty of Figure 5.
"""

from __future__ import annotations

from typing import Any

from repro.net.serialization import payload_size


class Determinant:
    """Base determinant.  Immutable once appended to a log: deltas forward
    determinants by reference and a log fingerprints each entry exactly once,
    at its origin (``repro.core.causal_log``)."""

    __slots__ = ()

    kind = "base"

    def wire_size(self) -> int:
        return 8

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__
        )
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and all(
                getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
            )
        )

    def __hash__(self):
        return hash((self.kind, tuple(repr(getattr(self, s)) for s in self.__slots__)))


class OrderDeterminant(Determinant):
    """Main thread consumed the buffer with ``seq`` from input ``channel``
    (record processing order, at buffer granularity — Section 4.2)."""

    __slots__ = ("channel", "seq")
    kind = "order"

    def __init__(self, channel: int, seq: int):
        self.channel = channel
        self.seq = seq

    def wire_size(self) -> int:
        return 6


class TimestampDeterminant(Determinant):
    """The Timestamp service returned ``value``.

    ``fresh`` distinguishes a real wall-clock read from a cache hit under
    the granularity optimisation of Section 4.2; cache hits delta-encode to
    a single byte, which is how the service cuts determinant volume by two
    orders of magnitude without giving up the 1:1 call/determinant replay
    discipline."""

    __slots__ = ("value", "fresh")
    kind = "timestamp"

    def __init__(self, value: float, fresh: bool = True):
        self.value = value
        self.fresh = fresh

    def wire_size(self) -> int:
        return 9 if self.fresh else 1


class TimerFiredDeterminant(Determinant):
    """Processing timer ``timer_id`` interleaved at stream ``offset``
    (records processed since epoch start)."""

    __slots__ = ("timer_id", "offset")
    kind = "timer"

    def __init__(self, timer_id: str, offset: int):
        self.timer_id = timer_id
        self.offset = offset

    def wire_size(self) -> int:
        return 10 + len(self.timer_id)


class RngSeedDeterminant(Determinant):
    """The RNG service reseeded with ``seed`` (once per epoch; Section 4.2
    logs seeds, not every drawn number)."""

    __slots__ = ("seed",)
    kind = "rng"

    def __init__(self, seed: int):
        self.seed = seed

    def wire_size(self) -> int:
        return 9


class ExternalCallDeterminant(Determinant):
    """An external (HTTP) call returned ``response`` for ``key``."""

    __slots__ = ("key", "response")
    kind = "http"

    def __init__(self, key: str, response: Any):
        self.key = key
        self.response = response

    def wire_size(self) -> int:
        return 2 + len(self.key) + payload_size(self.response)


class CustomDeterminant(Determinant):
    """User-registered nondeterministic logic returned ``result``
    (Listing 2/3)."""

    __slots__ = ("name", "result")
    kind = "custom"

    def __init__(self, name: str, result: Any):
        self.name = name
        self.result = result

    def wire_size(self) -> int:
        return 2 + len(self.name) + payload_size(self.result)


class BufferSizeDeterminant(Determinant):
    """Output queue cut buffer ``seq`` after ``num_elements`` elements
    (``size_bytes`` payload): the nondeterministic flush decision."""

    __slots__ = ("seq", "num_elements", "size_bytes")
    kind = "buffer_size"

    def __init__(self, seq: int, num_elements: int, size_bytes: int):
        self.seq = seq
        self.num_elements = num_elements
        self.size_bytes = size_bytes

    def wire_size(self) -> int:
        return 8


class BarrierInjectDeterminant(Determinant):
    """Source injected barrier ``checkpoint_id`` after stream ``offset``
    (RPC arrival point — Section 4.1, checkpoints & received RPCs)."""

    __slots__ = ("checkpoint_id", "offset")
    kind = "barrier"

    def __init__(self, checkpoint_id: int, offset: int):
        self.checkpoint_id = checkpoint_id
        self.offset = offset

    def wire_size(self) -> int:
        return 10


class WatermarkEmitDeterminant(Determinant):
    """Source emitted watermark ``value`` after stream ``offset`` (watermark
    generation is wall-clock driven — Section 4.1)."""

    __slots__ = ("value", "offset")
    kind = "watermark"

    def __init__(self, value: float, offset: int):
        self.value = value
        self.offset = offset

    def wire_size(self) -> int:
        return 12


class RpcDeterminant(Determinant):
    """A state-affecting RPC (other than barrier injection) was handled at
    stream ``offset``."""

    __slots__ = ("payload", "offset")
    kind = "rpc"

    def __init__(self, payload: Any, offset: int):
        self.payload = payload
        self.offset = offset

    def wire_size(self) -> int:
        return 6 + payload_size(self.payload)
