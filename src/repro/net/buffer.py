"""Network buffers and buffer pools.

A :class:`NetworkBuffer` models one Flink network buffer: a bounded byte
container of serialised stream elements, plus the causal-log *delta* that
Clonos piggybacks on it (Section 4.3).  A :class:`BufferPool` is a byte
budget; the in-flight log's no-copy buffer exchange (Section 6.1) moves
ownership of whole buffers between the output pool and the log pool.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import NetworkError
from repro.sim.core import Environment, Event
from repro.sim.queues import Resource


class NetworkBuffer:
    """One network buffer: elements + wire size + piggybacked determinants."""

    __slots__ = (
        "channel_id",
        "seq",
        "epoch",
        "elements",
        "size_bytes",
        "n_records",
        "delta",
        "delta_bytes",
        "pool",
        "recycle_on_consume",
    )

    def __init__(self, channel_id: int, seq: int, epoch: int, pool: "BufferPool"):
        self.channel_id = channel_id
        self.seq = seq
        self.epoch = epoch
        self.elements: List[Any] = []
        self.size_bytes = 0
        #: Records appended so far — kept incrementally (writers bump it on
        #: their direct-append fast path too) so dispatch stays O(1).
        self.n_records = 0
        #: Causal-log delta piggybacked on this buffer (a list of by-reference
        #: ``repro.core.causal_log.DeltaSlice``); None outside Clonos mode.
        self.delta: Optional[list] = None
        self.delta_bytes = 0
        self.pool = pool
        #: True when the consuming task should return the buffer to its pool
        #: (vanilla pipeline); False when the in-flight log owns it (§6.1).
        self.recycle_on_consume = True

    @property
    def total_bytes(self) -> int:
        """Payload plus piggybacked determinant bytes: what the wire carries."""
        return self.size_bytes + self.delta_bytes

    def append(self, element: Any, size: int) -> None:
        self.elements.append(element)
        self.size_bytes += size
        if getattr(element, "is_record", False):
            self.n_records += 1

    def fits(self, size: int, capacity: int) -> bool:
        return self.size_bytes + size <= capacity

    def recycle(self) -> None:
        """Return this buffer's bytes to its owning pool."""
        if self.pool is not None:
            self.pool.release_bytes(self._owned_bytes())
            self.pool = None

    def transfer_to(self, pool: "BufferPool") -> None:
        """Move ownership to another pool (the §6.1 exchange); the caller
        must have already reserved the bytes in ``pool``."""
        if self.pool is not None:
            self.pool.release_bytes(self._owned_bytes())
        self.pool = pool

    def _owned_bytes(self) -> int:
        # Pools account whole fixed-size buffers, not the fill level.
        return self.pool.buffer_bytes

    def __repr__(self) -> str:
        return (
            f"NetworkBuffer(ch={self.channel_id}, seq={self.seq}, "
            f"epoch={self.epoch}, n={len(self.elements)}, bytes={self.size_bytes})"
        )


class BufferPool:
    """A byte budget from which fixed-size buffers are allocated.

    Capacity is expressed in bytes but acquired in whole-buffer units of
    ``buffer_bytes``, mirroring Flink's memory-segment pools.
    """

    def __init__(self, env: Environment, total_bytes: int, buffer_bytes: int, name: str = ""):
        if total_bytes < buffer_bytes:
            raise NetworkError(
                f"pool '{name}' of {total_bytes}B cannot hold one {buffer_bytes}B buffer"
            )
        self.env = env
        self.buffer_bytes = buffer_bytes
        self.name = name
        self._units = Resource(env, max(1, total_bytes // buffer_bytes))
        #: High-water mark of buffers in use, for the memory experiments.
        self.peak_in_use = 0

    @property
    def total_buffers(self) -> int:
        return self._units.capacity

    @property
    def available_buffers(self) -> int:
        return self._units.available

    @property
    def in_use_buffers(self) -> int:
        return self._units.in_use

    @property
    def available_fraction(self) -> float:
        return self._units.available / self._units.capacity

    def acquire(self) -> Event:
        """Reserve one buffer's worth of bytes; the returned event is pending
        only when the pool is exhausted."""
        units = self._units
        ev = self.env.no_wait if units.try_acquire() else units.acquire()
        self._note_usage()
        return ev

    def try_acquire(self) -> bool:
        ok = self._units.try_acquire()
        if ok:
            self._note_usage()
        return ok

    def release_bytes(self, nbytes: int) -> None:
        if nbytes != self.buffer_bytes:
            raise NetworkError("pools account whole buffers")
        self._units.release()

    def release(self) -> None:
        self._units.release()

    def _note_usage(self) -> None:
        if self._units.in_use > self.peak_in_use:
            self.peak_in_use = self._units.in_use

    def __repr__(self) -> str:
        return (
            f"BufferPool({self.name!r}, {self._units.in_use}/{self._units.capacity} in use)"
        )
