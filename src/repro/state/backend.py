"""Keyed state: descriptors, primitives, and the hash-map backend.

State is scoped by ``(state name, current key)`` exactly as in Flink's keyed
streams.  The backend tracks an approximate serialized size so checkpoint
and state-transfer costs scale with state volume (Sections 6.4, 7.4).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StateError
from repro.net.serialization import payload_size


class StateDescriptor:
    """Identifies one named piece of keyed state."""

    kind = "value"

    def __init__(self, name: str, default: Any = None):
        self.name = name
        self.default = default

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ValueStateDescriptor(StateDescriptor):
    kind = "value"


class ListStateDescriptor(StateDescriptor):
    kind = "list"


class MapStateDescriptor(StateDescriptor):
    kind = "map"


class ReducingStateDescriptor(StateDescriptor):
    kind = "reducing"

    def __init__(self, name: str, reduce_fn: Callable[[Any, Any], Any], default: Any = None):
        super().__init__(name, default)
        self.reduce_fn = reduce_fn


class _KeyedView:
    """Base for per-key state handles; bound to the backend's current key."""

    def __init__(self, backend: "HashMapStateBackend", descriptor: StateDescriptor):
        self._backend = backend
        self._descriptor = descriptor

    @property
    def _table(self) -> Dict[Any, Any]:
        return self._backend._tables[self._descriptor.name]

    @property
    def _key(self) -> Any:
        key = self._backend.current_key
        if key is _NO_KEY:
            raise StateError(
                f"keyed state {self._descriptor.name!r} accessed without a key context"
            )
        return key


_NO_KEY = object()


class ValueState(_KeyedView):
    def value(self) -> Any:
        table = self._table
        if self._key in table:
            return table[self._key]
        return copy.copy(self._descriptor.default)

    def update(self, value: Any) -> None:
        self._table[self._key] = value

    def clear(self) -> None:
        self._table.pop(self._key, None)


class ListState(_KeyedView):
    def get(self) -> List[Any]:
        return self._table.get(self._key, [])

    def add(self, value: Any) -> None:
        self._table.setdefault(self._key, []).append(value)

    def update(self, values: Iterable[Any]) -> None:
        self._table[self._key] = list(values)

    def clear(self) -> None:
        self._table.pop(self._key, None)


class MapState(_KeyedView):
    def get(self, map_key: Any, default: Any = None) -> Any:
        return self._table.get(self._key, {}).get(map_key, default)

    def put(self, map_key: Any, value: Any) -> None:
        self._table.setdefault(self._key, {})[map_key] = value

    def remove(self, map_key: Any) -> None:
        self._table.get(self._key, {}).pop(map_key, None)

    def contains(self, map_key: Any) -> bool:
        return map_key in self._table.get(self._key, {})

    def items(self) -> List[Tuple[Any, Any]]:
        return list(self._table.get(self._key, {}).items())

    def is_empty(self) -> bool:
        return not self._table.get(self._key)

    def clear(self) -> None:
        self._table.pop(self._key, None)


class ReducingState(_KeyedView):
    def get(self) -> Any:
        return self._table.get(self._key, self._descriptor.default)

    def add(self, value: Any) -> None:
        table = self._table
        if self._key in table:
            table[self._key] = self._descriptor.reduce_fn(table[self._key], value)
        else:
            table[self._key] = value

    def clear(self) -> None:
        self._table.pop(self._key, None)


_VIEW_TYPES = {
    "value": ValueState,
    "list": ListState,
    "map": MapState,
    "reducing": ReducingState,
}


class HashMapStateBackend:
    """In-memory keyed state backend with snapshot/restore.

    Snapshots are deep copies; the previous snapshot's size is remembered so
    incremental checkpoints can charge only the delta (Section 6.4).
    """

    def __init__(self):
        self._tables: Dict[str, Dict[Any, Any]] = {}
        self._descriptors: Dict[str, StateDescriptor] = {}
        self.current_key: Any = _NO_KEY
        self._last_snapshot_size = 0

    def get_state(self, descriptor: StateDescriptor) -> _KeyedView:
        existing = self._descriptors.get(descriptor.name)
        if existing is not None and existing.kind != descriptor.kind:
            raise StateError(
                f"state {descriptor.name!r} registered twice with different kinds"
            )
        if existing is None:
            self._descriptors[descriptor.name] = descriptor
            # Keep any restored table contents for this name.
            self._tables.setdefault(descriptor.name, {})
        return _VIEW_TYPES[descriptor.kind](self, descriptor)

    def set_current_key(self, key: Any) -> None:
        self.current_key = key

    def keys(self, state_name: str) -> List[Any]:
        return list(self._tables.get(state_name, {}).keys())

    # -- snapshots ------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate serialized size of all keyed state."""
        return sum(
            payload_size(key) + payload_size(value)
            for table in self._tables.values()
            for key, value in table.items()
        )

    def snapshot(self) -> Dict[str, Dict[Any, Any]]:
        snap = copy.deepcopy(self._tables)
        self._last_snapshot_size = self.size_bytes()
        return snap

    def restore(self, snapshot: Dict[str, Dict[Any, Any]]) -> None:
        # Descriptors are re-registered by the operator on first access
        # (their kinds are code, not state).
        self._tables = copy.deepcopy(snapshot)

    def incremental_delta_bytes(self) -> int:
        """Rough size of changes since the previous snapshot (never
        negative; deletions still cost metadata)."""
        return max(4096, abs(self.size_bytes() - self._last_snapshot_size))
