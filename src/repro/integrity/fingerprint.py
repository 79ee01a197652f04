"""Deterministic content fingerprints for recovery artifacts.

Every artifact the recovery protocol reads back — task snapshots, spilled
in-flight segments, determinant-log deltas, standby state images — carries a
CRC computed over a *canonical* digest of its payload.  "Canonical" is the
load-bearing word: the byte stream fed to the CRC is independent of dict
insertion order, set iteration order, and object identity, so the same
logical state always produces the same fingerprint, and any out-of-band
mutation (the silent corruptions ``repro.chaos`` injects) produces a
different one.

This is the simulation's stand-in for the per-chunk checksums a real
checkpoint stack stores next to its blobs; it is pure stdlib (``zlib.crc32``
over a deterministic value walk) and deliberately does *not* reuse
``repro.net.serialization.payload_size``, which models byte counts, not
content.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque

__all__ = ["fingerprint", "combine", "combine_all"]


def _crc(data: bytes, crc: int = 0) -> int:
    return zlib.crc32(data, crc) & 0xFFFFFFFF


def combine(crc: int, part: int) -> int:
    """Fold one 32-bit part into a rolling fingerprint (order-sensitive)."""
    return _crc(part.to_bytes(4, "big"), crc)


def combine_all(crc: int, parts) -> int:
    """``combine`` folded over the sequence ``parts`` in one ``crc32`` call
    (the CRC streams, so packing the parts first gives the same value)."""
    return zlib.crc32(struct.pack(">%dI" % len(parts), *parts), crc)


def _scalar_bytes(value):
    # Exact-type dispatch first: scalars dominate artifact payloads, and the
    # fast checks produce byte-for-byte the same tags as the general chain
    # below (bool is excluded because True.__class__ is bool, not int).
    t = value.__class__
    if t is int:
        return b"i" + str(value).encode()
    if t is float:
        return b"f" + repr(value).encode()
    if t is str:
        return b"s" + value.encode("utf-8", "surrogatepass")
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, (bytes, bytearray)):
        return b"b" + bytes(value)
    return None


_slots_cache: dict = {}
_sorted_slots_cache: dict = {}


def _all_slots(cls) -> list:
    """Content slot names of ``cls`` in MRO declaration order (cached).

    Order matters to callers outside this module (corruption injection picks
    the *first* eligible slot), so this stays declaration-ordered; the
    fingerprint walk uses the separately cached sorted view below.
    """
    names = _slots_cache.get(cls)
    if names is not None:
        return names
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    _slots_cache[cls] = names
    return names


def _sorted_slots(cls) -> list:
    names = _sorted_slots_cache.get(cls)
    if names is None:
        names = sorted(set(_all_slots(cls)))
        _sorted_slots_cache[cls] = names
    return names


#: Per-class object-walk metadata: (crc of the type tag, [(slot name,
#: crc of the slot-name bytes), ...], flat).  Pure caching of values the walk
#: recomputed per object — the resulting fingerprints are unchanged.  ``flat``
#: says instances carry no ``__dict__``, so their state is the slots alone.
_class_meta_cache: dict = {}


def _class_meta(cls):
    meta = _class_meta_cache.get(cls)
    if meta is None:
        tag_crc = _crc(b"O" + cls.__name__.encode())
        slot_meta = [(name, _crc(name.encode())) for name in _sorted_slots(cls)]
        flat = bool(slot_meta) and not cls.__dictoffset__
        meta = (tag_crc, slot_meta, flat)
        _class_meta_cache[cls] = meta
    return meta


def fingerprint(value) -> int:
    """Deterministic 32-bit digest of an arbitrary artifact payload.

    Dicts are digested as their item set sorted by key digest and sets as
    their sorted element digests, so the fingerprint is invariant under
    insertion/iteration order; sequences are order-sensitive.  Objects are
    digested by type name plus their ``__dict__``/``__slots__`` state;
    state-less objects (functions, modules, pools) hash to their type name
    only, which keeps the walk from escaping into the simulation graph.
    """
    meta = _class_meta_cache.get(value.__class__)
    if meta is not None and meta[2]:
        # Direct walk for a slots-only object whose slots all hold scalars
        # (every built-in determinant): the same (name, value) digests the
        # generic walk folds in one at a time, packed and folded at once.
        # An unset or non-scalar slot hands over to the generic walk.
        parts = []
        for name, name_crc in meta[1]:
            scalar = _scalar_bytes(getattr(value, name, meta))
            if scalar is None:
                return _fp(value, ())
            parts.append(name_crc)
            parts.append(zlib.crc32(scalar))
        return combine_all(meta[0], parts)
    return _fp(value, ())


def _fp(value, stack) -> int:
    scalar = _scalar_bytes(value)
    if scalar is not None:
        return _crc(scalar)
    vid = id(value)
    if vid in stack:  # cycle guard: digest the back-edge, do not recurse
        return _crc(b"cycle")
    stack = stack + (vid,)
    if isinstance(value, (list, tuple, deque)):
        crc = _crc(b"L")
        for item in value:
            crc = combine(crc, _fp(item, stack))
        return crc
    if isinstance(value, (set, frozenset)):
        crc = _crc(b"S")
        for part in sorted(_fp(item, stack) for item in value):
            crc = combine(crc, part)
        return crc
    if isinstance(value, dict):
        crc = _crc(b"D")
        items = sorted(
            (_fp(key, stack), _fp(val, stack)) for key, val in value.items()
        )
        for key_fp, val_fp in items:
            crc = combine(combine(crc, key_fp), val_fp)
        return crc
    tag_crc, slot_meta, _flat = _class_meta(type(value))
    state = getattr(value, "__dict__", None)
    if state:
        return combine(tag_crc, _fp(state, stack))
    if slot_meta:
        crc = tag_crc
        for name, name_crc in slot_meta:
            if hasattr(value, name):
                crc = combine(crc, name_crc)
                crc = combine(crc, _fp(getattr(value, name), stack))
        return crc
    return tag_crc
