"""Recursive deep-size estimation for memory experiments.

The paper's memory figures (Fig 7, Fig 10, Fig 16) profile the JVM heap.
Python has no free equivalent, so the benchmark harness samples
:func:`deep_sizeof` over the checker's live structures instead: a
``sys.getsizeof`` walk with cycle protection that understands the
container types the checkers actually use (dict, list, set, tuple,
objects with ``__dict__`` or ``__slots__``, and the project's own
chunked containers — :class:`~repro.util.sortedmap.SortedMap` and
:class:`~repro.util.intervals.IntervalIndex`).

The walk is iterative — checker structures can hold pointer chains far
beyond the interpreter recursion limit.  The two-level chunked
containers get a dedicated fast path: their backbone lists (key chunks,
value chunks, the ``maxes`` index, interval ``reach`` arrays) are
accounted per chunk, and scalar keys (timestamps, `(ts, tid)` tuples)
are sized inline instead of round-tripping through the generic
memoized stack.  Memory sampling runs *inside* capped-memory
experiments, so the sampler must stay cheap relative to the checker.

The flat layouts the batch kernel introduced (PR 6) get the same
treatment: the versioned structures' adaptive small-key representation
(plain parallel lists, one per field), their lazy GC min-heaps of
``(commit_ts, key)`` entries, and :class:`~repro.util.intervals.Interval`
``__slots__`` records are all sized inline — a checker under a memory
cap holds millions of these, and pushing each through the memoized
stack made the sampler a profile line of its own.  The versioned
structures live a layer above this module, so they contribute their fast
paths through :func:`register_sizer` instead of being imported here
(keeping the util layer dependency-free, and letting the module that
owns a layout own its accounting).

Accounting tolerance: the fast paths do not identity-memoize scalar
keys, so a small interned int appearing as both a key and a value can
be counted twice where the skiplist-era walk counted it once; ``maxes``
entries alias chunk keys and heap-entry keys alias index keys, so
neither is re-counted.  Both effects are bounded by a few machine words
per entry — well within the run-to-run noise of the memory figures, and
the relative comparisons (checker vs checker, sawtooth over time) the
figures make are unaffected.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.util.intervals import Interval, IntervalIndex
from repro.util.sortedmap import SortedMap

__all__ = ["deep_sizeof", "register_sizer"]

_ATOMIC = (str, bytes, bytearray, int, float, complex, bool, type(None))

#: Exact-type dispatch table of inline fast paths.  A sizer receives
#: ``(obj, stack)`` — the object to account and the walk's work stack —
#: and returns the bytes it counted *beyond* ``sys.getsizeof(obj)``
#: (already added by the walk); rich sub-objects it does not size inline
#: go onto ``stack`` for the generic memoized walk.
_SIZERS: Dict[type, Callable[[Any, List[Any]], int]] = {}


def register_sizer(cls: type, sizer: Callable[[Any, List[Any]], int]) -> None:
    """Register an inline fast path for instances of exactly ``cls``."""
    _SIZERS[cls] = sizer


def deep_sizeof(obj: Any, *, _seen: Optional[Set[int]] = None) -> int:
    """Return an estimate of the total bytes reachable from ``obj``.

    Objects already visited (by identity) are counted once, so aliased
    subtrees — e.g. transactions shared between the timeline and per-key
    indexes — do not inflate the estimate.
    """
    seen = _seen if _seen is not None else set()
    total = 0
    stack: List[Any] = [obj]
    while stack:
        current = stack.pop()
        current_id = id(current)
        if current_id in seen:
            continue
        seen.add(current_id)
        try:
            total += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic objects without sizeof
            pass

        if isinstance(current, _ATOMIC):
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
            continue
        if isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
            continue
        sizer = _SIZERS.get(type(current))
        if sizer is not None:
            total += sizer(current, stack)
            continue
        if isinstance(current, SortedMap):
            total += _chunked_bytes(
                current._keys, current._vals, current._maxes, None, stack
            )
            continue
        if isinstance(current, IntervalIndex):
            # Columnar layout: keys are (start, owner) tuples, ends and
            # reach are parallel plain-int chunks sized inline.
            total += sys.getsizeof(current._keys) + sys.getsizeof(current._maxes)
            for chunk in current._keys:
                total += sys.getsizeof(chunk)
                for key in chunk:
                    total += (
                        sys.getsizeof(key)
                        + sys.getsizeof(key[0])
                        + sys.getsizeof(key[1])
                    )
            for column in (current._ends, current._reach):
                total += sys.getsizeof(column)
                for chunk in column:
                    total += sys.getsizeof(chunk) + sum(map(sys.getsizeof, chunk))
            continue

        # Generic objects: follow __dict__ and __slots__.
        obj_dict = getattr(current, "__dict__", None)
        if obj_dict is not None:
            stack.append(obj_dict)
        for slot in _all_slots(type(current)):
            try:
                stack.append(getattr(current, slot))
            except AttributeError:
                continue
    return total


def _chunked_bytes(
    key_chunks: List[list],
    val_chunks: List[list],
    maxes: list,
    reach_chunks: Optional[List[list]],
    stack: List[Any],
) -> int:
    """Per-chunk accounting for the two-level chunked containers.

    Keys are sized inline (no memoization — see the module docstring for
    the tolerance argument); values are rich objects and go through the
    generic memoized walk via ``stack``.  ``maxes`` entries alias chunk
    keys, so only the index list itself is counted.
    """
    getsizeof = sys.getsizeof
    total = getsizeof(key_chunks) + getsizeof(val_chunks) + getsizeof(maxes)
    for chunk in key_chunks:
        total += getsizeof(chunk)
        for key in chunk:
            if type(key) is tuple:
                total += getsizeof(key)
                for part in key:
                    total += getsizeof(part)
            else:
                total += getsizeof(key)
    for chunk in val_chunks:
        total += getsizeof(chunk)
        stack.extend(chunk)
    if reach_chunks is not None:
        total += getsizeof(reach_chunks)
        for chunk in reach_chunks:
            # Reach entries are plain ints; one getsizeof per entry.
            total += getsizeof(chunk) + sum(map(getsizeof, chunk))
    return total


def _all_slots(cls: type) -> Iterable[str]:
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            yield slots
        else:
            yield from slots


def _interval_bytes(interval: Interval, stack: List[Any]) -> int:
    """Inline the three scalar fields instead of three stack round trips.

    NOCONFLICT state holds one Interval per resident write; the fields
    are timestamps and a tid, all sized directly (no memoization — the
    tolerance argument in the module docstring applies).
    """
    getsizeof = sys.getsizeof
    return (
        getsizeof(interval.start)
        + getsizeof(interval.end)
        + getsizeof(interval.owner)
    )


register_sizer(Interval, _interval_bytes)
