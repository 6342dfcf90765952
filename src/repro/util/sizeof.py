"""Recursive deep-size estimation for memory experiments.

The paper's memory figures (Fig 7, Fig 10, Fig 16) profile the JVM heap.
Python has no free equivalent, so the benchmark harness samples
:func:`deep_sizeof` over the checker's live structures instead: a
``sys.getsizeof`` walk with cycle protection that understands the
container types the checkers actually use (dict, list, set, tuple, and
objects with ``__dict__`` or ``__slots__``).

The walk is iterative — checker structures can hold pointer chains far
beyond the interpreter recursion limit.  Memory sampling runs *inside*
capped-memory experiments, so the sampler must stay cheap relative to
the checker: the flat layouts of the versioned structures (per-key
parallel lists, one per field) are sized inline — a checker under a
memory cap holds millions of entries, and pushing each through the
memoized stack made the sampler a profile line of its own.  Those
structures live a layer above this module, so they contribute their
fast paths through :func:`register_sizer` instead of being imported
here (keeping the util layer dependency-free, and letting the module
that owns a layout own its accounting).

Accounting tolerance: the fast paths do not identity-memoize scalar
entries, so a small interned int appearing in two places can be counted
twice where the generic walk counts it once.  The effect is bounded by a
few machine words per entry — well within the run-to-run noise of the
memory figures, and the relative comparisons (checker vs checker,
sawtooth over time) the figures make are unaffected.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

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


def _all_slots(cls: type) -> Iterable[str]:
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            yield slots
        else:
            yield from slots
