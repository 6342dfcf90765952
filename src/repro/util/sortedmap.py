"""A two-level bisect-backed sorted map with floor/ceiling queries.

Aion (Algorithm 3 in the paper) must insert transactions into an already
sorted timeline and answer "latest version before timestamp ``ts``" queries
against its versioned ``frontier_ts`` / ``ongoing_ts`` structures.  The
paper suggests a balanced binary search tree; this implementation uses the
flat layout popularized by ``sortedcontainers`` instead — a list of
bounded, individually sorted key chunks plus a ``maxes`` index holding
each chunk's greatest key — because in CPython the constant factor is the
whole game: every operation bottoms out in C-speed :func:`bisect.bisect`
calls and ``list`` splices over contiguous pointer arrays, where a linked
structure (the previous generation of this module was a Pugh skiplist)
pays a Python-level object dereference per visited node.

Chunks split at ``2 * _LOAD`` entries, keeping every descent a pair of
bisects (one over ``maxes``, one inside a chunk); a chunk that empties is
dropped.  Deletions never split, so the chunk count is bounded by the
insert history and lookups stay ``O(log n)``.

The map stores unique, mutually comparable keys.  Beyond the usual mapping
operations it supports:

- :meth:`SortedMap.floor_item` / :meth:`SortedMap.ceiling_item` — greatest
  key ``<= k`` / least key ``>= k``;
- :meth:`SortedMap.lower_item` / :meth:`SortedMap.higher_item` — strict
  variants;
- :meth:`SortedMap.irange` — ordered iteration over a key range, the
  primitive behind Aion's re-checking sweeps;
- :meth:`SortedMap.pop_below` — bulk removal used by garbage collection,
  which splices whole chunks instead of deleting keys one at a time;
- :meth:`SortedMap.key_at` — positional lookup (the GC watermark that
  spares the newest residents), skipping whole chunks by length;
- :meth:`SortedMap.set_item` — single-descent insert reporting whether
  the key was already present;
- :meth:`SortedMap.set_and_higher` — fused insert + successor lookup for
  Aion's step ③.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Optional, Tuple

__all__ = ["SortedMap"]

#: Chunks split once they exceed ``2 * _LOAD`` entries.  1024 keeps the
#: common per-key maps (a handful of versions) in a single plain list
#: while bounding splice cost for the large global maps.
_LOAD = 1024
_SPLIT = 2 * _LOAD


class SortedMap:
    """A mutable mapping whose keys are kept in sorted order.

    Keys live in ``_keys`` (a list of sorted chunks) with values in the
    parallel ``_vals`` chunks; ``_maxes[i]`` caches ``_keys[i][-1]``.
    All single-item operations (get, set, delete, floor, ceiling) run in
    ``O(log n)`` with C-speed constants; in-order iteration is ``O(n)``.

    >>> m = SortedMap()
    >>> m[10] = "a"; m[20] = "b"; m[30] = "c"
    >>> m.floor_item(25)
    (20, 'b')
    >>> list(m.irange(15, 30))
    [(20, 'b'), (30, 'c')]
    """

    __slots__ = ("_keys", "_vals", "_maxes", "_len")

    def __init__(self, items: Optional[Iterable[Tuple[Any, Any]]] = None, *, seed: int = 0) -> None:
        # ``seed`` is accepted for compatibility with the skiplist-era
        # constructor; the flat layout is deterministic without one.
        self._keys: list[list] = []
        self._vals: list[list] = []
        self._maxes: list = []
        self._len = 0
        if items is not None:
            for key, value in items:
                self[key] = value

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __contains__(self, key: Any) -> bool:
        maxes = self._maxes
        if not maxes:
            return False
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            return False
        chunk = self._keys[ci]
        j = bisect_left(chunk, key)
        return chunk[j] == key

    def __getitem__(self, key: Any) -> Any:
        maxes = self._maxes
        if maxes:
            ci = bisect_left(maxes, key)
            if ci != len(maxes):
                chunk = self._keys[ci]
                j = bisect_left(chunk, key)
                if chunk[j] == key:
                    return self._vals[ci][j]
        raise KeyError(key)

    def get(self, key: Any, default: Any = None) -> Any:
        maxes = self._maxes
        if not maxes:
            return default
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            return default
        chunk = self._keys[ci]
        j = bisect_left(chunk, key)
        if chunk[j] == key:
            return self._vals[ci][j]
        return default

    def set_item(self, key: Any, value: Any) -> bool:
        """Insert (or overwrite) ``key`` in one descent.

        Returns ``was_present`` — whether the key already existed.  The
        versioned frontier needs exactly this to maintain its version
        count without a separate ``key in map`` probe.  Subscript
        assignment is this same method (the return value is ignored).
        """
        maxes = self._maxes
        if not maxes:
            self._keys.append([key])
            self._vals.append([value])
            maxes.append(key)
            self._len = 1
            return False
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            # Greater than every stored key: append to the last chunk.
            ci -= 1
            chunk = self._keys[ci]
            chunk.append(key)
            self._vals[ci].append(value)
            maxes[ci] = key
        else:
            chunk = self._keys[ci]
            j = bisect_left(chunk, key)
            if chunk[j] == key:
                self._vals[ci][j] = value
                return True
            chunk.insert(j, key)
            self._vals[ci].insert(j, value)
        self._len += 1
        if len(chunk) > _SPLIT:
            self._split(ci)
        return False

    __setitem__ = set_item

    def set_and_higher(self, key: Any, value: Any) -> Tuple[bool, Optional[Tuple[Any, Any]]]:
        """Insert (or overwrite) ``key`` and return its successor in one descent.

        Returns ``(was_present, higher_item)`` where ``was_present`` tells
        whether ``key`` already existed and ``higher_item`` is the item
        with the least key ``> key`` (or None).  Aion's step ③ needs both
        the insertion and the next-version lookup at the same point of the
        timeline; fusing them halves the descents on the ingest hot path.
        """
        maxes = self._maxes
        if not maxes:
            self._keys.append([key])
            self._vals.append([value])
            maxes.append(key)
            self._len = 1
            return False, None
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            # New global maximum: no successor.
            ci -= 1
            chunk = self._keys[ci]
            chunk.append(key)
            self._vals[ci].append(value)
            maxes[ci] = key
            self._len += 1
            if len(chunk) > _SPLIT:
                self._split(ci)
            return False, None
        chunk = self._keys[ci]
        vals = self._vals[ci]
        j = bisect_left(chunk, key)
        if chunk[j] == key:
            vals[j] = value
            was_present = True
        else:
            chunk.insert(j, key)
            vals.insert(j, value)
            self._len += 1
            was_present = False
        nxt = j + 1
        if nxt < len(chunk):
            successor = (chunk[nxt], vals[nxt])
        elif ci + 1 < len(self._keys):
            successor = (self._keys[ci + 1][0], self._vals[ci + 1][0])
        else:
            successor = None
        if len(chunk) > _SPLIT:
            self._split(ci)
        return was_present, successor

    def __delitem__(self, key: Any) -> None:
        maxes = self._maxes
        if maxes:
            ci = bisect_left(maxes, key)
            if ci != len(maxes):
                chunk = self._keys[ci]
                j = bisect_left(chunk, key)
                if chunk[j] == key:
                    del chunk[j]
                    del self._vals[ci][j]
                    self._len -= 1
                    if not chunk:
                        del self._keys[ci]
                        del self._vals[ci]
                        del maxes[ci]
                    elif j == len(chunk):
                        maxes[ci] = chunk[-1]
                    return
        raise KeyError(key)

    def pop(self, key: Any, *default: Any) -> Any:
        maxes = self._maxes
        if maxes:
            ci = bisect_left(maxes, key)
            if ci != len(maxes):
                chunk = self._keys[ci]
                j = bisect_left(chunk, key)
                if chunk[j] == key:
                    value = self._vals[ci][j]
                    del chunk[j]
                    del self._vals[ci][j]
                    self._len -= 1
                    if not chunk:
                        del self._keys[ci]
                        del self._vals[ci]
                        del maxes[ci]
                    elif j == len(chunk):
                        maxes[ci] = chunk[-1]
                    return value
        if default:
            return default[0]
        raise KeyError(key)

    def setdefault(self, key: Any, default: Any) -> Any:
        """Return ``map[key]``, inserting ``default`` first if absent.

        A single descent either way — the external-read index relies on
        this to append to a per-snapshot reader list without paying a
        second chunk search on the miss path.
        """
        maxes = self._maxes
        if not maxes:
            self._keys.append([key])
            self._vals.append([default])
            maxes.append(key)
            self._len = 1
            return default
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            ci -= 1
            chunk = self._keys[ci]
            chunk.append(key)
            self._vals[ci].append(default)
            maxes[ci] = key
        else:
            chunk = self._keys[ci]
            j = bisect_left(chunk, key)
            if chunk[j] == key:
                return self._vals[ci][j]
            chunk.insert(j, key)
            self._vals[ci].insert(j, default)
        self._len += 1
        if len(chunk) > _SPLIT:
            self._split(ci)
        return default

    def clear(self) -> None:
        self._keys = []
        self._vals = []
        self._maxes = []
        self._len = 0

    # ------------------------------------------------------------------
    # Ordered queries
    # ------------------------------------------------------------------

    def min_item(self) -> Tuple[Any, Any]:
        """Return the smallest (key, value) pair; raise KeyError if empty."""
        if not self._maxes:
            raise KeyError("min_item(): map is empty")
        return self._keys[0][0], self._vals[0][0]

    def max_item(self) -> Tuple[Any, Any]:
        """Return the largest (key, value) pair; raise KeyError if empty."""
        if not self._maxes:
            raise KeyError("max_item(): map is empty")
        return self._keys[-1][-1], self._vals[-1][-1]

    def key_at(self, index: int) -> Any:
        """The ``index``-th smallest key (0-based); IndexError if out of
        range.  Skips whole chunks by their length, so the cost is the
        number of chunks before the answer, not ``index``."""
        if not 0 <= index < self._len:
            raise IndexError("key_at(): index out of range")
        for chunk in self._keys:
            if index < len(chunk):
                return chunk[index]
            index -= len(chunk)

    def floor_item(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the item with the greatest key ``<= key``, or None."""
        maxes = self._maxes
        if not maxes:
            return None
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            return self._keys[-1][-1], self._vals[-1][-1]
        chunk = self._keys[ci]
        j = bisect_right(chunk, key) - 1
        if j >= 0:
            return chunk[j], self._vals[ci][j]
        if ci:
            return self._keys[ci - 1][-1], self._vals[ci - 1][-1]
        return None

    def lower_item(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the item with the greatest key ``< key``, or None."""
        maxes = self._maxes
        if not maxes:
            return None
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            return self._keys[-1][-1], self._vals[-1][-1]
        chunk = self._keys[ci]
        j = bisect_left(chunk, key) - 1
        if j >= 0:
            return chunk[j], self._vals[ci][j]
        if ci:
            return self._keys[ci - 1][-1], self._vals[ci - 1][-1]
        return None

    def ceiling_item(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the item with the least key ``>= key``, or None."""
        maxes = self._maxes
        if not maxes:
            return None
        ci = bisect_left(maxes, key)
        if ci == len(maxes):
            return None
        chunk = self._keys[ci]
        j = bisect_left(chunk, key)
        return chunk[j], self._vals[ci][j]

    def higher_item(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the item with the least key ``> key``, or None."""
        maxes = self._maxes
        if not maxes:
            return None
        ci = bisect_right(maxes, key)
        if ci == len(maxes):
            return None
        chunk = self._keys[ci]
        j = bisect_right(chunk, key)
        return chunk[j], self._vals[ci][j]

    def irange(
        self,
        low: Any = None,
        high: Any = None,
        *,
        inclusive: Tuple[bool, bool] = (True, True),
    ) -> Iterator[Tuple[Any, Any]]:
        """Iterate (key, value) pairs with ``low <= key <= high`` in order.

        ``low=None`` / ``high=None`` leave that side unbounded; the
        ``inclusive`` pair controls closed/open endpoints, mirroring
        ``sortedcontainers.SortedDict.irange``.  Both endpoints are
        located by bisection, so a narrow sweep inside a large map costs
        ``O(log n + yielded)``.
        """
        maxes = self._maxes
        if not maxes:
            return
        key_chunks = self._keys
        val_chunks = self._vals
        n_chunks = len(maxes)
        if low is None:
            ci, j = 0, 0
        else:
            ci = bisect_left(maxes, low)
            if ci == n_chunks:
                return
            chunk = key_chunks[ci]
            j = bisect_left(chunk, low) if inclusive[0] else bisect_right(chunk, low)
            if j == len(chunk):
                ci += 1
                j = 0
                if ci == n_chunks:
                    return
        if high is None:
            ce, je = n_chunks - 1, len(key_chunks[-1])
        else:
            ce = bisect_left(maxes, high)
            if ce == n_chunks:
                ce, je = n_chunks - 1, len(key_chunks[-1])
            else:
                chunk = key_chunks[ce]
                je = bisect_right(chunk, high) if inclusive[1] else bisect_left(chunk, high)
        if ci > ce or (ci == ce and j >= je):
            return  # empty range (including low > high)
        while True:
            keys = key_chunks[ci]
            vals = val_chunks[ci]
            end = je if ci == ce else len(keys)
            while j < end:
                yield keys[j], vals[j]
                j += 1
            if ci >= ce:
                return
            ci += 1
            j = 0

    def range_lists(
        self,
        low: Any = None,
        high: Any = None,
        *,
        inclusive: Tuple[bool, bool] = (True, True),
    ) -> Optional[Tuple[list, list]]:
        """List-returning :meth:`irange`: parallel key/value slices.

        Returns ``(keys, values)`` for the range, or ``None`` when it is
        empty.  The batch kernel's re-check sweep issues one narrow range
        query per written key; materializing the (usually tiny) answer
        with two bisects and a C-speed slice beats driving a generator
        frame per yielded item.
        """
        maxes = self._maxes
        if not maxes:
            return None
        key_chunks = self._keys
        val_chunks = self._vals
        n_chunks = len(maxes)
        if low is None:
            ci, j = 0, 0
        else:
            ci = bisect_left(maxes, low)
            if ci == n_chunks:
                return None
            chunk = key_chunks[ci]
            j = bisect_left(chunk, low) if inclusive[0] else bisect_right(chunk, low)
            if j == len(chunk):
                ci += 1
                j = 0
                if ci == n_chunks:
                    return None
        if high is None:
            ce, je = n_chunks - 1, len(key_chunks[-1])
        else:
            ce = bisect_left(maxes, high)
            if ce == n_chunks:
                ce, je = n_chunks - 1, len(key_chunks[-1])
            else:
                chunk = key_chunks[ce]
                je = bisect_right(chunk, high) if inclusive[1] else bisect_left(chunk, high)
        if ci > ce or (ci == ce and j >= je):
            return None  # empty range (including low > high)
        if ci == ce:
            return key_chunks[ci][j:je], val_chunks[ci][j:je]
        keys_out = key_chunks[ci][j:]
        vals_out = val_chunks[ci][j:]
        for mid in range(ci + 1, ce):
            keys_out += key_chunks[mid]
            vals_out += val_chunks[mid]
        keys_out += key_chunks[ce][:je]
        vals_out += val_chunks[ce][:je]
        return keys_out, vals_out

    def pop_below(self, key: Any, *, inclusive: bool = True) -> list[Tuple[Any, Any]]:
        """Remove and return every item with key ``<= key`` (or ``< key``).

        This is the garbage-collection primitive: Aion periodically evicts
        all versions below the GC-safe timestamp in one sweep, which this
        method performs in ``O(removed + log n)`` by dropping whole chunks
        rather than deleting keys one at a time.
        """
        maxes = self._maxes
        if not maxes:
            return []
        key_chunks = self._keys
        val_chunks = self._vals
        # Chunks whose max falls inside the cut are removed wholesale.
        ci = bisect_right(maxes, key) if inclusive else bisect_left(maxes, key)
        removed: list[Tuple[Any, Any]] = []
        for full in range(ci):
            removed.extend(zip(key_chunks[full], val_chunks[full]))
        if ci:
            del key_chunks[:ci]
            del val_chunks[:ci]
            del maxes[:ci]
        if key_chunks:
            chunk = key_chunks[0]
            j = bisect_right(chunk, key) if inclusive else bisect_left(chunk, key)
            if j:
                removed.extend(zip(chunk[:j], val_chunks[0][:j]))
                del chunk[:j]
                del val_chunks[0][:j]
        self._len -= len(removed)
        return removed

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        for chunk in self._keys:
            yield from chunk

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def values(self) -> Iterator[Any]:
        for chunk in self._vals:
            yield from chunk

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for ci, chunk in enumerate(self._keys):
            vals = self._vals[ci]
            for j, key in enumerate(chunk):
                yield key, vals[j]

    def __repr__(self) -> str:
        preview = ", ".join(f"{k!r}: {v!r}" for k, v in list(self.items())[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"SortedMap({{{preview}{suffix}}})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @classmethod
    def _from_sorted(cls, keys: list, vals: list) -> "SortedMap":
        """Build a map from already-sorted parallel key/value lists.

        The lists are sliced straight into chunks with no per-key
        descent — the ``O(n)`` promotion path for containers that
        outgrow the versioned frontier's small-key representation.
        """
        m = cls()
        if keys:
            for lo in range(0, len(keys), _LOAD):
                m._keys.append(keys[lo : lo + _LOAD])
                m._vals.append(vals[lo : lo + _LOAD])
                m._maxes.append(m._keys[-1][-1])
            m._len = len(keys)
        return m

    def _split(self, ci: int) -> None:
        """Split the oversized chunk at ``ci`` into two halves."""
        keys = self._keys[ci]
        vals = self._vals[ci]
        half = len(keys) >> 1
        self._keys[ci] = keys[:half]
        self._vals[ci] = vals[:half]
        self._keys.insert(ci + 1, keys[half:])
        self._vals.insert(ci + 1, vals[half:])
        # The right half keeps the old max; the left half's max is the
        # last key it retained.
        self._maxes.insert(ci, keys[half - 1])
