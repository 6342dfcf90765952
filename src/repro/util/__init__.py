"""Utility layer: sorted containers, sizing, randomness, intervals.

These modules have no dependencies on the rest of :mod:`repro`:

- :mod:`repro.util.sortedmap` — a two-level bisect-backed sorted map with floor /
  ceiling queries, and :mod:`repro.util.intervals` — a per-key interval
  index with overlap queries.  No checker holds either any more: every
  per-key structure is plain parallel lists, and the frontier answers
  NOCONFLICT itself.  They remain only for the ladder's frozen rungs
  (ROADMAP 1(a)), and no checker import loads them.
- :mod:`repro.util.sizeof` — recursive deep-size estimation, used by the
  memory figures (Fig 7, 10, 16).
- :mod:`repro.util.rng` — deterministic random-stream helpers shared by the
  workload generators and delay models.
- :mod:`repro.util.hostgc` — the scoped pause that keeps CPython's cyclic
  collector out of the batch kernel, GC cycles and finalization.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Interval",
    "IntervalIndex",
    "SortedMap",
    "deep_sizeof",
    "derive_rng",
    "make_rng",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Interval": "repro.util.intervals",
        "IntervalIndex": "repro.util.intervals",
        "derive_rng": "repro.util.rng",
        "make_rng": "repro.util.rng",
        "deep_sizeof": "repro.util.sizeof",
        "SortedMap": "repro.util.sortedmap",
    },
)
