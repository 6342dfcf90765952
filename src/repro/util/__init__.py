"""Utility layer: sorted containers, sizing, randomness, intervals.

These modules have no dependencies on the rest of :mod:`repro` and provide
the data-structure substrate the checkers are built on:

- :mod:`repro.util.sortedmap` — a two-level bisect-backed sorted map with floor /
  ceiling queries, used for Aion's timestamp-versioned structures and the
  incremental event timeline.
- :mod:`repro.util.intervals` — a per-key interval index with overlap
  queries, used for NOCONFLICT re-checking.
- :mod:`repro.util.sizeof` — recursive deep-size estimation, used by the
  memory figures (Fig 7, 10, 16).
- :mod:`repro.util.rng` — deterministic random-stream helpers shared by the
  workload generators and delay models.
- :mod:`repro.util.hostgc` — the scoped pause that keeps CPython's cyclic
  collector out of the batch kernel, GC cycles and finalization.
"""

from repro.util.intervals import Interval, IntervalIndex
from repro.util.rng import derive_rng, make_rng
from repro.util.sizeof import deep_sizeof
from repro.util.sortedmap import SortedMap

__all__ = [
    "Interval",
    "IntervalIndex",
    "SortedMap",
    "deep_sizeof",
    "derive_rng",
    "make_rng",
]
