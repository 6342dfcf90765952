"""The paper's primary contribution: timestamp-based isolation checkers.

- :mod:`repro.core.chronos` — **Chronos**, the offline SI checker
  (Algorithm 2): sort all start/commit timestamps, simulate execution in
  timestamp order, check SESSION / INT / EXT / NOCONFLICT on the fly.
- :mod:`repro.core.chronos_ser` — **Chronos-SER**: the same simulation in
  commit-timestamp order for serializability (no NOCONFLICT, start
  timestamps ignored).
- :mod:`repro.core.aion` — **Aion**, the online SI checker (Algorithm 3):
  incremental checking under out-of-order arrival with timestamp-versioned
  structures, EXT re-checking with timeouts, and conservative GC.
- :mod:`repro.core.aion_ser` — **Aion-SER**, the online SER checker.
- :mod:`repro.core.sharded` — **ShardedAion**, the sharded, batch-oriented
  ingestion frontend with Aion-identical verdicts.
- :mod:`repro.core.reference` — a slow replay oracle used by the test
  suite to validate Aion differentially against Chronos.

All checkers consume :class:`repro.histories.History` /
:class:`repro.histories.Transaction` values and report
:class:`repro.core.violations.Violation` records; they never terminate at
the first violation (§III-B2).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Aion",
    "AionConfig",
    "AionSer",
    "Axiom",
    "CheckResult",
    "Chronos",
    "ChronosReport",
    "ChronosSer",
    "ConflictViolation",
    "ExtViolation",
    "GcMode",
    "IntViolation",
    "ReferenceOnlineChecker",
    "SessionViolation",
    "ShardedAion",
    "TimestampOrderViolation",
    "Violation",
    "shard_of",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Aion": "repro.core.aion",
        "AionConfig": "repro.core.aion",
        "AionSer": "repro.core.aion_ser",
        "Chronos": "repro.core.chronos",
        "ChronosReport": "repro.core.chronos",
        "GcMode": "repro.core.chronos",
        "ChronosSer": "repro.core.chronos_ser",
        "ReferenceOnlineChecker": "repro.core.reference",
        "ShardedAion": "repro.core.sharded",
        "shard_of": "repro.core.sharded",
        "Axiom": "repro.core.violations",
        "CheckResult": "repro.core.violations",
        "ConflictViolation": "repro.core.violations",
        "ExtViolation": "repro.core.violations",
        "IntViolation": "repro.core.violations",
        "SessionViolation": "repro.core.violations",
        "TimestampOrderViolation": "repro.core.violations",
        "Violation": "repro.core.violations",
    },
)
