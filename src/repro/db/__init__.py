"""A simulated transactional MVCC database (the paper's substrate).

The paper evaluates against TiDB, YugabyteDB and Dgraph; the checkers,
however, consume nothing but the history extracted from the database's
logs.  This package supplies a faithful in-process substitute:

- :mod:`repro.db.oracle` — timestamp oracles: a centralized strictly
  increasing oracle (TiDB's PD / Dgraph's Zero) and a decentralized
  hybrid-logical-clock oracle with configurable skew (YugabyteDB);
- :mod:`repro.db.storage` — multi-version storage with snapshot reads;
- :mod:`repro.db.engine` — the operational semantics of SI from
  Algorithm 1 (snapshot reads as of ``start_ts``, write buffering,
  first-committer-wins), plus a SER mode that additionally validates
  read sets at commit so that committed executions are equivalent to the
  serial commit-timestamp order;
- :mod:`repro.db.cdc` — the change-data-capture log from which
  timestamps and operations are extracted (§IV-C); its text form is the
  history file's JSON Lines, so a saved capture is a history file;
- :mod:`repro.db.faults` — fault injection, both engine-level (clock
  skew) and window-level mutations (of a held history or of live
  batches) with ground-truth labels, used by the §V-D violation-detection
  experiments and the chaos campaigns.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CentralizedOracle",
    "ChangeLog",
    "Database",
    "DecentralizedOracle",
    "FaultInjector",
    "FaultLabel",
    "HybridLogicalClock",
    "IsolationLevel",
    "MultiVersionStore",
    "SkewedOracle",
    "TransactionAborted",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ChangeLog": "repro.db.cdc",
        "Database": "repro.db.engine",
        "IsolationLevel": "repro.db.engine",
        "TransactionAborted": "repro.db.engine",
        "FaultInjector": "repro.db.faults",
        "FaultLabel": "repro.db.faults",
        "SkewedOracle": "repro.db.faults",
        "CentralizedOracle": "repro.db.oracle",
        "DecentralizedOracle": "repro.db.oracle",
        "HybridLogicalClock": "repro.db.oracle",
        "MultiVersionStore": "repro.db.storage",
    },
)
