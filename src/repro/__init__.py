"""repro — online timestamp-based transactional isolation checking.

A from-scratch Python reproduction of "Online Timestamp-based
Transactional Isolation Checking of Database Systems" (ICDE 2025):

- :mod:`repro.core` — the Chronos offline and Aion online SI/SER checkers;
- :mod:`repro.db` — a simulated MVCC database substrate (Algorithm 1);
- :mod:`repro.workloads` — Table I, Twitter, RUBiS, TPC-C, list workloads;
- :mod:`repro.baselines` — Elle, Emme-SI, PolySI, Viper, Cobra comparators;
- :mod:`repro.online` — collector, virtual clock, online experiment runner;
- :mod:`repro.bench` — the per-figure experiment harness.

Quickstart::

    from repro import Chronos, HistoryBuilder, read, write

    b = HistoryBuilder(keys=["x"])
    b.txn(sid=1, ops=[write("x", 1)])
    b.txn(sid=2, ops=[read("x", 1)])
    result = Chronos().check(b.build())
    assert result.is_valid
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Aion",
    "AionConfig",
    "AionSer",
    "Axiom",
    "CheckResult",
    "Chronos",
    "ChronosSer",
    "GcMode",
    "History",
    "HistoryBuilder",
    "OpKind",
    "Operation",
    "Transaction",
    "Violation",
    "append",
    "load_history",
    "read",
    "read_list",
    "save_history",
    "write",
    "__version__",
]

# Resolved on first access, through the (equally lazy) subpackages.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Aion": "repro.core",
        "AionConfig": "repro.core",
        "AionSer": "repro.core",
        "Axiom": "repro.core",
        "CheckResult": "repro.core",
        "Chronos": "repro.core",
        "ChronosSer": "repro.core",
        "GcMode": "repro.core",
        "Violation": "repro.core",
        "History": "repro.histories",
        "HistoryBuilder": "repro.histories",
        "OpKind": "repro.histories",
        "Operation": "repro.histories",
        "Transaction": "repro.histories",
        "append": "repro.histories",
        "load_history": "repro.histories",
        "read": "repro.histories",
        "read_list": "repro.histories",
        "save_history": "repro.histories",
        "write": "repro.histories",
        # Not in __all__: kept only for the ladder's sharded_x2 cold start,
        # which runs ``from repro import ShardedAion``.
        "ShardedAion": "repro.core.sharded",
    },
)
