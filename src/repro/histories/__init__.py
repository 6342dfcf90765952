"""Transactional history model.

A *history* is the client-visible record of a database execution: a set of
transactions, each carrying its session identity, program-ordered
operations, and — because the checkers in this project are white-box —
its start and commit timestamps extracted from the database's log/CDC.

This package is the common currency of the repository: the database
substrate (:mod:`repro.db`) produces histories, the checkers
(:mod:`repro.core`, :mod:`repro.baselines`) consume them, and
:mod:`repro.histories.serialization` moves them to and from disk.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ANOMALY_CATALOG",
    "AnomalySpec",
    "ColumnarBatch",
    "INIT_TID",
    "INIT_TS",
    "History",
    "HistoryBuilder",
    "HistoryStats",
    "OpKind",
    "Operation",
    "Transaction",
    "append",
    "history_from_jsonl",
    "history_to_jsonl",
    "load_history",
    "load_history_packed",
    "pack_columnar",
    "read",
    "read_list",
    "save_history",
    "save_history_packed",
    "unpack_columnar",
    "write",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ColumnarBatch": "repro.core.batch",
        "pack_columnar": "repro.core.colpack",
        "unpack_columnar": "repro.core.colpack",
        "ANOMALY_CATALOG": "repro.histories.anomalies",
        "AnomalySpec": "repro.histories.anomalies",
        "HistoryBuilder": "repro.histories.builder",
        "INIT_TID": "repro.histories.model",
        "INIT_TS": "repro.histories.model",
        "History": "repro.histories.model",
        "OpKind": "repro.histories.model",
        "Operation": "repro.histories.model",
        "Transaction": "repro.histories.model",
        "append": "repro.histories.ops",
        "read": "repro.histories.ops",
        "read_list": "repro.histories.ops",
        "write": "repro.histories.ops",
        "history_from_jsonl": "repro.histories.serialization",
        "history_to_jsonl": "repro.histories.serialization",
        "load_history": "repro.histories.serialization",
        "load_history_packed": "repro.histories.serialization",
        "save_history": "repro.histories.serialization",
        "save_history_packed": "repro.histories.serialization",
        "HistoryStats": "repro.histories.stats",
    },
)
