"""Golden faults: the held-history injector pinned from outside.

Every verdict claim of the violation-detection experiments rests on the
labels and mutated histories of :mod:`repro.db.faults`, and
``tests/data/chronos_golden.json`` pins only the verdicts on them.
``tests/data/fault_golden.json`` holds, for seeded register and list
histories, the labels each injection returned and a SHA-256 digest of
``build()`` (its JSONL form) in three cases:

- ``mix``: ``inject_mix(12)`` followed by three ``inject_noconflict()``;
- ``<class>``: one ``inject_<class>()`` alone, for every fault class;
- ``noconflict_repeat``: ``inject_noconflict()`` four times.

A refactor of the injector must reproduce them byte for byte.

Regenerate (only when a change of the mutated histories is intended)::

    PYTHONPATH=src python tests/test_fault_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.db.faults import FaultLabel, FaultInjector
from repro.histories.model import History
from repro.histories.serialization import history_to_jsonl
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.spec import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "fault_golden.json"

CLASSES = ("ext", "int", "session", "noconflict", "ts_order")


def histories() -> Dict[str, History]:
    cases = {}
    for seed in range(4):
        cases[f"register/seed{seed}"] = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=200, ops_per_txn=6, n_keys=30, seed=seed)
        )
    for seed in range(2):
        cases[f"list/seed{seed}"] = generate_list_history(
            WorkloadSpec(n_sessions=5, n_transactions=100, ops_per_txn=5, n_keys=16, seed=40 + seed)
        )
    return cases


def _outcome(injector: FaultInjector, labels: List[Optional[FaultLabel]]) -> Dict[str, Any]:
    digest = hashlib.sha256(history_to_jsonl(injector.build()).encode()).hexdigest()
    return {
        "labels": [None if label is None else label.describe() for label in labels],
        "digest": digest,
    }


def outcomes(history: History, seed: int) -> Dict[str, Any]:
    result = {}
    injector = FaultInjector(history, seed=seed)
    labels = injector.inject_mix(12)
    labels += [injector.inject_noconflict() for _ in range(3)]
    result["mix"] = _outcome(injector, labels)
    for kind in CLASSES:
        injector = FaultInjector(history, seed=seed)
        result[kind] = _outcome(injector, [getattr(injector, f"inject_{kind}")()])
    injector = FaultInjector(history, seed=seed)
    result["noconflict_repeat"] = _outcome(
        injector, [injector.inject_noconflict() for _ in range(4)]
    )
    return result


HISTORIES = histories()
#: The injector seed of each history.
SEEDS = {name: index + 7 for index, name in enumerate(HISTORIES)}
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(HISTORIES)
    # Every class labelled something on every history: the pin is not
    # a pin of ``None``s.
    for cases in GOLDEN.values():
        for kind in CLASSES:
            assert cases[kind]["labels"][0] is not None, kind
        assert None not in cases["mix"]["labels"][:12]


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_injector_reproduces_golden_histories(name):
    assert outcomes(HISTORIES[name], SEEDS[name]) == GOLDEN[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    golden = {name: outcomes(history, SEEDS[name]) for name, history in HISTORIES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
