"""Golden verdicts: the offline oracle pinned from outside.

``Chronos`` and ``ChronosSer`` are what every online checker is
differentially tested against, so a rewrite of their walk cannot be
checked by those differentials alone.  ``tests/data/chronos_golden.json``
holds the ordered ``describe()`` lists both checkers produced *before*
the walk moved onto columns (recorded at commit ``dedf501`` by running
this file as a script); the current walk must reproduce them byte for
byte — same violations, same report order.

Regenerate (only when a verdict change is intended, at the commit whose
verdicts are to be pinned)::

    PYTHONPATH=src python tests/test_chronos_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random
from typing import Dict

import pytest

from repro.core.chronos import Chronos, GcMode
from repro.core.chronos_ser import ChronosSer
from repro.db.faults import HistoryFaultInjector
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.model import History
from repro.histories.serialization import load_columns, save_history, save_history_packed
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.spec import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "chronos_golden.json"


def _faulted(history: History, seed: int, n_faults: int) -> History:
    """``n_faults`` labelled faults, then a seeded arrival shuffle (ties in
    the walk's sort are broken by arrival position, so order matters)."""
    injector = HistoryFaultInjector(history, seed=seed)
    injector.inject_mix(n_faults)
    txns = list(injector.build().transactions)
    Random(seed).shuffle(txns)
    return History(txns)


def golden_cases() -> Dict[str, History]:
    cases = {f"catalog/{name}": spec.build() for name, spec in sorted(ANOMALY_CATALOG.items())}
    for seed in range(6):
        # Eight labels cycle EXT, INT, SESSION, NOCONFLICT, TS_ORDER, EXT, ...
        clean = generate_default_history(
            WorkloadSpec(n_sessions=6, n_transactions=240, ops_per_txn=6, n_keys=30, seed=seed)
        )
        cases[f"register/seed{seed}"] = _faulted(clean, seed, 8)
    for seed in range(3):
        clean = generate_list_history(
            WorkloadSpec(n_sessions=5, n_transactions=100, ops_per_txn=5, n_keys=16, seed=40 + seed)
        )
        cases[f"list/seed{seed}"] = _faulted(clean, seed, 6)
    return cases


def verdicts(history) -> Dict[str, list]:
    return {
        "si": [v.describe() for v in Chronos().check(history).violations],
        "ser": [v.describe() for v in ChronosSer().check(history).violations],
    }


CASES = golden_cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    # The pin is only worth something if it pins violations of every axiom.
    text = json.dumps(GOLDEN)
    for report in ("SESSION violated", "INT violated", "EXT violated", "NOCONFLICT", "timestamp order"):
        assert report in text


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_reproduces_golden_verdicts(name):
    assert verdicts(CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_history_and_both_file_forms_take_the_same_walk(name, tmp_path):
    """check(History) ≡ check(columns from JSONL) ≡ check(columns from a
    packed file): same violations in the same order, same report counters."""
    history = CASES[name]
    save_history(history, tmp_path / "h.jsonl")
    save_history_packed(history, tmp_path / "h.rpch", chunk_size=64)
    forms = [history, load_columns(tmp_path / "h.jsonl"), load_columns(tmp_path / "h.rpch")]
    outcomes = []
    for form in forms:
        si, ser = Chronos(gc_every=50, gc_mode=GcMode.LIGHT), ChronosSer()
        outcomes.append(
            (
                [v.describe() for v in si.check(form).violations],
                [v.describe() for v in ser.check(form).violations],
                [
                    (r.n_transactions, r.n_operations, r.gc_runs, r.peak_retained)
                    for r in (si.report, ser.report)
                ],
            )
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][:2] == (GOLDEN[name]["si"], GOLDEN[name]["ser"])
    n_txns, n_ops, gc_runs, peak = outcomes[0][2][0]
    assert (n_txns, n_ops) == (len(history), history.op_count())
    if n_txns > 100:  # the generated histories: the GC actually cycled
        assert gc_runs > 0 and 0 < peak <= 50


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: verdicts(history) for name, history in CASES.items()}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
