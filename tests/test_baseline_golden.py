"""Golden baseline reports: the graph checkers' cycles pinned from outside.

Emme, ElleKV and ElleList report the first cycle a depth-first search
meets, so a change of the cycle finder can keep every verdict and still
name a different cycle.  ``tests/data/baseline_golden.json`` holds the
ordered ``describe()`` lists these checkers (and PolySI / Viper, which
search instead) produced while the cycle search was ``networkx``'s
``find_cycle``, on the anomaly catalog and on seeded clean, skewed and
faulted register and list histories; and, for seeded random digraphs
with self-loops, the node list ``find_cycle`` returned.  The stdlib
search must reproduce all of them.

No report may follow string hashing: Emme recovers its version order by
walking each transaction's writes in program order, not a set of key
strings.  So the history reports are computed in subprocesses under two
``PYTHONHASHSEED`` values, and both must equal the golden rows.

Regenerate (only when a report change is intended)::

    PYTHONPATH=src python tests/test_baseline_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.baselines.depgraph import find_cycle
from repro.baselines.elle import ElleKV, ElleList
from repro.baselines.emme import EmmeSer, EmmeSi
from repro.baselines.polysi import PolySi
from repro.baselines.viper import Viper
from repro.db.faults import FaultInjector, SkewedOracle
from repro.db.oracle import CentralizedOracle
from repro.histories.anomalies import ANOMALY_CATALOG
from repro.histories.model import History
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.spec import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "baseline_golden.json"

REGISTER_CHECKERS: Dict[str, Callable[[], Any]] = {
    "emme_si": EmmeSi, "emme_ser": EmmeSer, "elle_kv": ElleKV,
}
SEARCH_CHECKERS: Dict[str, Callable[[], Any]] = {"polysi": PolySi, "viper": Viper}
LIST_CHECKERS: Dict[str, Callable[[], Any]] = {
    "elle_list_si": ElleList, "elle_list_ser": lambda: ElleList("ser"),
    "emme_si": EmmeSi, "emme_ser": EmmeSer,
}


def _register(seed: int, n: int, **kwargs) -> History:
    return generate_default_history(
        WorkloadSpec(
            n_sessions=6, n_transactions=n, ops_per_txn=6, n_keys=40,
            distribution="uniform", seed=seed,
        ),
        **kwargs,
    )


def _list(seed: int, n: int) -> History:
    return generate_list_history(
        WorkloadSpec(n_sessions=5, n_transactions=n, ops_per_txn=6, n_keys=20, seed=seed)
    )


def _faulted(history: History, seed: int, n_faults: int) -> History:
    injector = FaultInjector(history, seed=seed)
    injector.inject_mix(n_faults)
    return injector.build()


def cases() -> Dict[str, Tuple[History, Dict[str, Callable[[], Any]]]]:
    every = {**REGISTER_CHECKERS, **SEARCH_CHECKERS}
    out = {
        f"catalog/{name}": (spec.build(), every)
        for name, spec in sorted(ANOMALY_CATALOG.items())
    }
    out["register/clean"] = (_register(31, 150), REGISTER_CHECKERS)
    skewed = SkewedOracle(CentralizedOracle(), probability=0.1, max_skew=100)
    out["register/skewed"] = (_register(34, 300, oracle=skewed), REGISTER_CHECKERS)
    for seed in range(6):
        out[f"register/faulted{seed}"] = (
            _faulted(_register(50 + seed, 150), seed, 5 + seed), REGISTER_CHECKERS
        )
    for seed in range(2):
        out[f"register/faulted_small{seed}"] = (_faulted(_register(60 + seed, 40), seed, 3), every)
    out["list/clean"] = (_list(35, 200), LIST_CHECKERS)
    for seed in range(4):
        out[f"list/faulted{seed}"] = (_faulted(_list(70 + seed, 120), seed, 4 + seed), LIST_CHECKERS)
    return out


def reports(history: History, checkers: Dict[str, Callable[[], Any]]) -> Dict[str, List[str]]:
    return {
        name: [v.describe() for v in make().check(history).violations]
        for name, make in checkers.items()
    }


def random_graph(seed: int) -> List[Tuple[int, List[int]]]:
    """A seeded digraph as ``(node, successors)`` rows in insertion order."""
    rng = Random(seed)
    n = rng.randint(1, 12)
    density = rng.random() * 0.3
    return [
        (node, [other for other in range(n) if rng.random() < density])
        for node in rng.sample(range(n), n)
    ]


def graph_cycle(rows: List[Tuple[int, List[int]]]) -> Optional[List[int]]:
    return find_cycle(dict(rows))


N_GRAPHS = 400
CASES = cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN["histories"]) == sorted(CASES)
    assert len(GOLDEN["graphs"]) == N_GRAPHS
    # The pin is only worth something if it pins reported cycles.
    text = json.dumps(GOLDEN["histories"])
    for flavor in ("G1c/SER", "G-SI", "G1c"):
        assert f"[{flavor}]" in text or flavor in text
    assert sum(cycle is not None for cycle in GOLDEN["graphs"]) > N_GRAPHS // 4


def history_reports() -> Dict[str, Dict[str, List[str]]]:
    return {name: reports(*case) for name, case in CASES.items()}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_baselines_reproduce_golden_reports(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, __file__, "--stdout"], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    for name in sorted(CASES):
        assert got[name] == GOLDEN["histories"][name], name


def test_find_cycle_reproduces_golden_cycles():
    got = [graph_cycle(random_graph(seed)) for seed in range(N_GRAPHS)]
    assert got == GOLDEN["graphs"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--stdout"]:
        print(json.dumps(history_reports()))
        sys.exit(0)
    golden = {
        "histories": history_reports(),
        "graphs": [graph_cycle(random_graph(seed)) for seed in range(N_GRAPHS)],
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden['histories'])} histories and {N_GRAPHS} graphs to {GOLDEN_PATH}")
