"""List (append) workloads for list-history checking (Fig 5b).

List histories replace writes with appends of unique elements and reads
with whole-list reads — the data type Elle handles best (the full version
order is recoverable from list prefixes), implemented on SQL databases as
comma-separated TEXT columns with ``INSERT ... ON DUPLICATE KEY UPDATE``
(§IV-B).  Appends are writers under first-committer-wins, so concurrent
appends to one key conflict and retry, exactly like register writes.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Optional

from repro.db.oracle import TimestampOracle
from repro.histories.model import History
from repro.util.rng import derive_rng
from repro.workloads.distributions import make_chooser
from repro.workloads.driver import TxnProgram, run_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["generate_list_history"]


def generate_list_history(
    spec: WorkloadSpec,
    *,
    oracle: Optional[TimestampOracle] = None,
) -> History:
    """Generate a list history for a Table I parameter point.

    ``read_ratio`` governs the fraction of whole-list reads; the rest are
    appends of globally unique elements.  Lists start empty: ⊥T writes
    the empty tuple to every key.
    """
    chooser = make_chooser(spec.distribution, spec.n_keys)
    elements = itertools.count(1)

    def factory(_sid: int, rng: Random) -> TxnProgram:
        program = TxnProgram()
        for _ in range(spec.ops_per_txn):
            key = spec.key_name(chooser.choose(rng))
            if rng.random() < spec.read_ratio:
                program.read_list(key)
            else:
                program.append(key, next(elements))
        return program

    return run_workload(
        spec.keys, (), factory, spec.n_transactions,
        n_sessions=spec.n_sessions, seed=derive_rng(spec.seed, "list-driver").randrange(2**63),
        oracle=oracle, isolation=spec.isolation,
    )
