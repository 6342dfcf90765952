"""The default key-value workload (Table I).

Each transaction performs ``ops_per_txn`` operations; every operation is
a read with probability ``read_ratio``, else a write of a globally unique
value (uniqueness is what lets the Elle-style baselines recover
write-read dependencies, §VII).  Keys are drawn from the configured
distribution.  Transactions execute interleaved across ``n_sessions``
sessions against the SI (or SER) engine, and the returned history is
whatever the CDC captured — including the initial transaction ⊥T.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Optional

from repro.db.engine import Database
from repro.db.oracle import TimestampOracle
from repro.histories.model import History
from repro.util.rng import derive_rng
from repro.workloads.distributions import make_chooser
from repro.workloads.driver import TxnProgram, run_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["generate_default_history", "build_database"]


def build_database(spec: WorkloadSpec, oracle: Optional[TimestampOracle] = None) -> Database:
    """A database initialized for ``spec`` (all keys written by ⊥T)."""
    database = Database(oracle, isolation=spec.isolation)
    database.initialize(spec.keys, 0)
    return database


def generate_default_history(
    spec: WorkloadSpec,
    *,
    oracle: Optional[TimestampOracle] = None,
    database: Optional[Database] = None,
) -> History:
    """Generate one history for a Table I parameter point.

    A caller may pass its own ``database`` (e.g. with a skewed oracle or
    ``collect_history=False``); otherwise a fresh centralized-oracle SI
    database is built.
    """
    chooser = make_chooser(spec.distribution, spec.n_keys)
    values = itertools.count(1)

    def factory(_sid: int, rng: Random) -> TxnProgram:
        program = TxnProgram()
        for _ in range(spec.ops_per_txn):
            key = spec.key_name(chooser.choose(rng))
            if rng.random() < spec.read_ratio:
                program.read(key)
            else:
                program.write(key, next(values))
        return program

    return run_workload(
        spec.keys, 0, factory, spec.n_transactions,
        n_sessions=spec.n_sessions, seed=derive_rng(spec.seed, "driver").randrange(2**63),
        oracle=oracle, isolation=spec.isolation, database=database,
    )
