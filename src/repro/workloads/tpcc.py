"""A TPC-C-style workload with composite primary keys (appendix, Fig 24).

The paper evaluates TPC-C offline only: "TPC-C involves numerous tables,
most of which use composite primary keys, resulting in a very large range
of primary-key values" — maintaining a versioned frontier per key online
is expensive, while the offline checker's single global frontier handles
it easily.  This module reproduces that key structure: nine logical
tables keyed by composite identifiers, and the five standard transaction
profiles in the standard mix.

Only the data access pattern matters to the checkers (keys touched, reads
vs writes); business logic is reduced to unique-value writes.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import List, Optional

from repro.db.engine import IsolationLevel
from repro.db.oracle import TimestampOracle
from repro.histories.model import History
from repro.util.rng import derive_rng
from repro.workloads.driver import TxnProgram, run_workload

__all__ = ["TpccWorkload", "generate_tpcc_history"]

#: Standard TPC-C mix: new-order 45%, payment 43%, order-status 4%,
#: delivery 4%, stock-level 4%.
_NEW_ORDER, _PAYMENT, _ORDER_STATUS, _DELIVERY = 0.45, 0.43, 0.04, 0.04

_DISTRICTS_PER_WAREHOUSE = 10
_CUSTOMERS_PER_DISTRICT = 30
_ITEMS = 1000


class TpccWorkload:
    """Program factory over the TPC-C schema."""

    def __init__(self, n_warehouses: int = 2, *, seed: int = 2025) -> None:
        self.n_warehouses = n_warehouses
        self._values = itertools.count(1)
        self._order_ids = itertools.count(1)
        #: orders known to exist, per (warehouse, district).
        self._orders: dict[tuple, List[int]] = {}

    # ------------------------------------------------------------------

    def initial_keys(self) -> List[str]:
        keys: List[str] = []
        for w in range(self.n_warehouses):
            keys.append(f"warehouse:{w}:ytd")
            for d in range(_DISTRICTS_PER_WAREHOUSE):
                keys.append(f"district:{w}:{d}:ytd")
                keys.append(f"district:{w}:{d}:next_oid")
                for c in range(_CUSTOMERS_PER_DISTRICT):
                    keys.append(f"customer:{w}:{d}:{c}:balance")
                    keys.append(f"customer:{w}:{d}:{c}:ytd")
            for i in range(_ITEMS):
                keys.append(f"stock:{w}:{i}:qty")
        return keys

    def make_program(self, _sid: int, rng: Random) -> TxnProgram:
        draw = rng.random()
        if draw < _NEW_ORDER:
            return self._new_order(rng)
        if draw < _NEW_ORDER + _PAYMENT:
            return self._payment(rng)
        if draw < _NEW_ORDER + _PAYMENT + _ORDER_STATUS:
            return self._order_status(rng)
        if draw < _NEW_ORDER + _PAYMENT + _ORDER_STATUS + _DELIVERY:
            return self._delivery(rng)
        return self._stock_level(rng)

    # ------------------------------------------------------------------

    def _pick_wd(self, rng: Random) -> tuple:
        return rng.randrange(self.n_warehouses), rng.randrange(_DISTRICTS_PER_WAREHOUSE)

    def _new_order(self, rng: Random) -> TxnProgram:
        w, d = self._pick_wd(rng)
        c = rng.randrange(_CUSTOMERS_PER_DISTRICT)
        oid = next(self._order_ids)
        self._orders.setdefault((w, d), []).append(oid)
        program = (
            TxnProgram()
            .read(f"district:{w}:{d}:next_oid")
            .write(f"district:{w}:{d}:next_oid", next(self._values))
            .read(f"customer:{w}:{d}:{c}:balance")
            .write(f"order:{w}:{d}:{oid}:status", next(self._values))
        )
        for line in range(rng.randint(2, 6)):
            item = rng.randrange(_ITEMS)
            program.read(f"stock:{w}:{item}:qty")
            program.write(f"stock:{w}:{item}:qty", next(self._values))
            program.write(f"orderline:{w}:{d}:{oid}:{line}", next(self._values))
        return program

    def _payment(self, rng: Random) -> TxnProgram:
        w, d = self._pick_wd(rng)
        c = rng.randrange(_CUSTOMERS_PER_DISTRICT)
        return (
            TxnProgram()
            .read(f"warehouse:{w}:ytd")
            .write(f"warehouse:{w}:ytd", next(self._values))
            .read(f"district:{w}:{d}:ytd")
            .write(f"district:{w}:{d}:ytd", next(self._values))
            .read(f"customer:{w}:{d}:{c}:balance")
            .write(f"customer:{w}:{d}:{c}:balance", next(self._values))
            .write(f"history:{w}:{d}:{c}:{next(self._values)}", next(self._values))
        )

    def _order_status(self, rng: Random) -> TxnProgram:
        w, d = self._pick_wd(rng)
        c = rng.randrange(_CUSTOMERS_PER_DISTRICT)
        program = TxnProgram().read(f"customer:{w}:{d}:{c}:balance")
        orders = self._orders.get((w, d), [])
        if orders:
            oid = rng.choice(orders)
            program.read(f"order:{w}:{d}:{oid}:status")
        return program

    def _delivery(self, rng: Random) -> TxnProgram:
        w, d = self._pick_wd(rng)
        program = TxnProgram()
        orders = self._orders.get((w, d), [])
        if orders:
            oid = orders[rng.randrange(len(orders))]
            c = rng.randrange(_CUSTOMERS_PER_DISTRICT)
            program.read(f"order:{w}:{d}:{oid}:status")
            program.write(f"order:{w}:{d}:{oid}:status", next(self._values))
            program.read(f"customer:{w}:{d}:{c}:balance")
            program.write(f"customer:{w}:{d}:{c}:balance", next(self._values))
        else:
            program.read(f"district:{w}:{d}:next_oid")
        return program

    def _stock_level(self, rng: Random) -> TxnProgram:
        w, d = self._pick_wd(rng)
        program = TxnProgram().read(f"district:{w}:{d}:next_oid")
        for _ in range(rng.randint(3, 8)):
            program.read(f"stock:{w}:{rng.randrange(_ITEMS)}:qty")
        return program


def generate_tpcc_history(
    n_transactions: int,
    *,
    n_warehouses: int = 2,
    n_sessions: int = 24,
    seed: int = 2025,
    oracle: Optional[TimestampOracle] = None,
    isolation: IsolationLevel = IsolationLevel.SI,
) -> History:
    """Run the TPC-C mix and return the captured history."""
    workload = TpccWorkload(n_warehouses, seed=seed)
    return run_workload(
        workload.initial_keys(), 0, workload.make_program, n_transactions,
        n_sessions=n_sessions, seed=derive_rng(seed, "tpcc").randrange(2**63),
        oracle=oracle, isolation=isolation,
    )
