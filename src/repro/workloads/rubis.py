"""The RUBiS auction workload (§V-A1).

"RUBiS emulates an auction platform similar to eBay, allowing users to
create accounts, list items, place bids, and leave comments.  We
initialized the marketplace with 200 users and 800 items."

Unlike Twitter, the key population is (mostly) fixed up front — users and
items are pre-created and transactions update them in place — so
``frontier_ts`` stays small and Aion checks RUBiS faster than Twitter
(Fig 12c/d, 23).

Schema (key-value):

- ``user:{u}:rating`` / ``user:{u}:balance``   — account state;
- ``item:{i}:price`` / ``item:{i}:bids`` / ``item:{i}:top_bidder``
  — auction state, contended read-modify-write on popular items;
- ``item:{i}:comments``                        — comment counter.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import List, Optional

from repro.db.engine import IsolationLevel
from repro.db.oracle import TimestampOracle
from repro.histories.model import History
from repro.util.rng import derive_rng
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.driver import TxnProgram, run_workload

__all__ = ["RubisWorkload", "generate_rubis_history"]

#: Operation mix: view item, place bid, comment, check account, sell item.
_VIEW, _BID, _COMMENT, _ACCOUNT = 0.40, 0.30, 0.10, 0.15


class RubisWorkload:
    """Program factory for the auction site."""

    def __init__(self, n_users: int = 200, n_items: int = 800, *, seed: int = 2025) -> None:
        self.n_users = n_users
        self.n_items = n_items
        self._values = itertools.count(1)
        # Popular items attract most bids (zipfian item popularity).
        self._item_popularity = ZipfianKeys(n_items)

    def initial_keys(self) -> List[str]:
        keys: List[str] = []
        for user in range(self.n_users):
            keys.append(f"user:{user}:rating")
            keys.append(f"user:{user}:balance")
        for item in range(self.n_items):
            keys.append(f"item:{item}:price")
            keys.append(f"item:{item}:bids")
            keys.append(f"item:{item}:top_bidder")
            keys.append(f"item:{item}:comments")
        return keys

    def make_program(self, _sid: int, rng: Random) -> TxnProgram:
        draw = rng.random()
        if draw < _VIEW:
            return self._view_item(rng)
        if draw < _VIEW + _BID:
            return self._place_bid(rng)
        if draw < _VIEW + _BID + _COMMENT:
            return self._comment(rng)
        if draw < _VIEW + _BID + _COMMENT + _ACCOUNT:
            return self._check_account(rng)
        return self._sell_item(rng)

    # ------------------------------------------------------------------

    def _pick_item(self, rng: Random) -> int:
        return self._item_popularity.choose(rng)

    def _view_item(self, rng: Random) -> TxnProgram:
        item = self._pick_item(rng)
        return (
            TxnProgram()
            .read(f"item:{item}:price")
            .read(f"item:{item}:bids")
            .read(f"item:{item}:top_bidder")
        )

    def _place_bid(self, rng: Random) -> TxnProgram:
        item = self._pick_item(rng)
        user = rng.randrange(self.n_users)
        return (
            TxnProgram()
            .read(f"item:{item}:price")
            .read(f"item:{item}:bids")
            .write(f"item:{item}:price", next(self._values))
            .write(f"item:{item}:bids", next(self._values))
            .write(f"item:{item}:top_bidder", user)
        )

    def _comment(self, rng: Random) -> TxnProgram:
        item = self._pick_item(rng)
        user = rng.randrange(self.n_users)
        return (
            TxnProgram()
            .read(f"item:{item}:comments")
            .write(f"item:{item}:comments", next(self._values))
            .read(f"user:{user}:rating")
            .write(f"user:{user}:rating", next(self._values))
        )

    def _check_account(self, rng: Random) -> TxnProgram:
        user = rng.randrange(self.n_users)
        return TxnProgram().read(f"user:{user}:balance").read(f"user:{user}:rating")

    def _sell_item(self, rng: Random) -> TxnProgram:
        item = self._pick_item(rng)
        user = rng.randrange(self.n_users)
        return (
            TxnProgram()
            .read(f"user:{user}:balance")
            .write(f"item:{item}:price", next(self._values))
            .write(f"user:{user}:balance", next(self._values))
        )


def generate_rubis_history(
    n_transactions: int,
    *,
    n_users: int = 200,
    n_items: int = 800,
    n_sessions: int = 24,
    seed: int = 2025,
    oracle: Optional[TimestampOracle] = None,
    isolation: IsolationLevel = IsolationLevel.SI,
) -> History:
    """Run the auction site and return the captured history."""
    workload = RubisWorkload(n_users, n_items, seed=seed)
    return run_workload(
        workload.initial_keys(), 0, workload.make_program, n_transactions,
        n_sessions=n_sessions, seed=derive_rng(seed, "rubis").randrange(2**63),
        oracle=oracle, isolation=isolation,
    )
