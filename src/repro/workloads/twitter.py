"""The Twitter-clone workload (§V-A1).

"A simple clone of Twitter: users create new tweets, follow/unfollow
other accounts, and view a timeline of recent tweets from those they
follow.  We involved 500 users, each posting tweets of 140 words."

The schema is key-value:

- ``tweet:{id}``             — tweet content (a fresh key per post);
- ``user:{u}:last``          — the user's most recent tweet id key;
- ``user:{u}:count``         — posting counter (read-modify-write);
- ``follow:{u}:{v}``         — follow-edge marker.

Because every post mints a *new* ``tweet:`` key, the key population
grows with the history — the property §VI-B points to when Aion's
throughput drops on Twitter relative to RUBiS (``frontier_ts`` must
track many more keys).  Timeline transactions read followees' ``last``
pointers and then the referenced tweets; a pointer may be unborn or
point at a tweet whose writer is still invisible to the snapshot, which
the checkers handle through the ``None``/⊥v convention.
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

__all__ = ["TwitterWorkload", "generate_twitter_history"]

#: Operation mix (weights): post, follow, unfollow, timeline.
_POST, _FOLLOW, _UNFOLLOW, _TIMELINE = 0.45, 0.10, 0.05, 0.40


class TwitterWorkload:
    """Program factory over evolving application state."""

    def __init__(self, n_users: int = 500, *, timeline_size: int = 5, seed: int = 2025) -> None:
        self.n_users = n_users
        self.timeline_size = timeline_size
        self._tweet_ids = itertools.count(1)
        self._values = itertools.count(1)
        #: tweets known to exist at generation time, per user.
        self._tweets_by_user: List[List[int]] = [[] for _ in range(n_users)]
        self._seed = seed

    def initial_keys(self) -> List[str]:
        keys = []
        for user in range(self.n_users):
            keys.append(f"user:{user}:last")
            keys.append(f"user:{user}:count")
        return keys

    def make_program(self, _sid: int, rng: Random) -> TxnProgram:
        user = rng.randrange(self.n_users)
        draw = rng.random()
        if draw < _POST:
            return self._post(user)
        if draw < _POST + _FOLLOW:
            return self._follow(user, rng, unfollow=False)
        if draw < _POST + _FOLLOW + _UNFOLLOW:
            return self._follow(user, rng, unfollow=True)
        return self._timeline(user, rng)

    # ------------------------------------------------------------------

    def _post(self, user: int) -> TxnProgram:
        tweet_id = next(self._tweet_ids)
        self._tweets_by_user[user].append(tweet_id)
        program = TxnProgram()
        # 140 "words" condensed into one content value; the content is a
        # unique int (checkers compare values, not prose).
        program.write(f"tweet:{tweet_id}", next(self._values))
        program.read(f"user:{user}:count")
        program.write(f"user:{user}:count", next(self._values))
        program.write(f"user:{user}:last", tweet_id)
        return program

    def _follow(self, user: int, rng: Random, *, unfollow: bool) -> TxnProgram:
        other = rng.randrange(self.n_users)
        program = TxnProgram()
        program.read(f"user:{other}:count")
        program.write(f"follow:{user}:{other}", 0 if unfollow else next(self._values))
        return program

    def _timeline(self, user: int, rng: Random) -> TxnProgram:
        program = TxnProgram()
        for _ in range(self.timeline_size):
            other = rng.randrange(self.n_users)
            program.read(f"user:{other}:last")
            tweets = self._tweets_by_user[other]
            if tweets:
                program.read(f"tweet:{rng.choice(tweets)}")
        if len(program) == 0:
            program.read(f"user:{user}:last")
        return program


def generate_twitter_history(
    n_transactions: int,
    *,
    n_users: int = 500,
    n_sessions: int = 24,
    seed: int = 2025,
    oracle: Optional[TimestampOracle] = None,
    isolation: IsolationLevel = IsolationLevel.SI,
) -> History:
    """Run the Twitter clone and return the captured history."""
    workload = TwitterWorkload(n_users, seed=seed)
    return run_workload(
        workload.initial_keys(), 0, workload.make_program, n_transactions,
        n_sessions=n_sessions, seed=derive_rng(seed, "twitter").randrange(2**63),
        oracle=oracle, isolation=isolation,
    )
