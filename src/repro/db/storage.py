"""Multi-version storage with snapshot reads.

The ``log`` of Algorithm 1, organized per key for efficient snapshot
lookups: each key holds its committed versions ordered by commit
timestamp, and a snapshot read returns the greatest version at or below
the reader's start timestamp (Definition 6).  List values are stored as
tuples and appended immutably, matching the comma-separated TEXT encoding
the paper uses on SQL databases (§IV-B).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MultiVersionStore", "Version"]

Version = Tuple[int, Any]  # (commit_ts, value)


class MultiVersionStore:
    """Per-key version chains ordered by commit timestamp.

    Each key holds ``(commits, values)`` parallel lists, so every probe
    bisects a plain list of ints in C.
    """

    def __init__(self) -> None:
        self._chains: Dict[str, Tuple[List[int], List[Any]]] = {}
        self.n_versions = 0

    def install(self, key: str, commit_ts: int, value: Any) -> None:
        """Install a committed version.

        Versions usually arrive in increasing commit-ts order (commits are
        atomic in the simulation); out-of-order installs — possible under
        a skewed decentralized oracle — are inserted at the right position
        so snapshot reads stay consistent with timestamp order.
        """
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = ([], [])
        commits, values = chain
        if commits and commits[-1] > commit_ts:
            index = bisect.bisect_right(commits, commit_ts)
            commits.insert(index, commit_ts)
            values.insert(index, value)
        else:
            commits.append(commit_ts)
            values.append(value)
        self.n_versions += 1

    def read_at(self, key: str, ts: int) -> Optional[Version]:
        """Greatest version with ``commit_ts <= ts``; None if unborn."""
        chain = self._chains.get(key)
        if chain is None:
            return None
        commits, values = chain
        index = bisect.bisect_right(commits, ts) - 1
        if index < 0:
            return None
        return commits[index], values[index]

    def latest(self, key: str) -> Optional[Version]:
        """The newest committed version of ``key``."""
        chain = self._chains.get(key)
        if chain is None:
            return None
        commits, values = chain
        return commits[-1], values[-1]

    def versions_in(self, key: str, low_ts: int, high_ts: int) -> List[Version]:
        """Versions with ``low_ts < commit_ts <= high_ts``.

        This is the first-committer-wins conflict probe: a writer with
        lifetime ``[start_ts, commit_ts]`` conflicts iff some version of
        one of its keys committed inside that window.
        """
        chain = self._chains.get(key)
        if chain is None:
            return []
        commits, values = chain
        lo = bisect.bisect_right(commits, low_ts)
        hi = bisect.bisect_right(commits, high_ts)
        return list(zip(commits[lo:hi], values[lo:hi]))

    def keys(self) -> List[str]:
        return list(self._chains.keys())

    def __contains__(self, key: str) -> bool:
        return key in self._chains

    def __len__(self) -> int:
        return len(self._chains)
