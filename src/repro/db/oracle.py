"""Timestamp oracles (Appendix A/B of the paper).

Two timestamping regimes exist in production systems:

- **Centralized** (TiDB's Placement Driver, Dgraph's Zero group): one
  oracle hands out strictly increasing timestamps, so for any
  transactions Ti, Tj: Ti commits before Tj starts ⇒
  ``Ti.commit_ts < Tj.start_ts``, and commit order equals commit-ts
  order — the guarantees Definitions 5/6 rely on.
- **Decentralized** (YugabyteDB): each node runs a hybrid logical clock
  (HLC) on a loosely synchronized physical clock.  Timestamps remain
  unique (node id in the low bits) and per-node monotonic, but
  cross-node skew can reorder them relative to real time — the origin of
  the clock-skew anomalies §V-D reproduces.

All oracles deal in integer timestamps; the simulated physical clock is
an integer microsecond counter advanced by the workload driver.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Sequence

__all__ = [
    "TimestampOracle",
    "CentralizedOracle",
    "HybridLogicalClock",
    "DecentralizedOracle",
]


class TimestampOracle(Protocol):
    """Anything that can issue a timestamp for a node."""

    def next_ts(self, node_id: int = 0) -> int:
        """Return a fresh timestamp, unique across the whole system."""
        ...


class CentralizedOracle:
    """Strictly increasing, globally unique timestamps.

    ``start`` is the first timestamp to hand out (the initial transaction
    conventionally owns timestamp 0, so generation starts at 1).
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self.issued = 0

    def next_ts(self, node_id: int = 0) -> int:
        ts = self._next
        self._next += 1
        self.issued += 1
        return ts

    def peek(self) -> int:
        """The timestamp the next request would receive."""
        return self._next


class HybridLogicalClock:
    """One node's HLC: ``ts = physical * capacity + logical``.

    ``physical_clock`` returns the node's (possibly skewed) physical time.
    The logical component breaks ties when the physical clock stalls, and
    :meth:`observe` implements the HLC merge rule so causally related
    events stay ordered even across skewed nodes.
    """

    def __init__(
        self,
        node_id: int,
        physical_clock: Callable[[], int],
        *,
        n_nodes: int = 1,
        logical_bits: int = 12,
    ) -> None:
        self.node_id = node_id
        self._clock = physical_clock
        self._n_nodes = max(1, n_nodes)
        self._capacity = 1 << logical_bits
        self._last_physical = 0
        self._logical = 0

    def next_ts(self, node_id: int = 0) -> int:
        physical = self._clock()
        if physical > self._last_physical:
            self._last_physical = physical
            self._logical = 0
        else:
            self._logical += 1
        # Uniqueness across nodes: interleave the node id below the
        # logical component.
        hlc = (self._last_physical * self._capacity + self._logical)
        return hlc * self._n_nodes + self.node_id

    def observe(self, ts: int) -> None:
        """Merge a timestamp received from another node (HLC update rule)."""
        hlc = ts // self._n_nodes
        physical, logical = divmod(hlc, self._capacity)
        if physical > self._last_physical:
            self._last_physical = physical
            self._logical = logical + 1
        elif physical == self._last_physical and logical >= self._logical:
            self._logical = logical + 1


class DecentralizedOracle:
    """A cluster of per-node HLCs over one simulated physical clock.

    ``skews[i]`` is added to node ``i``'s view of the shared physical
    clock, modelling loose NTP-style synchronization.  With all skews
    zero the oracle behaves like a centralized one (up to interleaving);
    with non-zero skews it reproduces YugabyteDB-style timestamp
    inversions that the checkers must flag.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        skews: Optional[Sequence[int]] = None,
        logical_bits: int = 12,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.n_nodes = n_nodes
        self._time = 1
        skews = list(skews) if skews is not None else [0] * n_nodes
        if len(skews) != n_nodes:
            raise ValueError("skews must have one entry per node")
        self._skews = skews
        self._clocks: List[HybridLogicalClock] = [
            HybridLogicalClock(
                node,
                self._make_node_clock(node),
                n_nodes=n_nodes,
                logical_bits=logical_bits,
            )
            for node in range(n_nodes)
        ]
        self._issued: Dict[int, int] = {}

    def _make_node_clock(self, node: int) -> Callable[[], int]:
        def clock() -> int:
            return max(1, self._time + self._skews[node])

        return clock

    def tick(self, amount: int = 1) -> None:
        """Advance the shared physical clock (driver-controlled)."""
        self._time += amount

    def next_ts(self, node_id: int = 0) -> int:
        ts = self._clocks[node_id % self.n_nodes].next_ts()
        # Guarantee global uniqueness even under pathological skew.
        while ts in self._issued:
            ts = self._clocks[node_id % self.n_nodes].next_ts()
        self._issued[ts] = node_id
        return ts
