"""Cobra-style online SER checking with fence transactions (OSDI'20).

Cobra is the only prior *online* checker, and the paper contrasts Aion
against it on three points this implementation reproduces:

1. **Fence transactions.**  Cobra requires the client workload to commit
   periodic fence transactions; everything committed before a fence
   precedes everything started after it.  With fence frequency ``F``
   (one fence every ``F`` transactions), only transactions inside the
   same fence segment have unknown relative order — smaller ``F`` means
   fewer solver choices but more workload intrusion.
2. **Rounds.**  Transactions are checked in rounds of ``R`` (default
   2400, the paper's best setting): each round builds a polygraph over
   the round's transactions plus a compressed frontier of earlier
   rounds, and solves SER acyclicity with the backtracking solver.
3. **Stop-at-first-violation.**  Unlike Aion, Cobra terminates when a
   round is unsatisfiable (§VI-B: "Cobra terminates upon detecting the
   first violation").

The compressed frontier keeps, per key, the last committed writer of
each finished round, so cross-round WR edges resolve without keeping the
whole history — Cobra's garbage-collection story.

Each round also computes an all-pairs reachability (transitive closure)
over the round's known edges — the work Cobra offloads to a GPU — both
to prune solver choices whose orientation is already implied and because
that closure *is* Cobra's dominant per-round cost, which the Fig 12a
throughput comparison depends on.

Cobra consumes its own collected stream in client order (its fence
transactions are part of the workload), so feed it the commit-ordered
history rather than a delayed arrival schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.depgraph import CycleViolation
from repro.baselines.solver import AcyclicitySolver, Choice
from repro.core.violations import Axiom, CheckResult, ExtViolation
from repro.histories.model import History, INIT_TID, OpKind, Transaction

__all__ = ["CobraChecker", "CobraConfig"]


@dataclass(frozen=True)
class CobraConfig:
    """Fence frequency (F) and round size (R), the Fig 12a knobs."""

    fence_every: int = 20
    round_size: int = 2400

    def __post_init__(self) -> None:
        if self.fence_every < 1:
            raise ValueError("fence_every must be >= 1")
        if self.round_size < 1:
            raise ValueError("round_size must be >= 1")


class CobraChecker:
    """Online SER checker; feed transactions with :meth:`receive`."""

    def __init__(self, config: Optional[CobraConfig] = None) -> None:
        self.config = config or CobraConfig()
        self._round: List[Transaction] = []
        self._arrival_index = 0
        #: last committed (writer tid, value) per key from closed rounds.
        self._frontier_writer: Dict[str, Tuple[int, Any]] = {}
        #: segment index per transaction (fence-derived ordering).
        self._segments: Dict[int, int] = {}
        self._stopped = False
        self.result = CheckResult()
        self.rounds_checked = 0
        self.solve_seconds = 0.0

    @property
    def stopped(self) -> bool:
        """True once a violation terminated checking."""
        return self._stopped

    def receive(self, txn: Transaction) -> None:
        """Buffer one transaction; checks run when a round fills."""
        if self._stopped:
            return
        self._segments[txn.tid] = self._arrival_index // self.config.fence_every
        self._arrival_index += 1
        self._round.append(txn)
        if len(self._round) >= self.config.round_size:
            self.check_round()

    def finalize(self) -> CheckResult:
        """Check any remaining partial round and return the verdict."""
        if self._round and not self._stopped:
            self.check_round()
        return self.result

    # ------------------------------------------------------------------

    def check_round(self) -> None:
        """Build and solve the polygraph for the buffered round."""
        t0 = time.perf_counter()
        txns = self._round
        self._round = []
        self.rounds_checked += 1

        by_tid = {txn.tid: txn for txn in txns}
        writer_of: Dict[Tuple[str, Any], int] = {}
        writers_by_key: Dict[str, List[int]] = {}
        for txn in txns:
            for key, value in txn.last_writes.items():
                writer_of[(key, value)] = txn.tid
                writers_by_key.setdefault(key, []).append(txn.tid)

        solver = AcyclicitySolver()
        anchor = ("round-frontier",)  # stands for all closed rounds
        solver.add_node(anchor)
        for txn in txns:
            solver.add_node(txn.tid)
            solver.add_fixed_edge(anchor, txn.tid)

        # Session order within the round.
        by_session: Dict[int, List[Transaction]] = {}
        for txn in txns:
            by_session.setdefault(txn.sid, []).append(txn)
        for session_txns in by_session.values():
            session_txns.sort(key=lambda t: t.sno)
            for earlier, later in zip(session_txns, session_txns[1:]):
                solver.add_fixed_edge(earlier.tid, later.tid)

        # WR edges; reads resolving to closed rounds attach to the anchor.
        readers_of: Dict[Tuple[str, int], List[int]] = {}
        for txn in txns:
            for key, op in txn.external_reads.items():
                if op.kind is not OpKind.READ:
                    continue
                writer = writer_of.get((key, op.value))
                if writer is None:
                    frontier = self._frontier_writer.get(key)
                    if op.value is None or (
                        frontier is not None and frontier[1] == op.value
                    ):
                        continue  # justified by a closed round (or unborn)
                    if self._matches_init(key, op.value):
                        continue
                    self.result.add(
                        ExtViolation(
                            axiom=Axiom.EXT,
                            tid=txn.tid,
                            key=key,
                            expected="<some committed value>",
                            actual=op.value,
                        )
                    )
                    self._stopped = True
                    self.solve_seconds += time.perf_counter() - t0
                    return
                if writer != txn.tid:
                    solver.add_fixed_edge(writer, txn.tid)
                    readers_of.setdefault((key, writer), []).append(txn.tid)

        # Fence-derived order: cross-segment pairs are fixed; same-segment
        # pairs become candidate choices.
        candidates: List[Choice] = []
        for key, writers in writers_by_key.items():
            unique = list(dict.fromkeys(writers))
            for i, w1 in enumerate(unique):
                for w2 in unique[i + 1:]:
                    seg1, seg2 = self._segments[w1], self._segments[w2]
                    if seg1 < seg2:
                        for edge in self._order_edges(key, w1, w2, readers_of):
                            solver.add_fixed_edge(*edge)
                    elif seg2 < seg1:
                        for edge in self._order_edges(key, w2, w1, readers_of):
                            solver.add_fixed_edge(*edge)
                    else:
                        candidates.append(
                            Choice(
                                name=("ww", key, w1, w2),
                                if_true=self._order_edges(key, w1, w2, readers_of),
                                if_false=self._order_edges(key, w2, w1, readers_of),
                            )
                        )

        # Cobra's pruning pass: all-pairs reachability over the known
        # edges decides pairs whose orientation is already implied.
        reach, index_of = self._transitive_closure(txns, anchor, solver)
        for choice in candidates:
            _, _key, w1, w2 = choice.name
            i, j = index_of[w1], index_of[w2]
            w1_reaches_w2 = reach[i] >> j & 1
            w2_reaches_w1 = reach[j] >> i & 1
            if w1_reaches_w2 and not w2_reaches_w1:
                for edge in choice.if_true:
                    solver.add_fixed_edge(*edge)
            elif w2_reaches_w1 and not w1_reaches_w2:
                for edge in choice.if_false:
                    solver.add_fixed_edge(*edge)
            else:
                solver.add_choice(choice)

        assignment = solver.solve()
        self.solve_seconds += time.perf_counter() - t0
        if assignment is None:
            self.result.add(
                CycleViolation(
                    axiom=Axiom.EXT,
                    tid=-1,
                    cycle_tids=(),
                    flavor="SER-unsatisfiable (Cobra round)",
                )
            )
            self._stopped = True
            return

        # Compress the round into the frontier (Cobra's GC): remember the
        # winning last writer per key under the found order.
        for key, writers in writers_by_key.items():
            unique = list(dict.fromkeys(writers))
            last = unique[0]
            for other in unique[1:]:
                pair = ("ww", key, *sorted((last, other)))
                if self._segments[other] > self._segments[last]:
                    last = other
                elif self._segments[other] == self._segments[last]:
                    w1, w2 = sorted((last, other))
                    oriented_w1_first = assignment.get(("ww", key, w1, w2), True)
                    last = w2 if oriented_w1_first else w1
            txn = by_tid[last]
            self._frontier_writer[key] = (last, txn.last_writes[key])

    def _transitive_closure(self, txns, anchor, solver):
        """All-pairs reachability over the round's fixed edges.

        Bitset dynamic programming in reverse topological order:
        ``reach[i]`` is a Python int whose bit ``j`` is set when node
        ``j`` is reachable from node ``i``.  Quadratic-ish in the round
        size — Cobra's measured bottleneck.
        """
        nodes = [anchor] + [txn.tid for txn in txns]
        index_of = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        reach = [0] * n
        # Topological order of the fixed graph (it may contain a cycle if
        # the round is already unsatisfiable; fall back to node order).
        succ = solver._graph.succ
        indegree = {node: 0 for node in nodes}
        for node in nodes:
            for nxt in succ.get(node, ()):
                if nxt in indegree:
                    indegree[nxt] += 1
        stack = [node for node in nodes if indegree[node] == 0]
        topo: List = []
        while stack:
            node = stack.pop()
            topo.append(node)
            for nxt in succ.get(node, ()):
                if nxt in indegree:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        stack.append(nxt)
        if len(topo) < n:
            topo = nodes
        for node in reversed(topo):
            row = 0
            for nxt in succ.get(node, ()):
                j = index_of.get(nxt)
                if j is None:
                    continue
                row |= reach[j] | 1 << j
            reach[index_of[node]] = row
        return reach, index_of

    @staticmethod
    def _order_edges(
        key: str,
        earlier: int,
        later: int,
        readers_of: Dict[Tuple[str, int], List[int]],
    ) -> List[Tuple]:
        edges: List[Tuple] = [(earlier, later)]
        for reader in readers_of.get((key, earlier), ()):
            if reader != later:
                edges.append((reader, later))
        return edges

    def _matches_init(self, key: str, value: Any) -> bool:
        # Reads of the initial value are justified by ⊥T when no round
        # writer has overwritten the key yet.
        return value == 0 and key not in self._frontier_writer
