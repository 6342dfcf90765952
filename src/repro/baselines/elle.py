"""Elle-style black-box checking (Kingsbury & Alvaro, VLDB'20).

Elle infers dependency edges from the *data type* of the objects under
test instead of timestamps:

- **ElleList** — for list (append) histories with unique elements, every
  observed list state reveals the exact append order of its elements, so
  the version order of a key is recoverable whenever reads observe it:
  all observed states of a key must form a prefix chain (else an
  immediate violation), the chain orders the observed appends, and
  appends never observed are constrained only to follow the chain.  This
  makes ElleList sound and (on read-rich workloads) close to complete.
- **ElleKV** — for register histories Elle has "limited capabilities"
  (§VII): with unique written values it recovers WR edges exactly,
  session order, and the G1 well-formedness checks; cycle detection then
  runs over this partial graph.  Sound, but weaker than checkers with
  full version orders.

Both checkers share the cost profile the paper measures in Fig 4/5:
linear-ish graph construction with a large constant plus cycle detection
over the whole history.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.baselines.depgraph import (
    CycleViolation,
    DependencyGraph,
    Graph,
    add_edges,
    build_si_split_graph,
    find_cycle,
)
from repro.core.violations import Axiom, CheckResult, ExtViolation
from repro.histories.model import History, INIT_TID, OpKind

__all__ = ["ElleKV", "ElleList"]


class ElleKV:
    """Register-history checking from unique values (no timestamps)."""

    def __init__(self) -> None:
        self.build_seconds = 0.0
        self.check_seconds = 0.0

    def check(self, history: History) -> CheckResult:
        t0 = time.perf_counter()
        graph = DependencyGraph(history)
        dsg: Graph = {txn.tid: [] for txn in history}
        add_edges(dsg, graph.session_edges())
        # WR edges from unique values.
        add_edges(dsg, ((writer, reader) for reader, _key, writer in graph.resolve_reads()))
        self.build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        tids = find_cycle(dsg)
        if tids is not None:
            graph.result.add(
                CycleViolation(
                    axiom=Axiom.EXT, tid=tids[0], cycle_tids=tuple(tids), flavor="G1c"
                )
            )
        self.check_seconds = time.perf_counter() - t0
        return graph.result


class ElleList:
    """List-history checking via prefix-based version-order recovery.

    ``mode='si'`` (default) flags only cycles without two adjacent
    anti-dependency edges, via the split graph — a pure anti-dependency
    2-cycle (write skew) is SI-legal.  ``mode='ser'`` flags any cycle.
    """

    def __init__(self, mode: str = "si") -> None:
        if mode not in ("si", "ser"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.build_seconds = 0.0
        self.check_seconds = 0.0

    def check(self, history: History) -> CheckResult:
        t0 = time.perf_counter()
        result = CheckResult()
        graph = DependencyGraph(history)
        result.extend(graph.result)  # INT findings from the shared pass

        appender: Dict[Tuple[str, Any], int] = {}
        appended: Dict[str, List[Tuple[int, Any]]] = {}
        observed: Dict[str, List[Tuple[Any, ...]]] = {}
        reads: List[Tuple[int, str, Tuple[Any, ...]]] = []
        for txn in history:
            local_seen: set = set()
            write_keys = graph.final_writes[txn.tid]
            for op in txn.ops:
                if op.kind is OpKind.APPEND:
                    appender[(op.key, op.value)] = txn.tid
                    appended.setdefault(op.key, []).append((txn.tid, op.value))
                elif op.kind is OpKind.READ_LIST:
                    if (op.key, txn.tid) not in local_seen and op.key not in write_keys:
                        reads.append((txn.tid, op.key, op.value))
                        local_seen.add((op.key, txn.tid))
                    observed.setdefault(op.key, []).append(op.value)
                elif op.kind is OpKind.WRITE and isinstance(op.value, tuple):
                    # ⊥T initializes list keys with explicit tuples.
                    appender[(op.key, op.value)] = txn.tid

        # Recover the per-key observed chain: all observed states must be
        # totally ordered by prefix.
        chains: Dict[str, Tuple[Any, ...]] = {}
        for key, states in observed.items():
            states = sorted(set(states), key=len)
            chain: Tuple[Any, ...] = ()
            ok = True
            for state in states:
                if state[: len(chain)] != chain:
                    result.add(
                        ExtViolation(
                            axiom=Axiom.EXT,
                            tid=-1,
                            key=key,
                            expected=chain,
                            actual=state,
                        )
                    )
                    ok = False
                    break
                chain = state
            if ok:
                chains[key] = chain

        # Every observed element must have a known appender.
        for key, chain in chains.items():
            for element in chain:
                if (key, element) not in appender:
                    result.add(
                        ExtViolation(
                            axiom=Axiom.EXT,
                            tid=-1,
                            key=key,
                            expected="<appended element>",
                            actual=element,
                        )
                    )
        self.build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        dep_edges: List[Tuple[int, int]] = list(graph.session_edges())
        rw_edges: List[Tuple[int, int]] = []
        for key, chain in chains.items():
            order = self._version_tids(key, chain, appender)
            for earlier, later in zip(order, order[1:]):
                if earlier != later:
                    dep_edges.append((earlier, later))
            # Tail appends (never observed) follow the whole chain.
            observed_tids = set(order)
            tail = [
                tid
                for tid, _element in appended.get(key, [])
                if tid not in observed_tids
            ]
            for tid in tail:
                if order:
                    dep_edges.append((order[-1], tid))
            # WR and immediate RW edges from each read.
            position = {tid: i for i, tid in enumerate(order)}
            for reader, read_key, state in reads:
                if read_key != key:
                    continue
                source = (
                    appender.get((key, state[-1])) if state else INIT_TID
                )
                if source is None:
                    continue
                if source != reader:
                    dep_edges.append((source, reader))
                successor_index = position.get(source)
                if successor_index is not None and successor_index + 1 < len(order):
                    successor = order[successor_index + 1]
                    if successor != reader:
                        rw_edges.append((reader, successor))
                elif state == chain:
                    # The reader saw the entire observed chain: every tail
                    # append is a later version it missed.
                    for tid in tail:
                        if tid != reader:
                            rw_edges.append((reader, tid))

        nodes = [txn.tid for txn in history]
        if self.mode == "si":
            split = build_si_split_graph(nodes, dep_edges, rw_edges)
            cycle_nodes = find_cycle(split)
            if cycle_nodes is not None:
                tids = list(dict.fromkeys(node[0] for node in cycle_nodes))
                result.add(
                    CycleViolation(
                        axiom=Axiom.EXT,
                        tid=tids[0],
                        cycle_tids=tuple(tids),
                        flavor="G-SI",
                    )
                )
        else:
            dsg = add_edges({tid: [] for tid in nodes}, dep_edges + rw_edges)
            cycle_nodes = find_cycle(dsg)
            if cycle_nodes is not None:
                result.add(
                    CycleViolation(
                        axiom=Axiom.EXT,
                        tid=cycle_nodes[0],
                        cycle_tids=tuple(cycle_nodes),
                        flavor="G1c",
                    )
                )
        self.check_seconds = time.perf_counter() - t0
        return result

    @staticmethod
    def _version_tids(
        key: str,
        chain: Tuple[Any, ...],
        appender: Dict[Tuple[str, Any], int],
    ) -> List[int]:
        """Writer tids along the observed chain (deduplicating runs).

        The writer of the version ending in element ``e`` is the
        transaction that appended ``e``; the empty prefix belongs to ⊥T.
        """
        order: List[int] = [INIT_TID]
        for element in chain:
            tid = appender.get((key, element))
            if tid is not None and (not order or order[-1] != tid):
                order.append(tid)
        return order
