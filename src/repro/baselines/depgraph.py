"""Shared dependency-graph construction for the baseline checkers.

A *direct serialization graph* (DSG) has one node per committed
transaction and three families of edges per key:

- **WR** (read dependency): the writer of a version → each transaction
  that read that version;
- **WW** (write dependency): writer → the next writer in the key's
  version order;
- **RW** (anti-dependency): a reader of a version → the *immediate next*
  writer in the version order (Adya's form; the transitive variant used
  by PolySI's polygraph is cycle-equivalent because WW edges chain the
  writers, and the immediate form keeps the edge count linear).

plus **SO** (session order) edges.  Baselines differ in how they obtain
the version order: Emme recovers it from commit timestamps (white-box),
ElleList from list prefixes, and PolySI/Viper search over all candidate
orders.  :class:`DependencyGraph` also performs the *well-formedness*
checks every baseline shares: internal (INT) read consistency,
unjustified reads (a value nobody wrote), and intermediate reads (G1b —
reading a non-final write of a transaction).

Verdict conditions on a complete version order:

- **SER** — the DSG (SO∪WR∪WW∪RW) is acyclic;
- **SI** — the *split graph* is acyclic: every node is doubled into
  (normal, after-rw); dependency edges enter the normal copy from both
  copies, anti-dependency edges go from the normal copy to the after-rw
  copy.  A cycle in the split graph is exactly a cycle of the original
  graph in which no two RW edges are adjacent — the forbidden shape
  under SI (Cerone & Gotsman's characterization, as used by PolySI).

A graph is a plain insertion-ordered ``{node: [successors]}`` dict and
:func:`find_cycle` searches it depth first, so the baselines need
nothing outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.violations import (
    Axiom,
    CheckResult,
    ExtViolation,
    IntViolation,
    SessionViolation,
    Violation,
)
from repro.histories.model import History, INIT_TID, OP_APPEND, OP_READ, OP_WRITE, Transaction

__all__ = [
    "DependencyGraph",
    "VersionOrderError",
    "CycleViolation",
    "add_edges",
    "find_cycle",
]

#: A digraph: node -> successors, both in insertion order.
Graph = Dict[Hashable, List[Hashable]]


def add_edges(graph: Graph, edges: Iterable[Tuple[Hashable, Hashable]]) -> Graph:
    """Add ``edges`` to ``graph``; an unseen endpoint becomes a node."""
    for u, v in edges:
        graph.setdefault(u, []).append(v)
        graph.setdefault(v, [])
    return graph


def find_cycle(graph: Graph) -> Optional[List[Hashable]]:
    """The nodes of the first cycle a depth-first search meets, or None.

    Roots and successors are tried in insertion order, so which cycle is
    reported depends only on the order nodes and edges were added (a
    self-loop is a one-node cycle).  A repeated edge changes nothing:
    its second traversal finds its head finished.
    """
    on_path: Dict[Hashable, bool] = {}  # True while on the path, then False
    for root in graph:
        if root in on_path:
            continue
        on_path[root] = True
        path = [root]
        stack = [iter(graph[root])]
        while stack:
            for node in stack[-1]:
                state = on_path.get(node)
                if state is None:
                    on_path[node] = True
                    path.append(node)
                    stack.append(iter(graph.get(node, ())))
                    break
                if state:
                    return path[path.index(node):]
            else:
                on_path[path.pop()] = False
                stack.pop()
    return None


class VersionOrderError(ValueError):
    """Raised when a claimed version order is inconsistent with writes."""


@dataclass(frozen=True)
class CycleViolation(Violation):
    """A dependency cycle found by a graph-based checker."""

    cycle_tids: Tuple[int, ...] = ()
    flavor: str = "G1c"

    def describe(self) -> str:
        path = " -> ".join(str(t) for t in self.cycle_tids)
        return f"{self.flavor} cycle: {path}"


class DependencyGraph:
    """DSG construction plus the shared well-formedness checks."""

    def __init__(self, history: History) -> None:
        self.history = history
        self.result = CheckResult()
        #: writer lookup: (key, value) -> (tid, is_final_write)
        self._writer_of: Dict[Tuple[str, Any], Tuple[int, bool]] = {}
        #: reads per transaction: (tid, key, value) for external reads
        self.external_reads: List[Tuple[int, str, Any]] = []
        #: committed writers per key, in history (arrival) order
        self.writers_by_key: Dict[str, List[int]] = {}
        #: each transaction's final write per key (``Transaction.last_writes``,
        #: walked once here for every baseline that reads it)
        self.final_writes: Dict[int, Dict[str, Any]] = {}
        self._index_history()

    # ------------------------------------------------------------------
    # Indexing and well-formedness
    # ------------------------------------------------------------------

    def _index_history(self) -> None:
        for txn in self.history:
            seen_final = self.final_writes[txn.tid] = txn.last_writes
            for key, value in seen_final.items():
                self._writer_of[(key, value)] = (txn.tid, True)
                self.writers_by_key.setdefault(key, []).append(txn.tid)
            # Non-final (intermediate) writes, for G1b detection.
            for code, key, value in zip(txn.codes, txn.keys, txn.values):
                if code == OP_WRITE and seen_final.get(key) != value:
                    self._writer_of.setdefault((key, value), (txn.tid, False))
        for txn in self.history:
            self._check_internal(txn)
            codes, values = txn.codes, txn.values
            for key, position in txn.external_read_positions.items():
                if codes[position] == OP_READ:
                    self.external_reads.append((txn.tid, key, values[position]))

    def _check_internal(self, txn: Transaction) -> None:
        """INT: replay program order against the txn's own effects.

        Appends complicate the black-box replay: without timestamps the
        snapshot base of a list is unknown, so after appends with an
        unobserved base only the *suffix* is constrained — an internal
        list read must end with the elements appended so far.  Once a
        read reveals the full value, tracking switches to exact values.
        """
        local: Dict[str, Any] = {}          # keys with fully known value
        suffix: Dict[str, tuple] = {}       # keys known only by suffix
        for code, key, value in zip(txn.codes, txn.keys, txn.values):
            if code == OP_WRITE:
                local[key] = value
                suffix.pop(key, None)
            elif code == OP_APPEND:
                if key in local:
                    base = local[key]
                    if not isinstance(base, tuple):
                        base = (base,)
                    local[key] = base + (value,)
                else:
                    suffix[key] = suffix.get(key, ()) + (value,)
            elif key in local:
                if local[key] != value:
                    self.result.add(
                        IntViolation(
                            axiom=Axiom.INT,
                            tid=txn.tid,
                            key=key,
                            expected=local[key],
                            actual=value,
                        )
                    )
                local[key] = value
            elif key in suffix:
                tail = suffix.pop(key)
                observed = value if isinstance(value, tuple) else (value,)
                if observed[-len(tail):] != tail:
                    self.result.add(
                        IntViolation(
                            axiom=Axiom.INT,
                            tid=txn.tid,
                            key=key,
                            expected=tail,
                            actual=value,
                        )
                    )
                local[key] = value
            else:
                # First (external) read: later reads of the same key must
                # repeat it — snapshots do not move mid-transaction.
                local[key] = value

    def resolve_reads(self) -> List[Tuple[int, str, int]]:
        """Map each external register read to its writer: (reader, key, writer).

        A read of ``None`` (the unborn-key encoding) maps to its writer
        like any other value; when nothing wrote ``None`` to the key and
        ⊥T did not write the key at all, it reads the unborn key, from
        ⊥T by convention.  Unjustified reads (no writer of that value)
        and intermediate reads (G1b) are reported as EXT-class
        violations.
        """
        resolved: List[Tuple[int, str, int]] = []
        init_writes = self.final_writes.get(INIT_TID, {})
        for reader, key, value in self.external_reads:
            writer = self._writer_of.get((key, value))
            if writer is None and value is None and key not in init_writes:
                resolved.append((reader, key, INIT_TID))
                continue
            if writer is None:
                self.result.add(
                    ExtViolation(
                        axiom=Axiom.EXT,
                        tid=reader,
                        key=key,
                        expected="<some written value>",
                        actual=value,
                    )
                )
                continue
            writer_tid, is_final = writer
            if not is_final:
                self.result.add(
                    ExtViolation(
                        axiom=Axiom.EXT,
                        tid=reader,
                        key=key,
                        expected="<final write of txn %d>" % writer_tid,
                        actual=value,
                    )
                )
                continue
            if writer_tid != reader:
                resolved.append((reader, key, writer_tid))
        return resolved

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def session_edges(self) -> List[Tuple[int, int]]:
        """SO edges: consecutive transactions of each session."""
        edges: List[Tuple[int, int]] = []
        for txns in self.history.sessions.values():
            for earlier, later in zip(txns, txns[1:]):
                edges.append((earlier.tid, later.tid))
        init = self.history.init_transaction
        if init is not None:
            for txns in self.history.sessions.values():
                if txns and txns[0].tid != init.tid:
                    edges.append((init.tid, txns[0].tid))
        return edges

    def edges_for_version_order(
        self, version_order: Dict[str, Sequence[int]]
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]], List[Tuple[int, int]]]:
        """(WW, WR, RW) edge lists for a complete per-key version order.

        ``version_order[key]`` lists the writer tids of ``key`` from
        oldest to newest; it must contain exactly the committed writers.
        RW edges use the immediate-successor form; WW edges chain
        consecutive writers.
        """
        reads_by_writer: Dict[Tuple[str, int], List[int]] = {}
        for reader, key, writer in self.resolve_reads():
            reads_by_writer.setdefault((key, writer), []).append(reader)

        init_keys = self.final_writes.get(INIT_TID, {})
        ww: List[Tuple[int, int]] = []
        wr: List[Tuple[int, int]] = []
        rw: List[Tuple[int, int]] = []
        for key, writers in version_order.items():
            expected = set(self.writers_by_key.get(key, []))
            if key in init_keys:
                expected.add(INIT_TID)
            if set(writers) != expected:
                raise VersionOrderError(
                    f"version order for {key!r} names writers {sorted(set(writers))}, "
                    f"history has {sorted(expected)}"
                )
            for position, writer in enumerate(writers):
                successor = writers[position + 1] if position + 1 < len(writers) else None
                if successor is not None:
                    ww.append((writer, successor))
                readers = reads_by_writer.get((key, writer), [])
                for reader in readers:
                    wr.append((writer, reader))
                    if successor is not None and successor != reader:
                        rw.append((reader, successor))
        return ww, wr, rw

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def check_ser(self, version_order: Dict[str, Sequence[int]]) -> CheckResult:
        """SER: DSG acyclicity under a known version order."""
        ww, wr, rw = self.edges_for_version_order(version_order)
        graph: Graph = {txn.tid: [] for txn in self.history}
        add_edges(graph, self.session_edges() + ww + wr + rw)
        self._report_cycle(graph, flavor="G1c/SER")
        return self.result

    def check_si(self, version_order: Dict[str, Sequence[int]]) -> CheckResult:
        """SI: split-graph acyclicity under a known version order."""
        ww, wr, rw = self.edges_for_version_order(version_order)
        dep = self.session_edges() + ww + wr
        graph = build_si_split_graph(
            (txn.tid for txn in self.history), dep, rw
        )
        self._report_cycle(graph, flavor="G-SI", strip=_strip_split)
        return self.result

    def _report_cycle(self, graph: Graph, *, flavor: str, strip=None) -> None:
        nodes = find_cycle(graph)
        if nodes is None:
            return
        if strip is not None:
            seen: List[int] = []
            for node in nodes:
                tid = strip(node)
                if tid not in seen:
                    seen.append(tid)
            nodes = seen
        self.result.add(
            CycleViolation(
                axiom=Axiom.EXT,  # graph cycles witness unjustifiable reads
                tid=nodes[0],
                cycle_tids=tuple(nodes),
                flavor=flavor,
            )
        )


def build_si_split_graph(
    nodes: Iterable[int],
    dep_edges: Iterable[Tuple[int, int]],
    rw_edges: Iterable[Tuple[int, int]],
) -> Graph:
    """The 2-copy construction encoding "no cycle without adjacent RWs".

    Nodes are ``(tid, 0)`` (normal) and ``(tid, 1)`` (just arrived via an
    anti-dependency).  Dependency edges run from *both* copies of the
    source to the normal copy of the target; an RW edge runs only from
    the normal copy to the after-rw copy, so two RW edges can never be
    traversed consecutively.  The split graph has a cycle iff the
    original graph has a cycle in which every RW edge is isolated —
    i.e. iff the history is *not* SI (given this version order).
    """
    graph: Graph = {}
    for tid in nodes:
        graph[(tid, 0)] = []
        graph[(tid, 1)] = []
    for u, v in dep_edges:
        add_edges(graph, (((u, 0), (v, 0)), ((u, 1), (v, 0))))
    return add_edges(graph, (((u, 0), (v, 1)) for u, v in rw_edges))


def _strip_split(node: Tuple[int, int]) -> int:
    return node[0]
