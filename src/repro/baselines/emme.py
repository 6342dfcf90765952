"""Emme-SI / Emme-SER: version-order recovery + whole-history graphs.

Emme (Clark et al., EuroSys'24) is the timestamp-based *offline* checker
the paper positions Chronos against.  Like Chronos it is white-box — the
version order of every key is recovered from commit timestamps — but
unlike Chronos it materializes a serialization graph over the *entire*
history and runs cycle detection on it (§I: "Emme-SI performs expensive
graph construction and cycle detection on the start-ordered serialization
graph of the entire history").  That whole-graph cost is what Fig 4/5
measure; this implementation intentionally keeps it.

**Emme-SI** = the start-ordered serialization graph conditions:

- *G-SIa (interference)*: every dependency edge must be start-ordered —
  a WW edge ``w1 → w2`` requires ``w1.commit_ts < w2.start_ts`` (else the
  writers are concurrent: NOCONFLICT); a WR edge ``w → r`` requires the
  read version to be visible (``w.commit_ts <= r.start_ts``); an SO edge
  requires the predecessor to commit before the successor starts.
- *Missed effects*: a read must observe the *last* visible version, not
  merely a visible one — the condition start-edges + RW cycles encode in
  Adya's SSG, checked here per read against the recovered order (this is
  what flags Fig 11, where black-box checkers accept).
- *Split-graph acyclicity* over the whole history (no cycle without two
  adjacent anti-dependency edges).

**Emme-SER** = DSG acyclicity over the same recovered order plus
commit-order external reads.
"""

from __future__ import annotations

import bisect
import time
from typing import Dict, List, Sequence, Tuple

from repro.baselines.depgraph import DependencyGraph
from repro.core.violations import (
    Axiom,
    CheckResult,
    ConflictViolation,
    ExtViolation,
    SessionViolation,
)
from repro.histories.model import History

__all__ = ["EmmeSi", "EmmeSer", "recover_version_order"]

#: Per key, its committed versions ``(commit_ts, tid, value)``.
Versions = Dict[str, List[Tuple[int, int, object]]]


def recover_version_order(graph: DependencyGraph) -> Versions:
    """Per-key committed versions in commit-timestamp order (white-box
    recovery), from the final writes the graph indexed.

    Keys are walked in program order (``last_writes``), not as a set of
    strings, so the key order — and with it Emme's report order and the
    cycle it meets — does not follow string hashing."""
    versions: Versions = {}
    final_writes = graph.final_writes
    for txn in graph.history:
        for key, value in final_writes[txn.tid].items():
            versions.setdefault(key, []).append((txn.commit_ts, txn.tid, value))
    for chain in versions.values():
        chain.sort()
    return versions


class _EmmeBase:
    """Shared construction; subclasses pick the verdict condition."""

    def __init__(self) -> None:
        self.build_seconds = 0.0
        self.check_seconds = 0.0

    def check(self, history: History) -> CheckResult:
        t0 = time.perf_counter()
        graph = DependencyGraph(history)
        versions = recover_version_order(graph)
        self.build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = self._verdict(history, graph, versions)
        self.check_seconds = time.perf_counter() - t0
        return result

    def _verdict(
        self, history: History, graph: DependencyGraph, versions: Versions
    ) -> CheckResult:
        raise NotImplementedError


def _writer_order(versions: Versions) -> Dict[str, List[int]]:
    """Each key's writer tids, oldest first."""
    return {key: [tid for _, tid, _ in chain] for key, chain in versions.items()}


class EmmeSi(_EmmeBase):
    """Offline SI checking via the start-ordered serialization graph."""

    def _verdict(
        self, history: History, graph: DependencyGraph, versions: Versions
    ) -> CheckResult:
        by_tid = {txn.tid: txn for txn in history}
        version_order = _writer_order(versions)
        self._check_session_start_order(graph, by_tid)
        self._check_interference(version_order, graph, by_tid)
        self._check_reads(versions, graph, by_tid)
        return graph.check_si(version_order)

    @staticmethod
    def _check_session_start_order(graph: DependencyGraph, by_tid: dict) -> None:
        for source_tid, target_tid in graph.session_edges():
            source, target = by_tid[source_tid], by_tid[target_tid]
            if source.commit_ts > target.start_ts:
                graph.result.add(
                    SessionViolation(
                        axiom=Axiom.SESSION,
                        tid=target.tid,
                        sid=target.sid,
                        expected_sno=source.sno + 1,
                        actual_sno=target.sno,
                        start_ts=target.start_ts,
                        last_commit_ts=source.commit_ts,
                    )
                )

    @staticmethod
    def _check_interference(
        version_order: Dict[str, Sequence[int]],
        graph: DependencyGraph,
        by_tid: dict,
    ) -> None:
        """G-SIa over WW edges: consecutive writers must not overlap."""
        for key, writers in version_order.items():
            for earlier_tid, later_tid in zip(writers, writers[1:]):
                earlier, later = by_tid[earlier_tid], by_tid[later_tid]
                if earlier.commit_ts > later.start_ts:
                    graph.result.add(
                        ConflictViolation(
                            axiom=Axiom.NOCONFLICT,
                            tid=earlier_tid,
                            key=key,
                            conflicting_tids=frozenset({later_tid}),
                        )
                    )

    @staticmethod
    def _check_reads(versions: Versions, graph: DependencyGraph, by_tid: dict) -> None:
        """Visibility + missed effects: reads see the last visible version."""
        for reader_tid, key, value in graph.external_reads:
            reader = by_tid[reader_tid]
            chain = versions.get(key, [])
            index = bisect.bisect_right(chain, (reader.start_ts, float("inf"), None))
            if index == 0:
                expected: object = None
            else:
                expected = chain[index - 1][2]
            if expected != value:
                graph.result.add(
                    ExtViolation(
                        axiom=Axiom.EXT,
                        tid=reader_tid,
                        key=key,
                        expected=expected,
                        actual=value,
                    )
                )


class EmmeSer(_EmmeBase):
    """Offline SER checking via DSG acyclicity + commit-order reads."""

    def _verdict(
        self, history: History, graph: DependencyGraph, versions: Versions
    ) -> CheckResult:
        by_tid = {txn.tid: txn for txn in history}
        for reader_tid, key, value in graph.external_reads:
            reader = by_tid[reader_tid]
            chain = versions.get(key, [])
            index = bisect.bisect_left(chain, (reader.commit_ts, -1, None))
            expected = chain[index - 1][2] if index > 0 else None
            if expected != value:
                graph.result.add(
                    ExtViolation(
                        axiom=Axiom.EXT,
                        tid=reader_tid,
                        key=key,
                        expected=expected,
                        actual=value,
                    )
                )
        return graph.check_ser(_writer_order(versions))
