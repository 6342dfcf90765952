"""Seeded inputs: histories, faulted arrival streams, digests, oracles.

Every RNG is derived from the run's ``--seed``; the program under test
only ever sees the transactions built here.  One stream serves all SI
workloads and one all SER workloads, so every rung of the ladder checks
the same transactions in the same arrival order.
"""

from __future__ import annotations

import hashlib
import time
from random import Random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.core.violations import Axiom, CheckResult
from repro.db.engine import IsolationLevel
from repro.db.faults import FaultLabel, HistoryFaultInjector, LiveFaultInjector
from repro.histories.model import History, Transaction
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

#: Transactions per stream.  The issue sized these at 60k/40k for a
#: four-minute ladder; the builder's contract gives every run ~20 s in
#: all, and the generator alone makes ~6k txn/s, so the streams are a
#: third of that and each run repeats them more often instead.
N_SI = 20_000
N_SER = 16_000
BATCH = 500
#: One INT marker fault per this many arrivals: a verdict the wire
#: workloads can time from the moment its batch is handed over.
MARKER_EVERY = 100
N_LABELLED = 8


def derive(seed: int, purpose: str) -> int:
    """A stable 31-bit sub-seed of ``seed`` for one named purpose."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def si_spec(seed: int, n: int = N_SI) -> WorkloadSpec:
    """The Fig-12b workload: 24 sessions, 8 ops/txn, 1000 zipfian keys."""
    return WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000,
        distribution="zipfian", read_ratio=0.5, seed=derive(seed, "S.history"),
    )


def ser_spec(seed: int, n: int = N_SER) -> WorkloadSpec:
    """The same shape, read-heavy, produced by the SER engine."""
    return WorkloadSpec(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000,
        distribution="zipfian", read_ratio=0.9, isolation=IsolationLevel.SER,
        seed=derive(seed, "R.history"),
    )


@dataclass
class Stream:
    """One faulted arrival stream and everything known about it."""

    name: str
    level: str  # "si" | "ser"
    txns: List[Transaction]
    arrivals: List[float]
    labels: List[FaultLabel]
    #: marker tid -> index of its transaction in arrival order
    markers: Dict[int, int]
    oracle_result: CheckResult
    oracle: Set[Tuple]
    digest: str
    timings: Dict[str, float] = field(default_factory=dict)

    def batches(self, size: int = BATCH) -> List[Tuple[float, List[Transaction]]]:
        """``(arrival time of the last member, transactions)`` per batch."""
        return [
            (self.arrivals[min(lo + size, len(self.txns)) - 1], self.txns[lo : lo + size])
            for lo in range(0, len(self.txns), size)
        ]

    @property
    def n_labels(self) -> int:
        return len(self.labels) + len(self.markers)

    @property
    def n_checkable(self) -> int:
        """Transactions a checker counts as processed: all but those it
        must reject for ``start_ts > commit_ts`` (the TS_ORDER labels)."""
        return len(self.txns) - sum(1 for l in self.labels if l.axiom is Axiom.TS_ORDER)


def stream_digest(txns: List[Transaction], arrivals: List[float]) -> str:
    """Hash over tids, timestamps, ops and arrival order."""
    h = hashlib.sha256()
    for txn, at in zip(txns, arrivals):
        ops = ";".join(f"{op.kind.value},{op.key},{op.value!r}" for op in txn.ops)
        h.update(
            f"{txn.tid}|{txn.sid}|{txn.sno}|{txn.start_ts}|{txn.commit_ts}|{at:.9f}|{ops}\n".encode()
        )
    return h.hexdigest()


def build_stream(seed: int, name: str, spec: WorkloadSpec) -> Stream:
    """Generate, fault, schedule and label one stream; run its oracle."""
    level = "ser" if spec.isolation is IsolationLevel.SER else "si"
    timings: Dict[str, float] = {}

    t0 = time.monotonic()
    history = generate_default_history(spec)
    timings["generate_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    faulted, labels = _inject_labelled(history, seed, name, level)
    timings["inject_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    collector = HistoryCollector(
        batch_size=BATCH, arrival_tps=10_000, delay_model=NormalDelay(100, 10),
        seed=derive(seed, f"{name}.collector"),
    )
    schedule = collector.schedule(faulted)
    timings["schedule_s"] = time.monotonic() - t0
    arrivals = [at for at, _ in schedule]
    txns = [txn for _, txn in schedule]

    # One INT marker per MARKER_EVERY arrivals, never on a transaction
    # that already carries a labelled fault.
    faulted = {tid for label in labels for tid in label.tids}
    live = LiveFaultInjector(seed=derive(seed, f"{name}.markers"))
    position = {txn.tid: i for i, txn in enumerate(txns)}
    markers: Dict[int, int] = {}
    for lo in range(0, len(txns), MARKER_EVERY):
        candidates = [t for t in txns[lo : lo + MARKER_EVERY] if t.tid not in faulted]
        label = live.inject_int(candidates)
        if label is None:
            continue
        (tid,) = label.tids
        index = position[tid]
        txns[index] = next(t for t in candidates if t.tid == tid)
        markers[tid] = index

    t0 = time.monotonic()
    checker = Chronos() if level == "si" else ChronosSer()
    oracle_result = checker.check(History(txns))
    timings["oracle_s"] = time.monotonic() - t0
    return Stream(
        name=name, level=level, txns=txns, arrivals=arrivals, labels=labels,
        markers=markers, oracle_result=oracle_result,
        oracle=normalize_violations(oracle_result),
        digest=stream_digest(txns, arrivals), timings=timings,
    )


def _inject_labelled(history: History, seed: int, name: str, level: str):
    """Eight labelled faults covering every axiom the level reports.

    Seven come from ``HistoryFaultInjector``; on SI the eighth is a
    NOCONFLICT fault placed by :func:`_clean_noconflict`.  Returns
    ``(faulted history, labels)``.
    """
    injector = HistoryFaultInjector(history, seed=derive(seed, f"{name}.faults"))
    classes = [
        injector.inject_ext, injector.inject_int,
        injector.inject_session, injector.inject_ts_order,
    ]
    wanted = N_LABELLED - (1 if level == "si" else 0)
    tries = 0
    while len(injector.labels) < wanted and tries < 10 * N_LABELLED:
        classes[tries % len(classes)]()
        tries += 1
    labels = list(injector.labels)
    faulted = injector.build()
    if level == "si":
        txns = list(faulted.transactions)
        labels.append(_clean_noconflict(txns, labels, Random(derive(seed, f"{name}.noconflict"))))
        faulted = History(txns)
    return faulted, labels


def _clean_noconflict(
    txns: List[Transaction], labels: List[FaultLabel], rng: Random
) -> FaultLabel:
    """Make two sequential writers of one key overlap, in place.

    The same mutation as ``HistoryFaultInjector.inject_noconflict`` — the
    later writer's start is pulled just below the earlier writer's commit
    — restricted to pairs where the new start stays above the commit of
    the later writer's own session predecessor.  Without that restriction
    the fault doubles as a session-order break, on which Chronos reports
    follow-on SESSION violations that Aion does not, and the benchmark
    needs inputs whose verdict is unambiguous.  Keys are walked in sorted
    order so the choice does not depend on string hashing.
    """
    taken = {tid for label in labels for tid in label.tids}
    commit_of = {(t.sid, t.sno): t.commit_ts for t in txns}
    last_writer: Dict[str, int] = {}
    pairs: List[Tuple[int, int, str]] = []
    for j in sorted(range(len(txns)), key=lambda i: txns[i].commit_ts):
        later = txns[j]
        for key in sorted(later.write_keys):
            i = last_writer.get(key)
            last_writer[key] = j
            if i is None or later.tid in taken or txns[i].tid in taken:
                continue
            new_start = txns[i].commit_ts - 1
            floor = max(commit_of.get((later.sid, later.sno - 1), 0), 0)
            if floor < new_start < later.start_ts and txns[i].sid != later.sid:
                pairs.append((i, j, key))
    i, j, key = rng.choice(pairs)
    later = txns[j]
    txns[j] = Transaction(
        tid=later.tid, sid=later.sid, sno=later.sno, ops=later.ops,
        start_ts=txns[i].commit_ts - 1, commit_ts=later.commit_ts,
    )
    return FaultLabel(Axiom.NOCONFLICT, (txns[i].tid, later.tid), key)


def labels_missed(stream: Stream, got: Set[Tuple]) -> int:
    """Injected faults with no violation naming any of their transactions."""
    named: Set[int] = set()
    for row in got:
        who = row[1]
        named.update(who if isinstance(who, frozenset) else (who,))
    missed = sum(1 for label in stream.labels if not named.intersection(label.tids))
    int_tids = {row[1] for row in got if row[0] == Axiom.INT.value}
    return missed + sum(1 for tid in stream.markers if tid not in int_tids)
