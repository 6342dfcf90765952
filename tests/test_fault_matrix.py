"""Label-completeness matrix: every fault class × every checker.

:class:`~repro.db.faults.FaultInjector` produces ground-truth
labels for five axiom-targeted fault classes.  This suite pins down, as
a matrix over (fault class × checker), which labels each checker
detects under its own matching axiom — with tid overlap, not just "some
violation somewhere".  Complete detection is asserted for every cell but
one, which has its own statement:

- ``noconflict`` × :class:`AionSer` — NOCONFLICT is the SI-specific
  axiom (§III, SI forbids concurrent write-write overlap outright).
  The SER checker has no NOCONFLICT check by construction: under
  serializability a write-write overlap is only wrong if it perturbs
  some read, which surfaces as EXT.  So the statement per seed is: the
  label is detected by AionSer as EXT *iff* the offline SER oracle
  (:class:`ChronosSer`) reports an EXT violation on the same mutated
  history (:func:`test_noconflict_under_ser_is_ext_iff_chronos_ser_reports_ext`).
"""

from __future__ import annotations

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.aion_ser import AionSer
from repro.core.chronos_ser import ChronosSer
from repro.core.violations import Axiom
from repro.db.engine import IsolationLevel
from repro.db.faults import FaultInjector
from repro.service import transactions_in_commit_order
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

FAULT_CLASSES = ["ext", "int", "session", "noconflict", "ts_order"]
#: Each checker gets histories generated at its own isolation level —
#: an SI execution is legitimately full of EXT violations under SER.
CHECKERS = {
    "aion": (Aion, IsolationLevel.SI),
    "aion_ser": (AionSer, IsolationLevel.SER),
}
SEEDS = [0, 1, 2]


def clean_history(checker_name: str, seed: int):
    return generate_default_history(
        WorkloadSpec(
            n_sessions=6,
            n_transactions=150,
            ops_per_txn=6,
            n_keys=30,
            seed=seed,
            isolation=CHECKERS[checker_name][1],
        )
    )


def checked_violations(checker_name: str, txns):
    checker = CHECKERS[checker_name][0](
        AionConfig(timeout=float("inf")), clock=lambda: 0.0
    )
    checker.receive_many(txns)
    return checker.finalize().violations


def label_detected(label, violations) -> bool:
    """The label's own axiom fired on at least one of its tids."""
    def tids(violation):
        return {violation.tid} | set(
            getattr(violation, "conflicting_tids", ()) or ()
        )

    return any(
        violation.axiom is label.axiom and tids(violation) & set(label.tids)
        for violation in violations
    )


@pytest.mark.parametrize(
    "fault_class, checker_name",
    [
        (fault_class, checker_name)
        for fault_class in FAULT_CLASSES
        for checker_name in sorted(CHECKERS)
        if (fault_class, checker_name) != ("noconflict", "aion_ser")
    ],
    ids=lambda value: value,
)
def test_fault_class_detected_by_matching_axiom(fault_class, checker_name):
    detected = 0
    injected = 0
    for seed in SEEDS:
        injector = FaultInjector(clean_history(checker_name, seed), seed=seed)
        label = getattr(injector, f"inject_{fault_class}")()
        if label is None:
            continue
        injected += 1
        violations = checked_violations(
            checker_name, transactions_in_commit_order(injector.build())
        )
        assert label_detected(label, violations), (
            f"{fault_class} fault (seed {seed}, tids {label.tids}) "
            f"escaped {checker_name}"
        )
        detected += 1
    # The injector found a target in every workload — an empty matrix
    # row would pass vacuously otherwise.
    assert injected == len(SEEDS)
    assert detected == injected


#: Per seed, which side of the iff it falls on: does the injected
#: overlap perturb a value a SER reader sees?  Every seed falls on the
#: "no" side (so does every seed in 0–299): the injector pulls the later
#: writer's ``start_ts`` below the earlier one's commit and changes
#: nothing else, while SER reads every snapshot at ``commit_ts`` — start
#: timestamps play no part in it (§VI-A) — so no visible value moves.
SER_OVERLAP_SEEN_AS_EXT = {0: False, 1: False, 2: False}


@pytest.mark.parametrize("seed", SEEDS)
def test_noconflict_under_ser_is_ext_iff_chronos_ser_reports_ext(seed):
    injector = FaultInjector(clean_history("aion_ser", seed), seed=seed)
    label = injector.inject_noconflict()
    assert label is not None
    history = injector.build()
    violations = checked_violations("aion_ser", transactions_in_commit_order(history))
    detected = any(
        violation.axiom is Axiom.EXT and violation.tid in label.tids
        for violation in violations
    )
    oracle = any(
        violation.axiom is Axiom.EXT for violation in ChronosSer().check(history).violations
    )
    assert detected == oracle == SER_OVERLAP_SEEN_AS_EXT[seed]
    assert not any(violation.axiom is Axiom.NOCONFLICT for violation in violations)


def test_clean_history_raises_no_alarm():
    """The matrix's control row: with no injection, neither checker
    reports anything (the detection assertions above are not tautologies
    of a noisy workload)."""
    for checker_name in CHECKERS:
        txns = transactions_in_commit_order(clean_history(checker_name, seed=0))
        assert checked_violations(checker_name, txns) == []
