"""A slow replay oracle for differential testing of the online checkers.

Appendix D argues Aion's re-checking is correct by case analysis; the test
suite *demonstrates* it differentially: after any prefix of arrivals, the
final verdicts of Aion (with an infinite timeout, so nothing finalizes
early) must equal the verdicts of Chronos run offline on exactly the
transactions received so far.  :class:`ReferenceOnlineChecker` provides
the Chronos side of that comparison — it is the reference implementation
of the online checkers: there is one batch kernel and no second walk of
its structures to compare it with, so the kernel's differential tests
(``tests/test_batch_kernel.py``) hold every batch split to this replay —
and :func:`normalize_violations` maps both checkers' reports onto a
common comparable set:

- Chronos reports one NOCONFLICT record per (transaction, key) naming the
  *set* of later overlapping writers, while Aion discovers conflicts
  pairwise; both normalize to ``(frozenset({a, b}), key)`` pairs.
- EXT/INT records normalize to ``(axiom, tid, key, repr(expected),
  repr(actual))``; SESSION and Eq. 1 records to ``(axiom, tid)``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.violations import Axiom, CheckResult, ConflictViolation, Violation
from repro.histories.model import Transaction

__all__ = ["ReferenceOnlineChecker", "normalize_violations"]


class ReferenceOnlineChecker:
    """Re-runs the offline checker on every received prefix.

    Quadratic and meant only for tests; ``mode`` selects ``"si"``
    (Chronos) or ``"ser"`` (Chronos-SER).
    """

    def __init__(self, mode: str = "si") -> None:
        if mode not in ("si", "ser"):
            raise ValueError(f"unknown mode {mode!r}")
        self._mode = mode
        self._received: List[Transaction] = []

    def receive(self, txn: Transaction) -> None:
        self._received.append(txn)

    def result(self) -> CheckResult:
        """Offline verdicts over everything received so far."""
        if self._mode == "si":
            return Chronos().check_transactions(self._received)
        return ChronosSer().check_transactions(self._received)

    @property
    def received(self) -> List[Transaction]:
        return list(self._received)


def normalize_violations(result: CheckResult) -> Set[Tuple]:
    """Map a result onto a set comparable across checkers."""
    normalized: Set[Tuple] = set()
    for violation in result.violations:
        normalized.update(_normalize_one(violation))
    return normalized


def _normalize_one(violation: Violation) -> List[Tuple]:
    axiom = violation.axiom
    if axiom is Axiom.NOCONFLICT:
        assert isinstance(violation, ConflictViolation)
        return [
            ("NOCONFLICT", _pair(violation.tid, other), violation.key)
            for other in violation.conflicting_tids
        ]
    if axiom in (Axiom.EXT, Axiom.INT):
        return [
            (
                axiom.value,
                violation.tid,
                getattr(violation, "key", ""),
                repr(getattr(violation, "expected", None)),
                repr(getattr(violation, "actual", None)),
            )
        ]
    return [(axiom.value, violation.tid)]


def _pair(a: int, b: int) -> FrozenSet[int]:
    return frozenset({a, b})
