"""Violation records and check results.

The axiomatic semantics of SI (Definition 4) decomposes into the SESSION,
INT, EXT, PREFIX and NOCONFLICT axioms; with timestamp-based VIS/AR
(Definitions 5 and 6) PREFIX holds by construction, so the checkers report
violations of the remaining four, plus violations of Eq. 1
(``start_ts <= commit_ts``).

Each violation is a frozen record carrying enough context to debug the
offending transaction.  :class:`CheckResult` aggregates them; checkers
never stop at the first violation (§III-B2), so a result may contain many.

The records are plain ``__slots__`` classes with hand-written
``__init__`` methods, not dataclasses.  Every checker, ``repro check``
and ``repro serve`` import this module at start-up.  ``dataclasses``
generates each class's methods with ``exec`` at every import, bytecode
cache or not, and brings in ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) along the way: about a third of what a checker's cold
start spent in this package.  The five violation kinds share one
``__eq__`` / ``__hash__`` / ``__repr__`` in :class:`Violation`, driven
by each class's ``_fields`` tuple.  They keep what the dataclasses had: field order, defaults,
positional and keyword construction, repr text, equality only within
one class, and a frozen record (assigning raises ``AttributeError``).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

__all__ = [
    "Axiom",
    "Violation",
    "SessionViolation",
    "IntViolation",
    "ExtViolation",
    "ConflictViolation",
    "TimestampOrderViolation",
    "CheckResult",
]


class Axiom(enum.Enum):
    """The checkable axioms (plus the Eq. 1 timestamp sanity rule)."""

    SESSION = "SESSION"
    INT = "INT"
    EXT = "EXT"
    NOCONFLICT = "NOCONFLICT"
    TS_ORDER = "TS_ORDER"


#: Sets a slot of a frozen record (its own ``__setattr__`` refuses).
_set = object.__setattr__


class Violation:
    """Base class: an axiom violated by a specific transaction.

    A record is frozen and compares, hashes and prints by its
    ``_fields``, in order: the base's two, then the subclass's own.
    """

    __slots__ = ("axiom", "tid")
    _fields: Tuple[str, ...] = __slots__

    def __init__(self, axiom: Axiom, tid: int) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self) -> Tuple[type, tuple]:
        return type(self), self._values()

    def describe(self) -> str:
        return f"{self.axiom.value} violated by transaction {self.tid}"


class SessionViolation(Violation):
    """SESSION: a transaction does not follow its session predecessor.

    Either its sequence number is not ``last_sno + 1`` or it started
    before its predecessor committed (Algorithm 2, line 7).
    """

    __slots__ = ("sid", "expected_sno", "actual_sno", "start_ts", "last_commit_ts")
    _fields = Violation._fields + __slots__

    def __init__(
        self,
        axiom: Axiom,
        tid: int,
        sid: int = -1,
        expected_sno: int = -1,
        actual_sno: int = -1,
        start_ts: int = -1,
        last_commit_ts: int = -1,
    ) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)
        _set(self, "sid", sid)
        _set(self, "expected_sno", expected_sno)
        _set(self, "actual_sno", actual_sno)
        _set(self, "start_ts", start_ts)
        _set(self, "last_commit_ts", last_commit_ts)

    def describe(self) -> str:
        return (
            f"SESSION violated by txn {self.tid} (session {self.sid}): "
            f"expected sno {self.expected_sno}, got {self.actual_sno}; "
            f"start_ts {self.start_ts} vs predecessor commit_ts {self.last_commit_ts}"
        )


class IntViolation(Violation):
    """INT: an internal read disagrees with the transaction's own state."""

    __slots__ = ("key", "expected", "actual")
    _fields = Violation._fields + __slots__

    def __init__(
        self, axiom: Axiom, tid: int, key: str = "", expected: Any = None, actual: Any = None
    ) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)
        _set(self, "key", key)
        _set(self, "expected", expected)
        _set(self, "actual", actual)

    def describe(self) -> str:
        return (
            f"INT violated by txn {self.tid} on key {self.key!r}: "
            f"read {self.actual!r}, transaction-local value is {self.expected!r}"
        )


class ExtViolation(Violation):
    """EXT: an external read disagrees with the committed frontier."""

    __slots__ = ("key", "expected", "actual")
    _fields = Violation._fields + __slots__

    def __init__(
        self, axiom: Axiom, tid: int, key: str = "", expected: Any = None, actual: Any = None
    ) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)
        _set(self, "key", key)
        _set(self, "expected", expected)
        _set(self, "actual", actual)

    def describe(self) -> str:
        return (
            f"EXT violated by txn {self.tid} on key {self.key!r}: "
            f"read {self.actual!r}, snapshot value is {self.expected!r}"
        )


class ConflictViolation(Violation):
    """NOCONFLICT: concurrent transactions wrote the same key.

    Reported once, attributed to the transaction with the smaller commit
    timestamp (Algorithm 2 commit handling / Algorithm 3 step ②).
    """

    __slots__ = ("key", "conflicting_tids")
    _fields = Violation._fields + __slots__

    def __init__(
        self,
        axiom: Axiom,
        tid: int,
        key: str = "",
        conflicting_tids: FrozenSet[int] = frozenset(),
    ) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)
        _set(self, "key", key)
        _set(self, "conflicting_tids", conflicting_tids)

    def describe(self) -> str:
        others = ", ".join(str(t) for t in sorted(self.conflicting_tids))
        return (
            f"NOCONFLICT violated: txn {self.tid} conflicts with "
            f"{{{others}}} on key {self.key!r}"
        )


class TimestampOrderViolation(Violation):
    """Eq. 1 violated: ``start_ts > commit_ts``."""

    __slots__ = ("start_ts", "commit_ts")
    _fields = Violation._fields + __slots__

    def __init__(self, axiom: Axiom, tid: int, start_ts: int = -1, commit_ts: int = -1) -> None:
        _set(self, "axiom", axiom)
        _set(self, "tid", tid)
        _set(self, "start_ts", start_ts)
        _set(self, "commit_ts", commit_ts)

    def describe(self) -> str:
        return (
            f"timestamp order violated by txn {self.tid}: "
            f"start_ts {self.start_ts} > commit_ts {self.commit_ts}"
        )


class CheckResult:
    """Aggregated outcome of checking one history.

    ``violations`` preserves report order (for offline checkers, the
    simulation order; for online checkers, finalization order).
    """

    __slots__ = ("violations",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, violations: Optional[List[Violation]] = None) -> None:
        self.violations: List[Violation] = [] if violations is None else violations

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.violations == other.violations  # type: ignore[attr-defined]
        return NotImplemented

    @property
    def is_valid(self) -> bool:
        """True when no violation of any axiom was found."""
        return not self.violations

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def extend(self, other: "CheckResult") -> None:
        self.violations.extend(other.violations)

    def by_axiom(self, axiom: Axiom) -> List[Violation]:
        """All violations of one axiom, in report order."""
        return [v for v in self.violations if v.axiom is axiom]

    def counts(self) -> Dict[Axiom, int]:
        """Violation counts per axiom (axioms with zero omitted)."""
        totals: Dict[Axiom, int] = {}
        for violation in self.violations:
            totals[violation.axiom] = totals.get(violation.axiom, 0) + 1
        return totals

    def violating_tids(self) -> FrozenSet[int]:
        """The set of transactions named as violators."""
        return frozenset(v.tid for v in self.violations)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.is_valid:
            return "OK: no isolation violations"
        parts = ", ".join(f"{axiom.value}={count}" for axiom, count in sorted(
            self.counts().items(), key=lambda item: item[0].value))
        return f"VIOLATIONS ({len(self.violations)} total): {parts}"

    def __repr__(self) -> str:
        return f"CheckResult({self.summary()})"
