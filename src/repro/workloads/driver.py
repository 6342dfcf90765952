"""The interleaved workload driver and the one producer loop.

Realistic histories need genuinely overlapping transaction lifetimes —
otherwise first-committer-wins never fires, every SI history is trivially
serializable, and the NOCONFLICT / write-skew machinery goes untested.
The driver therefore advances sessions *one operation at a time* in a
randomized interleaving: at each step one active session either begins a
transaction, executes its next operation, or commits.  Aborted
transactions are retried with a freshly generated program, and only
committed transactions count toward the target (§IV-B).

Workloads describe client intent as :class:`TxnProgram` — a list of
``(op code, key, value)`` steps in the op codes of
:mod:`repro.histories.model` (a read's value is ``None``) — produced by
a factory callback, which lets the application workloads (Twitter,
RUBiS, TPC-C) close over their own evolving state.

The driver takes no knobs: it ticks the oracle every :data:`TICK_EVERY`
steps whenever the oracle has a ``tick`` (a
:class:`~repro.db.DecentralizedOracle`), and raises after more than
:data:`MAX_RETRIES` aborts with no commit between them.
:func:`run_workload` is the loop every generator calls: a database with
⊥T, the driver, and the history the CDC captured.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.db.engine import Database, IsolationLevel, Session, TransactionAborted, TxnHandle
from repro.db.oracle import TimestampOracle
from repro.histories.model import OP_APPEND, OP_READ, OP_READ_LIST, OP_WRITE, History

__all__ = ["TxnProgram", "InterleavedDriver", "run_workload"]

#: Steps between two oracle ticks, when the oracle has a ``tick``.
TICK_EVERY = 8
#: Aborts with no commit between them before the driver raises: the
#: workload is livelocked on conflicts.
MAX_RETRIES = 200


class TxnProgram:
    """A client-side transaction plan: ``(op code, key, value)`` steps."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Tuple[int, str, Any]] = []

    def read(self, key: str) -> "TxnProgram":
        self.steps.append((OP_READ, key, None))
        return self

    def write(self, key: str, value: Any) -> "TxnProgram":
        self.steps.append((OP_WRITE, key, value))
        return self

    def append(self, key: str, element: Any) -> "TxnProgram":
        self.steps.append((OP_APPEND, key, element))
        return self

    def read_list(self, key: str) -> "TxnProgram":
        self.steps.append((OP_READ_LIST, key, None))
        return self

    def __len__(self) -> int:
        return len(self.steps)


ProgramFactory = Callable[[int, Random], TxnProgram]


class _SessionState:
    __slots__ = ("session", "txn", "program", "position")

    def __init__(self, session: Session) -> None:
        self.session = session
        self.txn: Optional[TxnHandle] = None
        self.program: Optional[TxnProgram] = None
        self.position = 0


class InterleavedDriver:
    """Runs transaction programs over a database with interleaving.

    Parameters
    ----------
    database:
        The target :class:`~repro.db.Database`.
    n_sessions:
        Number of concurrent client sessions.
    seed:
        Drives both the interleaving and the per-program randomness.
    """

    def __init__(self, database: Database, n_sessions: int, *, seed: int = 0) -> None:
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        self._db = database
        self._rng = Random(seed)
        self._states = [_SessionState(database.session()) for _ in range(n_sessions)]
        self._tick: Optional[Callable[[], None]] = getattr(database.oracle, "tick", None)
        self.n_committed = 0
        self.n_aborted = 0
        self.n_steps = 0

    def run(self, factory: ProgramFactory, n_transactions: int) -> int:
        """Execute until ``n_transactions`` commits; returns abort count.

        ``factory(session_index, rng)`` must return a fresh program each
        call; it is invoked again after an abort (retry with new intent,
        the common client pattern).
        """
        remaining = n_transactions
        retries = 0
        tick = self._tick
        # Sessions with work left; sessions are recycled round-robin into
        # the pool so commits spread evenly.
        while remaining > 0 or any(state.txn is not None for state in self._states):
            state = self._rng.choice(self._states)
            self.n_steps += 1
            if tick is not None and self.n_steps % TICK_EVERY == 0:
                tick()

            if state.txn is None:
                if remaining <= 0:
                    continue
                remaining -= 1
                state.program = factory(state.session.sid, self._rng)
                state.txn = state.session.begin()
                state.position = 0
                continue

            program = state.program
            assert program is not None
            if state.position < len(program.steps):
                self._execute_step(state.txn, program.steps[state.position])
                state.position += 1
                continue

            try:
                self._db.commit(state.txn, state.session)
                self.n_committed += 1
                retries = 0
            except TransactionAborted:
                self.n_aborted += 1
                retries += 1
                if retries > MAX_RETRIES:
                    raise RuntimeError(
                        "retry budget exhausted: workload is livelocked on conflicts"
                    )
                remaining += 1  # the slot must still produce a commit
            state.txn = None
            state.program = None
        return self.n_aborted

    def _execute_step(self, txn: TxnHandle, step: Tuple[int, str, Any]) -> None:
        code, key, value = step
        if code == OP_READ:
            self._db.read(txn, key)
        elif code == OP_WRITE:
            self._db.write(txn, key, value)
        elif code == OP_APPEND:
            self._db.append(txn, key, value)
        elif code == OP_READ_LIST:
            self._db.read_list(txn, key)
        else:
            raise ValueError(f"unknown op code {code!r}")


def run_workload(
    keys: Iterable[str],
    initial: Any,
    factory: ProgramFactory,
    n_transactions: int,
    *,
    n_sessions: int,
    seed: int,
    oracle: Optional[TimestampOracle] = None,
    isolation: IsolationLevel = IsolationLevel.SI,
    database: Optional[Database] = None,
) -> History:
    """Run ``factory``'s programs to ``n_transactions`` commits; return the
    captured history.

    Unless the caller passes its own ``database`` (already initialized),
    a fresh one over ``oracle`` and ``isolation`` is built, with ⊥T
    writing ``initial`` to every key in ``keys``.
    """
    if database is None:
        database = Database(oracle, isolation=isolation)
        database.initialize(keys, initial)
    InterleavedDriver(database, n_sessions, seed=seed).run(factory, n_transactions)
    return database.cdc.to_history()
