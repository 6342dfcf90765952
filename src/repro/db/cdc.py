"""Change data capture: where the checkers' input comes from.

§IV-C of the paper extracts transaction timestamps from TiDB's CDC
component, YugabyteDB's write-ahead log, and Dgraph's HTTP responses.
The simulated database emits an equivalent stream: one
:class:`~repro.histories.model.Transaction` per commit, carrying the
session identity, the client-visible operations (reads with the values
actually returned), and the oracle's start/commit timestamps.

Subscribers receive records synchronously at commit time — the hook the
online collector (:mod:`repro.online.collector`) uses to tail the
database.  A committed transaction has one text form, the history
file's JSON Lines row (:func:`~repro.histories.serialization.txn_to_jsonl`):
a captured log is saved with
:func:`~repro.histories.serialization.save_history`, checked with
``repro check`` and replayed with ``repro replay --history`` like any
history file, and :class:`WalTailer` follows one while it is written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Union

from repro.histories.model import History, Transaction
from repro.histories.serialization import txn_from_dict

__all__ = ["ChangeLog", "WalTailer"]


class ChangeLog:
    """An append-only log of committed transactions."""

    def __init__(self) -> None:
        self._records: List[Transaction] = []
        self._subscribers: List[Callable[[Transaction], None]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def subscribe(self, callback: Callable[[Transaction], None]) -> None:
        """Register a tailer invoked synchronously on each commit."""
        self._subscribers.append(callback)

    def emit(self, txn: Transaction) -> None:
        self._records.append(txn)
        for subscriber in self._subscribers:
            subscriber(txn)

    def to_history(self) -> History:
        """Materialize the captured history (commit order)."""
        return History(self._records)


class WalTailer:
    """Incrementally tail a history file being appended to.

    The live-feed source for the chaos campaign, shaped like tailing a
    SQLite WAL (or a shipped log segment): a writer appends history-file
    lines while the tailer :meth:`poll`\\ s for new complete lines from
    its byte :attr:`offset` onward and decodes each with the history
    file's row decoder (:func:`~repro.histories.serialization.txn_from_dict`),
    skipping blank lines as the history file's reader does.  A partially
    written trailing line is left in the file for the next poll (the
    offset only ever advances past complete, newline-terminated lines,
    and only once they all decoded), so writer and tailer need no
    coordination beyond append-only writes.  A missing file reads as
    empty — the tailer may be armed before the first commit.

    ``offset`` round-trips: a tailer constructed with a previous
    tailer's offset resumes exactly where it left off, which is how a
    restarted feed avoids re-reading (and re-submitting) history.

    Every poll of one tailer decodes a key to the object its first poll
    did; the key memo dies with the tailer.
    """

    def __init__(self, path: Union[str, Path], *, offset: int = 0) -> None:
        self.path = Path(path)
        self.offset = offset
        self._keys: Dict[str, str] = {}

    def poll(self) -> List[Transaction]:
        """All complete transactions appended since the last poll."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        complete = chunk.rfind(b"\n") + 1
        if complete == 0:
            return []  # only a torn tail so far
        memo = self._keys
        txns = [
            txn_from_dict(json.loads(line), memo)
            for line in chunk[:complete].decode("utf-8").split("\n")
            if line.strip()
        ]
        # A line that raises is read again by the next poll, not dropped
        # with the lines after it.
        self.offset += complete
        return txns
