"""Change data capture: where the checkers' input comes from.

§IV-C of the paper extracts transaction timestamps from TiDB's CDC
component, YugabyteDB's write-ahead log, and Dgraph's HTTP responses.
The simulated database emits an equivalent stream: one
:class:`~repro.histories.model.Transaction` per commit, carrying the
session identity, the client-visible operations (reads with the values
actually returned), and the oracle's start/commit timestamps.

Subscribers receive records synchronously at commit time — the hook the
online collector (:mod:`repro.online.collector`) uses to tail the
database.  :func:`wal_line` renders one commit in a textual WAL format
(:meth:`ChangeLog.wal_lines` the whole log), and :func:`parse_wal` reads
it back; the offline "loading" stage
measured in Fig 8/9/24 parses exactly this kind of file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Union

from repro.histories.model import History, Transaction
from repro.histories.serialization import txn_from_dict, txn_to_dict

__all__ = ["ChangeLog", "WalTailer", "parse_wal", "iter_wal_file", "wal_line"]


def wal_line(txn: Transaction) -> str:
    """One committed transaction as a WAL text line (no newline)."""
    return "COMMIT " + json.dumps(txn_to_dict(txn), separators=(",", ":"))


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

    def wal_lines(self) -> Iterable[str]:
        """Render the log as text lines, one committed transaction each."""
        return map(wal_line, self._records)

    def save_wal(self, path: Union[str, Path]) -> int:
        """Write the textual WAL to ``path``; returns the line count.

        The file is what a real deployment's log shipper would hand the
        checker — ``python -m repro replay --wal <file>`` streams it into
        a running daemon via :func:`iter_wal_file`.
        """
        path = Path(path)
        count = 0
        with path.open("w", encoding="utf-8") as handle:
            for line in self.wal_lines():
                handle.write(line)
                handle.write("\n")
                count += 1
        return count


class WalTailer:
    """Incrementally tail a textual WAL file being appended to.

    The live-feed source for the chaos campaign, shaped like tailing a
    SQLite WAL (or a shipped log segment): a writer appends ``COMMIT``
    lines while the tailer :meth:`poll`\\ s for new complete lines from
    its byte :attr:`offset` onward.  A partially written trailing line
    is left in the file for the next poll (the offset only ever advances
    past complete, newline-terminated lines), so writer and tailer need
    no coordination beyond append-only writes.  A missing file reads as
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
        self.offset += complete
        lines = chunk[:complete].decode("utf-8").splitlines()
        return list(_iter_commit_lines(lines, self._keys))


def _iter_commit_lines(lines: Iterable[str], memo: Dict[str, str]) -> Iterator[Transaction]:
    """Decode ``COMMIT`` lines; skip everything else (a real WAL
    interleaves other record types the checker ignores).  ``memo`` shares
    each distinct key's object across the lines."""
    for line in lines:
        line = line.strip()
        if not line or not line.startswith("COMMIT "):
            continue
        yield txn_from_dict(json.loads(line[len("COMMIT "):]), memo)


def parse_wal(lines: Iterable[str]) -> History:
    """Parse the textual WAL format back into a history."""
    return History(_iter_commit_lines(lines, {}))


def iter_wal_file(path: Union[str, Path]) -> Iterator[Transaction]:
    """Stream committed transactions from a WAL file written by
    :meth:`ChangeLog.save_wal`, without materializing the history."""
    with Path(path).open("r", encoding="utf-8") as handle:
        yield from _iter_commit_lines(handle, {})
