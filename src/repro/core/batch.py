"""The columnar batch: a batch of transactions as flat parallel arrays.

:class:`ColumnarBatch` is what every checker routes from and what the
codecs decode into; the op-code table it indexes (``OP_READ`` …
``OP_READ_LIST``) lives with the history model and is re-exported
here.  It is kept apart from the binary codec of
:mod:`repro.core.colpack`, which re-exports it, so an in-process
checker and ``repro check`` on a JSONL file never compile the codec.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice
from typing import Any, Iterable, Iterator, List, Sequence

from repro.histories.model import (
    OP_APPEND,
    OP_READ,
    OP_READ_LIST,
    OP_WRITE,
    Transaction,
)

__all__ = [
    "ColumnarBatch",
    "OP_APPEND",
    "OP_READ",
    "OP_READ_LIST",
    "OP_WRITE",
]


class ColumnarBatch:
    """A batch of transactions as flat parallel arrays.

    The decode target of :func:`unpack_columnar` and the layout the
    checkers' batch kernel routes from directly: five per-transaction
    integer columns, an op-offset column (``op_offsets[i] ..
    op_offsets[i+1]`` is transaction ``i``'s slice of the flat op
    arrays), op kinds as a bytes column, and resolved key strings plus
    decoded values per op — a :class:`Transaction`'s own three op
    columns, laid end to end.  No per-transaction dicts and no
    :class:`Operation` objects; :meth:`transactions` gives each
    transaction its slices of the columns when something off the hot
    path (a replay, a test) asks.

    Readers index the columns and never depend on their type, because
    two forms exist.  The batches this module builds for the online
    kernel (:func:`unpack_columnar`, :meth:`from_transactions`,
    :meth:`concat`) live for one call and keep tuples and lists.  A
    loaded history (:func:`~repro.histories.serialization.load_columns`,
    :func:`~repro.histories.serialization.columns_from_rows`) is kept
    whole, so its six integer columns are arrays of the narrowest width
    that holds them — ``array('i')``, or ``array('q')`` from the first
    chunk with a value past 32 bits — and so is its value column while
    every value is a plain 64-bit ``int``.
    """

    __slots__ = (
        "tids",
        "sids",
        "snos",
        "starts",
        "commits",
        "op_offsets",
        "op_kinds",
        "op_keys",
        "op_values",
    )

    def __init__(
        self,
        tids: Sequence[int],
        sids: Sequence[int],
        snos: Sequence[int],
        starts: Sequence[int],
        commits: Sequence[int],
        op_offsets: Sequence[int],
        op_kinds: bytes,
        op_keys: List[str],
        op_values: Sequence[Any],
    ) -> None:
        self.tids = tids
        self.sids = sids
        self.snos = snos
        self.starts = starts
        self.commits = commits
        self.op_offsets = op_offsets
        self.op_kinds = op_kinds
        self.op_keys = op_keys
        self.op_values = op_values

    def __len__(self) -> int:
        return len(self.tids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarBatch({len(self)} txns, {len(self.op_kinds)} ops)"

    @classmethod
    def from_transactions(cls, txns: Sequence[Transaction]) -> "ColumnarBatch":
        """Flatten :class:`Transaction` objects into columns.

        The front half of :func:`pack_columnar`, and how the online
        kernel and the offline checkers take transactions: a transaction
        already holds its ops as columns, so flattening is one
        ``b"".join`` of the code columns and one ``chain`` over the key
        and value columns each — C-level calls, no per-op Python step.
        """
        codes = [txn.codes for txn in txns]
        return cls(
            [txn.tid for txn in txns],
            [txn.sid for txn in txns],
            [txn.sno for txn in txns],
            [txn.start_ts for txn in txns],
            [txn.commit_ts for txn in txns],
            list(accumulate(map(len, codes), initial=0)),
            b"".join(codes),
            list(chain.from_iterable([txn.keys for txn in txns])),
            list(chain.from_iterable([txn.values for txn in txns])),
        )

    @classmethod
    def concat(cls, batches: Iterable["ColumnarBatch"]) -> "ColumnarBatch":
        """One batch holding every transaction of ``batches``, in order."""
        tids: List[int] = []
        sids: List[int] = []
        snos: List[int] = []
        starts: List[int] = []
        commits: List[int] = []
        offsets: List[int] = [0]
        kinds = bytearray()
        keys: List[str] = []
        values: List[Any] = []
        for batch in batches:
            tids += batch.tids
            sids += batch.sids
            snos += batch.snos
            starts += batch.starts
            commits += batch.commits
            base = len(keys)
            offsets += [base + offset for offset in batch.op_offsets[1:]]
            kinds += batch.op_kinds
            keys += batch.op_keys
            values += batch.op_values
        return cls(tids, sids, snos, starts, commits, offsets, bytes(kinds), keys, values)

    @property
    def has_appends(self) -> bool:
        """True when any op is an append (bytes scan, no Python loop)."""
        return OP_APPEND in self.op_kinds

    def transactions(self) -> List[Transaction]:
        """Materialize the whole batch as :class:`Transaction` objects.

        Each transaction takes its slices of the op columns
        (:meth:`Transaction.from_columns`), its code slice swapped for
        the first equal one of this call, so transactions of one shape
        share one ``bytes``; no :class:`Operation` is built, and the
        transactions do not pin the batch's arrays.
        """
        tids, sids, snos = self.tids, self.sids, self.snos
        starts, commits, offsets = self.starts, self.commits, self.op_offsets
        kinds, keys, values = bytes(self.op_kinds), self.op_keys, self.op_values
        share = {}.setdefault
        from_columns = Transaction.from_columns
        return [
            from_columns(
                tids[i],
                sids[i],
                snos[i],
                share(codes, codes),
                tuple(keys[lo:hi]),
                tuple(values[lo:hi]),
                starts[i],
                commits[i],
            )
            for i, lo, hi in zip(range(len(tids)), offsets, islice(offsets, 1, None))
            for codes in (kinds[lo:hi],)
        ]

    def slices(self, max_size: int) -> Iterator["ColumnarBatch"]:
        """Split into consecutive sub-batches of at most ``max_size``."""
        n = len(self.tids)
        if n <= max_size:
            yield self
            return
        offsets = self.op_offsets
        for lo in range(0, n, max_size):
            hi = min(lo + max_size, n)
            op_lo, op_hi = offsets[lo], offsets[hi]
            yield ColumnarBatch(
                self.tids[lo:hi],
                self.sids[lo:hi],
                self.snos[lo:hi],
                self.starts[lo:hi],
                self.commits[lo:hi],
                [offset - op_lo for offset in offsets[lo : hi + 1]],
                self.op_kinds[op_lo:op_hi],
                self.op_keys[op_lo:op_hi],
                self.op_values[op_lo:op_hi],
            )
