#!/usr/bin/env python3
"""Quickstart: check a history for snapshot isolation in four steps.

1. Build a small history by hand (or load one from JSONL).
2. Check it offline with Chronos.
3. Check the same history online with Aion, feeding transactions one at
   a time — deliberately out of timestamp order.
4. Inspect the violations of a corrupted history.

Run:  python examples/quickstart.py
"""

from repro import Aion, AionConfig, Chronos, HistoryBuilder, read, write


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A hand-built history (timestamps from the database's oracle).
    #    ⊥T (the initial transaction writing 0 to every key) is added
    #    automatically by the builder.
    # ------------------------------------------------------------------
    builder = HistoryBuilder(keys=["x", "y"])
    builder.txn(sid=1, start=1, commit=2, ops=[write("x", 10)])
    builder.txn(sid=2, start=3, commit=5, ops=[read("x", 10), write("y", 20)])
    builder.txn(sid=1, start=6, commit=6, ops=[read("x", 10), read("y", 20)])
    history = builder.build()

    # ------------------------------------------------------------------
    # 2. Offline checking (Chronos, Algorithm 2 of the paper).
    # ------------------------------------------------------------------
    result = Chronos().check(history)
    print(f"offline verdict : {result.summary()}")

    # ------------------------------------------------------------------
    # 3. Online checking (Aion, Algorithm 3): receive transactions in an
    #    out-of-order arrival sequence; verdicts converge regardless.
    # ------------------------------------------------------------------
    aion = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    txns = list(history)
    arrival_order = [txns[0], txns[2], txns[1], txns[3]]  # writer delayed
    for txn in arrival_order:
        aion.receive_many([txn])  # one arrival, one batch
    online = aion.finalize()
    print(f"online verdict  : {online.summary()}")
    flips = aion.flipflop_stats
    print(f"flip-flops      : {sum(flips.flips_per_pair.values())} "
          f"(tentative EXT verdicts corrected when the delayed writer arrived)")
    aion.close()

    # ------------------------------------------------------------------
    # 4. A corrupted history: the read of y sees a value nobody wrote
    #    at that snapshot.
    # ------------------------------------------------------------------
    bad = HistoryBuilder(keys=["x", "y"])
    bad.txn(sid=1, start=1, commit=2, ops=[write("y", 20)])
    bad.txn(sid=2, start=3, commit=3, ops=[read("y", 999)])
    violations = Chronos().check(bad.build())
    print(f"corrupt verdict : {violations.summary()}")
    for violation in violations.violations:
        print(f"  -> {violation.describe()}")


if __name__ == "__main__":
    main()
