#!/usr/bin/env python3
"""Compare six SI/SER checkers on the same histories.

Reproduces the qualitative story of the paper's §V at example scale:

- on a *valid* SI history every SI checker agrees, but runtimes span
  orders of magnitude (black-box search vs timestamp simulation);
- on the Fig 11 history (sequential commits, stale read) only the
  timestamp-based checkers catch the bug;
- on an SI history checked for *serializability*, Aion-SER reports every
  stale snapshot while Cobra stops at the first.

Run:  python examples/compare_checkers.py
"""

import time

from repro.baselines.cobra import CobraChecker, CobraConfig
from repro.baselines.elle import ElleKV
from repro.baselines.emme import EmmeSi
from repro.baselines.polysi import PolySi
from repro.baselines.viper import Viper
from repro.core.aion_ser import AionSer
from repro.core.aion import AionConfig
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.histories.builder import HistoryBuilder
from repro.histories.ops import read, write
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec


def fig11_history():
    builder = HistoryBuilder(keys=["x"])
    builder.txn(sid=1, start=1, commit=2, ops=[write("x", 1)])
    builder.txn(sid=2, start=3, commit=4, ops=[write("x", 2)])
    builder.txn(sid=3, start=5, commit=6, ops=[read("x", 1)])
    return builder.build()


def main() -> None:
    history = generate_default_history(
        WorkloadSpec(
            n_sessions=8, n_transactions=250, ops_per_txn=6, n_keys=120,
            distribution="uniform", seed=555,
        )
    )
    checkers = [
        ("Chronos (timestamp)", Chronos),
        ("Emme-SI (timestamp)", EmmeSi),
        ("ElleKV  (black-box)", ElleKV),
        ("PolySI  (black-box)", PolySi),
        ("Viper   (black-box)", Viper),
    ]

    print(f"valid SI history: {len(history)} transactions")
    print(f"{'checker':<22}{'verdict':<12}{'runtime':>10}")
    for name, factory in checkers:
        t0 = time.perf_counter()
        result = factory().check(history)
        elapsed = time.perf_counter() - t0
        verdict = "OK" if result.is_valid else "VIOLATION"
        print(f"{name:<22}{verdict:<12}{elapsed * 1000:>8.1f} ms")

    print("\nFig 11 history (T1 w(x,1); T2 w(x,2); T3 r(x,1), sequential):")
    for name, factory in checkers:
        result = factory().check(fig11_history())
        verdict = "VIOLATION (caught)" if not result.is_valid else "accepted"
        print(f"  {name:<22}{verdict}")

    # SER checking of an SI history: Aion-SER vs Cobra.
    print("\nSER checking of the SI history:")
    offline = ChronosSer().check(history)
    ser = AionSer(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    ser.receive_many(history.by_commit_ts())
    online = ser.finalize()
    cobra = CobraChecker(CobraConfig(fence_every=10, round_size=100))
    processed = 0
    for txn in history.by_commit_ts():
        cobra.receive(txn)
        processed += 1
        if cobra.stopped:
            break
    print(f"  Chronos-SER : {len(offline.violations)} violations (ground truth)")
    print(f"  Aion-SER    : {len(online.violations)} violations, kept checking to the end")
    print(f"  Cobra       : stopped after {processed} transactions "
          f"at its first violation")
    ser.close()


if __name__ == "__main__":
    main()
