"""``repro inject``: corrupt a history file with labelled faults."""

from __future__ import annotations

import argparse

from repro.cli import load_or_report
from repro.db.faults import FaultInjector
from repro.histories.serialization import load_history, save_history


def run(args: argparse.Namespace) -> int:
    history = load_or_report(load_history, args.history)
    if history is None:
        return 2
    injector = FaultInjector(history, seed=args.seed)
    labels = injector.inject_mix(args.faults)
    save_history(injector.build(), args.out)
    print(f"injected {len(labels)} faults into {args.out}:")
    for label in labels:
        print(f"  {label.describe()}")
    return 0
