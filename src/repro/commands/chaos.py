"""``repro chaos``: run a seeded chaos campaign against a live daemon."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chaos import CampaignRunner, CampaignSchedule


def run(args: argparse.Namespace) -> int:
    if args.schedule is not None:
        schedule = CampaignSchedule.from_dict(
            json.loads(Path(args.schedule).read_text(encoding="utf-8"))
        )
    else:
        try:
            schedule = CampaignSchedule.generate(
                args.seed,
                segments=args.segments,
                kills=args.kills,
                restarts=args.restarts,
                pauses=args.pauses,
                skew_bursts=args.skew_bursts,
                mutations=args.mutations,
                level=args.level,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.save_schedule is not None:
        Path(args.save_schedule).write_text(
            json.dumps(schedule.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {len(schedule.events)}-event schedule to {args.save_schedule}")
        return 0

    try:
        runner = CampaignRunner(
            schedule,
            level=args.level,
            n_sessions=args.sessions,
            n_keys=args.keys,
            txns_per_segment=args.txns_per_segment,
            batch_size=args.batch_size,
            pause_ms=args.pause_ms,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = runner.run()
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1
