"""``repro stats``: describe a history file, or query a running daemon's
STATS.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import load_or_report


def run(args: argparse.Namespace) -> int:
    daemon_mode = args.port is not None or args.unix is not None
    if daemon_mode and args.history is not None:
        print("give either a history file or --port/--unix, not both", file=sys.stderr)
        return 2
    if daemon_mode:
        return _print_daemon_stats(args)
    if args.history is None:
        print("give a history file, or --port/--unix to query a daemon", file=sys.stderr)
        return 2
    from repro.histories.serialization import load_history
    from repro.histories.stats import HistoryStats

    history = load_or_report(load_history, args.history)
    if history is None:
        return 2
    stats = HistoryStats.of(history)
    print(f"transactions : {stats.n_transactions}")
    print(f"sessions     : {stats.n_sessions}")
    print(f"operations   : {stats.n_operations} ({stats.ops_per_txn:.1f} per txn)")
    print(f"reads        : {stats.n_reads} registers, {stats.n_list_reads} lists "
          f"({stats.read_ratio * 100:.0f}% of ops)")
    print(f"writes       : {stats.n_writes} registers, {stats.n_appends} appends")
    print(f"keys         : {stats.n_keys}")
    print(f"read-only    : {stats.n_read_only} transactions")
    return 0


def _print_daemon_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service import CheckerClient

    port = args.port if args.port is not None else 0
    client = CheckerClient(args.host, port, unix_path=args.unix)
    try:
        client.connect()
    except OSError as exc:
        print(f"cannot reach the daemon: {exc}", file=sys.stderr)
        return 2
    with client:
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    throughput = stats.get("throughput", {})
    latency = stats.get("latency", {})
    gc = stats.get("gc", {})
    print(f"checker      : {stats.get('checker', '?')} (uptime {stats.get('uptime_s', 0):.1f}s)")
    print(f"processed    : {stats.get('processed', 0)} transactions "
          f"({throughput.get('sustained_tps', 0):,.0f} sustained TPS)")
    print(f"resident     : {stats.get('resident_txns', 0)} arrivals indexed"
          + (f", ~{stats['estimated_bytes']:,} bytes"
             if stats.get("estimated_bytes") is not None else ""))
    ext = stats.get("ext")
    if ext:
        print(f"pending EXT  : {ext['pending_reads']} reads of "
              f"{ext['pending_txns']} transactions awaiting their timeout")
    print(f"violations   : {stats.get('violations', 0)}")
    print(f"queue        : depth {stats.get('queue_depth', 0)}, "
          f"high-water {stats.get('queue_high_water', 0)} / "
          f"capacity {stats.get('queue_capacity', 0)} txns")
    if latency.get("count"):
        print(f"latency      : p50 {latency['p50_s'] * 1e3:.1f}ms, "
              f"p95 {latency['p95_s'] * 1e3:.1f}ms, "
              f"p99 {latency['p99_s'] * 1e3:.1f}ms "
              f"({latency['count']} samples)")
    print(f"gc           : {gc.get('cycles', 0)} cycles, "
          f"{gc.get('spill_bytes', 0):,} bytes spilled, "
          f"{gc.get('reloads', 0)} reloads, "
          f"{gc.get('evicted', {}).get('txns', 0)} index entries released")
    host_gc = stats.get("host_gc")
    if host_gc:
        passes = host_gc["collections"]
        print(f"host gc      : {passes['0']} / {passes['1']} / {passes['2']} collector passes "
              f"(gen 0 / 1 / 2), {host_gc['seconds']:.3f}s in them")
    kernel = stats.get("kernel", {})
    if kernel:
        print(f"kernel       : {kernel.get('batches', 0)} batches, "
              f"{kernel.get('txns', 0)} txns, "
              f"{kernel.get('slow_batches', 0)} slow")
    return 0
