#!/usr/bin/env python3
"""The ladder benchmark.

    python3 benchmarks/ladder/run.py --seed 1213              # all seven workloads
    python3 benchmarks/ladder/run.py --seed 1213 --trace      # ... plus the per-layer pass
    python3 benchmarks/ladder/run.py --seed 1213 --selfcheck  # two sets, compared to the bounds
    python3 benchmarks/ladder/run.py --workload si_stream --seed 7 --seconds 8 --trace 0

The last form is what the benchmark driver runs: one workload, one
process, and as the last line of standard output one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  Without ``--workload`` the script runs that form once
per workload as a child process and prints one table.

The package under test is imported from ``src/`` beside this checkout;
nothing else of the repository is used.  See README.md here for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{HERE.name}: the package under test is not at {REPO_ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(REPO_ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from ladderbench import procs, report, rungs  # noqa: E402
from ladderbench.hostspeed import HostSpeed  # noqa: E402
from ladderbench.spans import NullTracer, Tracer  # noqa: E402
from ladderbench.workloads import ALL, BY_NAME, Context, Interval, Rep, Workload  # noqa: E402

OUT_DIR = HERE / "out"
LOCK_PATH = HERE / "inputs.lock.json"
DECLARED_PATH = REPO_ROOT / "BENCHMARK.json"
#: Cold starts per run for workloads whose repetitions do not set up
#: their own system under test; the first is discarded.
COLD_STARTS = 7
DETAIL_PREFIX = "# detail "


def declared() -> Dict[str, Any]:
    return json.loads(DECLARED_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------


def check_lock(seed: int, digests: Dict[str, str]) -> None:
    """Fail when a pinned seed no longer produces the pinned inputs."""
    if not LOCK_PATH.exists():
        return
    lock = json.loads(LOCK_PATH.read_text(encoding="utf-8"))
    if lock.get("seed") != seed:
        return
    for stream, digest in digests.items():
        pinned = lock["digests"].get(stream)
        if pinned is not None and pinned != digest:
            raise SystemExit(
                f"input digest of stream {stream} for seed {seed} is {digest}, "
                f"inputs.lock.json pins {pinned}: the generator or collector changed the load"
            )


def timed_pass(
    workload: Workload, ctx: Context, seconds: float
) -> Tuple[List[Rep], List[Interval]]:
    """One discarded warm-up, then repetitions for ``seconds`` of wall."""
    setups: List[Interval] = []
    null = NullTracer()
    workload.repetition(ctx, null)
    for index in range(COLD_STARTS):
        sample = workload.cold_start(ctx)
        if sample is None:
            break
        if index:
            setups.append(sample)
    reps: List[Rep] = []
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        reps.append(workload.repetition(ctx, null))
    setups.extend(rep.setup for rep in reps if rep.setup is not None)
    return reps, setups


def traced_pass(workload: Workload, ctx: Context) -> Tuple[List[Rep], Dict[str, Any], Tracer]:
    """A warm-up, one untraced repetition (the base), one traced, then
    this workload's rungs."""
    workload.repetition(ctx, NullTracer())
    base = workload.repetition(ctx, NullTracer())
    tracer = Tracer(workload.name)
    with tracer.span(workload.name):
        traced = workload.repetition(ctx, tracer)
    layer: Dict[str, Any] = dict(traced.layer)
    for rung in rungs.BY_WORKLOAD[workload.name]:
        layer.update(rung(ctx, tracer))
    return [base, traced], layer, tracer


def layer_metrics(
    workload: Workload, ctx: Context, reps: Sequence[Rep], layer: Dict[str, Any],
    tracer: Tracer, inputs_s: float,
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Every declared per-layer metric; 0 where this run measured nothing."""
    base, traced = reps
    speed = report.speed_for(workload, ctx)
    base_s = report.rep_seconds(base, speed)
    stream = ctx.stream(workload.stream_name)
    attempted, failed, _ = report.failure_counts(reps)
    layer = dict(layer)
    layer.update(
        {
            "bench.inputs_s": inputs_s,
            "bench.trace_overhead_pct": (report.rep_seconds(traced, speed) - base_s) / base_s * 100,
            "bench.host_speed": speed.median_speed(),
            "bench.raw_ingest_tps": base.txns / sum(t1 - t0 for t0, t1 in base.timed),
            "bench.failed_share": failed / attempted,
            "workloads.generate_tps": len(stream.txns) / stream.timings["generate_s"],
            "collector.schedule_tps": len(stream.txns) / stream.timings["schedule_s"],
        }
    )
    spans = tracer.total("receive_many")
    if spans and "kernel.route_s" in layer:
        stages = sum(layer[f"kernel.{s}_s"] for s in ("route", "probe", "verdict", "glue"))
        layer["kernel.span_coverage"] = stages / spans
    if workload.name == "wire_closed" and layer.get("aion.columnar_tps"):
        layer["wire.tax"] = layer["aion.columnar_tps"] / (base.txns / base_s)
    if workload.name == "wire_paced":
        layer.update(report.paced_tail(report.lag_samples_ms(reps, speed)))
    unavailable = sorted(name for name, value in layer.items() if value is None)
    rows = {
        name: {"value": layer.get(name) or 0, "unit": unit}
        for name, unit, _ in report.PER_LAYER
    }
    unknown = sorted(set(layer) - set(rows))
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics: {unknown}")
    return rows, unavailable


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = BY_NAME[name]
    procs.interrupt_on_sigterm()
    gen_cpu, sut_cpu = procs.cpu_plan()
    procs.pin(gen_cpu)
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # Spill segments, sockets and anything else a layer puts in a temp
    # directory stay inside this checkout, for this process and its children.
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp_dir)
    ctx = Context(seed, HostSpeed(), HostSpeed(), gen_cpu, sut_cpu, tmp_dir)
    sidecar = procs.Sidecar(sut_cpu) if workload.subprocess else None
    try:
        t0 = time.monotonic()
        workload.prepare(ctx)
        inputs_s = time.monotonic() - t0
        stream = ctx.stream(workload.stream_name)
        check_lock(seed, {stream.name: stream.digest})
        # The inputs are ~1M objects that live for the whole run; left in
        # the collector's youngest-to-oldest path they turn every full
        # collection the checker triggers into a 200 ms walk of the
        # benchmark's own heap (a quarter of a repetition).  Freezing
        # them leaves the collector only what the checker allocates.
        gc.collect()
        gc.freeze()
        if trace:
            reps, layer, tracer = traced_pass(workload, ctx)
        else:
            reps, setups = timed_pass(workload, ctx, seconds)
        if sidecar is not None:
            ctx.child_speed.extend(sidecar.stop())
    finally:
        if sidecar is not None:
            sidecar.stop()
        # Nothing this run started may outlive it: the shm rungs start a
        # multiprocessing resource tracker that otherwise exits after us.
        strays = procs.stop_strays()
        if strays:
            print(f"stopped stray children {strays}", file=sys.stderr)
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted, failed, notes = report.failure_counts(reps)
    facts = report.host_facts()
    print(f"workload {name}  seed {seed}  {'traced' if trace else f'{seconds:g} s'}")
    print(f"  host {facts}")
    print(f"  input_digest {stream.name} {stream.digest}")
    print(f"  inputs_s {inputs_s:.3f}  repetitions {len(reps)}")
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace), "host": facts,
        "input_digest": {stream.name: stream.digest}, "notes": notes,
    }
    if trace:
        metrics, unavailable = layer_metrics(workload, ctx, reps, layer, tracer, inputs_s)
        path = OUT_DIR / f"trace-{name}.json"
        tracer.write(path)
        print(f"  spans {len(tracer.spans)} -> {path.relative_to(REPO_ROOT)}")
        for span_name, own in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:12]:
            print(f"    self {own:9.4f} s  {span_name}")
        for metric, row in metrics.items():
            note = "  (null: unavailable here)" if metric in unavailable else ""
            print(f"  {metric:<36} {row['value']:>16.6g} {row['unit']}{note}")
        detail["unavailable"] = unavailable
    else:
        metrics = report.end_to_end(workload, ctx, reps, setups)
        for metric, row in metrics.items():
            print(report.format_row(metric, row))
        speed = report.speed_for(workload, ctx)
        raw = [rep.txns / sum(t1 - t0 for t0, t1 in rep.timed) for rep in reps]
        print(f"  raw ingest_tps median {statistics.median(raw):.1f}"
              f"  host_speed {speed.median_speed():.3f}"
              f"  kernel_ms p10 {sorted(speed.costs)[len(speed.costs) // 10] * 1e3:.3f}"
              f" p50 {sorted(speed.costs)[len(speed.costs) // 2] * 1e3:.3f}")
        detail["summary"] = {
            metric: {k: row[k] for k in ("median", "q1", "q3", "n", "unit")}
            for metric, row in metrics.items()
        }
    print(f"  failed_share {failed}/{attempted}")
    for note in notes:
        print(f"  FAILED: {note}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(report.final_json(failed == 0, attempted, failed, metrics)))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload in a child; returns its final JSON plus detail."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(f"{line}\n" for line in lines if not line.startswith(("{", "#"))))
    sys.stdout.flush()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["detail"] = next(
        (json.loads(l[len(DETAIL_PREFIX):]) for l in lines if l.startswith(DETAIL_PREFIX)), {}
    )
    return result


def run_set(seed: int, seconds: float, trace: bool) -> Dict[str, Dict[str, Any]]:
    return {w.name: child_run(w.name, seed, seconds, trace) for w in ALL}


def print_table(results: Dict[str, Dict[str, Any]]) -> None:
    names = [name for name, _, _ in report.END_TO_END]
    print(f"\n{'workload':<14}" + "".join(f"{n:>22}" for n in names) + f"{'failed':>10}")
    for workload, result in results.items():
        cells = "".join(f"{result['metrics'][n]['value']:>22.4f}" for n in names)
        print(f"{workload:<14}{cells}{result['failed']:>6}/{result['attempted']}")
    units = "  ".join(f"{n} [{u}, {b} is better]" for n, u, b in report.END_TO_END)
    print(f"medians over each workload's repetitions; {units}")


LADDER = [
    ("aion.receive_tps", "si_stream", "Aion.receive, one transaction a call"),
    ("aion.receive_many_tps", "si_stream", "Aion.receive_many, 500 a batch"),
    ("aion.columnar_tps", "si_stream", "receive_many(ColumnarBatch), as the daemon feeds it"),
    ("sharded.x1_serial_tps", "sharded_x2", "ShardedAion x1 serial"),
    ("sharded.x2_serial_tps", "sharded_x2", "ShardedAion x2 serial"),
    ("sharded.x2_process_tps", "sharded_x2", "ShardedAion x2 process (pickle pipe)"),
    ("sharded.x2_shm_tps", "sharded_x2", "ShardedAion x2 shm-process (lanes)"),
    ("daemon.inthread_tps", "wire_closed", "daemon on a thread, v2 pipelined client"),
]


def print_ladder(traces: Dict[str, Dict[str, Any]]) -> None:
    """Every rung on the S stream with its ratio to ``receive_many``."""
    base = traces["si_stream"]["metrics"]["aion.receive_many_tps"]["value"]
    print(f"\nladder on the S stream (base: aion.receive_many_tps = {base:.0f} txn/s)")
    wire = traces["wire_closed"]["metrics"]
    rows = [(m, traces[w]["metrics"][m]["value"], what) for m, w, what in LADDER]
    if wire["wire.tax"]["value"]:
        # wire.tax = aion.columnar_tps / the daemon subprocess's throughput
        through = wire["aion.columnar_tps"]["value"] / wire["wire.tax"]["value"]
        rows.append(("wire_closed", through, "daemon subprocess, v2 pipelined client"))
    for metric, value, what in rows:
        if not value:
            print(f"  {metric:<26} {'null':>10}            {what}")
            continue
        print(f"  {metric:<26} {value:>10.0f}  {value / base:5.2f}x base  {what}")
    for workload, result in traces.items():
        overhead = result["metrics"]["bench.trace_overhead_pct"]["value"]
        print(f"  bench.trace_overhead_pct[{workload}] = {overhead:.1f} %")


def run_ladder(seed: int, seconds: float, trace: bool) -> int:
    results = run_set(seed, seconds, False)
    traces = run_set(seed, seconds, True) if trace else {}
    print_table(results)
    if traces:
        print_ladder(traces)
    bad = [
        name for name, result in list(results.items()) + list(traces.items())
        if result["exit"] != 0 or not result["correct"] or result["failed"]
    ]
    if bad:
        print(f"FAILED workloads: {sorted(set(bad))}")
    return 1 if bad else 0


def selfcheck(seed: int, seconds: float) -> int:
    """Two full sets of the same code must agree within every bound."""
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    first = run_set(seed, seconds, False)
    second = run_set(seed, seconds, False)
    print(f"\n{'workload':<14}{'metric':<20}{'first':>14}{'second':>14}{'ratio':>8}{'bound':>7}")
    worst = 0
    for workload in first:
        for metric, bound in bounds.items():
            a = first[workload]["metrics"][metric]["value"]
            b = second[workload]["metrics"][metric]["value"]
            ratio = b / a
            off = max(ratio, 1 / ratio) - 1
            flag = "  DISAGREE" if off > bound else ""
            worst += bool(flag)
            print(f"{workload:<14}{metric:<20}{a:>14.4f}{b:>14.4f}{ratio:>8.3f}{bound:>7.2f}{flag}")
    failed = [w for w in first if first[w]["failed"] or second[w]["failed"]]
    if worst or failed:
        print(f"selfcheck FAILED: {worst} pairs beyond their bound, failures in {failed}")
        return 1
    print("selfcheck ok: every gated metric x workload pair agrees within its bound")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None)
    parser.add_argument("--seed", type=int, default=1213)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else float(declared()["run_seconds"])
    if args.workload is not None:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    return run_ladder(args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
