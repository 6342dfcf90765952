"""Fig 10 — Chronos memory usage over time.

Paper claims: memory peaks during loading, then decreases over the
checking stage as processed transactions are recycled; more frequent GC
gives smaller per-cycle releases; a sawtooth under periodic GC.

Reproduced by sampling the checker's live structure size (retained
transactions + frontier/ongoing state) every N processed transactions.
"""

from repro.bench import cached_default_history, format_series, pick, write_result
from repro.core.chronos import Chronos, GcMode
from repro.util.sizeof import deep_sizeof


def _sampler(checker):
    return deep_sizeof((checker.retained, checker.frontier, checker.ongoing, checker.int_ext_state))


def _run():
    n = pick(4_000, 20_000, 100_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=15, n_keys=1000, seed=1010
    )
    intervals = pick([400, 1000, None], [2_000, 5_000, None], [10_000, 20_000, None])
    curves = {}
    for every in intervals:
        label = "gc-inf" if every is None else f"gc-{every}"
        checker = Chronos(
            gc_every=every,
            gc_mode=GcMode.LIGHT,
            memory_sampler=_sampler,
            sample_every=max(100, n // 40),
        )
        result = checker.check_transactions(list(history.transactions))
        assert result.is_valid
        curves[label] = checker.report.memory_samples
    return curves


def test_fig10_memory_over_time(run_once):
    curves = run_once(_run)
    print()
    rows = []
    for label, samples in curves.items():
        peak = max(size for _, size in samples)
        end = samples[-1][1]
        rows.append(
            {
                "setting": label,
                "peak_MiB": round(peak / 2**20, 2),
                "end_MiB": round(end / 2**20, 2),
                "samples": len(samples),
            }
        )
        print(format_series(
            [(processed, size / 2**20) for processed, size in samples[:10]],
            label=f"{label} (first 10 samples: processed, MiB)",
        ))
    print()
    print(
        write_result(
            "fig10",
            rows,
            title="Fig 10: Chronos live-structure memory over time",
            notes="Claim: periodic GC caps retained memory (sawtooth); "
            "gc-inf retains every processed transaction.",
        )
    )
    by_label = {row["setting"]: row for row in rows}
    gc_labels = [label for label in by_label if label != "gc-inf"]
    for label in gc_labels:
        # With GC the end-of-run retained size is far below gc-inf's.
        assert by_label[label]["end_MiB"] <= by_label["gc-inf"]["end_MiB"] * 0.8, by_label
    # The most frequent GC has the smallest peak.
    most_frequent = min(
        (label for label in gc_labels), key=lambda lab: int(lab.split("-")[1])
    )
    assert by_label[most_frequent]["peak_MiB"] <= by_label["gc-inf"]["peak_MiB"], by_label
