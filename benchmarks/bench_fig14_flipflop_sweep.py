"""Fig 14 — flip-flop counts vs delay mean and standard deviation.

Paper claims: the delay *mean* has negligible impact (all transactions
are deferred equally), while a larger *standard deviation* produces more
flip-flops (more out-of-order arrivals).
"""

from repro.bench import cached_default_history, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import OnlineRunner


def _flip_pairs(history, mean_ms, std_ms, seed):
    collector = HistoryCollector(
        batch_size=500,
        arrival_tps=100_000,
        delay_model=NormalDelay(mean_ms, std_ms),
        seed=seed,
    )
    schedule = collector.schedule(history)
    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    OnlineRunner(checker, clock).run(schedule, charge_check_time=False)
    stats = checker.flipflop_stats
    pairs = sum(stats.flips_per_pair.values())
    txns = stats.n_flipped_txns
    checker.close()
    return pairs, txns


def _run():
    n = pick(2_000, 10_000, 10_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1414
    )
    mean_rows = []
    for mean in (50, 100, 200, 400):
        pairs, txns = _flip_pairs(history, mean, 10.0, seed=15)
        mean_rows.append({"mu_ms": mean, "(txn,key)_flips": pairs, "txns": txns})
    std_rows = []
    for std in (1, 10, 30, 50):
        pairs, txns = _flip_pairs(history, 100.0, std, seed=16)
        std_rows.append({"sigma_ms": std, "(txn,key)_flips": pairs, "txns": txns})
    return mean_rows, std_rows


def test_fig14_flipflop_sweeps(run_once):
    mean_rows, std_rows = run_once(_run)
    print()
    print(
        write_result(
            "fig14a",
            mean_rows,
            title="Fig 14a: flip-flops vs delay mean N(mu, 10^2)",
            notes="Claim: roughly flat in the mean.",
        )
    )
    print()
    print(
        write_result(
            "fig14b",
            std_rows,
            title="Fig 14b: flip-flops vs delay stddev N(100, sigma^2)",
            notes="Claim: grows with the standard deviation.",
        )
    )
    # Flat in mu: max/min within a factor 2 (loose, matches 'negligible').
    mean_counts = [row["(txn,key)_flips"] for row in mean_rows]
    assert max(mean_counts) <= max(2 * min(mean_counts), min(mean_counts) + 50), mean_counts
    # Growing in sigma: largest sigma strictly above smallest sigma.
    assert std_rows[-1]["(txn,key)_flips"] > std_rows[0]["(txn,key)_flips"], std_rows
