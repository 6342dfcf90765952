"""Figs 17–21 (appendix) — flip-flop statistics across delay settings.

- Fig 17: flip-flop histograms for mu in {50..500} at sigma=10;
- Fig 18: flip-flop histograms for sigma in {1..50} at mu=100;
- Fig 19: number of unique transactions involved, per mu and per sigma;
- Fig 20/21: rectify-time histograms across the same grids.

Paper claims: 20–40% of transactions flip, 99% flip once or twice, and
95% of transient wrong verdicts rectify quickly; sigma drives all of it,
mu barely matters.
"""

from repro.bench import cached_default_history, pick, write_result
from repro.core.aion import Aion, AionConfig
from repro.online.clock import SimClock
from repro.online.collector import HistoryCollector
from repro.online.delays import NormalDelay
from repro.online.runner import OnlineRunner


def _stats_for(history, mean_ms, std_ms, seed):
    schedule = HistoryCollector(
        batch_size=500,
        arrival_tps=100_000,
        delay_model=NormalDelay(mean_ms, std_ms),
        seed=seed,
    ).schedule(history)
    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    OnlineRunner(checker, clock).run(schedule, charge_check_time=False)
    stats = checker.flipflop_stats
    flips = stats.flip_histogram()
    rectify = stats.rectify_histogram()
    summary = {
        "flips=1": flips["1"],
        "flips=2": flips["2"],
        "flips=3": flips["3"],
        "flips=4+": flips["4+"],
        "txns": stats.n_flipped_txns,
        "rectify<10ms": rectify["0-1ms"] + rectify["1-2ms"] + rectify["2-10ms"],
        "rectify>=10ms": rectify["10-99ms"] + rectify["100-999ms"] + rectify["1000+ms"],
    }
    checker.close()
    return summary


def _run():
    n = pick(2_000, 10_000, 10_000)
    history = cached_default_history(
        n_sessions=24, n_transactions=n, ops_per_txn=8, n_keys=1000, seed=1717
    )
    mu_rows = []
    for mu in (50, 100, 200, 300, 500):
        mu_rows.append({"mu_ms": mu, **_stats_for(history, mu, 10.0, seed=18)})
    sigma_rows = []
    for sigma in (1, 10, 20, 40, 50):
        sigma_rows.append({"sigma_ms": sigma, **_stats_for(history, 100.0, sigma, seed=19)})
    return mu_rows, sigma_rows


def test_fig17_21_appendix_flipflops(run_once):
    mu_rows, sigma_rows = run_once(_run)
    print()
    print(
        write_result(
            "fig17_19_20",
            mu_rows,
            title="Figs 17/19a/20: flip-flop + rectify stats vs delay mean",
            notes="Claim: flat in the mean.",
        )
    )
    print()
    print(
        write_result(
            "fig18_19_21",
            sigma_rows,
            title="Figs 18/19b/21: flip-flop + rectify stats vs delay stddev",
            notes="Claim: grows with the stddev; most pairs flip once or twice.",
        )
    )
    # Fig 19b: unique transactions involved grow with sigma.
    assert sigma_rows[-1]["txns"] > sigma_rows[0]["txns"], sigma_rows
    # 99%-style claim: pairs with 1-2 flips dominate at the default point.
    default = next(row for row in mu_rows if row["mu_ms"] == 100)
    total_pairs = default["flips=1"] + default["flips=2"] + default["flips=3"] + default["flips=4+"]
    if total_pairs:
        assert (default["flips=1"] + default["flips=2"]) / total_pairs >= 0.9
    # Fig 20/21: at the paper's default N(100, 10^2) point, most
    # transient verdicts rectify fast; wider sigmas shift the histogram
    # right (reported, not asserted — the paper observes the same drift).
    default_sigma = next(row for row in sigma_rows if row["sigma_ms"] == 10)
    total = default_sigma["rectify<10ms"] + default_sigma["rectify>=10ms"]
    if total > 20:
        assert default_sigma["rectify<10ms"] / total >= 0.5, default_sigma
