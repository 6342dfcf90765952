"""Benchmark harness shared by the per-figure benchmarks.

Every table and figure of the paper's evaluation has one file under
``benchmarks/``; this package provides the scaffolding they share:
scale selection (``REPRO_BENCH_SCALE``), history caching, table
formatting, result persistence, and memory measurement.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RESULTS_DIR",
    "bench_scale",
    "cached_history",
    "format_series",
    "format_table",
    "peak_alloc_mb",
    "pick",
    "write_result",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "RESULTS_DIR": "repro.bench.harness",
        "bench_scale": "repro.bench.harness",
        "cached_history": "repro.bench.harness",
        "format_series": "repro.bench.harness",
        "format_table": "repro.bench.harness",
        "peak_alloc_mb": "repro.bench.harness",
        "pick": "repro.bench.harness",
        "write_result": "repro.bench.harness",
    },
)
