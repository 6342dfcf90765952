"""Shared benchmark infrastructure.

Scales
------
Benchmarks honour the ``REPRO_BENCH_SCALE`` environment variable:

- ``smoke``  (default) — laptop-friendly sizes; the whole suite runs in
  minutes and the *shape* claims of every figure are still assertable;
- ``medium`` — closer to the paper's axes where feasible in Python;
- ``paper``  — the paper's own sizes for the experiments that remain
  tractable (Chronos/Aion scale; the black-box baselines stay capped, as
  in the paper's own Fig 4, which stops at 3K transactions).

Use :func:`pick` to select a size per scale.

Histories
---------
Workload generation dominates several benchmarks' set-up cost, so
histories are cached per generator and arguments (and per process) by
:func:`cached_history`.

Results
-------
:func:`write_result` persists each figure's rows under
``benchmarks/results/`` as both a readable table and JSON, which
EXPERIMENTS.md references.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.histories.model import History

__all__ = [
    "RESULTS_DIR",
    "bench_scale",
    "pick",
    "cached_history",
    "format_table",
    "format_series",
    "write_result",
    "peak_alloc_mb",
]

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

_SCALES = ("smoke", "medium", "paper")


def bench_scale() -> str:
    """The active benchmark scale (env ``REPRO_BENCH_SCALE``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke").lower()
    if scale not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {_SCALES}, got {scale!r}")
    return scale


def pick(smoke: Any, medium: Any, paper: Any) -> Any:
    """Select a value for the active scale."""
    return {"smoke": smoke, "medium": medium, "paper": paper}[bench_scale()]


# ----------------------------------------------------------------------
# History caches (per process)
# ----------------------------------------------------------------------

_history_cache: Dict[Tuple, History] = {}


def cached_history(generate: Callable[..., History], *args: Any, **kwargs: Any) -> History:
    """``generate(*args, **kwargs)``, generated once per process.

    ``generate`` is a workload generator (``generate_default_history``
    over a :class:`~repro.workloads.WorkloadSpec`, or an application
    workload over a transaction count); its arguments must be hashable.
    """
    key = (generate, args, tuple(sorted(kwargs.items())))
    if key not in _history_cache:
        _history_cache[key] = generate(*args, **kwargs)
    return _history_cache[key]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def format_table(rows: Sequence[Dict[str, Any]], *, title: str = "") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0].keys())
    rendered: List[List[str]] = [[_fmt(row.get(h)) for h in headers] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in rendered))
        for i, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def format_series(points: Iterable[Tuple[float, float]], *, label: str = "") -> str:
    """Render an (x, y) series compactly, one point per line."""
    lines = [label] if label else []
    for x, y in points:
        lines.append(f"  {x:>10.2f}  {y:>14.2f}")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def write_result(
    figure_id: str,
    rows: Sequence[Dict[str, Any]],
    *,
    title: str = "",
    notes: str = "",
) -> str:
    """Persist a figure's rows; returns the rendered table."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    table = format_table(rows, title=title or figure_id)
    text = table + (f"\n\n{notes}" if notes else "") + "\n"
    (RESULTS_DIR / f"{figure_id}.txt").write_text(text, encoding="utf-8")
    payload = {"figure": figure_id, "title": title, "scale": bench_scale(), "rows": list(rows), "notes": notes}
    (RESULTS_DIR / f"{figure_id}.json").write_text(
        json.dumps(payload, indent=2, default=str), encoding="utf-8"
    )
    return text


# ----------------------------------------------------------------------
# Memory measurement
# ----------------------------------------------------------------------

def peak_alloc_mb(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` under tracemalloc; returns (result, peak MiB).

    The real allocation peak of the checking run — the portable
    equivalent of the paper's JVM heap profiles (Fig 7/10/16).
    """
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (1024 * 1024)
