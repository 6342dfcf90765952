"""Online checking infrastructure (§VI).

- :mod:`repro.online.clock` — a deterministic virtual clock, injected
  into the checkers so timeout behaviour is reproducible;
- :mod:`repro.online.delays` — per-transaction delay models: the paper's
  batched delivery with normally distributed delays N(mu, sigma²);
- :mod:`repro.online.collector` — turns a history (or a live CDC feed)
  into a timed arrival schedule, preserving session order, in batches of
  500 transactions;
- :mod:`repro.online.metrics` — throughput buckets and memory sampling;
- :mod:`repro.online.runner` — drives a checker through a schedule in
  either *capacity mode* (wall-clock-paced, for the Fig 12 throughput
  curves, with pluggable GC strategies) or *tracking mode*
  (arrival-paced, for the flip-flop experiments of Figs 13/14/17–21).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ArrivalSchedule",
    "DelayModel",
    "GcPolicy",
    "HistoryCollector",
    "MemorySampler",
    "NoDelay",
    "NormalDelay",
    "OnlineRunReport",
    "OnlineRunner",
    "SimClock",
    "ThroughputSeries",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "SimClock": "repro.online.clock",
        "ArrivalSchedule": "repro.online.collector",
        "HistoryCollector": "repro.online.collector",
        "DelayModel": "repro.online.delays",
        "NoDelay": "repro.online.delays",
        "NormalDelay": "repro.online.delays",
        "MemorySampler": "repro.online.metrics",
        "ThroughputSeries": "repro.online.metrics",
        "GcPolicy": "repro.online.runner",
        "OnlineRunReport": "repro.online.runner",
        "OnlineRunner": "repro.online.runner",
    },
)
