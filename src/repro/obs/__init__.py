"""repro.obs — the daemon's operability surface.

A checker you run against live traffic is only as trustworthy as what
you can see of it while it runs.  This package holds the pieces that
make :mod:`repro.service` observable without a redeploy and without
third-party dependencies:

- :mod:`repro.obs.registry` — the Prometheus text-format encoder, the
  model Prometheus/Grafana scrape, and the fixed-bucket histogram, the
  one metric the daemon keeps live (every other family on ``/metrics``
  is rendered from the ``stats()`` snapshot of that scrape);
- :mod:`repro.obs.http` — a minimal asyncio HTTP sidecar (no aiohttp)
  that serves ``GET /metrics``, ``GET /health``, and ``GET /stats``
  next to the wire-protocol listeners;
- :mod:`repro.obs.trace` — the slow-batch trace log: a structured
  record per ``receive_many`` call that exceeded a configured wall-time
  threshold (stage timings, batch shape, hottest keys), kept in a
  bounded ring and mirrored to stderr.

The hot path stays honest about its cost: per-stage wall times in
:class:`~repro.core.kernel.KernelStats` are sampled one batch in N, and
the differential tests in ``tests/test_obs.py`` pin that enabling every
piece of this package never changes a verdict.
"""

from repro._lazy import lazy_exports

__all__ = ["Histogram", "HttpSidecar", "SlowBatchLog"]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "HttpSidecar": "repro.obs.http",
        "Histogram": "repro.obs.registry",
        "SlowBatchLog": "repro.obs.trace",
    },
)
