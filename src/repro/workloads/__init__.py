"""Workload generators (§V-A1 and §VI-A).

- :mod:`repro.workloads.spec` — the Table I parameter space and defaults;
- :mod:`repro.workloads.generator` — the default key-value workload:
  interleaved sessions issuing read/write transactions over a keyspace
  with uniform / zipfian / hotspot access;
- :mod:`repro.workloads.list_workload` — list (append) histories;
- :mod:`repro.workloads.twitter` — the Twitter clone (500 users posting,
  following, reading timelines; key count grows with history length);
- :mod:`repro.workloads.rubis` — the RUBiS auction site (200 users, 800
  items; bounded key population);
- :mod:`repro.workloads.tpcc` — a TPC-C-style workload with composite
  primary keys across nine tables (used offline, Fig 24).

All generators run their transactions through :class:`repro.db.Database`
(so the histories are produced by an actual SI/SER engine, not sampled),
take explicit seeds, and return :class:`repro.histories.History`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "HotspotKeys",
    "InterleavedDriver",
    "KeyChooser",
    "PARAMETER_GRID",
    "TxnProgram",
    "UniformKeys",
    "WorkloadSpec",
    "ZipfianKeys",
    "generate_default_history",
    "generate_list_history",
    "generate_rubis_history",
    "generate_tpcc_history",
    "generate_twitter_history",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "HotspotKeys": "repro.workloads.distributions",
        "KeyChooser": "repro.workloads.distributions",
        "UniformKeys": "repro.workloads.distributions",
        "ZipfianKeys": "repro.workloads.distributions",
        "InterleavedDriver": "repro.workloads.driver",
        "TxnProgram": "repro.workloads.driver",
        "generate_default_history": "repro.workloads.generator",
        "generate_list_history": "repro.workloads.list_workload",
        "generate_rubis_history": "repro.workloads.rubis",
        "PARAMETER_GRID": "repro.workloads.spec",
        "WorkloadSpec": "repro.workloads.spec",
        "generate_tpcc_history": "repro.workloads.tpcc",
        "generate_twitter_history": "repro.workloads.twitter",
    },
)
