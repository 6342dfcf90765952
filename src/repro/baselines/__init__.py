"""Baseline checkers the paper compares against (§V, §VII).

All baselines are implemented from scratch on the shared dependency-graph
machinery in :mod:`repro.baselines.depgraph`:

- :mod:`repro.baselines.elle` — **ElleKV** / **ElleList**: infer
  dependency edges from unique values (registers) or list prefixes
  (appends), then detect cycles depth first.  Sound but incomplete on
  registers, complete on lists — Elle's documented profile.
- :mod:`repro.baselines.emme` — **Emme-SI** / **Emme-SER**: white-box
  version-order recovery from timestamps, then a start-ordered
  serialization graph over the *entire* history and cycle detection —
  the whole-graph cost Chronos avoids (Fig 4/5).
- :mod:`repro.baselines.polysi` — **PolySI**: black-box SI checking;
  unknown per-key version orders are searched with the backtracking
  acyclicity solver in :mod:`repro.baselines.solver` (our stand-in for
  MonoSAT), over the SI-split graph.
- :mod:`repro.baselines.viper` — **Viper**: the same search over a
  BC-polygraph (begin/commit event nodes).
- :mod:`repro.baselines.cobra` — **Cobra**: online SER checking in
  rounds with fence-derived ordering, terminating at the first violation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AcyclicitySolver",
    "CobraChecker",
    "CobraConfig",
    "DependencyGraph",
    "ElleKV",
    "ElleList",
    "EmmeSer",
    "EmmeSi",
    "PolySi",
    "VersionOrderError",
    "Viper",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CobraChecker": "repro.baselines.cobra",
        "CobraConfig": "repro.baselines.cobra",
        "DependencyGraph": "repro.baselines.depgraph",
        "VersionOrderError": "repro.baselines.depgraph",
        "ElleKV": "repro.baselines.elle",
        "ElleList": "repro.baselines.elle",
        "EmmeSer": "repro.baselines.emme",
        "EmmeSi": "repro.baselines.emme",
        "PolySi": "repro.baselines.polysi",
        "AcyclicitySolver": "repro.baselines.solver",
        "Viper": "repro.baselines.viper",
    },
)
