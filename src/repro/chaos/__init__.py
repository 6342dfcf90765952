"""Chaos campaigns: fault-scheduled live checking of a daemon.

See :mod:`repro.chaos.schedule` for the declarative fault schedule and
:mod:`repro.chaos.campaign` for the runner and its report — or run one
from the CLI with ``python -m repro chaos --seed N``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CampaignRunner",
    "CampaignReport",
    "CampaignSchedule",
    "FaultEvent",
    "LabelOutcome",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "CampaignReport": "repro.chaos.campaign",
        "CampaignRunner": "repro.chaos.campaign",
        "LabelOutcome": "repro.chaos.campaign",
        "CampaignSchedule": "repro.chaos.schedule",
        "FaultEvent": "repro.chaos.schedule",
    },
)
