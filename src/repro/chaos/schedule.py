"""Declarative, seeded fault schedules for chaos campaigns.

A :class:`CampaignSchedule` divides a campaign into numbered *segments*
(one workload round each) and pins :class:`FaultEvent`\\ s to segments.
Schedules are pure data: :meth:`CampaignSchedule.generate` derives one
deterministically from a seed, and ``to_dict``/``from_dict`` round-trip
the JSON file format, so a campaign can be re-run bit-for-bit from
either a seed or a saved schedule file (``repro chaos --schedule``).

Event kinds, applied by :class:`~repro.chaos.campaign.CampaignRunner`:

- ``kill`` — sever the workload client's connection after ``arg`` more
  submit frames; the client must resume transparently (exactly-once).
- ``restart`` — hard-kill the daemon (no drain, no finalize) and boot a
  fresh one on the same port; a supervisor re-feeds the acked prefix,
  then the client resumes.
- ``pause`` — slow network: sleep between this segment's sub-batches.
- ``skew_burst`` — the engine's :class:`~repro.db.faults.SkewedOracle`
  skews every timestamp it issues during this segment (clock-skew bug
  class, YugabyteDB v2.17.1.0).
- ``mutate`` — corrupt this segment's CDC batch with one
  axiom-targeted :class:`~repro.db.faults.FaultInjector` fault;
  ``arg`` names the fault class, one of :func:`mutation_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.db.faults import FaultInjector

__all__ = ["FaultEvent", "CampaignSchedule", "EVENT_KINDS", "mutation_classes"]

#: Valid event kinds, in the order they apply within one segment.
EVENT_KINDS = ("restart", "skew_burst", "mutate", "kill", "pause")


def mutation_classes(level: str) -> Tuple[str, ...]:
    """The fault classes a campaign at ``level`` can detect.

    Every class of ``FaultInjector.CLASSES`` at SI.  SER orders
    transactions by commit timestamp alone, so two overlapping writers
    break nothing there and ``AionSer`` checks no NOCONFLICT: a
    ``noconflict`` label could never be detected.
    """
    if level == "si":
        return FaultInjector.CLASSES
    return tuple(kind for kind in FaultInjector.CLASSES if kind != "noconflict")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a kind pinned to a segment.

    ``arg`` is kind-specific: the fault class for ``mutate``, the
    sub-batch offset for ``kill``, unused otherwise.
    """

    segment: int
    kind: str
    arg: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.segment < 0:
            raise ValueError("segment must be >= 0")
        if self.kind == "mutate" and self.arg not in FaultInjector.CLASSES:
            raise ValueError(f"unknown mutation class {self.arg!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"segment": self.segment, "kind": self.kind}
        if self.arg is not None:
            data["arg"] = self.arg
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            segment=int(data["segment"]), kind=data["kind"], arg=data.get("arg")
        )


@dataclass
class CampaignSchedule:
    """A seeded, reproducible fault plan over ``segments`` segments."""

    segments: int
    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        for event in self.events:
            if event.segment >= self.segments:
                raise ValueError(
                    f"event {event} is beyond the last segment {self.segments - 1}"
                )

    def events_for(self, segment: int) -> List[FaultEvent]:
        """This segment's events, in application order."""
        mine = [event for event in self.events if event.segment == segment]
        mine.sort(key=lambda event: EVENT_KINDS.index(event.kind))
        return mine

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "segments": self.segments,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSchedule":
        return cls(
            segments=int(data["segments"]),
            events=[FaultEvent.from_dict(item) for item in data.get("events", [])],
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        segments: int = 8,
        kills: int = 2,
        restarts: int = 1,
        pauses: int = 1,
        skew_bursts: int = 1,
        mutations: int = 3,
        level: str = "si",
    ) -> "CampaignSchedule":
        """Derive a schedule deterministically from ``seed``.

        Mutations cycle the :func:`mutation_classes` of ``level``.
        Restarts land in distinct segments after the first (so the new
        daemon always has an acked prefix to be re-fed).  Mutations
        avoid segment 0 — every class now finds a target there, but the
        pool is kept so that existing seeds keep their schedules — and
        avoid skew-burst segments: a burst
        scrambles the segment's commit order, so order-sensitive
        mutations there cascade session/interval violations onto
        unlabelled transactions and the ground-truth label can no
        longer be attributed precisely.  Kills and pauses may land
        anywhere, including on top of each other.
        """
        if segments < 2:
            raise ValueError("a campaign needs at least 2 segments")
        if restarts > segments - 1:
            raise ValueError(
                f"{restarts} restarts do not fit in {segments - 1} eligible segments"
            )
        rng = Random(seed)
        events: List[FaultEvent] = []
        restart_pool = list(range(1, segments))
        rng.shuffle(restart_pool)
        for segment in sorted(restart_pool[:restarts]):
            events.append(FaultEvent(segment, "restart"))
        for _ in range(kills):
            events.append(FaultEvent(rng.randrange(segments), "kill", rng.randrange(4)))
        for _ in range(pauses):
            events.append(FaultEvent(rng.randrange(segments), "pause"))
        burst_segments = set()
        for _ in range(skew_bursts):
            segment = rng.randrange(segments)
            burst_segments.add(segment)
            events.append(FaultEvent(segment, "skew_burst"))
        mutation_pool = [
            segment for segment in range(1, segments) if segment not in burst_segments
        ] or list(range(1, segments))
        classes = mutation_classes(level)
        for index in range(mutations):
            fault = classes[index % len(classes)]
            events.append(FaultEvent(rng.choice(mutation_pool), "mutate", fault))
        events.sort(key=lambda event: (event.segment, EVENT_KINDS.index(event.kind)))
        return cls(segments=segments, events=events, seed=seed)
