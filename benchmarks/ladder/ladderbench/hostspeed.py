"""Host-speed calibration: what makes timings on this host comparable.

The sizing host (2 vCPUs of a shared machine) changes speed under the
benchmark: it alternates between two states about 1.6x apart in phases
of one to twelve seconds (a fixed pure-Python loop reads 1.5 ms in one
and 2.4 ms in the other, in CPU time as much as in wall time), and
drifts by another ~15 % over minutes, more for a large working set than
for a small one.  Raw wall clock therefore cannot resolve anything
below ~25 % between two runs: ten raw repetitions of one stream gave an
interquartile spread of 7-25 % of their median, the same repetitions
calibrated 4-5 %.

Every timed region of the benchmark is reported in *calibrated
seconds*: wall seconds multiplied by the host's speed during that region
relative to a fixed reference, where the speed is sampled by running
:func:`kernel` right beside the region —

- inline, after every few batches, when the checker runs in this
  process;
- from a sidecar process pinned to the same CPU as the child when the
  system under test is a subprocess (``python hostspeed.py CPU PERIOD``
  samples every ``PERIOD`` seconds until its stdin closes).

The kernel never changes with the code under test, so a calibrated
number moves only when the checker does more or less work.  Raw wall
numbers are printed beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import os
import select
import sys
import time
from random import Random
from typing import Iterable, List, Optional, Tuple

#: Kernel CPU time on the sizing host at its usual speed.  A constant, so
#: calibrated seconds from different runs share one scale.
REF_SECONDS = 0.0045
#: The kernel has two halves, sized to cost about the same.
#:
#: The first walks ``CHASE`` small objects scattered through a pool of
#: ``POOL`` and updates a small dict per object; each probe walks the
#: *next* slice of the pool, so the ~18 MB pool never becomes cache-
#: resident and the walk feels what a neighbour on the host does to the
#: shared cache and to memory, as a checker's working set does.  (Walking
#: one fixed slice, ~1.5 MB, tracked only the core's own speed: over five
#: windows of 6-10 minutes of identical repetitions the checker slowed
#: 0.3-0.7 % for each 1 % that kernel slowed, and calibrating by it left
#: medians of ten repetitions 22-37 % apart, on the read-heavy SER stream
#: wider than raw wall clock.)
#:
#: The second is interpreter-bound work of the kind a checker does: per-key
#: sorted lists, ``bisect``, ``insert`` and a tuple per operation.
#:
#: Together: the checker slows 0.7-0.9 % per 1 % of kernel, and in the same
#: windows medians of ten stay within 6-8 % of each other on both streams
#: (raw: 14-45 %).
POOL = 120_000
CHASE = 6_000
KEYS = 1_000
INSERTS = 4_000
#: Sidecar sampling period.  At 0.05 s the sidecar cost the daemon it
#: shares a CPU with 18 % of its throughput; at 0.1 s under a tenth.
SIDECAR_PERIOD = 0.1

_slices: Optional[List[list]] = None
_inserts: List[Tuple[int, int]] = []


def _scattered() -> List[list]:
    """The shuffled pool in slices of ``CHASE`` objects: neighbours in a
    slice are not neighbours in memory."""
    global _slices
    if _slices is None:
        rng = Random(0xCA11)
        pool = [(i, [i]) for i in range(POOL)]
        rng.shuffle(pool)
        _slices = [pool[i : i + CHASE] for i in range(0, POOL, CHASE)]
        _inserts.extend((rng.randrange(KEYS), rng.randrange(1 << 30)) for _ in range(INSERTS))
    return _slices


def kernel(turn: int = 0) -> int:
    """Fixed work that never changes with the code under test; ``turn``
    picks the slice of the pool to walk."""
    slices = _scattered()
    d: dict = {}
    get = d.get
    acc = 0
    for a, c in slices[turn % len(slices)]:
        acc += c[0]
        d[a & 1023] = get(a & 1023, 0) + acc
    per_key: dict = {}
    seen = []
    for key, ts in _inserts:
        versions = per_key.get(key)
        if versions is None:
            versions = per_key[key] = []
        at = bisect.bisect_right(versions, ts)
        versions.insert(at, ts)
        seen.append((key, ts, at, versions[at - 1] if at else None))
    return acc + len(seen)


class HostSpeed:
    """Time-stamped kernel timings and the calibration they imply."""

    def __init__(self) -> None:
        _scattered()  # build the pool before anything is timed
        self.times: List[float] = []
        self.costs: List[float] = []
        self._turn = 0

    def probe(self) -> None:
        """Run the kernel once and record the CPU time it took.

        CPU time, not wall: a sidecar shares its CPU with the child it
        calibrates and is descheduled mid-kernel; the host's slow phases
        show in CPU time just as they do in wall time.
        """
        t0 = time.monotonic()
        c0 = time.thread_time()
        kernel(self._turn)
        c1 = time.thread_time()
        self._turn += 1
        self.times.append((t0 + time.monotonic()) / 2)
        self.costs.append(c1 - c0)

    def extend(self, samples: Iterable[Tuple[float, float]]) -> None:
        """Merge externally taken ``(time, cost)`` samples (a sidecar's)."""
        merged = sorted(list(zip(self.times, self.costs)) + list(samples))
        self.times = [t for t, _ in merged]
        self.costs = [c for _, c in merged]

    def relative_speed(self, t0: float, t1: float) -> float:
        """Mean host speed over ``[t0, t1]`` relative to the reference.

        Uses every sample inside the interval plus the nearest one on
        each side; 1.0 when nothing was sampled (uncalibrated).
        """
        if not self.times:
            return 1.0
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.times, t1) + 1, len(self.times))
        window = self.costs[lo:hi]
        return sum(REF_SECONDS / cost for cost in window) / len(window)

    def calibrated(self, t0: float, t1: float) -> float:
        """Wall interval ``[t0, t1]`` in calibrated seconds."""
        return (t1 - t0) * self.relative_speed(t0, t1)

    def median_speed(self) -> float:
        if not self.costs:
            return 1.0
        ordered = sorted(self.costs)
        return REF_SECONDS / ordered[len(ordered) // 2]


def parse_samples(text: str) -> List[Tuple[float, float]]:
    samples = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            samples.append((float(parts[0]), float(parts[1])))
    return samples


def sidecar_main(argv: List[str]) -> int:
    """Sample the kernel every PERIOD seconds on CPU until stdin closes."""
    cpu, period = int(argv[0]), float(argv[1])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    speed = HostSpeed()
    while not select.select([sys.stdin], [], [], period)[0]:
        speed.probe()
    sys.stdout.write(
        "".join(f"{t:.6f} {c:.7f}\n" for t, c in zip(speed.times, speed.costs))
    )
    return 0


if __name__ == "__main__":
    sys.exit(sidecar_main(sys.argv[1:]))
