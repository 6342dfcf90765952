"""GC eviction churn tests: ``evict_below`` ≡ full-walk oracle.

``evict_below`` never walks the whole index: the frontier looks only at
keys holding two or more versions (a set maintained on the 1→2 insert),
the writer index only at keys with resident intervals, each decided by
one comparison on its sorted head.  (The file keeps its name from the
lazy ``(commit_ts, key)`` min-heap that did this job before.)  These
tests pin the shortcut against naive models that re-scan everything:

- a key's *kept newest* evictable version must still be evicted once a
  newer version drops below a later watermark;
- replaced versions and already-evicted keys must be harmless;
- a repeated ``evict_below(ts)`` must be an empty no-op;
- reload-on-demand re-inserts *below* the collected boundary, and the
  next cycle must evict those rows again;
- a cycle's work is bounded by the multi-version keys, not the index.
"""

from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.versioned import VersionedFrontier, WriterIntervals

from test_differential import session_respecting_shuffle, small_history


class FrontierOracle:
    """Full-walk model of :meth:`VersionedFrontier.evict_below`:
    among each key's versions with ``commit_ts <= ts``, keep the newest,
    evict the rest."""

    def __init__(self):
        self.by_key = {}

    def insert(self, key, commit_ts, value, tid):
        self.by_key.setdefault(key, {})[commit_ts] = (value, tid)

    def evict_below(self, ts):
        evicted = {}
        for key, versions in self.by_key.items():
            below = sorted(cts for cts in versions if cts <= ts)
            if len(below) < 2:
                continue
            evicted[key] = [
                (cts, versions[cts][0], versions[cts][1]) for cts in below[:-1]
            ]
            for cts in below[:-1]:
                del versions[cts]
        return evicted

    def versions_of(self, key):
        return sorted(self.by_key.get(key, {}).items())


class WriterOracle:
    """Full-walk model of :meth:`WriterIntervals.evict_below`:
    evict every interval with ``end < ts`` (duplicates included)."""

    def __init__(self):
        self.by_key = {}

    def add(self, key, start_ts, commit_ts, tid):
        self.by_key.setdefault(key, []).append((start_ts, commit_ts, tid))

    def evict_below(self, ts):
        evicted = {}
        for key, intervals in self.by_key.items():
            gone = [iv for iv in intervals if iv[1] < ts]
            if gone:
                evicted[key] = gone
                self.by_key[key] = [iv for iv in intervals if iv[1] >= ts]
        return evicted


def normalized(evicted):
    """Oracle dicts and ``evict_below`` columns alike as
    ``{key: sorted row tuples}`` (versions: commit_ts, value, tid;
    intervals: start, end, tid)."""
    if isinstance(evicted, dict):
        return {key: sorted(items) for key, items in evicted.items() if items}
    keys, counts, *columns = evicted
    out, lo = {}, 0
    for key, count in zip(keys, counts):
        out[key] = sorted(zip(*(column[lo : lo + count] for column in columns)))
        lo += count
    assert lo == len(columns[0])
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 99])
def test_frontier_evict_matches_full_walk_under_churn(seed):
    rng = Random(seed)
    frontier = VersionedFrontier()
    oracle = FrontierOracle()
    keys = [f"k{i}" for i in range(12)]
    watermark = 0
    next_tid = 1
    for step in range(600):
        if rng.random() < 0.15:
            # Mostly-monotone watermark, occasionally re-requesting an
            # old one (which must be a cheap no-op, not a corruption).
            watermark = max(watermark, rng.randint(0, step * 4)) if rng.random() < 0.8 else watermark
            got = normalized(frontier.evict_below(watermark))
            want = normalized(oracle.evict_below(watermark))
            assert got == want, f"step {step} ts {watermark}"
        else:
            key = rng.choice(keys)
            cts = rng.randint(0, step * 4 + 4)
            value = rng.randint(0, 5)
            frontier.insert(key, cts, value, next_tid)
            oracle.insert(key, cts, value, next_tid)
            next_tid += 1
    # Drain: a final high watermark must leave exactly one version per key.
    final = max(watermark, 600 * 4) + 1
    assert normalized(frontier.evict_below(final)) == normalized(
        oracle.evict_below(final)
    )
    for key in keys:
        if key in oracle.by_key and oracle.by_key[key]:
            assert len(oracle.by_key[key]) == 1


@pytest.mark.parametrize("seed", [0, 3, 42, 1213])
def test_writer_intervals_evict_matches_full_walk_under_churn(seed):
    rng = Random(seed)
    writers = WriterIntervals()
    oracle = WriterOracle()
    keys = [f"k{i}" for i in range(8)]
    watermark = 0
    next_tid = 1
    for step in range(600):
        if rng.random() < 0.15:
            watermark = max(watermark, rng.randint(0, step * 4))
            got = normalized(writers.evict_below(watermark))
            want = normalized(oracle.evict_below(watermark))
            assert got == want, f"step {step} ts {watermark}"
        else:
            key = rng.choice(keys)
            end = rng.randint(0, step * 4 + 4)
            start = max(0, end - rng.randint(0, 20))
            if rng.random() < 0.5:
                writers.add(key, start, end, next_tid)
            else:
                writers.overlap_add(key, start, end, next_tid)
            oracle.add(key, start, end, next_tid)
            next_tid += 1
    final = max(watermark, 600 * 4) + 1
    assert normalized(writers.evict_below(final)) == normalized(
        oracle.evict_below(final)
    )
    assert len(writers) == sum(len(ivs) for ivs in oracle.by_key.values())


def test_kept_newest_version_is_recovered_by_later_entries():
    """The retained newest-evictable version leaves the multi-version
    set with its key; a later version must bring the key back."""
    frontier = VersionedFrontier()
    frontier.insert("k", 1, "a", 1)
    frontier.insert("k", 2, "b", 2)
    assert normalized(frontier.evict_below(10)) == {"k": [(1, "a", 1)]}
    # Version 2 survives as the visible floor of a single-version key.
    assert frontier.value_at("k", 10) == "b"
    assert normalized(frontier.evict_below(10)) == {}  # cheap no-op
    frontier.insert("k", 12, "c", 3)
    # 2 is no longer the newest evictable version, so it must leave now.
    assert normalized(frontier.evict_below(15)) == {"k": [(2, "b", 2)]}
    assert frontier.value_at("k", 20) == "c"


def test_reload_reinserts_are_evictable_again():
    """Merging spilled state back (reload-on-demand) must make those
    versions evictable again in the next cycle."""
    frontier = VersionedFrontier()
    for cts in (1, 2, 3):
        frontier.insert("k", cts, f"v{cts}", cts)
    evicted = frontier.evict_below(100)
    assert normalized(evicted) == {"k": [(1, "v1", 1), (2, "v2", 2)]}
    frontier.merge(evicted)
    assert normalized(frontier.evict_below(100)) == normalized(evicted)

    writers = WriterIntervals()
    for end in (5, 6, 7):
        writers.add("k", 0, end, end)
    evicted = writers.evict_below(100)
    assert normalized(evicted) == {"k": [(0, 5, 5), (0, 6, 6), (0, 7, 7)]}
    writers.merge(evicted)
    assert normalized(writers.evict_below(100)) == normalized(evicted)


def test_duplicate_and_replaced_versions_are_harmless():
    """Re-inserting a version replaces its payload in place; eviction
    must count the version once."""
    frontier = VersionedFrontier()
    for _ in range(5):
        frontier.insert("k", 3, "x", 9)  # same version, re-inserted
    frontier.insert("k", 8, "y", 10)
    assert len(frontier) == 2
    assert normalized(frontier.evict_below(50)) == {"k": [(3, "x", 9)]}
    assert len(frontier) == 1
    assert normalized(frontier.evict_below(50)) == {}


def test_aion_gc_cycles_repeat_collections_are_noops():
    """End-to-end sawtooth: batched kernel ingestion with periodic GC
    keeps a repeat collection at the same boundary an empty no-op."""
    history = small_history(21, n=150)
    arrival = session_respecting_shuffle(history, Random(21))
    checker = Aion(AionConfig(timeout=float("inf")), clock=lambda: 0.0)
    try:
        for offset in range(0, len(arrival), 30):
            checker.receive_many(arrival[offset : offset + 30])
            report = checker.collect_below(None)
            again = checker.collect_below(report.effective_ts)
            assert again.evicted_versions == 0
            assert again.evicted_intervals == 0
    finally:
        checker.close()


class _CountingDict(dict):
    """``_by_key`` stand-in that counts lookups and forbids full walks."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)

    def _no_walk(self, *args):
        raise AssertionError("evict_below walked the whole frontier index")

    __iter__ = keys = values = items = _no_walk


def test_frontier_cycle_examines_only_multi_version_keys():
    """200k single-version keys + 100 two-version keys: a cycle looks at
    O(100) keys, whatever the watermark."""
    frontier = VersionedFrontier()
    for index in range(200_000):
        frontier.insert(f"cold{index}", index, 0, index)
    for index in range(100):
        frontier.insert(f"hot{index}", 10 + index, 1, 300_000 + index)
        frontier.insert(f"hot{index}", 500_000 + index, 2, 400_000 + index)
    frontier._by_key = by_key = _CountingDict(frontier._by_key)

    assert normalized(frontier.evict_below(400_000)) == {}  # heads only
    assert by_key.lookups <= 100
    evicted = normalized(frontier.evict_below(600_000))
    assert sorted(evicted) == sorted(f"hot{i}" for i in range(100))
    assert by_key.lookups <= 200
    assert normalized(frontier.evict_below(700_000)) == {}  # every key settled
    assert by_key.lookups <= 200
    assert len(frontier) == 200_100
