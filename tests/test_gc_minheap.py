"""GC eviction churn tests: ``evict_below`` ≡ full-walk oracle.

``evict_below`` never walks the whole index: the frontier looks only at
keys holding two or more entries (a set maintained on the 1→2 insert),
each decided by one comparison on its sorted head.  (The file keeps its
name from the lazy ``(commit_ts, key)`` min-heap that did this job
before.)  These tests pin the shortcut against naive models that
re-scan everything:

- a key's *kept newest* evictable entry must still be evicted once a
  newer entry drops below a later watermark;
- entries sharing a commit timestamp and already-evicted keys must be
  harmless;
- a repeated ``evict_below(ts)`` must be an empty no-op;
- reload-on-demand re-inserts *below* the collected boundary, in the
  order the entries first arrived, and the next cycle must evict those
  rows again;
- a cycle's work is bounded by the multi-entry keys, not the index.
"""

from random import Random

import pytest

from repro.core.aion import Aion, AionConfig
from repro.core.versioned import VersionedFrontier

from test_differential import session_respecting_shuffle, small_history


class FrontierOracle:
    """Full-walk model of :meth:`VersionedFrontier.evict_below`: each
    key's entries in commit order, equal commits in arrival order; a
    cycle keeps those with ``commit_ts >= ts`` and the newest at or
    below ``ts``, and evicts the rest."""

    def __init__(self):
        self.by_key = {}

    def insert(self, key, commit_ts, value, tid):
        entries = self.by_key.setdefault(key, [])
        entries.append((commit_ts, commit_ts, value, tid))
        entries.sort(key=lambda entry: entry[0])  # stable: arrival order on ties

    def evict_below(self, ts):
        evicted = {}
        for key, entries in self.by_key.items():
            at_or_below = [i for i, entry in enumerate(entries) if entry[0] <= ts]
            newest = at_or_below[-1] if at_or_below else None
            gone = [e for i, e in enumerate(entries) if e[0] < ts and i != newest]
            if gone:
                evicted[key] = gone
                self.by_key[key] = [e for i, e in enumerate(entries) if e[0] >= ts or i == newest]
        return evicted


def normalized(evicted):
    """Oracle dicts and ``evict_below`` columns alike as ``{key: row
    tuples}`` in list order (commit_ts, start_ts, value, tid)."""
    if isinstance(evicted, dict):
        return {key: list(items) for key, items in evicted.items() if items}
    keys, counts, *columns = evicted
    out, lo = {}, 0
    for key, count in zip(keys, counts):
        out[key] = list(zip(*(column[lo : lo + count] for column in columns)))
        lo += count
    assert lo == len(columns[0])
    return out


def entries(frontier):
    """Every key's entries as ``normalized`` rows, in list order."""
    return {key: list(zip(*rep)) for key, rep in frontier._by_key.items()}


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
    assert entries(frontier) == oracle.by_key
    # Drain: a final high watermark must leave exactly one entry per key.
    final = max(watermark, 600 * 4) + 1
    assert normalized(frontier.evict_below(final)) == normalized(
        oracle.evict_below(final)
    )
    for key in keys:
        if key in oracle.by_key and oracle.by_key[key]:
            assert len(oracle.by_key[key]) == 1
    assert not frontier._tangled


@pytest.mark.parametrize("seed", [0, 3, 42, 1213])
def test_reload_newest_first_restores_arrival_order_under_churn(seed):
    """Inserts (many sharing a commit timestamp, some landing below the
    watermark), cycles at a rising watermark, and now and then a reload
    of every segment newest first, as ``SpillingGc._reload_below`` does:
    the entries always equal a model that marks evicted arrivals instead
    of moving them — ties in arrival order, every floor the last
    writer."""
    rng = Random(seed)
    frontier = VersionedFrontier()
    arrived = {}  # key -> rows (commit_ts, start_ts, value, tid), arrival order
    gone = set()  # tids evicted and not reloaded since

    def resident():
        return {
            key: sorted((row for row in rows if row[3] not in gone), key=lambda row: row[0])
            for key, rows in arrived.items()
        }

    segments = []
    watermark = 0
    for tid in range(1, 900):
        roll = rng.random()
        if roll < 0.1:
            watermark = max(watermark, rng.randint(0, tid // 2))
            segments.append(frontier.evict_below(watermark))
            for rows in resident().values():
                at_or_below = [row for row in rows if row[0] <= watermark]
                gone.update(row[3] for row in at_or_below[:-1] if row[0] < watermark)
        elif roll < 0.13:
            for segment in reversed(segments):
                frontier.merge(segment)
            segments.clear()
            gone.clear()
        else:
            key = rng.choice("abcdef")
            commit_ts = rng.randint(0, tid // 4 + 3)
            frontier.insert(key, commit_ts, tid, tid)
            arrived.setdefault(key, []).append((commit_ts, commit_ts, tid, tid))
        assert entries(frontier) == resident(), f"arrival {tid}"
    for segment in reversed(segments):
        frontier.merge(segment)
    for key, rows in arrived.items():
        assert entries(frontier)[key] == sorted(rows, key=lambda row: row[0])
        for commit_ts in {row[0] for row in rows}:
            last = [row for row in rows if row[0] == commit_ts][-1]
            assert frontier.latest_at(key, commit_ts) == (commit_ts, last[2], last[3])


def test_kept_newest_version_is_recovered_by_later_entries():
    """The retained newest-evictable version leaves the multi-version
    set with its key; a later version must bring the key back."""
    frontier = VersionedFrontier()
    frontier.insert("k", 1, "a", 1)
    frontier.insert("k", 2, "b", 2)
    assert normalized(frontier.evict_below(10)) == {"k": [(1, 1, "a", 1)]}
    # Version 2 survives as the visible floor of a single-version key.
    assert frontier.value_at("k", 10) == "b"
    assert normalized(frontier.evict_below(10)) == {}  # cheap no-op
    frontier.insert("k", 12, "c", 3)
    # 2 is no longer the newest evictable version, so it must leave now.
    assert normalized(frontier.evict_below(15)) == {"k": [(2, 2, "b", 2)]}
    assert frontier.value_at("k", 20) == "c"


def test_reload_reinserts_are_evictable_again():
    """Merging spilled state back (reload-on-demand) must make those
    entries evictable again in the next cycle."""
    frontier = VersionedFrontier()
    for cts in (1, 2, 3):
        frontier.insert("k", cts, f"v{cts}", cts, 0)
    evicted = frontier.evict_below(100)
    assert normalized(evicted) == {"k": [(1, 0, "v1", 1), (2, 0, "v2", 2)]}
    frontier.merge(evicted)
    assert normalized(frontier.evict_below(100)) == normalized(evicted)


def test_duplicate_and_replaced_versions_are_harmless():
    """Re-inserting a version adds an entry after the ones at its commit
    timestamp; the floor is the last, and eviction takes each once."""
    frontier = VersionedFrontier()
    for value in range(5):
        frontier.insert("k", 3, value, 9)  # same version, re-inserted
    frontier.insert("k", 8, "y", 10)
    assert len(frontier) == 6
    assert frontier.value_at("k", 5) == 4
    assert normalized(frontier.evict_below(50)) == {"k": [(3, 3, v, 9) for v in range(5)]}
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
