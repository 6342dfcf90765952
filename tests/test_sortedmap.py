"""Unit and model-based tests for the bisect-backed SortedMap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.util.sortedmap import SortedMap


class TestBasics:
    def test_empty(self):
        m = SortedMap()
        assert len(m) == 0
        assert not m
        assert 1 not in m
        assert list(m.items()) == []
        assert m.floor_item(10) is None
        assert m.ceiling_item(10) is None

    def test_set_get_delete(self):
        m = SortedMap()
        m[5] = "five"
        m[3] = "three"
        m[7] = "seven"
        assert m[5] == "five"
        assert len(m) == 3
        assert list(m.keys()) == [3, 5, 7]
        del m[5]
        assert 5 not in m
        assert list(m.keys()) == [3, 7]
        with pytest.raises(KeyError):
            del m[5]
        with pytest.raises(KeyError):
            _ = m[5]

    def test_overwrite_keeps_length(self):
        m = SortedMap()
        m[1] = "a"
        m[1] = "b"
        assert len(m) == 1
        assert m[1] == "b"

    def test_get_default_and_setdefault(self):
        m = SortedMap()
        assert m.get(9) is None
        assert m.get(9, "d") == "d"
        assert m.setdefault(9, "x") == "x"
        assert m.setdefault(9, "y") == "x"

    def test_pop(self):
        m = SortedMap([(1, "a")])
        assert m.pop(1) == "a"
        assert m.pop(1, "default") == "default"
        with pytest.raises(KeyError):
            m.pop(1)

    def test_min_max(self):
        m = SortedMap([(i, i * 10) for i in (4, 1, 9, 6)])
        assert m.min_item() == (1, 10)
        assert m.max_item() == (9, 90)
        empty = SortedMap()
        with pytest.raises(KeyError):
            empty.min_item()
        with pytest.raises(KeyError):
            empty.max_item()

    def test_clear(self):
        m = SortedMap([(1, "a"), (2, "b")])
        m.clear()
        assert len(m) == 0
        m[3] = "c"
        assert list(m.items()) == [(3, "c")]


class TestOrderedQueries:
    @pytest.fixture
    def m(self):
        return SortedMap([(10, "a"), (20, "b"), (30, "c")])

    def test_floor(self, m):
        assert m.floor_item(5) is None
        assert m.floor_item(10) == (10, "a")
        assert m.floor_item(25) == (20, "b")
        assert m.floor_item(99) == (30, "c")

    def test_lower(self, m):
        assert m.lower_item(10) is None
        assert m.lower_item(11) == (10, "a")
        assert m.lower_item(30) == (20, "b")

    def test_ceiling(self, m):
        assert m.ceiling_item(5) == (10, "a")
        assert m.ceiling_item(10) == (10, "a")
        assert m.ceiling_item(21) == (30, "c")
        assert m.ceiling_item(31) is None

    def test_higher(self, m):
        assert m.higher_item(9) == (10, "a")
        assert m.higher_item(10) == (20, "b")
        assert m.higher_item(30) is None

    def test_irange_default_inclusive(self, m):
        assert list(m.irange(10, 30)) == [(10, "a"), (20, "b"), (30, "c")]
        assert list(m.irange(11, 29)) == [(20, "b")]
        assert list(m.irange(None, 20)) == [(10, "a"), (20, "b")]
        assert list(m.irange(20, None)) == [(20, "b"), (30, "c")]

    def test_irange_exclusive_endpoints(self, m):
        assert list(m.irange(10, 30, inclusive=(False, True))) == [(20, "b"), (30, "c")]
        assert list(m.irange(10, 30, inclusive=(True, False))) == [(10, "a"), (20, "b")]
        assert list(m.irange(10, 30, inclusive=(False, False))) == [(20, "b")]

    def test_pop_below_inclusive(self, m):
        removed = m.pop_below(20)
        assert removed == [(10, "a"), (20, "b")]
        assert list(m.keys()) == [30]

    def test_pop_below_exclusive(self, m):
        removed = m.pop_below(20, inclusive=False)
        assert removed == [(10, "a")]
        assert list(m.keys()) == [20, 30]

    def test_pop_below_nothing(self, m):
        assert m.pop_below(5) == []
        assert len(m) == 3

    def test_pop_below_everything_then_reuse(self, m):
        removed = m.pop_below(1_000)
        assert len(removed) == 3
        assert len(m) == 0
        m[40] = "d"
        assert m.floor_item(50) == (40, "d")


class TestScale:
    def test_many_inserts_sorted(self):
        m = SortedMap()
        import random

        values = list(range(2000))
        random.Random(7).shuffle(values)
        for v in values:
            m[v] = v * 2
        assert list(m.keys()) == sorted(values)
        assert m.floor_item(999) == (999, 1998)
        assert len(m) == 2000

    def test_interleaved_delete(self):
        m = SortedMap([(i, i) for i in range(500)])
        for i in range(0, 500, 2):
            del m[i]
        assert list(m.keys()) == list(range(1, 500, 2))
        assert m.floor_item(100) == (99, 99)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["set", "del", "floor", "ceiling", "pop_below"]),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=60,
    )
)
def test_matches_dict_model(ops):
    """Model-based: SortedMap behaves like a sorted dict."""
    m = SortedMap()
    model: dict = {}
    for op, key in ops:
        if op == "set":
            m[key] = key
            model[key] = key
        elif op == "del":
            if key in model:
                del m[key]
                del model[key]
            else:
                assert key not in m
        elif op == "floor":
            expected = max((k for k in model if k <= key), default=None)
            got = m.floor_item(key)
            assert (got[0] if got else None) == expected
        elif op == "ceiling":
            expected = min((k for k in model if k >= key), default=None)
            got = m.ceiling_item(key)
            assert (got[0] if got else None) == expected
        else:  # pop_below
            removed = {k for k, _ in m.pop_below(key)}
            expected_removed = {k for k in model if k <= key}
            assert removed == expected_removed
            for k in expected_removed:
                del model[k]
        assert len(m) == len(model)
        assert list(m.keys()) == sorted(model)


class SortedMapMachine(RuleBasedStateMachine):
    """Stateful fuzzing against a dict model."""

    def __init__(self):
        super().__init__()
        self.map = SortedMap()
        self.model = {}

    keys = Bundle("keys")

    @rule(target=keys, k=st.integers(-1000, 1000))
    def add_key(self, k):
        self.map[k] = str(k)
        self.model[k] = str(k)
        return k

    @rule(k=keys)
    def delete_key(self, k):
        if k in self.model:
            del self.map[k]
            del self.model[k]

    @rule(k=st.integers(-1000, 1000))
    def query(self, k):
        assert self.map.get(k) == self.model.get(k)

    @invariant()
    def sorted_and_sized(self):
        assert list(self.map.keys()) == sorted(self.model)
        assert len(self.map) == len(self.model)


TestSortedMapStateful = SortedMapMachine.TestCase
TestSortedMapStateful.settings = settings(max_examples=30, stateful_step_count=40, deadline=None)


class TestChunkBoundaries:
    """The two-level layout must behave identically across chunk splits."""

    def test_multi_chunk_queries(self):
        from random import Random

        n = 6000  # forces several chunk splits (split threshold is 2048)
        keys = list(range(0, 2 * n, 2))
        Random(11).shuffle(keys)
        m = SortedMap()
        for k in keys:
            m[k] = k
        assert len(m) == n
        assert list(m.keys()) == sorted(keys)
        chunk_count = len(m._maxes)
        assert chunk_count > 1, "test must span multiple chunks"
        for probe in range(-1, 2 * n + 1, 7):
            lo = probe - (probe % 2)  # greatest even <= probe
            assert m.floor_item(probe) == ((lo, lo) if lo >= 0 else None)
            hi = probe + 1 if probe % 2 else probe  # least even >= probe
            expected = (hi, hi) if hi < 2 * n else None
            assert m.ceiling_item(probe) == expected

    def test_irange_inverted_bounds_empty(self):
        # Regression: a low bound above the high bound must yield nothing,
        # including when the two cursors land in different chunks.
        m = SortedMap([(i, i) for i in range(5000)])
        assert len(m._maxes) > 1
        assert list(m.irange(4000, 100)) == []
        assert list(m.irange(100, 100, inclusive=(True, False))) == []
        assert list(m.irange(100, 99)) == []
        assert list(m.irange(4999, 4000)) == []

    def test_pop_below_drops_whole_chunks(self):
        m = SortedMap([(i, i) for i in range(5000)])
        n_chunks = len(m._maxes)
        assert n_chunks >= 2
        removed = m.pop_below(2499)
        assert len(removed) == 2500
        assert removed == [(i, i) for i in range(2500)]
        assert m.min_item() == (2500, 2500)
        assert list(m.keys()) == list(range(2500, 5000))

    def test_shuffled_inserts_keep_chunks_full(self):
        """50,000 keys inserted in random order: the split policy keeps
        the chunk count proportional to n / 256 (a broken one — say,
        one-key chunks — fails here), iteration stays sorted, and the
        floor query answers at both ends of the key range."""
        from random import Random

        n = 50_000
        keys = list(range(n))
        Random(3).shuffle(keys)
        m = SortedMap()
        for k in keys:
            m[k] = k
        assert len(m._maxes) <= max(4, n // 256)
        assert list(m.keys()) == list(range(n))
        assert m.floor_item(2 * n) == (n - 1, n - 1)
        assert m.floor_item(0) == (0, 0)
        assert m.floor_item(-1) is None

    def test_pop_below_then_reuse(self):
        """Draining the lower half in whole-chunk steps leaves a map that
        takes new keys below what is left."""
        n = 50_000
        m = SortedMap([(i, i) for i in range(n)])
        removed = m.pop_below(n // 2, inclusive=False)
        assert len(removed) == n // 2 and len(m) == n - n // 2
        assert m.min_item() == (n // 2, n // 2)
        m[0] = "again"
        assert m.min_item() == (0, "again")
        assert m.floor_item(n // 2 - 1) == (0, "again")

    def test_delete_emptying_a_chunk(self):
        m = SortedMap([(i, i) for i in range(4500)])
        boundaries = [c[0] for c in m._keys]
        # Empty the first chunk entirely, one delete at a time.
        first_len = len(m._keys[0])
        for i in range(first_len):
            del m[i]
        assert m.min_item()[0] == first_len
        assert boundaries[1] in m
        assert list(m.keys()) == list(range(first_len, 4500))


class TestDifferentialOracle:
    """Randomized differential test against a sorted-dict oracle.

    Thousands of mixed operations (set / set_item / set_and_higher /
    setdefault / del / floor / ceiling / lower / higher / irange /
    pop_below / key_at) driven through both the chunked container and a plain
    ``dict`` + sorted key list, asserting identical behaviour at every
    step.  Key range and op count are sized to force chunk splits and
    whole-chunk removals.
    """

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_mixed_ops_match_oracle(self, seed):
        from bisect import bisect_left as bl, bisect_right as br, insort
        from random import Random

        rng = Random(seed)
        m = SortedMap()
        model: dict = {}
        okeys: list = []  # sorted oracle keys

        def oracle_add(k, v):
            if k not in model:
                insort(okeys, k)
            model[k] = v

        for step in range(4000):
            op = rng.randrange(12)
            k = rng.randrange(6000)
            if op <= 2:
                m[k] = ("set", k)
                oracle_add(k, ("set", k))
            elif op == 3:
                was = m.set_item(k, ("si", k))
                assert was == (k in model)
                oracle_add(k, ("si", k))
            elif op == 4:
                j = br(okeys, k)
                expected_next = (
                    (okeys[j], model[okeys[j]]) if j < len(okeys) else None
                )
                was, nxt = m.set_and_higher(k, ("sah", k))
                assert was == (k in model)
                assert nxt == expected_next
                oracle_add(k, ("sah", k))
            elif op == 5:
                got = m.setdefault(k, ("sd", k))
                assert got == model.get(k, ("sd", k))
                oracle_add(k, got)
            elif op == 6:
                if k in model:
                    del m[k]
                    del model[k]
                    del okeys[bl(okeys, k)]
                else:
                    with pytest.raises(KeyError):
                        del m[k]
            elif op == 7:
                j = br(okeys, k) - 1
                expected = (okeys[j], model[okeys[j]]) if j >= 0 else None
                assert m.floor_item(k) == expected
                j = bl(okeys, k) - 1
                expected = (okeys[j], model[okeys[j]]) if j >= 0 else None
                assert m.lower_item(k) == expected
            elif op == 8:
                j = bl(okeys, k)
                expected = (okeys[j], model[okeys[j]]) if j < len(okeys) else None
                assert m.ceiling_item(k) == expected
                j = br(okeys, k)
                expected = (okeys[j], model[okeys[j]]) if j < len(okeys) else None
                assert m.higher_item(k) == expected
            elif op == 9:
                lo = None if rng.random() < 0.2 else rng.randrange(6000)
                hi = None if rng.random() < 0.2 else rng.randrange(6000)
                inc = (rng.random() < 0.5, rng.random() < 0.5)
                got = [key for key, _ in m.irange(lo, hi, inclusive=inc)]
                lo_j = 0 if lo is None else (bl(okeys, lo) if inc[0] else br(okeys, lo))
                hi_j = (
                    len(okeys)
                    if hi is None
                    else (br(okeys, hi) if inc[1] else bl(okeys, hi))
                )
                assert got == okeys[lo_j:hi_j]
            elif op == 10 and rng.random() < 0.25:
                inclusive = rng.random() < 0.5
                removed = m.pop_below(k, inclusive=inclusive)
                cut = br(okeys, k) if inclusive else bl(okeys, k)
                assert removed == [(key, model[key]) for key in okeys[:cut]]
                for key in okeys[:cut]:
                    del model[key]
                del okeys[:cut]
            else:
                assert m.get(k, "absent") == model.get(k, "absent")
                assert (k in m) == (k in model)
                index = rng.randrange(-1, len(okeys) + 1)  # both ends out of range
                if 0 <= index < len(okeys):
                    assert m.key_at(index) == okeys[index]
                else:
                    with pytest.raises(IndexError):
                        m.key_at(index)
            assert len(m) == len(model)
            if step % 500 == 499:
                assert list(m.items()) == [(key, model[key]) for key in okeys]
        assert list(m.items()) == [(key, model[key]) for key in okeys]
        if okeys:
            assert m.min_item() == (okeys[0], model[okeys[0]])
            assert m.max_item() == (okeys[-1], model[okeys[-1]])


class TestSetAndHigher:
    def test_insert_returns_successor(self):
        m = SortedMap()
        m[10] = "a"
        m[30] = "c"
        assert m.set_and_higher(20, "b") == (False, (30, "c"))
        assert m[20] == "b"
        assert len(m) == 3

    def test_overwrite_flags_presence(self):
        m = SortedMap()
        m[10] = "a"
        m[20] = "b"
        was_present, nxt = m.set_and_higher(10, "a2")
        assert was_present and nxt == (20, "b")
        assert m[10] == "a2"
        assert len(m) == 2

    def test_no_successor(self):
        m = SortedMap()
        assert m.set_and_higher(5, "x") == (False, None)
        assert m.set_and_higher(9, "y") == (False, None)
        assert list(m.items()) == [(5, "x"), (9, "y")]

    def test_matches_naive_combination(self):
        from random import Random

        rng = Random(42)
        fused, naive = SortedMap(), SortedMap()
        for _ in range(300):
            key = rng.randrange(0, 120)
            expected_present = key in naive
            expected_next = naive.higher_item(key)
            naive[key] = key
            got_present, got_next = fused.set_and_higher(key, key)
            assert got_next == expected_next
            assert got_present == expected_present
        assert list(fused.items()) == list(naive.items())
