"""Tests for deep_sizeof and the deterministic RNG helpers."""

from repro.util.rng import derive_rng, make_rng
from repro.util.intervals import Interval, IntervalIndex
from repro.util.sizeof import deep_sizeof
from repro.util.sortedmap import SortedMap


class TestDeepSizeof:
    def test_atomic(self):
        assert deep_sizeof(42) > 0
        assert deep_sizeof("hello") > deep_sizeof("")

    def test_containers_nest(self):
        flat = deep_sizeof([1, 2, 3])
        nested = deep_sizeof([[1, 2, 3], [4, 5, 6]])
        assert nested > flat

    def test_shared_objects_counted_once(self):
        shared = list(range(1000))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof(shared)

    def test_cycles_terminate(self):
        a: list = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects(self):
        m = SortedMap([(i, "x" * 50) for i in range(100)])
        assert deep_sizeof(m) > 100 * 50

    def test_deep_chain_no_recursion_error(self):
        # Skiplists are long pointer chains; the walk must be iterative.
        m = SortedMap([(i, i) for i in range(50_000)])
        assert deep_sizeof(m) > 50_000

    def test_grows_with_content(self):
        small = SortedMap([(i, i) for i in range(10)])
        large = SortedMap([(i, i) for i in range(1000)])
        assert deep_sizeof(large) > deep_sizeof(small)

    def test_interval_index_through_the_slots_walk(self):
        """Chunk lists, their ``(start, owner)`` keys, ends and reach
        arrays are all reached through ``__slots__``: at least a tuple
        and three ints per interval."""
        index = IntervalIndex()
        for i in range(5000):
            index.add(Interval(1000 + 3 * i, 1000 + 3 * i + 5, owner=100_000 + i))
        assert deep_sizeof(index) > 5000 * (3 * 28 + 56)


class TestRng:
    def test_make_rng_int_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_make_rng_string_seed(self):
        a, b = make_rng("alpha"), make_rng("alpha")
        assert a.random() == b.random()
        assert make_rng("alpha").random() != make_rng("beta").random()

    def test_derive_rng_stable(self):
        assert derive_rng(1, "x", 2).random() == derive_rng(1, "x", 2).random()

    def test_derive_rng_label_independence(self):
        assert derive_rng(1, "x").random() != derive_rng(1, "y").random()
        assert derive_rng(1, "x", 1).random() != derive_rng(1, "x", 2).random()

    def test_label_concatenation_unambiguous(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_rng(0, "ab", "c").random() != derive_rng(0, "a", "bc").random()
