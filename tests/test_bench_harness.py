"""Tests for the benchmark harness utilities."""

import json

import pytest

from repro.bench.harness import (
    RESULTS_DIR,
    bench_scale,
    cached_history,
    format_series,
    format_table,
    peak_alloc_mb,
    pick,
    write_result,
)
from repro.workloads import (
    WorkloadSpec,
    generate_default_history,
    generate_list_history,
    generate_rubis_history,
    generate_tpcc_history,
    generate_twitter_history,
)


class TestScale:
    def test_default_is_smoke(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "smoke"
        assert pick(1, 2, 3) == 1

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale() == "paper"
        assert pick(1, 2, 3) == 3

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            bench_scale()


class TestHistoryCache:
    SPEC = WorkloadSpec(n_sessions=3, n_transactions=50, ops_per_txn=4, n_keys=10, seed=777)

    def test_same_args_same_object(self):
        a = cached_history(generate_default_history, self.SPEC)
        b = cached_history(generate_default_history, self.SPEC)
        assert a is b
        assert cached_history(generate_twitter_history, 40, seed=5) is cached_history(
            generate_twitter_history, 40, seed=5
        )

    def test_different_args_different_history(self):
        a = cached_history(generate_default_history, self.SPEC)
        b = cached_history(generate_default_history, self.SPEC.scaled(n_transactions=60))
        assert a is not b
        assert len(a) != len(b)
        c = cached_history(generate_twitter_history, 40, seed=5)
        d = cached_history(generate_twitter_history, 40, seed=6)
        assert c is not d
        assert [t.keys for t in c] != [t.keys for t in d]

    def test_other_generator_other_history(self):
        kv = cached_history(generate_default_history, self.SPEC)
        lists = cached_history(generate_list_history, self.SPEC)
        assert kv is not lists
        assert kv.init_transaction.values[0] == 0 and lists.init_transaction.values[0] == ()
        rubis = cached_history(generate_rubis_history, 40, seed=5)
        tpcc = cached_history(generate_tpcc_history, 40, seed=5)
        assert rubis is not tpcc
        assert rubis.init_transaction.keys != tpcc.init_transaction.keys


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.23456}, {"name": "bb", "value": 10}]
        table = format_table(rows, title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.235" in table  # 4 significant digits

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series([(1.0, 2.0), (3.0, 4.0)], label="L")
        assert text.startswith("L")
        assert "3.00" in text

    def test_write_result_persists(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        rows = [{"k": 1}]
        write_result("selftest", rows, title="self test", notes="note")
        text_file = RESULTS_DIR / "selftest.txt"
        json_file = RESULTS_DIR / "selftest.json"
        assert text_file.exists() and json_file.exists()
        payload = json.loads(json_file.read_text())
        assert payload["rows"] == rows
        assert payload["scale"] == "smoke"
        text_file.unlink()
        json_file.unlink()


class TestPeakAlloc:
    def test_measures_allocation(self):
        result, peak = peak_alloc_mb(lambda: [0] * 500_000)
        assert len(result) == 500_000
        assert peak > 1.0  # >1 MiB for half a million pointers

    def test_small_allocation_small_peak(self):
        _, peak = peak_alloc_mb(lambda: list(range(10)))
        assert peak < 1.0
