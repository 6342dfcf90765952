"""The ladder benchmark: seven workloads over the repo's public APIs.

See ``benchmarks/ladder/README.md``.  Nothing here is imported by the
package under test, and nothing here imports ``repro.bench`` or the
older ``benchmarks/bench_*.py`` scripts.
"""
