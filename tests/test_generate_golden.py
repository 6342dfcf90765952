"""Golden bytes: generated histories and a saved WAL pinned from outside.

``repro generate`` and :meth:`ChangeLog.save_wal` are the two places a
history leaves the simulated database as text; experiments are rerun
from their seeds, so a refactor of the engine, the workloads or the line
renderers must reproduce these files byte for byte.  The digests are
the SHA-256 of each file and hold under any ``PYTHONHASHSEED``.

Regenerate (only when a format or generator change is intended)::

    PYTHONPATH=src python tests/test_generate_golden.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads.generator import build_database, generate_default_history
from repro.workloads.spec import WorkloadSpec

GENERATE_GOLDEN = {
    "default": "848d5bdfaa2ffb52e848a2b66d1c4bc02e57d0d4c294c4d4ecd36baa550d1a39",
    "list": "08940b1684bea0a93ae950c4eb4cafa75ba341aa4a8c15f359619dc219d11b9a",
    "twitter": "e35e7d68ea279fa8d3b27de9983783c14a31c1fab6e3e99bd325b561e0ef8e86",
    "rubis": "599c73d96b6627babc704e265472c13e511a191875ec4fc676bb3309782085ae",
    "tpcc": "c7442e54e19a41c50d0f9bb8870d1f3f88d2404304214939f41f43f1741a5de6",
}
WAL_GOLDEN = "5e632f6d91c5bac9aa0ffcb4a8e3cd8e0f800755bf54376fb00b17032622438a"


def generated_digest(workload: str, directory: Path) -> str:
    path = directory / f"{workload}.jsonl"
    assert main(
        ["generate", "--workload", workload, "--txns", "300", "--seed", "7", "--out", str(path)]
    ) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wal_digest(directory: Path) -> str:
    spec = WorkloadSpec(n_sessions=4, n_transactions=300, ops_per_txn=6, n_keys=30, seed=7)
    db = build_database(spec)
    generate_default_history(spec, database=db)
    path = directory / "wal.log"
    db.cdc.save_wal(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(GENERATE_GOLDEN))
def test_generate_output_is_byte_identical(tmp_path, workload):
    assert generated_digest(workload, tmp_path) == GENERATE_GOLDEN[workload]


def test_saved_wal_is_byte_identical(tmp_path):
    assert wal_digest(tmp_path) == WAL_GOLDEN


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(GENERATE_GOLDEN):
            print(f'    "{name}": "{generated_digest(name, Path(scratch))}",', file=sys.stderr)
        print(f'WAL_GOLDEN = "{wal_digest(Path(scratch))}"', file=sys.stderr)
