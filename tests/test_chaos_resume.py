"""Resume property suite: interrupted streams equal uninterrupted ones.

The exactly-once claim behind the chaos harness, stated as a property:
for a randomized kill-point schedule (seeded), a client whose connection
is severed mid-stream and transparently resumed must leave the daemon
with the *byte-identical* verdict of an uninterrupted run — the daemon
received every transaction exactly once (``received == sent``, no
duplicates admitted, nothing lost in a dead socket's buffers).

Runs across three checker variants (Aion, AionSer, ShardedAion) and
three seeds each; every kill position derives from the seed, so a
failure reproduces from the parametrization alone.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.db.faults import FaultInjector
from repro.service import (
    CheckerClient,
    ServiceConfig,
    ServiceThread,
    transactions_in_commit_order,
)
from repro.service.protocol import result_to_dict
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec

BATCH = 10
KILLS = 3

#: Daemon configurations the property must hold for, with a per-variant
#: salt so each variant draws different kill positions from the seed.
VARIANTS = {
    "aion": {"kwargs": {"level": "si", "n_shards": 1}, "salt": 0x01},
    "ser": {"kwargs": {"level": "ser", "n_shards": 1}, "salt": 0x02},
    "sharded": {"kwargs": {"level": "si", "n_shards": 2}, "salt": 0x03},
}


@pytest.fixture
def start_service():
    handles = []

    def _start(**kwargs) -> ServiceThread:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("timeout", float("inf"))
        handle = ServiceThread(ServiceConfig(**kwargs)).start()
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def seeded_workload(seed: int):
    """A generated workload with injected faults, so verdicts are
    non-empty and the byte comparison is not vacuous."""
    history = generate_default_history(
        WorkloadSpec(
            n_sessions=6,
            n_transactions=120,
            ops_per_txn=6,
            n_keys=40,
            seed=seed,
        )
    )
    injector = FaultInjector(history, seed=seed)
    injector.inject_mix(4)
    return transactions_in_commit_order(injector.build())


def verdict_bytes(result) -> bytes:
    """Canonical serialization: violations sorted so the comparison is
    insensitive to EXT finalization order, strict about everything else."""
    data = result_to_dict(result)
    data["violations"] = sorted(
        data["violations"], key=lambda v: json.dumps(v, sort_keys=True)
    )
    data.pop("summary", None)  # derived from counts; embeds report order
    return json.dumps(data, sort_keys=True).encode()


def run_stream(start_service, txns, variant: str, kill_frames=None):
    """Feed ``txns`` through a fresh daemon; optionally sever the
    connection after each frame number in ``kill_frames``."""
    handle = start_service(**VARIANTS[variant]["kwargs"])
    host, port = handle.tcp_address
    client = CheckerClient(
        host,
        port,
        auto_resume=kill_frames is not None,
        reconnect_timeout=10.0,
    )
    client.connect()
    if kill_frames:
        client.chaos_kill_frames.update(kill_frames)
    with client:
        for start in range(0, len(txns), BATCH):
            client.submit_many(txns[start : start + BATCH])
        result = client.finalize()
        stats = client.stats(include_bytes=False)
    return result, stats, client


class TestResumeProperty:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_killed_stream_is_byte_identical(self, start_service, variant, seed):
        txns = seeded_workload(seed)
        n_frames = math.ceil(len(txns) / BATCH)
        rng = random.Random(seed * 7919 + VARIANTS[variant]["salt"])
        kills = set(rng.sample(range(1, n_frames + 1), KILLS))

        base_result, base_stats, _ = run_stream(start_service, txns, variant)
        chaos_result, chaos_stats, chaos_client = run_stream(
            start_service, txns, variant, kill_frames=kills
        )

        # The kills actually happened, and the client rode them out.
        assert chaos_client.reconnects >= 1
        # Exactly-once: nothing lost to a dead socket, nothing admitted
        # twice after a replay (a duplicate would inflate `received`).
        assert base_stats["received"] == len(txns)
        assert chaos_stats["received"] == len(txns)
        assert chaos_stats["processed"] == base_stats["processed"]
        # And the verdicts are byte-identical.
        assert verdict_bytes(chaos_result) == verdict_bytes(base_result)

    def test_clean_resume_run_admits_nothing_twice(self, start_service):
        """A kill landing on the very first frame exercises the replay
        of a batch the daemon never saw (acked_seq still 0)."""
        txns = seeded_workload(seed=5)
        _, stats, client = run_stream(start_service, txns, "aion", kill_frames={1})
        assert client.reconnects >= 1
        assert stats["received"] == len(txns)
        assert stats["sessions"]["resumes"] >= 1
