"""Cross-cutting property tests on the checkers themselves."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aion import Aion, AionConfig
from repro.core.chronos import Chronos
from repro.core.chronos_ser import ChronosSer
from repro.core.reference import normalize_violations
from repro.db.faults import FaultInjector
from repro.histories.serialization import history_from_jsonl, history_to_jsonl
from repro.workloads.generator import generate_default_history
from repro.workloads.list_workload import generate_list_history
from repro.workloads.spec import WorkloadSpec


def _history(seed, n=100, faults=0, lists=False):
    spec = WorkloadSpec(
        n_sessions=5, n_transactions=n, ops_per_txn=6, n_keys=25, seed=seed
    )
    history = generate_list_history(spec) if lists else generate_default_history(spec)
    if faults:
        injector = FaultInjector(history, seed=seed + 1)
        injector.inject_mix(faults)
        history = injector.build()
    return history


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), faults=st.integers(0, 6), order_seed=st.integers(0, 5000))
def test_chronos_input_order_invariance(seed, faults, order_seed):
    """Chronos sorts internally: any input permutation, same verdicts."""
    history = _history(seed, faults=faults)
    baseline = normalize_violations(Chronos().check(history))
    shuffled = list(history.transactions)
    Random(order_seed).shuffle(shuffled)
    assert normalize_violations(Chronos().check_transactions(shuffled)) == baseline


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), faults=st.integers(0, 6))
def test_serialization_preserves_verdicts(seed, faults):
    history = _history(seed, faults=faults)
    baseline = normalize_violations(Chronos().check(history))
    roundtripped = history_from_jsonl(history_to_jsonl(history))
    assert normalize_violations(Chronos().check(roundtripped)) == baseline


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_list_histories_serialization_verdicts(seed):
    history = _history(seed, lists=True)
    baseline = normalize_violations(Chronos().check(history))
    roundtripped = history_from_jsonl(history_to_jsonl(history))
    assert normalize_violations(Chronos().check(roundtripped)) == baseline


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_ser_verdicts_subsume_nothing_spurious(seed):
    """A SER-clean history is SI-clean (SER is strictly stronger here)."""
    spec = WorkloadSpec(
        n_sessions=5, n_transactions=80, ops_per_txn=6, n_keys=25, seed=seed
    )
    history = generate_default_history(spec)
    if ChronosSer().check(history).is_valid:
        assert Chronos().check(history).is_valid


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000), naive=st.booleans())
def test_recheck_ablation_verdict_equivalence(seed, naive):
    """The step-③ optimization never changes verdicts."""
    history = _history(seed, faults=2)
    offline = normalize_violations(Chronos().check(history))
    checker = Aion(
        AionConfig(timeout=float("inf"), optimized_recheck=not naive),
        clock=lambda: 0.0,
    )
    # Deliver out of order but session-respecting.
    queues = {
        sid: sorted(txns, key=lambda t: t.commit_ts)
        for sid, txns in history.sessions.items()
    }
    rng = Random(seed)
    sids = list(queues)
    while sids:
        sid = rng.choice(sids)
        checker.receive(queues[sid].pop(0))
        if not queues[sid]:
            sids.remove(sid)
    online = normalize_violations(checker.finalize())
    checker.close()
    # SESSION attribution may differ on ts-mutated histories (see
    # test_differential.split_session_verdicts); compare the rest exactly.
    assert {v for v in online if v[0] != "SESSION"} == {
        v for v in offline if v[0] != "SESSION"
    }


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_check_result_counts_consistent(seed):
    history = _history(seed, faults=4)
    result = Chronos().check(history)
    counts = result.counts()
    assert sum(counts.values()) == len(result.violations)
    for axiom, count in counts.items():
        assert len(result.by_axiom(axiom)) == count
    assert result.violating_tids() <= {t.tid for t in history} | {-1}
