"""§V-D — detecting isolation violations.

Two experiments:

1. **Clock skew** (the YugabyteDB v2.17.1.0 bug class): a skewed oracle
   shifts timestamps into the past while the database executes correctly
   in real time; the timestamp-based checkers flag the recorded history
   (including INT violations, as the paper reports).
2. **Injected faults**: every axiom-targeted fault class injected into a
   correct history is detected by Chronos under the matching axiom.
"""

from repro.bench import pick, write_result
from repro.core.chronos import Chronos
from repro.core.violations import Axiom
from repro.db.faults import FaultInjector, SkewedOracle
from repro.db.oracle import CentralizedOracle
from repro.workloads.generator import generate_default_history
from repro.workloads.spec import WorkloadSpec


def _run_clock_skew():
    rows = []
    n = pick(800, 5_000, 20_000)
    for probability in (0.01, 0.05, 0.15):
        oracle = SkewedOracle(CentralizedOracle(), probability=probability, max_skew=100)
        history = generate_default_history(
            WorkloadSpec(
                n_sessions=10, n_transactions=n, ops_per_txn=10, n_keys=200, seed=1111
            ),
            oracle=oracle,
        )
        result = Chronos().check(history)
        counts = {axiom.value: 0 for axiom in Axiom}
        counts.update({k.value: v for k, v in result.counts().items()})
        rows.append(
            {
                "skew_prob": probability,
                "n_skewed_ts": oracle.n_skewed,
                **counts,
            }
        )
    return rows


def _run_injected():
    n = pick(600, 3_000, 10_000)
    history = generate_default_history(
        WorkloadSpec(n_sessions=10, n_transactions=n, ops_per_txn=10, n_keys=200, seed=1112)
    )
    injector = FaultInjector(history, seed=99)
    labels = injector.inject_mix(pick(10, 25, 50))
    mutated = injector.build()
    result = Chronos().check(mutated)
    found = {(v.axiom, v.tid) for v in result.violations}
    rows = []
    for label in labels:
        detected = any((label.axiom, tid) in found for tid in label.tids)
        rows.append(
            {
                "axiom": label.axiom.value,
                "tids": ",".join(map(str, label.tids)),
                "key": label.key,
                "detected": detected,
            }
        )
    return rows


def test_secVD_clock_skew(run_once):
    rows = run_once(_run_clock_skew)
    print()
    print(
        write_result(
            "secVD_clock_skew",
            rows,
            title="SecV-D: violations found under oracle clock skew",
            notes="Claim: timestamp skew produces detectable violations, "
            "including INT (the YugabyteDB clock-skew bug class).",
        )
    )
    worst = rows[-1]
    assert worst["n_skewed_ts"] > 0
    total = sum(worst[axiom.value] for axiom in Axiom)
    assert total > 0, rows
    assert any(row["INT"] > 0 for row in rows), rows


def test_secVD_injected_faults(run_once):
    rows = run_once(_run_injected)
    print()
    print(
        write_result(
            "secVD_injected",
            rows,
            title="SecV-D: detection of injected axiom-targeted faults",
        )
    )
    assert rows, "injector produced no faults"
    missed = [row for row in rows if not row["detected"]]
    assert not missed, missed
