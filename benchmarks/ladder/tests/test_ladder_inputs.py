"""Seeded inputs: digest stability, labels, oracle."""

from ladderbench import inputs
from repro.core.aion import Aion, AionConfig
from repro.core.reference import normalize_violations
from repro.core.violations import Axiom
from repro.online.clock import SimClock


def small(seed, name="S"):
    spec = inputs.si_spec(seed, 200) if name == "S" else inputs.ser_spec(seed, 200)
    return inputs.build_stream(seed, name, spec)


def test_same_seed_same_digest_other_seed_other_digest():
    first, again, other = small(1213), small(1213), small(7)
    assert first.digest == again.digest
    assert [t.tid for t in first.txns] == [t.tid for t in again.txns]
    assert first.digest != other.digest


def test_digest_covers_order_timestamps_and_ops():
    stream = small(1213)
    base = inputs.stream_digest(stream.txns, stream.arrivals)
    assert base == stream.digest
    swapped = list(stream.txns)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert inputs.stream_digest(swapped, stream.arrivals) != base
    shifted = list(stream.arrivals)
    shifted[5] += 1e-6
    assert inputs.stream_digest(stream.txns, shifted) != base


def test_sub_seeds_are_stable_and_distinct():
    assert inputs.derive(1213, "S.history") == inputs.derive(1213, "S.history")
    assert inputs.derive(1213, "S.history") != inputs.derive(1213, "R.history")
    assert 0 <= inputs.derive(7, "x") < 2**31


def test_streams_carry_every_fault_class_and_markers():
    si, ser = small(1213), small(1213, "R")
    assert len(si.labels) == inputs.N_LABELLED == len(ser.labels)
    assert {label.axiom for label in si.labels} == {
        Axiom.EXT, Axiom.INT, Axiom.SESSION, Axiom.TS_ORDER, Axiom.NOCONFLICT,
    }
    assert Axiom.NOCONFLICT not in {label.axiom for label in ser.labels}
    # one INT marker per MARKER_EVERY arrivals, each on a fault-free transaction
    assert len(si.markers) == -(-len(si.txns) // inputs.MARKER_EVERY)
    labelled = {tid for label in si.labels for tid in label.tids}
    assert not labelled & set(si.markers)
    assert all(si.txns[index].tid == tid for tid, index in si.markers.items())
    assert si.oracle and inputs.labels_missed(si, si.oracle) == 0
    assert inputs.labels_missed(si, set()) == si.n_labels


def test_online_verdict_equals_the_offline_oracle():
    stream = small(1213)
    clock = SimClock()
    checker = Aion(AionConfig(timeout=5.0), clock=clock)
    for at, batch in stream.batches(50):
        clock.advance_to(at)
        checker.receive_many(batch)
    assert normalize_violations(checker.finalize()) == stream.oracle
    checker.close()
    assert sum(len(batch) for _, batch in stream.batches(50)) == len(stream.txns)
