"""Open-loop due-time and lateness accounting against a fake clock."""

import pytest

from ladderbench.paced import due_times, run_paced


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.slept.append(seconds)
        self.now += seconds


def test_due_times_follow_the_rate_not_the_sender():
    assert due_times(4, 100, 8000, 10.0) == pytest.approx([10.0, 10.0125, 10.025, 10.0375])


def test_fast_sender_sleeps_until_each_batch_is_due():
    clock = FakeClock()
    sent = []

    def send(batch):
        sent.append((batch, clock.now))
        clock.now += 0.002  # the call itself takes 2 ms

    sends = run_paced(["a", "b", "c"], 100, 8000, send, clock=clock, sleep=clock.sleep)
    assert [s.due for s in sends] == pytest.approx([100.0, 100.0125, 100.025])
    assert [at for _, at in sent] == pytest.approx([100.0, 100.0125, 100.025])
    assert all(s.late == pytest.approx(0.0) for s in sends)
    assert clock.slept == pytest.approx([0.0105, 0.0105])


def test_stalled_sender_reports_lateness_and_never_resets_the_schedule():
    clock = FakeClock()
    cost = iter([0.040, 0.001, 0.001, 0.001])  # the first send blocks for 40 ms

    def send(batch):
        clock.now += next(cost)

    sends = run_paced(list("abcd"), 100, 8000, send, clock=clock, sleep=clock.sleep)
    # Due times stay on the original grid: lag measured from them counts
    # the wait the stall imposed on every later batch.
    assert [s.due for s in sends] == pytest.approx([100.0, 100.0125, 100.025, 100.0375])
    assert [s.late for s in sends] == pytest.approx([0.0, 0.0275, 0.016, 0.0045])
    assert clock.slept == []  # behind schedule the whole way: no sleeping
    assert [s.index for s in sends] == [0, 1, 2, 3]
