"""Order statistics, host-speed calibration and span self-times."""

import pytest

from ladderbench import stats
from ladderbench.hostspeed import REF_SECONDS, HostSpeed, parse_samples
from ladderbench.spans import Tracer, self_times


class TestSupportedTail:
    """The highest percentile with at least ten samples beyond it."""

    @pytest.mark.parametrize(
        "n, expected",
        [
            (19, None),  # not even ten beyond the median
            (20, 50.0),
            (40, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1000, 99.0),  # the issue's ">= 1,000 samples, so >= 10 beyond p99"
            (9999, 99.0),
            (10000, 99.9),
        ],
    )
    def test_ladder(self, n, expected):
        assert stats.supported_tail(n) == expected

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 99) == 99
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([7.0], 99) == 7.0

    def test_summarize(self):
        row = stats.summarize([10.0, 11.0, 12.0, 13.0, 14.0])
        assert row["median"] == 12.0 and row["n"] == 5
        assert row["q1"] < row["median"] < row["q3"]
        assert stats.summarize([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}
        with pytest.raises(ValueError):
            stats.summarize([])


class TestCalibration:
    def speed(self, samples):
        speed = HostSpeed()
        speed.extend(samples)
        return speed

    def test_reference_host_leaves_time_alone(self):
        speed = self.speed([(t, REF_SECONDS) for t in range(10)])
        assert speed.calibrated(2.0, 5.0) == pytest.approx(3.0)

    def test_slow_phase_shrinks_wall_time(self):
        # A host running the kernel 1.6x slower did 1/1.6 of the work per second.
        speed = self.speed([(t, 1.6 * REF_SECONDS) for t in range(10)])
        assert speed.calibrated(2.0, 5.0) == pytest.approx(3.0 / 1.6)

    def test_window_takes_the_nearest_sample_on_each_side(self):
        speed = self.speed([(0.0, REF_SECONDS), (10.0, 2 * REF_SECONDS), (20.0, REF_SECONDS)])
        # Nothing inside [11, 12]: the neighbours at 10 and 20 decide.
        assert speed.relative_speed(11.0, 12.0) == pytest.approx((0.5 + 1.0) / 2)

    def test_uncalibrated_is_identity(self):
        assert HostSpeed().calibrated(1.0, 3.5) == 2.5

    def test_sidecar_samples_round_trip(self):
        assert parse_samples("1.500000 0.0015000\nnoise\n2.5 0.002\n") == [
            (1.5, 0.0015), (2.5, 0.002),
        ]


class TestSpanSelfTime:
    def test_self_time_is_duration_minus_direct_children(self):
        spans = [
            {"id": 0, "name": "rep", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "receive_many", "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "name": "receive_many", "parent": 0, "start": 5.0, "end": 7.0},
            {"id": 3, "name": "probe", "parent": 1, "start": 2.0, "end": 3.0},
        ]
        own = self_times(spans)
        assert own["rep"] == pytest.approx(10.0 - 3.0 - 2.0)
        assert own["receive_many"] == pytest.approx((3.0 - 1.0) + 2.0)
        assert own["probe"] == pytest.approx(1.0)
        assert sum(own.values()) == pytest.approx(10.0)  # nothing counted twice

    def test_tracer_nests_and_closes_on_error(self, tmp_path):
        tracer = Tracer("w")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with pytest.raises(RuntimeError):
                with tracer.span("failing"):
                    raise RuntimeError("boom")
        parents = {s["name"]: s["parent"] for s in tracer.spans}
        assert parents == {"outer": None, "inner": 0, "failing": 0}
        assert all(s["end"] is not None and s["workload"] == "w" for s in tracer.spans)
        assert tracer.count("inner") == 1 and tracer.total("outer") >= tracer.total("inner")
        tracer.write(tmp_path / "out" / "trace.json")
        assert (tmp_path / "out" / "trace.json").read_text().startswith('{"workload": "w"')
