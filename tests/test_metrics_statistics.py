"""Tests for simulation statistics containers and helpers."""

import pytest

from repro.metrics import (
    SimulationStatistics,
    SweepCurve,
    SweepPoint,
    percentile,
)


class TestSimulationStatistics:
    @pytest.fixture
    def stats(self) -> SimulationStatistics:
        return SimulationStatistics(
            cycles=1200, warmup_cycles=200,
            packets_injected=500, packets_delivered=400,
            flits_delivered=1600, total_latency=8000.0,
            per_flow_latency={"f1": 5000.0, "f2": 3000.0},
            per_flow_delivered={"f1": 250, "f2": 150},
        )

    def test_throughput(self, stats):
        assert stats.measurement_cycles == 1000
        assert stats.throughput == pytest.approx(0.4)
        assert stats.flit_throughput == pytest.approx(1.6)

    def test_latency(self, stats):
        assert stats.average_latency == pytest.approx(20.0)
        assert stats.flow_average_latency("f1") == pytest.approx(20.0)
        assert stats.flow_average_latency("missing") == 0.0

    def test_delivery_ratio(self, stats):
        assert stats.delivery_ratio == pytest.approx(0.8)

    def test_zero_delivery_edge_cases(self):
        stats = SimulationStatistics(
            cycles=100, warmup_cycles=0, packets_injected=0,
            packets_delivered=0, flits_delivered=0, total_latency=0.0,
        )
        assert stats.average_latency == 0.0
        assert stats.delivery_ratio == 1.0

    def test_describe(self, stats):
        assert "throughput" in stats.describe()

    def test_describe_reports_the_figures(self, stats):
        text = stats.describe()
        assert "delivered=400" in text
        assert "avg latency=20.00 cycles" in text

    def test_measurement_window_is_never_empty(self):
        stats = SimulationStatistics(
            cycles=100, warmup_cycles=100, packets_injected=3,
            packets_delivered=3, flits_delivered=12, total_latency=30.0,
        )
        assert stats.measurement_cycles == 1
        assert stats.throughput == 3.0


class TestSweepCurve:
    @pytest.fixture
    def curve(self) -> SweepCurve:
        curve = SweepCurve(algorithm="XY", workload="transpose")
        data = [
            (0.5, 0.5, 10.0, 1.0),
            (1.0, 1.0, 15.0, 1.0),
            (2.0, 1.5, 80.0, 0.75),
            (4.0, 1.6, 200.0, 0.4),
        ]
        for rate, throughput, latency, ratio in data:
            curve.add_point(SweepPoint(rate, throughput, latency, ratio))
        return curve

    def test_accessors(self, curve):
        assert curve.offered_rates == [0.5, 1.0, 2.0, 4.0]
        assert curve.throughputs[-1] == 1.6
        assert curve.latencies[0] == 10.0

    def test_saturation_throughput(self, curve):
        assert curve.saturation_throughput() == 1.6

    def test_empty_curve(self):
        curve = SweepCurve(algorithm="XY", workload="transpose")
        assert curve.offered_rates == curve.throughputs == curve.latencies == []
        assert curve.saturation_throughput() == 0.0

    def test_point_defaults_to_full_delivery(self):
        assert SweepPoint(1.0, 1.0, 12.0).delivery_ratio == 1.0


class TestHelpers:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.25) == 2.0

    def test_percentile_interpolates_over_sorted_values(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
        assert percentile([10.0, 0.0], 0.1) == pytest.approx(1.0)

    def test_percentile_edge_cases(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.9) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencyPercentileEdgeCases:
    """latency_percentile must be total: no raise, no NaN (issue satellite)."""

    @staticmethod
    def _stats(per_flow):
        return SimulationStatistics(
            cycles=1000, warmup_cycles=200,
            packets_injected=sum(count for _, count in per_flow.values()),
            packets_delivered=sum(count for _, count in per_flow.values()),
            flits_delivered=0,
            total_latency=sum(total for total, _ in per_flow.values()),
            per_flow_latency={name: total
                              for name, (total, _) in per_flow.items()},
            per_flow_delivered={name: count
                                for name, (_, count) in per_flow.items()},
        )

    def test_empty_sample_set_is_zero(self):
        stats = self._stats({})
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert stats.latency_percentile(fraction) == 0.0

    def test_flows_with_zero_deliveries_are_excluded(self):
        stats = self._stats({"f1": (120.0, 10), "f2": (0.0, 0)})
        assert stats.latency_percentile(0.99) == pytest.approx(12.0)

    def test_single_sample_is_every_percentile(self):
        stats = self._stats({"f1": (50.0, 10)})
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert stats.latency_percentile(fraction) == pytest.approx(5.0)

    def test_p0_is_minimum_and_p100_is_maximum(self):
        stats = self._stats({"f1": (10.0, 10), "f2": (80.0, 10),
                             "f3": (30.0, 10)})
        assert stats.latency_percentile(0.0) == pytest.approx(1.0)
        assert stats.latency_percentile(1.0) == pytest.approx(8.0)

    def test_percent_style_inputs_are_accepted(self):
        stats = self._stats({f"f{i}": (float(i) * 10.0, 10)
                             for i in range(1, 101)})
        assert stats.latency_percentile(99) == \
            pytest.approx(stats.latency_percentile(0.99))
        assert stats.latency_percentile(50) == \
            pytest.approx(stats.latency_percentile(0.50))
        assert stats.latency_percentile(100) == \
            pytest.approx(stats.latency_percentile(1.0))

    def test_float_roundoff_above_one_clamps_to_maximum(self):
        # 1 + epsilon from float arithmetic is p100, not the 1e-7th percent
        stats = self._stats({"f1": (10.0, 10), "f2": (80.0, 10),
                             "f3": (30.0, 10)})
        assert stats.latency_percentile(1.0 + 1e-9) == \
            stats.latency_percentile(1.0)
        # genuine percent-style inputs still convert
        assert stats.latency_percentile(1.5) == \
            pytest.approx(stats.latency_percentile(0.015))

    def test_nan_fraction_raises_instead_of_propagating(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], float("nan"))
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], -0.1)
