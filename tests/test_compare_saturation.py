"""Tests for the adaptive saturation search (bracket + bisection).

Most tests drive the search against an analytic network model — an M/M/1
style latency curve that blows up at a configurable capacity — so they are
exact and run in microseconds; one test cross-checks adaptive vs dense on
the real simulator at the quick 4x4 scale.
"""

import pytest

from repro.compare import (
    SaturationCriteria,
    SaturationSearch,
    dense_saturation,
    find_saturation,
)
from repro.exceptions import ExperimentError


def queueing_model(capacity: float, base_latency: float = 10.0):
    """An analytic cell: latency diverges and delivery collapses at *capacity*."""

    def evaluate(rate: float):
        if rate < capacity:
            utilisation = rate / capacity
            latency = base_latency / (1.0 - utilisation)
            return rate, latency, 1.0
        return capacity, base_latency * 50.0, capacity / rate

    return evaluate


class TestCriteria:
    def test_defaults_valid(self):
        SaturationCriteria()

    @pytest.mark.parametrize("overrides", [
        dict(min_rate=0.0),
        dict(min_rate=-1.0),
        dict(max_rate=0.1),
        dict(resolution=0.0),
        dict(bracket_factor=1.0),
        dict(latency_blowup=0.5),
        dict(delivery_floor=0.0),
        dict(delivery_floor=1.5),
    ])
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ExperimentError):
            SaturationCriteria(**overrides)

    def test_bounded_overrides_only_what_is_given(self):
        assert SaturationCriteria.bounded() == SaturationCriteria()
        assert SaturationCriteria.bounded(max_rate=4, resolution=0.5) == \
            SaturationCriteria(max_rate=4, resolution=0.5)
        with pytest.raises(ExperimentError):
            SaturationCriteria.bounded(min_rate=32.0)

    def test_dense_rates_span_range(self):
        criteria = SaturationCriteria(min_rate=0.5, max_rate=4.0,
                                      resolution=0.5)
        rates = criteria.dense_rates()
        assert rates[0] == 0.5
        assert rates[-1] == 4.0
        assert len(rates) == 8
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestAdaptiveSearch:
    CRITERIA = SaturationCriteria(min_rate=0.25, max_rate=16.0,
                                  resolution=0.25)

    @pytest.mark.parametrize("capacity", [0.9, 1.7, 3.1, 6.5, 12.0])
    def test_bracket_contains_true_capacity(self, capacity):
        result = find_saturation(queueing_model(capacity), self.CRITERIA)
        assert result.saturated_within_range
        assert result.last_stable_rate <= capacity
        # the reported saturation rate is the lowest rate observed saturated,
        # at most one resolution step above the last stable rate
        assert result.saturation_rate - result.last_stable_rate <= \
            self.CRITERIA.resolution + 1e-9

    @pytest.mark.parametrize("capacity", [0.9, 1.7, 3.1, 6.5, 12.0])
    def test_agrees_with_dense_sweep_within_one_step(self, capacity):
        model = queueing_model(capacity)
        adaptive = find_saturation(model, self.CRITERIA)
        dense = dense_saturation(model, self.CRITERIA)
        assert dense.saturated_within_range
        assert abs(adaptive.saturation_rate - dense.saturation_rate) <= \
            self.CRITERIA.resolution + 1e-9

    @pytest.mark.parametrize("capacity", [0.9, 1.7, 3.1, 6.5, 12.0])
    def test_at_least_3x_fewer_invocations_than_dense(self, capacity):
        model = queueing_model(capacity)
        adaptive = find_saturation(model, self.CRITERIA)
        dense = dense_saturation(model, self.CRITERIA)
        assert dense.invocations == len(self.CRITERIA.dense_rates())
        assert adaptive.invocations * 3 <= dense.invocations

    def test_saturated_at_first_point(self):
        result = find_saturation(queueing_model(0.1), self.CRITERIA)
        assert result.saturated_within_range
        assert result.last_stable_rate == 0.0
        assert result.saturation_rate == self.CRITERIA.min_rate
        assert result.invocations == 1

    def test_never_saturates_within_range(self):
        result = find_saturation(queueing_model(100.0), self.CRITERIA)
        assert not result.saturated_within_range
        assert result.saturation_rate == self.CRITERIA.max_rate
        # pure geometric bracketing: min_rate * 2^k up to max_rate
        assert result.invocations <= 8

    def test_throughput_reported_from_last_stable_point(self):
        result = find_saturation(queueing_model(3.1), self.CRITERIA)
        # the analytic model delivers exactly the offered rate while stable
        assert result.throughput == pytest.approx(result.last_stable_rate)
        assert result.max_throughput >= result.throughput

    def test_observations_recorded_in_order(self):
        result = find_saturation(queueing_model(3.1), self.CRITERIA)
        assert len(result.observations) == result.invocations
        rates = [observation.offered_rate
                 for observation in result.observations]
        assert len(set(rates)) == len(rates)  # no rate simulated twice

    def test_deterministic_rate_sequence(self):
        first = find_saturation(queueing_model(3.1), self.CRITERIA)
        second = find_saturation(queueing_model(3.1), self.CRITERIA)
        assert [o.offered_rate for o in first.observations] == \
            [o.offered_rate for o in second.observations]

    def test_delivery_floor_criterion_alone(self):
        # constant latency; only the delivery ratio collapses
        def evaluate(rate):
            delivered = min(rate, 2.0)
            return delivered, 10.0, delivered / rate
        result = find_saturation(evaluate, self.CRITERIA)
        assert result.saturated_within_range
        assert result.last_stable_rate <= 2.0 / 0.9 + self.CRITERIA.resolution


class TestSearchProtocol:
    def test_result_before_done_raises(self):
        search = SaturationSearch(SaturationCriteria())
        with pytest.raises(ExperimentError, match="not finished"):
            search.result()

    def test_next_rate_stable_until_observed(self):
        search = SaturationSearch(SaturationCriteria())
        first = search.next_rate()
        assert search.next_rate() == first  # idempotent while pending
        search.observe(first, first, 10.0, 1.0)
        assert search.next_rate() != first

    def test_none_when_done(self):
        criteria = SaturationCriteria(min_rate=1.0, max_rate=2.0,
                                      resolution=1.0)
        search = SaturationSearch(criteria)
        rate = search.next_rate()
        search.observe(rate, 0.1, 1000.0, 0.1)  # saturated immediately
        assert search.done
        assert search.next_rate() is None


class TestAgainstRealSimulator:
    def test_adaptive_matches_dense_on_quick_mesh(self):
        """Cross-check on the real simulator: 4x4 transpose under XY."""
        from repro.experiments import ExperimentConfig
        from repro.routing import XYRouting
        from repro.simulator.simulation import simulate_route_set
        from repro.topology import Mesh2D
        from repro.traffic import transpose

        config = ExperimentConfig.quick()
        mesh = Mesh2D(4)
        flows = transpose(mesh.num_nodes, demand=config.synthetic_demand)
        routes = XYRouting().compute_routes(mesh, flows)

        calls = []

        def evaluate(rate):
            calls.append(rate)
            stats = simulate_route_set(mesh, routes, config.simulation, rate)
            return stats.throughput, stats.average_latency, \
                stats.delivery_ratio

        criteria = SaturationCriteria(min_rate=0.25, max_rate=8.0,
                                      resolution=0.5)
        adaptive = find_saturation(evaluate, criteria)
        adaptive_calls = len(calls)
        calls.clear()
        dense = dense_saturation(evaluate, criteria)

        assert adaptive.saturated_within_range
        assert dense.saturated_within_range
        assert abs(adaptive.saturation_rate - dense.saturation_rate) <= \
            criteria.resolution + 1e-9
        assert adaptive_calls * 3 <= len(calls)
