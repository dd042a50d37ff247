"""Validation tests: bad configurations fail fast with clear messages.

Before the simulator-kernel refactor some of these (a too-small injection
buffer, a non-finite offered rate) surfaced as silent starvation or deep
index errors mid-simulation; they are now rejected at construction time
with a :class:`SimulationError` naming the offending field.
"""

import math

import pytest

from repro.exceptions import SimulationError
from repro.simulator import BernoulliInjection, SimulationConfig
from repro.traffic import FlowSet


@pytest.fixture
def one_flow():
    return FlowSet.from_tuples([(0, 1, 1.0)])


class TestSimulationConfigValidation:
    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_non_positive_num_vcs_rejected(self, value):
        with pytest.raises(SimulationError, match="num_vcs"):
            SimulationConfig(num_vcs=value)

    @pytest.mark.parametrize("value", [0, -1, -16])
    def test_non_positive_buffer_depth_rejected(self, value):
        with pytest.raises(SimulationError, match="buffer_depth"):
            SimulationConfig(buffer_depth=value)

    @pytest.mark.parametrize("value", [0, -1, -4])
    def test_non_positive_local_bandwidth_rejected(self, value):
        with pytest.raises(SimulationError, match="local_bandwidth"):
            SimulationConfig(local_bandwidth=value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_packet_size_rejected(self, value):
        with pytest.raises(SimulationError, match="packet_size_flits"):
            SimulationConfig(packet_size_flits=value)

    def test_negative_warmup_rejected(self):
        with pytest.raises(SimulationError, match="warmup_cycles"):
            SimulationConfig(warmup_cycles=-1)

    @pytest.mark.parametrize("value", [0, -5])
    def test_non_positive_measurement_rejected(self, value):
        with pytest.raises(SimulationError, match="measurement_cycles"):
            SimulationConfig(measurement_cycles=value)

    def test_injection_buffer_smaller_than_a_packet_rejected(self):
        """A source queue that cannot hold one packet would starve silently:
        no packet could ever leave its source."""
        with pytest.raises(SimulationError, match="injection_buffer_depth"):
            SimulationConfig(packet_size_flits=8, injection_buffer_depth=7)
        # exactly one packet is the smallest legal queue
        config = SimulationConfig(packet_size_flits=8,
                                  injection_buffer_depth=8)
        assert config.injection_buffer_depth == 8

    @pytest.mark.parametrize("value", [0, -200])
    def test_non_positive_dwell_rejected(self, value):
        with pytest.raises(SimulationError, match="variation_dwell_cycles"):
            SimulationConfig(variation_dwell_cycles=value)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_out_of_range_variation_rejected(self, value):
        with pytest.raises(SimulationError, match="bandwidth_variation"):
            SimulationConfig(bandwidth_variation=value)

    @pytest.mark.parametrize("value", ["", "   ", False, 3])
    def test_bad_backend_value_rejected(self, value):
        with pytest.raises(SimulationError, match="backend"):
            SimulationConfig(backend=value)

    def test_an_unset_backend_is_the_default(self):
        """``None`` leaves the kernel to the runner's width rule."""
        assert SimulationConfig().backend is None
        assert SimulationConfig(backend=None).backend is None

    def test_error_messages_name_the_offending_value(self):
        with pytest.raises(SimulationError, match="-3"):
            SimulationConfig(num_vcs=-3)
        with pytest.raises(SimulationError, match="-7"):
            SimulationConfig(buffer_depth=-7)


class TestInjectionRateValidation:
    def test_negative_offered_rate_rejected(self, one_flow):
        with pytest.raises(SimulationError, match="offered rate"):
            BernoulliInjection(one_flow, offered_rate=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_offered_rate_rejected(self, one_flow, value):
        with pytest.raises(SimulationError, match="finite"):
            BernoulliInjection(one_flow, offered_rate=value)

    def test_zero_rate_is_legal(self, one_flow):
        process = BernoulliInjection(one_flow, offered_rate=0.0)
        assert process.counts_for_cycle(0) == [0]
