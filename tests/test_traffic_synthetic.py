"""Tests for the synthetic traffic patterns."""

import pytest

from repro.exceptions import TrafficError
from repro.traffic import (
    bit_complement,
    bit_reverse,
    hotspot,
    neighbor,
    pattern_permutation,
    shuffle,
    synthetic_by_name,
    transpose,
    uniform_random,
)


class TestBitComplement:
    def test_every_node_sends(self):
        flows = bit_complement(16)
        # bit-complement has no fixed points on a power-of-two network
        assert len(flows) == 16

    def test_mapping_rule(self):
        flows = bit_complement(16)
        for flow in flows:
            assert flow.destination == (~flow.source) & 0xF

    def test_is_an_involution(self):
        flows = bit_complement(64)
        mapping = {flow.source: flow.destination for flow in flows}
        for source, destination in mapping.items():
            assert mapping[destination] == source

    def test_requires_power_of_two(self):
        with pytest.raises(TrafficError):
            bit_complement(12)

    def test_demand_applied(self):
        flows = bit_complement(16, demand=25.0)
        assert all(flow.demand == 25.0 for flow in flows)


class TestTranspose:
    def test_fixed_points_excluded(self):
        flows = transpose(16)
        # nodes on the diagonal (x == y) map to themselves and send nothing
        assert len(flows) == 16 - 4

    def test_swaps_coordinates_on_square_mesh(self):
        flows = transpose(64)
        for flow in flows:
            sx, sy = flow.source % 8, flow.source // 8
            dx, dy = flow.destination % 8, flow.destination // 8
            assert (dx, dy) == (sy, sx)

    def test_requires_even_bit_count(self):
        with pytest.raises(TrafficError):
            transpose(32)  # 5 address bits

    def test_requires_power_of_two(self):
        with pytest.raises(TrafficError):
            transpose(10)


class TestShuffle:
    def test_rotation_rule(self):
        flows = shuffle(16)
        for flow in flows:
            rotated = ((flow.source << 1) | (flow.source >> 3)) & 0xF
            assert flow.destination == rotated

    def test_fixed_points_excluded(self):
        flows = shuffle(16)
        # 0 and 15 (all zeros / all ones) are fixed under rotation
        sources = {flow.source for flow in flows}
        assert 0 not in sources
        assert 15 not in sources

    def test_nonzero_demand_required(self):
        with pytest.raises(TrafficError):
            shuffle(16, demand=0.0)


class TestBitReverse:
    def test_is_an_involution(self):
        flows = bit_reverse(64)
        mapping = {flow.source: flow.destination for flow in flows}
        for source, destination in mapping.items():
            assert mapping.get(destination, source) == source

    def test_palindromic_addresses_are_fixed(self):
        flows = bit_reverse(16)
        sources = {flow.source for flow in flows}
        assert 0 not in sources          # 0000
        assert 0b1001 not in sources     # palindrome
        assert 0b0110 not in sources     # palindrome


class TestOtherPatterns:
    def test_uniform_random_counts_and_reproducibility(self):
        a = uniform_random(9, flows_per_node=2, seed=7)
        b = uniform_random(9, flows_per_node=2, seed=7)
        assert len(a) == 18
        assert [flow.pair for flow in a] == [flow.pair for flow in b]

    def test_uniform_random_rejects_too_many_flows(self):
        with pytest.raises(TrafficError):
            uniform_random(4, flows_per_node=4)

    def test_uniform_random_no_self_flows(self):
        flows = uniform_random(9, flows_per_node=3, seed=1)
        assert all(flow.source != flow.destination for flow in flows)

    def test_hotspot(self):
        flows = hotspot(9, hotspot_node=4)
        assert len(flows) == 8
        assert all(flow.destination == 4 for flow in flows)

    def test_hotspot_with_background(self):
        flows = hotspot(9, hotspot_node=4, background_demand=0.5)
        assert len(flows) == 16

    def test_hotspot_invalid_node(self):
        with pytest.raises(TrafficError):
            hotspot(9, hotspot_node=9)

    def test_neighbor(self):
        flows = neighbor(8, stride=1)
        assert len(flows) == 8
        assert flows[0].destination == 1

    def test_neighbor_rejects_identity_stride(self):
        with pytest.raises(TrafficError):
            neighbor(8, stride=8)


class TestRegistry:
    def test_lookup_by_name(self):
        flows = synthetic_by_name("Bit_Complement", 16, demand=2.0)
        assert flows.name == "bit-complement"
        assert flows.max_demand() == 2.0

    def test_unknown_name(self):
        with pytest.raises(TrafficError):
            synthetic_by_name("tornado", 16)

    def test_unknown_name_lists_available_patterns(self):
        from repro.traffic import available_pattern_names

        with pytest.raises(TrafficError) as excinfo:
            synthetic_by_name("tornado", 16)
        message = str(excinfo.value)
        assert "tornado" in message
        for name in available_pattern_names():
            assert name in message

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(TrafficError, match="did you mean 'transpose'"):
            synthetic_by_name("transposed", 16)

    def test_whitespace_and_case_folded(self):
        flows = synthetic_by_name("  SHUFFLE ", 16)
        assert flows.name == "shuffle"

    @pytest.mark.parametrize("alias, canonical", [
        ("bitcomp", "bit-complement"),
        ("complement", "bit-complement"),
        ("bitrev", "bit-reverse"),
        ("reverse", "bit-reverse"),
        ("perfect_shuffle", "shuffle"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert synthetic_by_name(alias, 16).name == canonical

    def test_normalize_pattern_name(self):
        from repro.traffic import normalize_pattern_name

        assert normalize_pattern_name("Bit_Reverse") == "bit-reverse"
        assert normalize_pattern_name("bitcomp") == "bit-complement"
        with pytest.raises(TrafficError):
            normalize_pattern_name("")

    def test_available_pattern_names_sorted_and_canonical(self):
        from repro.traffic import available_pattern_names, pattern_specs

        names = available_pattern_names()
        assert names == sorted(names)
        assert set(names) == {spec.name for spec in pattern_specs()} == {
            "transpose", "bit-complement", "shuffle", "bit-reverse"}

    def test_alias_demand_forwarded(self):
        flows = synthetic_by_name("bitcomp", 16, demand=3.5)
        assert flows.max_demand() == 3.5

    def test_pattern_permutation(self):
        flows = transpose(16)
        mapping = pattern_permutation(flows, 16)
        assert mapping[1] == 4
        assert mapping[0] is None  # diagonal fixed point does not send

    def test_pattern_permutation_rejects_multi_destination(self):
        flows = hotspot(4, hotspot_node=0, background_demand=1.0)
        with pytest.raises(TrafficError):
            pattern_permutation(flows, 4)
