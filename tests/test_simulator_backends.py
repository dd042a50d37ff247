"""Tests for the simulator-backend registry and kernel selection."""

import pytest

from repro.exceptions import SimulationError
from repro.routing import XYRouting
from repro.simulator import (
    BatchSimulator,
    BernoulliInjection,
    FastSimulator,
    NetworkSimulator,
    SimulationConfig,
    available_backends,
    backend_spec,
    backend_specs,
    create_simulator,
    register_backend,
    simulate_route_set,
)
from repro.simulator.backends import DEFAULT_BACKEND, _BACKENDS
from repro.traffic import FlowSet


@pytest.fixture
def point(mesh3):
    flows = FlowSet.from_tuples([(0, 8, 1.0)])
    routes = XYRouting().compute_routes(mesh3, flows)
    injection = BernoulliInjection(flows, offered_rate=0.1, seed=1)
    return mesh3, routes, injection


class TestRegistry:
    def test_all_kernels_registered(self):
        names = available_backends()
        assert names == ["reference", "fast", "batch"]
        assert backend_spec("reference").factory is NetworkSimulator
        assert backend_spec("fast").factory is FastSimulator
        assert backend_spec("batch").factory is BatchSimulator

    def test_only_the_batch_kernel_supports_batching(self):
        assert backend_spec("batch").supports_batching
        assert not backend_spec("reference").supports_batching
        assert not backend_spec("fast").supports_batching

    def test_default_backend_is_registered(self):
        assert DEFAULT_BACKEND in available_backends()
        assert SimulationConfig().backend == DEFAULT_BACKEND

    def test_aliases_and_display_names_resolve(self):
        assert backend_spec("ref").name == "reference"
        assert backend_spec("staged").name == "reference"
        assert backend_spec("event-skipping").name == "fast"
        assert backend_spec("event_skipping").name == "fast"  # _ folds to -
        assert backend_spec("Fast").name == "fast"
        assert backend_spec(" REFERENCE ").name == "reference"

    def test_unknown_backend_lists_known_and_suggests(self):
        with pytest.raises(SimulationError) as excinfo:
            backend_spec("fsat")
        message = str(excinfo.value)
        assert "fast" in message and "reference" in message
        assert "did you mean" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("fast")(FastSimulator)
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("brand-new", aliases=("ref",))(FastSimulator)
        assert "brand-new" not in available_backends()

    def test_specs_carry_documentation(self):
        for spec in backend_specs():
            assert spec.summary
            assert spec.mechanism
            assert spec.display_name

    def test_registering_and_removing_a_custom_backend(self):
        @register_backend("test-kernel", summary="unit-test stub")
        class StubKernel(NetworkSimulator):
            pass

        try:
            assert backend_spec("test-kernel").factory is StubKernel
        finally:
            _BACKENDS.remove("test-kernel")
        assert "test-kernel" not in available_backends()


class TestKernelSelection:
    def test_create_simulator_honours_config_backend(self, point,
                                                     tiny_sim_config):
        mesh, routes, injection = point
        reference = create_simulator(
            mesh, routes, tiny_sim_config.with_backend("reference"), injection)
        fast = create_simulator(
            mesh, routes, tiny_sim_config.with_backend("fast"), injection)
        assert isinstance(reference, NetworkSimulator)
        assert isinstance(fast, FastSimulator)

    def test_explicit_backend_overrides_config(self, point, tiny_sim_config):
        mesh, routes, injection = point
        kernel = create_simulator(
            mesh, routes, tiny_sim_config.with_backend("fast"), injection,
            backend="reference")
        assert isinstance(kernel, NetworkSimulator)

    def test_unknown_backend_fails_before_simulating(self, point,
                                                     tiny_sim_config):
        mesh, routes, injection = point
        with pytest.raises(SimulationError, match="unknown simulator backend"):
            create_simulator(mesh, routes,
                             tiny_sim_config.with_backend("warp-drive"),
                             injection)

    def test_simulate_route_set_accepts_backend_override(self, point,
                                                         tiny_sim_config):
        mesh, routes, _ = point
        by_name = {
            backend: simulate_route_set(mesh, routes, tiny_sim_config, 0.1,
                                        backend=backend)
            for backend in available_backends()
        }
        assert by_name["reference"] == by_name["fast"]

    def test_with_backend_round_trip(self, tiny_sim_config):
        assert tiny_sim_config.with_backend("reference").backend == "reference"
        # the original is untouched (frozen dataclass semantics)
        assert tiny_sim_config.backend == DEFAULT_BACKEND
