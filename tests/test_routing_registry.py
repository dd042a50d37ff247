"""Tests for the routing-algorithm registry."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    BSORRouting,
    O1TurnRouting,
    ROMMRouting,
    RoutingAlgorithm,
    ValiantRouting,
    XYRouting,
    YXRouting,
)
from repro.routing.registry import (
    _ROUTERS,
    available_routers,
    create_router,
    normalize_router_name,
    register_router,
    render_routing_guide,
    router_spec,
    router_specs,
)

EXPECTED_ROUTERS = {
    "dor": XYRouting,
    "yx": YXRouting,
    "romm": ROMMRouting,
    "valiant": ValiantRouting,
    "o1turn": O1TurnRouting,
    "bsor-milp": BSORRouting,
    "bsor-dijkstra": BSORRouting,
}


class TestResolution:
    def test_every_expected_router_is_registered(self):
        assert set(EXPECTED_ROUTERS) == set(available_routers())

    def test_all_routers_resolvable(self):
        for name, cls in EXPECTED_ROUTERS.items():
            router = create_router(name)
            assert isinstance(router, RoutingAlgorithm)
            assert isinstance(router, cls)

    def test_display_names_match_algorithm_names(self):
        for name in available_routers():
            spec = router_spec(name)
            assert create_router(name).name == spec.display_name

    def test_selector_variants_differ(self):
        assert create_router("bsor-milp").selector == "milp"
        assert create_router("bsor-dijkstra").selector == "dijkstra"

    def test_lookup_by_alias(self):
        assert router_spec("xy").name == "dor"
        assert router_spec("bsor").name == "bsor-dijkstra"
        assert router_spec("vlb").name == "valiant"

    def test_lookup_by_display_name(self):
        assert router_spec("BSOR-Dijkstra").name == "bsor-dijkstra"
        assert router_spec("O1TURN").name == "o1turn"

    def test_lookup_is_case_and_underscore_insensitive(self):
        assert router_spec("BSOR_DIJKSTRA").name == "bsor-dijkstra"
        assert router_spec("  Romm ").name == "romm"

    def test_unknown_name_lists_available(self):
        with pytest.raises(RoutingError) as excinfo:
            router_spec("wormhole")
        message = str(excinfo.value)
        for name in EXPECTED_ROUTERS:
            assert name in message

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(RoutingError, match="bsor-dijkstra"):
            router_spec("bsor-dijkstr")

    def test_normalize(self):
        assert normalize_router_name(" BSOR_MILP ") == "bsor-milp"


class TestOptions:
    def test_seed_forwarded_to_randomized_routers(self):
        assert create_router("romm", seed=7).seed == 7
        assert create_router("valiant", seed=7).seed == 7

    def test_irrelevant_options_dropped(self):
        # the shared option bag carries every option; DOR takes none of them
        router = create_router("dor", seed=3, hop_slack=4,
                               milp_time_limit=1.0)
        assert isinstance(router, XYRouting)

    def test_bsor_options_forwarded(self):
        router = create_router("bsor-milp", hop_slack=5, milp_time_limit=12.0)
        assert router.hop_slack == 5
        assert router.milp_time_limit == 12.0

    def test_none_options_mean_default(self):
        assert create_router("romm", seed=None).seed == 0

    def test_fresh_instance_per_call(self):
        assert create_router("dor") is not create_router("dor")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(RoutingError, match="already registered"):
            @register_router("dor", display_name="Duplicate")
            def factory():  # pragma: no cover - never registered
                return XYRouting()

    def test_duplicate_alias_rejected(self):
        with pytest.raises(RoutingError, match="already registered"):
            @register_router("fresh-name", display_name="Fresh",
                             aliases=("bsor",))
            def factory():  # pragma: no cover - never registered
                return XYRouting()
        # a rejected registration must not leave partial state behind
        assert "fresh-name" not in available_routers()

    def test_new_registration_resolvable(self):
        try:
            @register_router("test-router", display_name="TestRouter",
                             summary="test", mechanism="m",
                             deadlock_freedom="d", paper_section="-")
            def factory(*, seed: int = 0):
                router = XYRouting()
                router.name = "TestRouter"
                return router

            assert "test-router" in available_routers()
            assert create_router("test-router").name == "TestRouter"
            assert "TestRouter" in render_routing_guide()
        finally:
            _ROUTERS.remove("test-router")


class TestMetadata:
    def test_documentation_fields_complete(self):
        for spec in router_specs():
            assert spec.summary, spec.name
            assert spec.mechanism, spec.name
            assert spec.deadlock_freedom, spec.name
            assert spec.paper_section, spec.name

    def test_routing_guide_renders_every_router(self):
        guide = render_routing_guide()
        for spec in router_specs():
            assert f"## {spec.display_name} (`{spec.name}`)" in guide
            assert spec.mechanism in guide
            assert spec.deadlock_freedom in guide

    def test_accepted_options_reported(self):
        assert "seed" in router_spec("romm").accepted_options()
        assert "hop_slack" in router_spec("bsor-milp").accepted_options()
