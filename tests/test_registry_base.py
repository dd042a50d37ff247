"""Tests for the shared registry core (:mod:`repro.registry`).

The routing, workload, simulator-backend, execution-backend and
synthetic-pattern registries are all one :class:`~repro.registry.Registry`
of :class:`~repro.registry.Spec` subclasses; these tests cover the shared
behaviors directly and then assert the instances stay consistent with each
other (same normalization, same error shapes, same alias semantics).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exceptions import (
    ReproError,
    RoutingError,
    SimulationError,
    TrafficError,
)
from repro.registry import Registry, Spec, normalize_name


class StubError(ReproError):
    pass


def make_registry() -> Registry:
    return Registry(kind="widget", plural="widgets", noun="widget name",
                    error=StubError)


class TestNormalizeName:
    def test_folds_case_whitespace_and_underscores(self):
        assert normalize_name("  Bit_Complement ") == "bit-complement"

    def test_idempotent(self):
        assert normalize_name(normalize_name("A_b-C")) == normalize_name("A_b-C")


class TestRegistryCore:
    def test_registration_order_preserved(self):
        registry = make_registry()
        registry.add("beta", object())
        registry.add("alpha", object())
        assert registry.names() == ["beta", "alpha"]
        assert len(registry.specs()) == 2

    def test_alias_and_canonical_resolve_to_same_spec(self):
        registry = make_registry()
        spec = object()
        registry.add("alpha", spec, extra_keys=["al", "first"])
        assert registry.lookup("alpha") is spec
        assert registry.lookup("AL") is spec
        assert registry.lookup("first") is spec
        assert registry.is_registered("al")
        assert not registry.is_registered("nope")

    def test_duplicate_canonical_name_rejected(self):
        registry = make_registry()
        registry.add("alpha", object())
        with pytest.raises(StubError, match="already registered"):
            registry.add("alpha", object())

    def test_duplicate_alias_rejected_with_owner(self):
        registry = make_registry()
        registry.add("alpha", object(), extra_keys=["shared"])
        with pytest.raises(StubError, match=r"widget name 'shared' is "
                                            r"already registered \(by "
                                            r"'alpha'\)"):
            registry.add("beta", object(), extra_keys=["shared"])

    def test_self_colliding_keys_within_one_registration_fold(self):
        # a display name that normalizes to the canonical name must not
        # reject its own registration (e.g. router "yx" displayed as "YX")
        registry = make_registry()
        registry.add("yx", object(), extra_keys=["yx"])
        assert registry.lookup("yx") is registry.specs()[0]

    def test_unknown_name_gets_did_you_mean_and_full_list(self):
        registry = make_registry()
        registry.add("alpha", object())
        registry.add("gamma", object())
        with pytest.raises(StubError) as excinfo:
            registry.lookup("alpah")
        message = str(excinfo.value)
        assert "unknown widget 'alpah'" in message
        assert "did you mean 'alpha'" in message
        assert "['alpha', 'gamma']" in message

    def test_unknown_name_without_close_match_has_no_hint(self):
        registry = make_registry()
        registry.add("alpha", object())
        with pytest.raises(StubError) as excinfo:
            registry.lookup("zzzzzzzz")
        assert "did you mean" not in str(excinfo.value)


@dataclass(frozen=True)
class WidgetSpec(Spec):
    colour: str = "grey"


def make_widget(*, size: int = 1, label: str = "w"):
    return ("widget", size, label)


class TestRegisterAndRemove:
    def test_register_builds_the_registrys_spec_type(self):
        registry = Registry(WidgetSpec, kind="widget", plural="widgets",
                            noun="widget name", error=StubError)
        decorated = registry.register(
            "Big_Widget", display_name="The Widget", aliases=("BW",),
            summary="s", colour="red")(make_widget)
        assert decorated is make_widget  # a decorator: hands the factory back
        spec = registry.lookup("bw")
        assert type(spec) is WidgetSpec
        assert (spec.name, spec.display_name, spec.aliases, spec.summary,
                spec.colour) == ("big-widget", "The Widget", ("bw",), "s",
                                 "red")
        assert registry.lookup("the widget") is spec  # display name accepted
        # the display name defaults to the name, metadata to the spec's
        registry.register("plain")(make_widget)
        assert registry.lookup("plain").display_name == "plain"
        assert registry.lookup("plain").colour == "grey"
        with pytest.raises(TypeError):  # not a field of the spec type
            registry.register("odd", flavour="sour")(make_widget)

    def test_register_rejects_a_clashing_alias_naming_the_owner(self):
        registry = make_registry()
        registry.register("alpha", aliases=("shared",))(make_widget)
        with pytest.raises(StubError, match=r"widget name 'shared' is "
                                            r"already registered \(by "
                                            r"'alpha'\)"):
            registry.register("beta", aliases=("shared",))(make_widget)
        with pytest.raises(StubError, match="already registered"):
            registry.register("gamma", display_name="Alpha")(make_widget)
        assert registry.names() == ["alpha"]  # nothing half-registered

    def test_remove_forgets_one_entry_and_nothing_else(self):
        registry = make_registry()
        registry.register("alpha", display_name="First",
                          aliases=("al",))(make_widget)
        registry.register("beta", aliases=("be",))(make_widget)
        registry.remove("AL")  # any accepted spelling names the entry
        assert registry.names() == ["beta"]
        assert sorted(registry.alias_map) == ["be", "beta"]
        for spelling in ("alpha", "al", "first"):
            assert not registry.is_registered(spelling)
        # the freed spellings can be registered again
        registry.register("alpha", aliases=("first",))(make_widget)
        with pytest.raises(StubError, match="unknown widget 'nope'"):
            registry.remove("nope")


class TestSpecOptions:
    def test_received_options_drop_undeclared_and_none(self):
        spec = Spec(name="w", factory=make_widget, display_name="W")
        assert spec.accepted_options() == ("size", "label")
        assert spec.received_options(size=3, label=None, colour="red") == \
            {"size": 3}
        assert spec.create(size=3, label=None, colour="red") == \
            ("widget", 3, "w")

    def test_registry_create_filters_like_the_spec(self):
        registry = make_registry()
        registry.register("w")(make_widget)
        assert registry.create("W", size=2, seed=7) == ("widget", 2, "w")

    def test_a_spec_overriding_create_is_honoured(self):
        @dataclass(frozen=True)
        class PositionalSpec(Spec):
            def create(self, first, second=None):
                return self.factory(first, second)  # no option filtering

        registry = Registry(PositionalSpec, kind="widget", plural="widgets",
                            noun="widget name", error=StubError)
        registry.register("pair")(lambda *pair: pair)
        assert registry.create("pair", first=1, second=2) == (1, 2)
        with pytest.raises(TypeError):  # the override's signature rules
            registry.create("pair", first=1, third=3)


class TestSharedInstancesStayConsistent:
    """The production registries behave identically on the base."""

    def test_routing_error_shape(self):
        from repro.routing.registry import router_spec

        with pytest.raises(RoutingError, match="unknown routing algorithm "
                                               "'dro'.*did you mean"):
            router_spec("dro")

    def test_workload_error_shape(self):
        from repro.workloads.registry import workload_spec

        with pytest.raises(TrafficError, match="unknown workload"):
            workload_spec("decoder-pipelin")

    def test_backend_error_shape(self):
        from repro.simulator.backends import backend_spec

        with pytest.raises(SimulationError, match="unknown simulator "
                                                  "backend"):
            backend_spec("fsat")

    def test_all_three_share_one_implementation(self):
        from repro.routing import registry as routing
        from repro.runner import backends as executions
        from repro.simulator import backends
        from repro.traffic import synthetic
        from repro.workloads import registry as workloads

        for module, attr, listing in (
                (routing, "_ROUTERS", routing.router_specs),
                (workloads, "_WORKLOADS", workloads.workload_specs),
                (backends, "_BACKENDS", backends.backend_specs),
                (executions, "_EXECUTIONS", executions.execution_specs),
                (synthetic, "_PATTERNS", synthetic.pattern_specs)):
            instance = getattr(module, attr)
            assert type(instance) is Registry
            # the module's entry points are the instance's own methods
            assert listing == instance.specs
            assert listing(), attr
            for spec in listing():
                assert isinstance(spec, instance.spec_type)
                assert isinstance(spec, Spec)
                for spelling in (spec.name, *spec.aliases,
                                 spec.display_name):
                    assert instance.lookup(spelling) is spec

    def test_case_and_underscore_folding_everywhere(self):
        from repro.routing.registry import router_spec
        from repro.simulator.backends import backend_spec
        from repro.workloads.registry import workload_spec

        assert router_spec("BSOR_Dijkstra").name == "bsor-dijkstra"
        assert workload_spec("Decoder_Pipeline").name == "decoder-pipeline"
        assert backend_spec("Event_Skipping").name == "fast"
