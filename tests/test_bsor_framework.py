"""Tests for the BSOR framework (CDG exploration and best-route selection)."""

import pytest

from repro.exceptions import RoutingError
from repro.routing import (
    BSORRouting,
    XYRouting,
    YXRouting,
    bsor_dijkstra,
    bsor_milp,
    check_deadlock_freedom,
    paper_strategies,
)
from repro.routing.bsor import (
    CDGStrategy,
    ad_hoc_strategy,
    all_two_turn_strategies,
    full_strategy_set,
    turn_model_strategy,
    two_turn_strategy,
    vc_escalation_strategy,
    virtual_network_strategy,
)
from repro.cdg import TurnModel
from repro.topology import CLOCKWISE_TURNS, COUNTERCLOCKWISE_TURNS, Mesh2D
from repro.traffic import FlowSet, transpose


class TestStrategies:
    def test_paper_strategy_set_has_five_columns(self):
        strategies = paper_strategies()
        assert len(strategies) == 5
        names = [strategy.name for strategy in strategies]
        assert names[:3] == ["north-last", "west-first", "negative-first"]
        assert names[3].startswith("ad-hoc")

    def test_turn_model_strategy_builds_acyclic_cdg(self, mesh3):
        cdg = turn_model_strategy(TurnModel.WEST_FIRST).build(mesh3)
        assert cdg.is_acyclic()

    def test_ad_hoc_strategy_builds_acyclic_cdg(self, mesh3):
        cdg = ad_hoc_strategy(3).build(mesh3)
        assert cdg.is_acyclic()

    def test_two_turn_strategy(self, mesh3):
        strategy = two_turn_strategy(CLOCKWISE_TURNS[0], COUNTERCLOCKWISE_TURNS[0])
        cdg = strategy.build(mesh3)
        assert cdg.is_acyclic()
        assert cdg.num_removed_edges == 8

    def test_all_two_turn_strategies_number_twelve(self, mesh3):
        """Glass & Ni: of the 16 two-turn prohibitions, 12 are deadlock free.
        These are the 12 turn-model CDGs the paper explores."""
        assert len(all_two_turn_strategies(mesh3)) == 12

    @pytest.mark.parametrize("size", [3, 4, 8])
    def test_exactly_twelve_on_any_mesh_and_which_four_are_not(self, size):
        strategies = all_two_turn_strategies(Mesh2D(size))
        assert len(strategies) == 12
        # the four rejected prohibitions leave both cycle orientations
        # intact: an acyclic-looking name that is missing is a bug
        names = {strategy.name for strategy in strategies}
        candidates = {
            two_turn_strategy(clockwise, counterclockwise).name
            for clockwise in CLOCKWISE_TURNS
            for counterclockwise in COUNTERCLOCKWISE_TURNS}
        assert len(candidates) == 16 and names < candidates

    def test_a_raising_builder_propagates_out_of_the_probe(self, mesh3,
                                                           monkeypatch):
        """Only a cyclic candidate is "not a turn model".  The probe used
        to swallow every exception, so a genuine bug in a builder silently
        shrank the paper's 12-model exploration."""
        from repro.cdg import turn_model

        def broken(cdg, turns):
            raise ZeroDivisionError("a bug in the builder")

        monkeypatch.setattr(turn_model, "prohibited_edges", broken)
        with pytest.raises(ZeroDivisionError, match="a bug in the builder"):
            all_two_turn_strategies(mesh3)

    def test_full_strategy_set(self, mesh3):
        strategies = full_strategy_set(mesh3)
        assert len(strategies) == 15

    def test_vc_escalation_strategy(self, mesh3):
        cdg = vc_escalation_strategy(TurnModel.WEST_FIRST).build(mesh3, num_vcs=2)
        assert cdg.is_acyclic()

    def test_virtual_network_strategy(self, mesh3):
        strategy = virtual_network_strategy([TurnModel.WEST_FIRST,
                                             TurnModel.NORTH_LAST])
        cdg = strategy.build(mesh3, num_vcs=2)
        assert cdg.is_acyclic()


class TestFrameworkExploration:
    def test_exploration_records_every_strategy(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra")
        bsor.explore(mesh4, transpose4)
        assert len(bsor.exploration) == 5
        assert set(bsor.exploration_table()) == \
            {strategy.name for strategy in paper_strategies()}

    def test_milp_exploration_keeps_every_solve(self, mesh4, transpose4):
        """Solver diagnostics are results: one MILPSolution per CDG, on the
        entry and through ``solver_diagnostics``."""
        bsor = BSORRouting(selector="milp", milp_time_limit=30)
        bsor.compute_routes(mesh4, transpose4)
        assert all(entry.solution is not None and entry.solution.optimal
                   for entry in bsor.exploration)
        diagnostics = bsor.solver_diagnostics()
        assert list(diagnostics) == [strategy.name
                                     for strategy in bsor.strategies]
        for entry in bsor.exploration:
            solution = diagnostics[entry.strategy_name]
            assert solution is entry.solution
            assert solution.mcl == entry.mcl
            assert solution.wall_seconds > 0 and not solution.time_limit_hit

    def test_other_routers_report_no_solves(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra")
        bsor.compute_routes(mesh4, transpose4)
        assert bsor.solver_diagnostics() == {}
        assert all(entry.solution is None for entry in bsor.exploration)
        assert XYRouting().solver_diagnostics() == {}

    def test_a_solve_cut_short_is_kept_on_the_failed_entry(self, mesh4,
                                                           transpose4):
        bsor = BSORRouting(selector="milp", milp_time_limit=1e-9)
        with pytest.raises(RoutingError, match="no feasible routes"):
            bsor.compute_routes(mesh4, transpose4)
        assert len(bsor.exploration) == 5
        for entry in bsor.exploration:
            assert not entry.succeeded and "Time limit" in entry.error
            assert entry.solution.time_limit_hit
            assert not entry.solution.optimal

    def test_best_entry_has_lowest_mcl(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra")
        bsor.explore(mesh4, transpose4)
        best = bsor.best_entry()
        mcls = [entry.mcl for entry in bsor.exploration if entry.succeeded]
        assert best.mcl == min(mcls)

    def test_compute_routes_returns_best(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra")
        routes = bsor.compute_routes(mesh4, transpose4)
        assert routes.max_channel_load() == bsor.best_entry().mcl

    def test_best_entry_requires_exploration(self):
        with pytest.raises(RoutingError):
            BSORRouting().best_entry()

    def test_invalid_selector(self):
        with pytest.raises(RoutingError):
            BSORRouting(selector="annealing")

    def test_invalid_vc_count(self):
        with pytest.raises(RoutingError):
            BSORRouting(num_vcs=0)

    def test_shorthand_constructors(self):
        assert bsor_milp().name == "BSOR-MILP"
        assert bsor_dijkstra().name == "BSOR-Dijkstra"


class TestBSOREndToEnd:
    def test_dijkstra_beats_or_matches_dor_on_transpose(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra")
        routes = bsor.compute_routes(mesh4, transpose4)
        xy = XYRouting().compute_routes(mesh4, transpose4)
        assert routes.max_channel_load() <= xy.max_channel_load()
        assert check_deadlock_freedom(routes).deadlock_free

    def test_milp_beats_or_matches_dijkstra(self, mesh4, transpose4):
        milp_routes = BSORRouting(selector="milp",
                                  milp_time_limit=30).compute_routes(mesh4, transpose4)
        dijkstra_routes = BSORRouting(selector="dijkstra").compute_routes(
            mesh4, transpose4
        )
        assert milp_routes.max_channel_load() <= \
            dijkstra_routes.max_channel_load() + 1e-9

    @pytest.mark.slow
    def test_paper_headline_result_8x8_transpose(self, mesh8):
        """Tables 6.1/6.3: exploring the full CDG set, BSOR reaches MCL 75
        on 8x8 transpose while XY/YX stay at 175 (25 MB/s per flow)."""
        flows = transpose(64, demand=25.0)
        bsor = BSORRouting(selector="dijkstra",
                           strategies=full_strategy_set(mesh8))
        routes = bsor.compute_routes(mesh8, flows)
        assert routes.max_channel_load() == 75.0
        assert XYRouting().compute_routes(mesh8, flows).max_channel_load() == 175.0

    def test_multi_vc_bsor_statically_allocates(self, mesh4, transpose4):
        bsor = BSORRouting(selector="dijkstra", num_vcs=2)
        routes = bsor.compute_routes(mesh4, transpose4)
        assert routes.is_statically_vc_allocated()
        assert check_deadlock_freedom(routes).deadlock_free

    def test_failed_strategies_are_reported_not_fatal(self, mesh4, transpose4):
        """A strategy whose CDG cannot route every flow is recorded with an
        error but does not abort the framework as long as another works."""

        def broken_builder(topology, num_vcs):
            from repro.cdg import ChannelDependenceGraph

            cdg = ChannelDependenceGraph.from_topology(topology, num_vcs=num_vcs)
            # delete every dependence edge: nothing beyond one hop is routable
            cdg.remove_edges(list(cdg.edges))
            return cdg

        strategies = [CDGStrategy("broken", broken_builder),
                      turn_model_strategy(TurnModel.WEST_FIRST)]
        bsor = BSORRouting(selector="dijkstra", strategies=strategies)
        routes = bsor.compute_routes(mesh4, transpose4)
        assert routes.is_complete()
        table = bsor.exploration_table()
        assert table["broken"] is None
        assert table["west-first"] is not None

    def test_all_strategies_failing_raises(self, mesh4, transpose4):
        def broken_builder(topology, num_vcs):
            from repro.cdg import ChannelDependenceGraph

            cdg = ChannelDependenceGraph.from_topology(topology, num_vcs=num_vcs)
            cdg.remove_edges(list(cdg.edges))
            return cdg

        bsor = BSORRouting(selector="dijkstra",
                           strategies=[CDGStrategy("broken", broken_builder)])
        with pytest.raises(RoutingError):
            bsor.compute_routes(mesh4, transpose4)
