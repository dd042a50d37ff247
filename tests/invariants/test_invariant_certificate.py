"""Invariant: a stored certificate proves exactly what the analysis proves.

A route plan is stored with the topological ranks
:func:`~repro.routing.deadlock.analyze_virtual_networks` proved its route
set acyclic with, and a load accepts it when
:func:`~repro.routing.deadlock.certifies` does — a linear pass instead of a
graph.  On random route sets (random simple walks on small meshes, often
with four routes chasing each other round a unit square; physical or
virtual channels; random virtual-network splits), about one in six of them
cyclic:

* the analysis' own ranks are accepted exactly when the analysis says
  deadlock free, and so is any order-preserving relabelling of them;
* no rank table makes a cyclic set accepted: not a random one, not one
  read off the routes in first-seen order (the forger's best guess);
* a table that is accepted proves something: the analysis agrees.
"""

from __future__ import annotations

from hypothesis import HealthCheck, find, given, settings, strategies as st

from repro.routing import RouteSet, analyze_virtual_networks, certifies
from repro.routing.base import Route
from repro.routing.deadlock import _split
from repro.topology import Mesh2D
from repro.topology.links import VirtualChannel
from repro.traffic import FlowSet


def _square(draw, mesh):
    """The four routes of one unit square chasing each other (two hops
    each, one direction): a dependence cycle unless a split breaks it."""
    x = draw(st.integers(0, mesh.width - 2))
    y = draw(st.integers(0, mesh.height - 2))
    corners = [mesh.node_at(x, y), mesh.node_at(x + 1, y),
               mesh.node_at(x + 1, y + 1), mesh.node_at(x, y + 1)]
    if draw(st.booleans()):
        corners.reverse()
    return [[corners[index], corners[(index + 1) % 4],
             corners[(index + 2) % 4]] for index in range(4)]


def _walk(draw, mesh):
    path = [draw(st.sampled_from(list(mesh.nodes)))]
    for _ in range(draw(st.integers(1, 5))):
        onward = [channel.dst for channel in mesh.out_channels(path[-1])
                  if channel.dst not in path]
        if not onward:
            break
        path.append(draw(st.sampled_from(onward)))
    return path


@st.composite
def route_sets(draw):
    """(route set, phase boundaries): random simple walks on a mesh, often
    with a chasing square among them."""
    mesh = Mesh2D(draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    flows = FlowSet(name="walks")
    route_set = RouteSet(mesh, flows, algorithm="random-walks")
    boundaries = {}
    # physical channels, one virtual channel, or a lane drawn per hop
    lanes = draw(st.sampled_from([None, (0,), (0, 1)]))
    paths = [_walk(draw, mesh) for _ in range(draw(st.integers(0, 5)))]
    if draw(st.integers(0, 2)) > 0:
        paths += _square(draw, mesh)
    for path in draw(st.permutations(paths)):
        if len(path) < 2:
            continue
        flow = flows.add_flow(path[0], path[-1], 1.0)
        channels = [mesh.channel(a, b) for a, b in zip(path, path[1:])]
        if lanes is not None:
            channels = [VirtualChannel(channel, draw(st.sampled_from(lanes)))
                        for channel in channels]
        route_set.add_path(flow, channels)
        if draw(st.integers(0, 3)) == 0:
            boundaries[flow.name] = draw(st.integers(0, len(channels)))
    return route_set, boundaries


def _used(route_set, boundaries):
    """Per virtual network, every resource it uses, in first-seen order."""
    used = ({}, {})
    for route in route_set:
        for network, hops in enumerate(_split(route, boundaries)):
            used[network].update(dict.fromkeys(hops))
    return [list(resources) for resources in used]


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_the_generator_draws_both_verdicts():
    for verdict in (False, True):
        find(route_sets(), lambda subject, verdict=verdict:
             analyze_virtual_networks(*subject).deadlock_free == verdict)


@given(route_sets(), st.integers(1, 7), st.integers(-50, 50))
@SETTINGS
def test_the_analysis_ranks_are_accepted_exactly_when_acyclic(
        subject, scale, shift):
    route_set, boundaries = subject
    report = analyze_virtual_networks(route_set, boundaries)
    if not report.deadlock_free:
        assert report.ranks is None
        return
    assert certifies(route_set, boundaries, report.ranks)
    relabelled = [{resource: scale * rank + shift
                   for resource, rank in table.items()}
                  for table in report.ranks]
    assert certifies(route_set, boundaries, relabelled)


@given(route_sets(), st.randoms(use_true_random=False))
@SETTINGS
def test_no_relabelling_makes_a_cyclic_set_accepted(subject, random):
    route_set, boundaries = subject
    deadlock_free = analyze_virtual_networks(route_set,
                                             boundaries).deadlock_free
    used = _used(route_set, boundaries)
    first_seen = [{resource: rank for rank, resource in enumerate(resources)}
                  for resources in used]
    shuffled = []
    for resources in used:
        ranks = list(range(len(resources)))
        random.shuffle(ranks)
        shuffled.append(dict(zip(resources, ranks)))
    for ranks in (first_seen, shuffled):
        if certifies(route_set, boundaries, ranks):
            assert deadlock_free


@given(route_sets())
@SETTINGS
def test_a_rank_of_another_type_is_never_accepted(subject):
    route_set, boundaries = subject
    report = analyze_virtual_networks(route_set, boundaries)
    if not report.deadlock_free:
        return
    for cast in (float, str, bool):
        for network, table in enumerate(report.ranks):
            for resource in table:
                forged = [dict(ranks) for ranks in report.ranks]
                forged[network][resource] = cast(table[resource])
                assert not certifies(route_set, boundaries, forged)


def test_hops_that_are_not_chained_are_rejected_whatever_their_ranks():
    """:class:`Route` refuses a broken chain at construction; the
    certificate does not lean on that and checks the chain itself."""
    mesh = Mesh2D(4)
    flows = FlowSet(name="broken")
    flow = flows.add_flow(0, 3, 1.0)
    hops = (mesh.channel(0, 1), mesh.channel(2, 3))
    broken = object.__new__(Route)
    object.__setattr__(broken, "flow", flow)
    object.__setattr__(broken, "resources", hops)
    route_set = RouteSet(mesh, flows)
    route_set.add(broken)
    assert not certifies(route_set, {}, [{hops[0]: 0, hops[1]: 1}])
    assert certifies(route_set, {flow.name: 1},
                     [{hops[0]: 0}, {hops[1]: 0}])
