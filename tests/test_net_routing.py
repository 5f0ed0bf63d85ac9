"""Routing equivalence: :meth:`Topology.route` against networkx.

``Topology`` routes with its own port of networkx's bidirectional
Dijkstra.  Random connected topologies with deliberate ties (zero-latency
links, which route at weight 1e-9, and repeated latencies) must resolve
to the same node path as ``networkx.shortest_path(..., weight="weight")``
on the equivalent graph, node for node.  networkx is a test oracle only.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EndpointError
from repro.net import Topology

nx = pytest.importorskip("networkx")

#: Few distinct latencies, zero among them, so equal-cost routes abound.
LATENCIES = (0.0, 0.0, 1e-3, 1e-3, 2e-3, 5e-4)


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    order = draw(st.permutations(range(n)))
    names = [f"n{i}" for i in order]
    # A random spanning tree keeps the graph connected ...
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    # ... and extra links add the alternative (often equal-cost) routes.
    for _ in range(draw(st.integers(0, 2 * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        edges.append((names[i], names[j]))
    topo, graph = Topology(), nx.Graph()
    for name in names:
        topo.add_node(name)
        graph.add_node(name)
    for a, b in edges:
        if a == b or graph.has_edge(a, b):
            continue
        latency = draw(st.sampled_from(LATENCIES))
        topo.add_link(a, b, 1e9, latency)
        graph.add_edge(a, b, weight=latency if latency > 0 else 1e-9)
    return topo, graph


def _node_path(topo: Topology, src: str, dst: str) -> list[str]:
    nodes = [src]
    for link in topo.route(src, dst):
        nodes.append(link.b if link.a == nodes[-1] else link.a)
    return nodes


@settings(max_examples=150, deadline=None)
@given(topologies())
def test_route_matches_networkx_shortest_path(case):
    topo, graph = case
    for src in graph.nodes:
        for dst in graph.nodes:
            expected = nx.shortest_path(graph, src, dst, weight="weight")
            assert _node_path(topo, src, dst) == expected


def test_unknown_and_disconnected_endpoints_raise():
    topo = Topology()
    for name in ("a", "b", "c", "d"):
        topo.add_node(name)
    topo.add_link("a", "b", 1e9, 1e-3)
    topo.add_link("c", "d", 1e9)
    with pytest.raises(EndpointError, match="unknown node"):
        topo.route("a", "zz")
    with pytest.raises(EndpointError, match="unknown node"):
        topo.route("zz", "a")
    for _ in range(2):  # failed lookups are not memoized
        with pytest.raises(EndpointError, match="no route"):
            topo.route("a", "d")
    with pytest.raises(EndpointError, match="no route"):
        topo.path_latency("b", "c")
    assert topo.route("a", "a") == []
