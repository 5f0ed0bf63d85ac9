"""Network topology: hosts, switches, and capacity/latency-weighted links.

The testbed mirrors Sec. 2.1: PicoProbe user machines behind a 1 Gbps
switch, the ANL backbone at up to 200 Gbps, and the ALCF systems (Eagle
storage, Polaris).  Routing is latency-weighted shortest path over a
dict-of-dicts adjacency, by a port of networkx's bidirectional Dijkstra
so equal-cost ties resolve to the routes networkx would pick.

The graph is static once a campaign starts, yet the fabric asks for a
route on every streamed chunk, so :class:`Topology` memoizes each
resolved (src, dst) route with its latency sum and clears the memo
whenever a node or link is added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from ..errors import EndpointError

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """An undirected link with a shared capacity (bytes/s) and one-way
    latency (seconds)."""

    a: str
    b: str
    capacity_bps: float  # bytes per second, shared across streams
    latency_s: float = 0.0
    #: Endpoint pair in sorted order: the link's identity in capacity and
    #: user maps.  Set once here because the fabric reads it per stream
    #: per link on every reallocation.
    key: tuple[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        object.__setattr__(self, "key", (a, b) if a <= b else (b, a))


def _bidirectional_dijkstra(
    adj: dict[str, dict[str, float]], source: str, target: str
) -> Optional[list[str]]:
    """Node path of a least-weight ``source`` -> ``target`` route, or None.

    A port of networkx 3.6 ``bidirectional_dijkstra`` on an undirected
    graph: the same heap entries ``(dist, counter, node)``, the same
    forward/backward alternation starting forward, and the same
    ``meetnode`` update (strictly shorter only), so every tie between
    equal-cost routes breaks the way ``nx.shortest_path(G, s, t,
    weight="weight")`` breaks it.  Weights are positive, so networkx's
    negative-weight check cannot fire and is left out.
    """
    if source == target:
        return [source]
    dists: tuple[dict[str, float], dict[str, float]] = ({}, {})
    preds: tuple[dict[str, Optional[str]], dict[str, Optional[str]]] = (
        {source: None},
        {target: None},
    )
    seen: tuple[dict[str, float], dict[str, float]] = ({source: 0}, {target: 0})
    fringe: tuple[list, list] = ([], [])
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    finaldist: Optional[float] = None
    meetnode: Optional[str] = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            path = [meetnode]
            while preds[0][path[-1]] is not None:
                path.append(preds[0][path[-1]])
            path.reverse()
            while preds[1][path[-1]] is not None:
                path.append(preds[1][path[-1]])
            return path
        for w, cost in adj[v].items():
            vw_length = dist + cost
            if w in dists[direction]:
                continue
            if w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    finaldist_w = vw_length + seen[1 - direction][w]
                    if finaldist is None or finaldist > finaldist_w:
                        finaldist, meetnode = finaldist_w, w
    return None


class Topology:
    """Named nodes + capacity links with shortest-path routing."""

    def __init__(self) -> None:
        #: node -> kind, in insertion order.
        self._kinds: dict[str, str] = {}
        #: node -> neighbour -> routing weight, insertion-ordered like
        #: ``nx.Graph._adj`` (the order the shortest-path port relies on
        #: for its tie-breaks).
        self._adj: dict[str, dict[str, float]] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: (src, dst) -> (links, latency sum) of every route resolved
        #: since the graph last changed.  Failed lookups are not stored,
        #: so their errors raise on every call.
        self._routes: dict[tuple[str, str], tuple[tuple[Link, ...], float]] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, name: str, kind: str = "host") -> None:
        """Add a host or switch (``kind`` is informational)."""
        if name in self._kinds:
            raise EndpointError(f"node already exists: {name!r}")
        self._kinds[name] = kind
        self._adj[name] = {}
        self._routes.clear()

    def add_link(self, a: str, b: str, capacity_bps: float, latency_s: float = 0.0) -> Link:
        """Connect two existing nodes."""
        for n in (a, b):
            if n not in self._kinds:
                raise EndpointError(f"unknown node: {n!r}")
        if a == b:
            raise EndpointError("self-links are not allowed")
        if capacity_bps <= 0:
            raise EndpointError(f"capacity must be positive, got {capacity_bps}")
        link = Link(a, b, float(capacity_bps), float(latency_s))
        if link.key in self._links:
            raise EndpointError(f"link already exists: {link.key}")
        self._links[link.key] = link
        weight = latency_s if latency_s > 0 else 1e-9
        self._adj[a][b] = weight
        self._adj[b][a] = weight
        self._routes.clear()
        return link

    # -- queries -----------------------------------------------------------
    def nodes(self) -> list[str]:
        return sorted(self._kinds)

    def node_kind(self, name: str) -> str:
        try:
            return self._kinds[name]
        except KeyError:
            raise EndpointError(f"unknown node: {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise EndpointError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> list[Link]:
        return sorted(self._links.values(), key=lambda l: l.key)

    def _resolve(self, src: str, dst: str) -> tuple[tuple[Link, ...], float]:
        """Memoized (links, latency sum) of the ``src`` -> ``dst`` route."""
        hit = self._routes.get((src, dst))
        if hit is not None:
            return hit
        for n in (src, dst):
            if n not in self._kinds:
                raise EndpointError(f"unknown node: {n!r}")
        nodes = _bidirectional_dijkstra(self._adj, src, dst)
        if nodes is None:
            raise EndpointError(f"no route from {src!r} to {dst!r}")
        links = tuple(self.link(a, b) for a, b in zip(nodes, nodes[1:]))
        hit = self._routes[(src, dst)] = (links, sum(l.latency_s for l in links))
        return hit

    def route(self, src: str, dst: str) -> list[Link]:
        """Latency-weighted shortest path as a (fresh) list of links."""
        return list(self._resolve(src, dst)[0])

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of one-way link latencies along the route."""
        return self._resolve(src, dst)[1]

    def bottleneck_capacity(self, src: str, dst: str) -> float:
        """Smallest link capacity along the route (inf for src == dst)."""
        links = self._resolve(src, dst)[0]
        return min((l.capacity_bps for l in links), default=float("inf"))
