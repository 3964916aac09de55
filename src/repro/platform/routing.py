"""Routing tables: topology graphs + deterministic shortest paths.

The interconnect kinds expand into a small directed graph of *ports*
(node NICs, leaf switches, a spine) connected by directed links, and a
breadth-first shortest-path table maps every ``(src node, dst node)``
pair to the sequence of links its messages traverse.  The fabric then
charges **every hop**: each directed link is a virtual-time fluid-flow
:class:`~repro.sim.link.FairShareLink` shared by all messages crossing
it, so congestion (fat-tree oversubscription, ring neighbor traffic)
emerges from routing rather than being scripted.

Determinism: adjacency lists are built in a fixed order and BFS visits
them in that order, so equal-length paths always resolve the same way
(rings break ties toward the increasing-index direction).  The table is
a pure function of the topology — two clusters built from equal
topologies route identically.

``flat`` interconnects return no table: the full-bisection fabric keeps
the calibrated single-hop LogGP model (sender NIC serialization + one
wire latency), which is what the paper's Greina testbed is calibrated
against and what the golden-timestamp fixtures pin down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DCudaUsageError
from .topology import LinkSpec, Topology

__all__ = ["RouteLink", "RoutingTable", "build_routing"]


@dataclass(frozen=True)
class RouteLink:
    """One directed physical link of the interconnect graph."""

    name: str
    bandwidth: float  # B/s
    latency: float    # s, one hop


class RoutingTable:
    """Shortest-path routes over the interconnect graph.

    Attributes:
        links: ``name -> RouteLink`` for every directed link.
        routes: ``(src node, dst node) -> tuple of link names`` for every
            ordered pair of distinct nodes.
    """

    def __init__(self, links: Dict[str, RouteLink],
                 routes: Dict[Tuple[int, int], Tuple[str, ...]]):
        self.links = links
        self.routes = routes

    def route(self, src: int, dst: int) -> Tuple[str, ...]:
        """Link names the ``src -> dst`` message traverses, in order."""
        try:
            return self.routes[(src, dst)]
        except KeyError:
            raise DCudaUsageError(
                f"no route from node {src} to node {dst}") from None

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def path_latency(self, src: int, dst: int) -> float:
        """Sum of per-hop latencies on the ``src -> dst`` route."""
        return sum(self.links[name].latency for name in self.route(src, dst))


def _bfs_routes(num_nodes: int, links: Dict[str, RouteLink],
                adjacency: Dict[str, List[Tuple[str, str]]]
                ) -> Dict[Tuple[int, int], Tuple[str, ...]]:
    """All-pairs node routes via per-source BFS (deterministic order)."""
    routes: Dict[Tuple[int, int], Tuple[str, ...]] = {}
    for src in range(num_nodes):
        start = f"n{src}"
        # prev[vertex] = (previous vertex, link taken into vertex)
        prev: Dict[str, Tuple[str, str]] = {start: ("", "")}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for nxt, link_name in adjacency.get(vertex, ()):
                if nxt not in prev:
                    prev[nxt] = (vertex, link_name)
                    queue.append(nxt)
        for dst in range(num_nodes):
            if dst == src:
                continue
            target = f"n{dst}"
            if target not in prev:
                raise DCudaUsageError(
                    f"interconnect graph is disconnected: no path "
                    f"n{src} -> n{dst}")
            path: List[str] = []
            vertex = target
            while vertex != start:
                vertex, link_name = prev[vertex]
                path.append(link_name)
            routes[(src, dst)] = tuple(reversed(path))
    return routes


def _fat_tree_graph(num_nodes: int, link: LinkSpec, oversubscription: float,
                    radix: int) -> Tuple[Dict[str, RouteLink],
                                         Dict[str, List[Tuple[str, str]]]]:
    """Two-level fat tree: ``radix`` nodes per leaf switch, one spine.

    Leaf→spine uplinks aggregate the leaf's ``radix`` downlinks and are
    undersized by the oversubscription factor — ``k = 1`` is full
    bisection, ``k = 4`` concentrates 4 B/s of injection on 1 B/s of
    uplink, and cross-leaf senders share it max-min fairly.
    """
    links: Dict[str, RouteLink] = {}
    adjacency: Dict[str, List[Tuple[str, str]]] = {}

    def add(u: str, v: str, bandwidth: float, latency: float) -> None:
        name = f"{u}-{v}"
        links[name] = RouteLink(name, bandwidth, latency)
        adjacency.setdefault(u, []).append((v, name))

    uplink_bw = radix * link.bandwidth / oversubscription
    num_leaves = (num_nodes + radix - 1) // radix
    for node in range(num_nodes):
        leaf = f"leaf{node // radix}"
        add(f"n{node}", leaf, link.bandwidth, link.latency)
        add(leaf, f"n{node}", link.bandwidth, link.latency)
    if num_leaves > 1:
        for li in range(num_leaves):
            leaf = f"leaf{li}"
            add(leaf, "spine", uplink_bw, link.latency)
            add("spine", leaf, uplink_bw, link.latency)
    return links, adjacency


def _ring_graph(num_nodes: int, link: LinkSpec
                ) -> Tuple[Dict[str, RouteLink],
                           Dict[str, List[Tuple[str, str]]]]:
    """Bidirectional ring: node *i* links to ``i±1 (mod N)``.

    The increasing-index direction is enumerated first, so even-size
    rings break the antipodal tie clockwise.
    """
    links: Dict[str, RouteLink] = {}
    adjacency: Dict[str, List[Tuple[str, str]]] = {}

    def add(u: int, v: int) -> None:
        name = f"n{u}-n{v}"
        links[name] = RouteLink(name, link.bandwidth, link.latency)
        adjacency.setdefault(f"n{u}", []).append((f"n{v}", name))

    for node in range(num_nodes):
        add(node, (node + 1) % num_nodes)
        add(node, (node - 1) % num_nodes)
    return links, adjacency


def build_routing(topology: Topology,
                  default_link: LinkSpec) -> Optional[RoutingTable]:
    """The routing table for *topology*, or ``None`` for ``flat``.

    Args:
        topology: The machine shape.
        default_link: Bandwidth/latency used when the interconnect spec
            leaves ``link`` unset (the machine's calibrated
            :class:`~repro.hw.config.FabricConfig` values).
    """
    ic = topology.interconnect
    if ic.kind == "flat":
        return None
    link = ic.link if ic.link is not None else default_link
    num_nodes = topology.num_nodes
    if ic.kind == "fat_tree":
        links, adjacency = _fat_tree_graph(num_nodes, link,
                                           ic.oversubscription, ic.radix)
    elif ic.kind == "ring":
        if num_nodes < 2:
            # A 1-node ring has no wire traffic; an empty table suffices.
            return RoutingTable({}, {})
        links, adjacency = _ring_graph(num_nodes, link)
    else:  # pragma: no cover - Interconnect.__post_init__ rejects this
        raise DCudaUsageError(f"unknown interconnect kind {ic.kind!r}")
    return RoutingTable(links, _bfs_routes(num_nodes, links, adjacency))
