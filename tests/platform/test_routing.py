"""Routing tables: shortest paths, hop charging, and determinism."""

import pytest

from repro.errors import DCudaUsageError
from repro.platform import LinkSpec, fat_tree, flat, ring
from repro.platform.routing import build_routing

LINK = LinkSpec(bandwidth=6.0e9, latency=1.0e-6)


def test_flat_has_no_table():
    # Flat keeps the calibrated single-hop LogGP model — no routed graph.
    assert build_routing(flat(num_nodes=8), LINK) is None


def test_single_node_ring_is_empty():
    table = build_routing(ring(1), LINK)
    assert table is not None and table.links == {}


class TestRing:
    def test_hop_counts_take_shorter_arc(self):
        table = build_routing(ring(6), LINK)
        assert table.hops(0, 1) == 1
        assert table.hops(0, 5) == 1      # wraps backwards
        assert table.hops(0, 3) == 3      # the diameter
        assert table.hops(4, 2) == 2

    def test_route_names_follow_the_arc(self):
        table = build_routing(ring(4), LINK)
        assert table.route(0, 1) == ("n0-n1",)
        assert table.route(1, 0) == ("n1-n0",)

    def test_antipodal_tie_breaks_clockwise(self):
        # Even rings have two equal arcs to the antipode; the
        # increasing-index direction is enumerated first in the BFS.
        table = build_routing(ring(4), LINK)
        assert table.route(0, 2) == ("n0-n1", "n1-n2")

    def test_path_latency_is_per_hop_sum(self):
        table = build_routing(ring(6), LINK)
        assert table.path_latency(0, 3) == 3 * LINK.latency

    def test_no_self_route(self):
        table = build_routing(ring(4), LINK)
        with pytest.raises(DCudaUsageError, match="no route"):
            table.route(2, 2)


class TestFatTree:
    def test_same_leaf_two_hops(self):
        table = build_routing(fat_tree(num_nodes=8, radix=4), LINK)
        assert table.hops(0, 3) == 2          # node-leaf, leaf-node
        assert table.route(0, 3) == ("n0-leaf0", "leaf0-n3")

    def test_cross_leaf_via_spine(self):
        table = build_routing(fat_tree(num_nodes=8, radix=4), LINK)
        assert table.hops(0, 7) == 4
        assert table.route(0, 7) == ("n0-leaf0", "leaf0-spine",
                                     "spine-leaf1", "leaf1-n7")

    def test_single_leaf_has_no_spine(self):
        table = build_routing(fat_tree(num_nodes=4, radix=4), LINK)
        assert "leaf0-spine" not in table.links
        assert table.hops(0, 3) == 2

    def test_oversubscription_undersizes_uplinks(self):
        table = build_routing(
            fat_tree(num_nodes=8, radix=4, oversubscription=8.0), LINK)
        uplink = table.links["leaf0-spine"]
        # radix * bw / oversubscription = 4/8 of one downlink.
        assert uplink.bandwidth == pytest.approx(LINK.bandwidth / 2)
        assert min(table.links[name].bandwidth
                   for name in table.route(0, 7)) == uplink.bandwidth
        # Same-leaf traffic never crosses the spine.
        assert all(table.links[name].bandwidth == LINK.bandwidth
                   for name in table.route(0, 3))

    def test_full_bisection_uplinks_never_bottleneck(self):
        table = build_routing(
            fat_tree(num_nodes=8, radix=4, oversubscription=1.0), LINK)
        assert (table.links["leaf0-spine"].bandwidth
                == 4 * LINK.bandwidth)


def test_routes_are_deterministic():
    a = build_routing(ring(8), LINK)
    b = build_routing(ring(8), LINK)
    assert a.routes == b.routes
    c = build_routing(fat_tree(num_nodes=9, radix=4), LINK)
    d = build_routing(fat_tree(num_nodes=9, radix=4), LINK)
    assert c.routes == d.routes


def test_every_ordered_pair_is_routed():
    for topo in (ring(5), fat_tree(num_nodes=6, radix=2)):
        table = build_routing(topo, LINK)
        n = topo.num_nodes
        assert set(table.routes) == {(s, d) for s in range(n)
                                     for d in range(n) if s != d}
        for route in table.routes.values():
            assert route, "empty route for distinct nodes"
            for name in route:
                assert name in table.links
