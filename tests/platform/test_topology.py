"""Topology schema: validation, derived shape, and builders."""

import pytest

from repro.errors import DCudaUsageError
from repro.platform import (
    DEFAULT_INTRA_LINK,
    INTERCONNECT_KINDS,
    Interconnect,
    LinkSpec,
    NodeClass,
    Topology,
    fat_tree,
    flat,
    ring,
)


class TestLinkSpec:
    def test_valid(self):
        spec = LinkSpec(bandwidth=1e9, latency=1e-6)
        assert spec.bandwidth == 1e9

    def test_zero_latency_allowed(self):
        assert LinkSpec(bandwidth=1e9, latency=0.0).latency == 0.0

    @pytest.mark.parametrize("bandwidth", [0.0, -1e9])
    def test_rejects_non_positive_bandwidth(self, bandwidth):
        with pytest.raises(DCudaUsageError, match="bandwidth"):
            LinkSpec(bandwidth=bandwidth, latency=1e-6)

    def test_rejects_negative_latency(self):
        with pytest.raises(DCudaUsageError, match="latency"):
            LinkSpec(bandwidth=1e9, latency=-1e-6)

    def test_default_intra_link_matches_legacy_loopback(self):
        # The former hard-coded fabric constants; the golden fixtures
        # depend on these exact values.
        assert DEFAULT_INTRA_LINK.bandwidth == 12.0e9
        assert DEFAULT_INTRA_LINK.latency == 0.3e-6


class TestNodeClass:
    def test_defaults(self):
        nc = NodeClass()
        assert (nc.count, nc.gpus_per_node) == (1, 1)
        assert nc.gpu is None and nc.pcie is None and nc.intra_link is None

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(count=0),
        dict(count=-1),
        dict(gpus_per_node=0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DCudaUsageError):
            NodeClass(**kwargs)


class TestInterconnect:
    def test_kinds_constant(self):
        assert INTERCONNECT_KINDS == ("flat", "fat_tree", "ring")

    def test_rejects_unknown_kind(self):
        with pytest.raises(DCudaUsageError, match="kind"):
            Interconnect("torus")

    def test_rejects_bad_oversubscription(self):
        with pytest.raises(DCudaUsageError, match="oversubscription"):
            Interconnect("fat_tree", oversubscription=0.0)

    def test_rejects_bad_radix(self):
        with pytest.raises(DCudaUsageError, match="radix"):
            Interconnect("fat_tree", radix=0)


class TestTopology:
    def test_rejects_empty_classes(self):
        with pytest.raises(DCudaUsageError, match="at least one"):
            Topology(node_classes=())

    def test_rejects_duplicate_class_names(self):
        with pytest.raises(DCudaUsageError, match="duplicate"):
            Topology(node_classes=(NodeClass(name="a"), NodeClass(name="a")))

    def test_rejects_non_nodeclass_entries(self):
        with pytest.raises(DCudaUsageError):
            Topology(node_classes=("fat",))

    def test_shape_sums_across_classes(self):
        topo = Topology(node_classes=(
            NodeClass(name="dense", count=2, gpus_per_node=4),
            NodeClass(name="thin", count=3, gpus_per_node=1)))
        assert topo.num_nodes == 5
        assert topo.total_gpus == 2 * 4 + 3

    def test_devices_canonical_order(self):
        topo = Topology(node_classes=(
            NodeClass(name="dense", count=1, gpus_per_node=2),
            NodeClass(name="thin", count=2)))
        assert topo.devices() == ((0, 0), (0, 1), (1, 0), (2, 0))

    def test_hashable_for_cache_keys(self):
        # Topologies ride through the sweep engine's content-addressed
        # cache, which requires hashability.
        assert hash(flat(4)) == hash(flat(4))
        assert flat(4) == flat(4)
        assert flat(4) != ring(4)


class TestBuilders:
    def test_flat(self):
        topo = flat(num_nodes=4, gpus_per_node=2)
        assert topo.interconnect.kind == "flat"
        assert topo.num_nodes == 4 and topo.total_gpus == 8

    def test_fat_tree(self):
        topo = fat_tree(num_nodes=8, oversubscription=2.0, radix=4)
        assert topo.interconnect.kind == "fat_tree"
        assert topo.interconnect.oversubscription == 2.0
        assert topo.interconnect.radix == 4

    def test_ring(self):
        topo = ring(6, gpus_per_node=2)
        assert topo.interconnect.kind == "ring"
        assert topo.total_gpus == 12

    def test_custom_links(self):
        wire = LinkSpec(bandwidth=1e9, latency=5e-6)
        nv = LinkSpec(bandwidth=50e9, latency=0.1e-6)
        topo = ring(4, link=wire, intra_link=nv)
        assert topo.interconnect.link == wire
        assert topo.node_classes[0].intra_link == nv
