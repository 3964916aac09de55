"""Platform resolution: MachineConfig + Topology -> concrete machine."""

import dataclasses

import pytest

from repro.errors import DCudaUsageError
from repro.hw.config import GPUConfig, PCIeConfig, greina
from repro.platform import (
    DEFAULT_INTRA_LINK,
    LinkSpec,
    NodeClass,
    PlacementSpec,
    Topology,
    flat,
    ring,
)
from repro.platform.resolve import Platform


class TestLegacyShape:
    def test_no_topology_resolves_to_flat_single_gpu(self):
        platform = Platform(greina(4))
        assert platform.num_nodes == 4
        assert platform.total_gpus == 4
        assert platform.routing is None
        for n in range(4):
            spec = platform.node_spec(n)
            assert spec.gpus_per_node == 1
            assert spec.intra_link == DEFAULT_INTRA_LINK

    def test_legacy_placement_matches_rank_arithmetic(self):
        platform = Platform(greina(3))
        p = platform.place(4)
        assert p.total_ranks == 12
        for r in range(12):
            assert p.node_of(r) == r // 4


class TestTopologyShape:
    def test_multi_gpu_is_not_legacy(self):
        platform = Platform(greina(topology=flat(2, gpus_per_node=2)))
        assert platform.total_gpus == 4
        assert [platform.node_spec(n).gpus_per_node for n in range(2)] == [
            2, 2]

    def test_routed_is_not_legacy(self):
        platform = Platform(greina(topology=ring(4)))
        assert platform.routing is not None

    def test_num_nodes_contradiction_raises(self):
        with pytest.raises(DCudaUsageError, match="contradicts"):
            Platform(greina(8, topology=ring(4)))

    def test_num_nodes_agreeing_is_fine(self):
        assert Platform(greina(4, topology=ring(4))).num_nodes == 4

    def test_per_class_overrides(self):
        fast_gpu = GPUConfig(num_sms=26)
        wide_pcie = PCIeConfig(bandwidth=20e9)
        nv = LinkSpec(bandwidth=50e9, latency=0.1e-6)
        topo = Topology(node_classes=(
            NodeClass(name="dense", count=1, gpus_per_node=2, gpu=fast_gpu,
                      pcie=wide_pcie, intra_link=nv),
            NodeClass(name="thin", count=2)))
        platform = Platform(greina(topology=topo))
        assert platform.node_spec(0).gpu is fast_gpu
        assert platform.pcie_of(0) is wide_pcie
        assert platform.intra_link_of(0) == nv
        # The thin class inherits the machine defaults.
        assert platform.node_spec(1).gpu is platform.cfg.gpu
        assert platform.intra_link_of(2) == DEFAULT_INTRA_LINK

    def test_rejects_wrong_override_types(self):
        topo = Topology(node_classes=(
            NodeClass(name="bad", gpu="not-a-config"),))
        with pytest.raises(DCudaUsageError, match="GPUConfig"):
            Platform(greina(topology=topo))

    def test_node_spec_out_of_range(self):
        with pytest.raises(DCudaUsageError, match="out of range"):
            Platform(greina(2)).node_spec(2)


class TestPlaceCap:
    def test_per_gpu_in_flight_cap(self):
        tiny_gpu = GPUConfig(num_sms=1, max_blocks_per_sm=2)
        cfg = greina(2, gpu=tiny_gpu)
        platform = Platform(cfg)
        platform.place(2)  # at the cap: fine
        with pytest.raises(DCudaUsageError, match="in-flight limit"):
            platform.place(3)

    def test_explicit_overload_of_one_gpu(self):
        tiny_gpu = GPUConfig(num_sms=1, max_blocks_per_sm=2)
        cfg = greina(2, gpu=tiny_gpu)
        spec = PlacementSpec("explicit",
                             explicit=((0, 0), (0, 0), (0, 0)))
        with pytest.raises(DCudaUsageError, match="in-flight limit"):
            Platform(cfg).place(1, spec=spec)

    def test_spec_override_beats_config(self):
        cfg = greina(2, placement=PlacementSpec("round_robin"))
        platform = Platform(cfg)
        # Default comes from the config...
        assert platform.place(2).device_of(1) == (1, 0)
        # ...but an explicit spec wins.
        assert platform.place(
            2, spec=PlacementSpec("block")).device_of(1) == (0, 0)


def test_config_validation_rejects_bad_fields():
    # Satellite check: non-positive physical quantities fail at
    # construction with a typed error, not as downstream division noise.
    with pytest.raises(DCudaUsageError, match="bandwidth"):
        GPUConfig(mem_bandwidth=0.0)
    with pytest.raises(DCudaUsageError, match="num_sms"):
        GPUConfig(num_sms=0)
    with pytest.raises(DCudaUsageError, match="non-negative"):
        PCIeConfig(dma_startup=-1e-6)
    with pytest.raises(DCudaUsageError, match="num_nodes"):
        greina(0)
    with pytest.raises(DCudaUsageError, match="topology"):
        greina(topology="ring")
    with pytest.raises(DCudaUsageError, match="placement"):
        greina(placement="block")


def test_with_nodes_rewrites_single_class_topology():
    cfg = greina(topology=ring(4))
    grown = cfg.with_nodes(6)
    assert grown.topology.num_nodes == 6
    assert grown.topology.interconnect.kind == "ring"
    multi = greina(topology=Topology(node_classes=(
        NodeClass(name="a"), NodeClass(name="b"))))
    with pytest.raises(DCudaUsageError, match="ambiguous"):
        multi.with_nodes(5)
