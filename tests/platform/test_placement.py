"""Placement policies: block, round_robin, explicit."""

import pytest

from repro.errors import DCudaUsageError
from repro.platform import PlacementSpec
from repro.platform.placement import resolve_placement

# 2 nodes x 2 GPUs, canonical order.
DEVICES = ((0, 0), (0, 1), (1, 0), (1, 1))


class TestSpecValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(DCudaUsageError, match="policy"):
            PlacementSpec("scatter")

    def test_explicit_requires_table(self):
        with pytest.raises(DCudaUsageError, match="explicit"):
            PlacementSpec("explicit")

    def test_table_requires_explicit_policy(self):
        with pytest.raises(DCudaUsageError, match="explicit"):
            PlacementSpec("block", explicit=((0, 0),))

    def test_rejects_empty_table(self):
        with pytest.raises(DCudaUsageError, match="at least one"):
            PlacementSpec("explicit", explicit=())


class TestBlock:
    def test_legacy_numbering(self):
        # rank r on device r // rpd — the legacy single-GPU mapping.
        p = resolve_placement(DEVICES, 2, PlacementSpec("block"))
        assert p.total_ranks == 8
        assert [p.device_of(r) for r in range(8)] == [
            (0, 0), (0, 0), (0, 1), (0, 1),
            (1, 0), (1, 0), (1, 1), (1, 1)]
        assert p.ranks_on_device(0, 1) == (2, 3)
        assert [p.device_rank(r) for r in range(4)] == [0, 1, 0, 1]
        assert p.participating_nodes == (0, 1)

    def test_single_gpu_nodes_match_node_of(self):
        devices = tuple((n, 0) for n in range(4))
        p = resolve_placement(devices, 3, PlacementSpec("block"))
        for r in range(12):
            assert p.node_of(r) == r // 3
            assert p.gpu_of(r) == 0


class TestRoundRobin:
    def test_deals_across_devices(self):
        p = resolve_placement(DEVICES, 2, PlacementSpec("round_robin"))
        assert [p.device_of(r) for r in range(8)] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert p.ranks_on_device(0, 0) == (0, 4)
        assert p.device_rank(4) == 1


class TestExplicit:
    def test_pins_ranks(self):
        spec = PlacementSpec("explicit", explicit=((1, 1), (0, 0)))
        p = resolve_placement(DEVICES, 99, spec)  # rpd ignored
        assert p.total_ranks == 2
        assert p.device_of(0) == (1, 1)
        assert p.device_of(1) == (0, 0)
        assert p.ranks_on_device(0, 1) == ()

    def test_participating_nodes_skips_empty(self):
        spec = PlacementSpec("explicit", explicit=((1, 0), (1, 1)))
        p = resolve_placement(DEVICES, 1, spec)
        assert p.participating_nodes == (1,)

    def test_rejects_device_outside_topology(self):
        spec = PlacementSpec("explicit", explicit=((0, 0), (2, 0)))
        with pytest.raises(DCudaUsageError, match="not in the topology"):
            resolve_placement(DEVICES, 1, spec)

    def test_two_ranks_same_device(self):
        spec = PlacementSpec("explicit", explicit=((0, 0), (0, 0)))
        p = resolve_placement(DEVICES, 1, spec)
        assert p.ranks_on_device(0, 0) == (0, 1)
        assert p.device_rank(1) == 1


def test_rejects_empty_devices():
    with pytest.raises(DCudaUsageError, match="at least one device"):
        resolve_placement((), 1, PlacementSpec("block"))


def test_rejects_non_positive_rpd():
    with pytest.raises(DCudaUsageError, match="ranks_per_device"):
        resolve_placement(DEVICES, 0, PlacementSpec("block"))
