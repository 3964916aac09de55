"""Tests for the weak-scaling figures on miniature workloads: specs
through the sweep engine, then the figure table."""

import pytest

from repro.apps.diffusion import DiffusionWorkload
from repro.apps.particles import ParticleWorkload
from repro.apps.spmv import SpmvWorkload
from repro.bench.weak_scaling import (
    scaling_point,
    weak_scaling_specs,
    weak_scaling_table,
)
from repro.exec import run_specs


def _table(app, node_counts, wl, ranks_per_device, verify=True):
    specs, wl = weak_scaling_specs(app, node_counts, wl=wl,
                                   ranks_per_device=ranks_per_device,
                                   nblocks=4, verify=verify)
    return weak_scaling_table(app, wl, run_specs(specs).results)


def test_stencil_driver_produces_table():
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    table = _table("stencil", (1, 2), wl, ranks_per_device=3)
    assert table.column("nodes") == [1, 2]
    d = table.column("dcuda [ms]")
    m = table.column("mpi-cuda [ms]")
    halo = table.column("halo exchange [ms]")
    assert all(v > 0 for v in d + m)
    assert halo[0] == 0.0 and halo[1] > 0.0
    assert "grid points per device" in table.notes[0]


def test_particles_driver_produces_table():
    wl = ParticleWorkload(cells_per_node=8, particles_per_node=48, steps=2)
    table = _table("particles", (1, 2), wl, ranks_per_device=2)
    assert table.column("nodes") == [1, 2]
    assert all(v > 0 for v in table.column("dcuda [ms]"))


def test_spmv_driver_produces_table():
    wl = SpmvWorkload(n_per_device=16, density=0.2, iters=1)
    table = _table("spmv", (1, 4), wl, ranks_per_device=2)
    assert table.column("nodes") == [1, 4]
    comm = table.column("communication [ms]")
    assert comm[0] == 0.0 and comm[1] > 0.0


def test_driver_verification_catches_corruption(monkeypatch):
    """verify=True really compares against the reference: the one that
    :func:`scaling_point` looks up in the figure's definition."""
    import repro.bench.weak_scaling as ws

    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)

    original = ws._FIGS["stencil"]["reference"]
    monkeypatch.setitem(ws._FIGS["stencil"], "reference",
                        lambda *a, **k: original(*a, **k) + 1.0)
    with pytest.raises(AssertionError):
        scaling_point("stencil", 1, wl=wl, ranks_per_device=2, nblocks=4)


def test_driver_verify_false_skips_reference():
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    table = _table("stencil", (1,), wl, ranks_per_device=2, verify=False)
    assert len(table.rows) == 1
