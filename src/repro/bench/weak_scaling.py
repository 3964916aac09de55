"""Weak-scaling drivers for the three mini-applications (Figs. 9-11).

Each driver runs the dCUDA and MPI-CUDA variants over a list of node
counts with a constant per-node workload, verifies both against the serial
reference, and returns a :class:`~repro.bench.table.Table` with one row per
node count: dCUDA time, MPI-CUDA time, and the communication time measured
by the MPI-CUDA variant (the paper's "halo exchange" line).

Every node count is an *independent* simulation, so the per-point body
lives in :func:`scaling_point` and the drivers fan the points out through
the sweep engine (:mod:`repro.exec`): ``workers=1`` (the default) runs
them serially in-process with results bit-identical to the historical
loop, ``workers=N`` spreads them over the ``local`` worker fleet, and
passing a ``cache`` makes re-runs near-instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..apps.diffusion import (
    DiffusionWorkload,
    reference as diffusion_reference,
    run_dcuda_diffusion,
    run_mpicuda_diffusion,
)
from ..apps.particles import (
    ParticleWorkload,
    reference as particles_reference,
    run_dcuda_particles,
    run_mpicuda_particles,
)
from ..apps.spmv import (
    SpmvWorkload,
    reference as spmv_reference,
    run_dcuda_spmv,
    run_mpicuda_spmv,
)
from ..hw import Cluster, greina
from .table import Table

__all__ = ["ScalingRow", "scaling_point", "weak_scaling_specs",
           "weak_scaling_table", "particles_weak_scaling",
           "stencil_weak_scaling", "spmv_weak_scaling"]


@dataclass(frozen=True)
class ScalingRow:
    nodes: int
    dcuda_time: float
    mpicuda_time: float
    comm_time: float


def scaling_point(app: str, nodes: int, wl=None,
                  ranks_per_device: Optional[int] = None,
                  nblocks: Optional[int] = None,
                  verify: bool = True) -> ScalingRow:
    """One weak-scaling measurement: both variants at one node count.

    Args:
        app: ``"particles"`` (Fig. 9), ``"stencil"`` (Fig. 10), or
            ``"spmv"`` (Fig. 11).
        nodes: Cluster size for this point.
        wl: Workload dataclass; the figure's default when ``None``.
        ranks_per_device: dCUDA over-subscription (figure default when
            ``None``).
        nblocks: MPI-CUDA launch width (figure default when ``None``).
        verify: Check both variants against the serial reference.

    Returns:
        A :class:`ScalingRow` for this node count.

    Raises:
        ValueError: Unknown *app*.
    """
    if app == "particles":
        wl = wl or ParticleWorkload(cells_per_node=104,
                                    particles_per_node=10400, steps=10)
        rpd = ranks_per_device if ranks_per_device is not None else 26
        nb = nblocks if nblocks is not None else 208
        run_d, run_m, ref_fn = (run_dcuda_particles, run_mpicuda_particles,
                                particles_reference)
        comm_key, rtol, atol = "halo_time", 1e-9, 1e-9
    elif app == "stencil":
        wl = wl or DiffusionWorkload(ni=128, nj_per_device=416, nk=26,
                                     steps=10)
        rpd = ranks_per_device if ranks_per_device is not None else 208
        nb = nblocks if nblocks is not None else 208
        run_d, run_m, ref_fn = (run_dcuda_diffusion, run_mpicuda_diffusion,
                                diffusion_reference)
        comm_key, rtol, atol = "halo_time", 1e-9, 0.0
    elif app == "spmv":
        wl = wl or SpmvWorkload(n_per_device=10486, density=0.03, iters=10)
        rpd = ranks_per_device if ranks_per_device is not None else 208
        nb = nblocks if nblocks is not None else 208
        run_d, run_m, ref_fn = (run_dcuda_spmv, run_mpicuda_spmv,
                                spmv_reference)
        comm_key, rtol, atol = "comm_time", 1e-9, 0.0
    else:
        raise ValueError(f"unknown weak-scaling app {app!r}")

    t_d, out_d, _ = run_d(Cluster(greina(nodes)), wl, rpd)
    t_m, out_m, stats = run_m(Cluster(greina(nodes)), wl, nblocks=nb)
    if verify:
        ref = ref_fn(wl, nodes)
        np.testing.assert_allclose(out_d, ref, rtol=rtol, atol=atol)
        np.testing.assert_allclose(out_m, ref, rtol=rtol, atol=atol)
    comm = max(s[comm_key] for s in stats.values())
    return ScalingRow(nodes, t_d, t_m, comm)


def _scaling_table(title: str, comm_label: str,
                   rows: List[ScalingRow]) -> Table:
    table = Table(title,
                  ["nodes", "dcuda [ms]", "mpi-cuda [ms]",
                   f"{comm_label} [ms]"])
    for row in rows:
        table.add_row(row.nodes, row.dcuda_time * 1e3,
                      row.mpicuda_time * 1e3, row.comm_time * 1e3)
    return table


#: Per-figure presentation: title, comm-column label, default workload
#: factory, default dCUDA over-subscription, note renderer.
_FIGS = {
    "particles": dict(
        title="Fig. 9 - particle simulation weak scaling",
        comm="halo exchange", rpd=26,
        default_wl=lambda: ParticleWorkload(cells_per_node=104,
                                            particles_per_node=10400,
                                            steps=10),
        note=lambda wl: (f"{wl.cells_per_node} cells and "
                         f"{wl.particles_per_node} particles per node, "
                         f"{wl.steps} iterations")),
    "stencil": dict(
        title="Fig. 10 - stencil program weak scaling",
        comm="halo exchange", rpd=208,
        default_wl=lambda: DiffusionWorkload(ni=128, nj_per_device=416,
                                             nk=26, steps=10),
        note=lambda wl: (f"{wl.ni}x{wl.nj_per_device}x{wl.nk} grid points "
                         f"per device, {wl.steps} iterations")),
    "spmv": dict(
        title="Fig. 11 - sparse matrix-vector weak scaling",
        comm="communication", rpd=208,
        default_wl=lambda: SpmvWorkload(n_per_device=10486, density=0.03,
                                        iters=10),
        note=lambda wl: (f"{wl.n_per_device}^2 elements per device, "
                         f"{wl.density:.1%} populated, {wl.iters} "
                         "iterations")),
}


def weak_scaling_specs(app: str, node_counts: Sequence[int], wl=None,
                       ranks_per_device: Optional[int] = None,
                       nblocks: Optional[int] = None,
                       verify: bool = True):
    """Build the engine specs for one weak-scaling figure.

    Returns:
        ``(specs, wl)`` — one ``weak_scaling_point``
        :class:`~repro.exec.spec.RunSpec` per node count, plus the
        resolved workload (needed for the table note).

    Raises:
        ValueError: Unknown *app*.
    """
    from ..exec import RunSpec

    if app not in _FIGS:
        raise ValueError(f"unknown weak-scaling app {app!r}")
    fig = _FIGS[app]
    wl = wl or fig["default_wl"]()
    rpd = ranks_per_device if ranks_per_device is not None else fig["rpd"]
    nb = nblocks if nblocks is not None else 208
    specs = [RunSpec("weak_scaling_point",
                     dict(app=app, nodes=nodes, wl=wl,
                          ranks_per_device=rpd, nblocks=nb, verify=verify),
                     label=f"{app}:n{nodes}")
             for nodes in node_counts]
    return specs, wl


def weak_scaling_table(app: str, wl, rows: List[ScalingRow]) -> Table:
    """Assemble the figure table from engine results (one per node count).

    Raises:
        ValueError: Unknown *app*.
    """
    if app not in _FIGS:
        raise ValueError(f"unknown weak-scaling app {app!r}")
    fig = _FIGS[app]
    table = _scaling_table(fig["title"], fig["comm"], rows)
    table.add_note(fig["note"](wl))
    return table


def _run_weak_scaling(app: str, node_counts: Sequence[int], wl,
                      ranks_per_device: int, nblocks: int, verify: bool,
                      workers, cache) -> Table:
    from ..exec import run_specs

    specs, wl = weak_scaling_specs(app, node_counts, wl=wl,
                                   ranks_per_device=ranks_per_device,
                                   nblocks=nblocks, verify=verify)
    rows = run_specs(specs, workers=workers, cache=cache).results
    return weak_scaling_table(app, wl, rows)


def particles_weak_scaling(node_counts: Sequence[int] = (1, 2, 4, 8),
                           wl=None,
                           ranks_per_device: int = 26,
                           nblocks: int = 208,
                           verify: bool = True,
                           workers: Optional[int] = None,
                           cache=None) -> Table:
    """Fig. 9: particle simulation, constant cells/particles per node."""
    return _run_weak_scaling("particles", node_counts, wl, ranks_per_device,
                             nblocks, verify, workers, cache)


def stencil_weak_scaling(node_counts: Sequence[int] = (1, 2, 4, 8),
                         wl=None,
                         ranks_per_device: int = 208,
                         nblocks: int = 208,
                         verify: bool = True,
                         workers: Optional[int] = None,
                         cache=None) -> Table:
    """Fig. 10: horizontal-diffusion stencil, constant grid per device."""
    return _run_weak_scaling("stencil", node_counts, wl, ranks_per_device,
                             nblocks, verify, workers, cache)


def spmv_weak_scaling(node_counts: Sequence[int] = (1, 4, 9),
                      wl=None,
                      ranks_per_device: int = 208,
                      nblocks: int = 208,
                      verify: bool = True,
                      workers: Optional[int] = None,
                      cache=None) -> Table:
    """Fig. 11: sparse matrix-vector multiplication, square device grids."""
    return _run_weak_scaling("spmv", node_counts, wl, ranks_per_device,
                             nblocks, verify, workers, cache)
