"""Weak-scaling points for the three mini-applications (Figs. 9-11).

Each figure runs the dCUDA and MPI-CUDA variants over a list of node
counts with a constant per-node workload, verifies both against the
serial reference, and tabulates one row per node count: dCUDA time,
MPI-CUDA time, and the communication time measured by the MPI-CUDA
variant (the paper's "halo exchange" line).

Every node count is an *independent* simulation: :func:`scaling_point`
measures one, :func:`weak_scaling_specs` describes a figure as sweep
specs for :func:`~repro.exec.engine.run_specs` (or ``python -m
repro.exec run fig9``), and :func:`weak_scaling_table` assembles the
rows.  Each figure is defined once, in :data:`_FIGS`.
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
           "weak_scaling_table"]


@dataclass(frozen=True)
class ScalingRow:
    nodes: int
    dcuda_time: float
    mpicuda_time: float
    comm_time: float


#: Per-figure definition: title, comm-column label, default workload and
#: dCUDA over-subscription, the two variants and the serial reference,
#: the MPI-CUDA stat the comm column reports, the verification's
#: absolute tolerance, and the note renderer.
_FIGS = {
    "particles": dict(
        title="Fig. 9 - particle simulation weak scaling",
        comm="halo exchange", rpd=26,
        wl=ParticleWorkload(cells_per_node=104, particles_per_node=10400,
                            steps=10),
        run=(run_dcuda_particles, run_mpicuda_particles),
        reference=particles_reference, comm_key="halo_time", atol=1e-9,
        note=lambda wl: (f"{wl.cells_per_node} cells and "
                         f"{wl.particles_per_node} particles per node, "
                         f"{wl.steps} iterations")),
    "stencil": dict(
        title="Fig. 10 - stencil program weak scaling",
        comm="halo exchange", rpd=208,
        wl=DiffusionWorkload(ni=128, nj_per_device=416, nk=26, steps=10),
        run=(run_dcuda_diffusion, run_mpicuda_diffusion),
        reference=diffusion_reference, comm_key="halo_time", atol=0.0,
        note=lambda wl: (f"{wl.ni}x{wl.nj_per_device}x{wl.nk} grid points "
                         f"per device, {wl.steps} iterations")),
    "spmv": dict(
        title="Fig. 11 - sparse matrix-vector weak scaling",
        comm="communication", rpd=208,
        wl=SpmvWorkload(n_per_device=10486, density=0.03, iters=10),
        run=(run_dcuda_spmv, run_mpicuda_spmv),
        reference=spmv_reference, comm_key="comm_time", atol=0.0,
        note=lambda wl: (f"{wl.n_per_device}^2 elements per device, "
                         f"{wl.density:.1%} populated, {wl.iters} "
                         "iterations")),
}
#: MPI-CUDA launch width of every figure.
_NBLOCKS = 208


def _resolve(app: str, wl, ranks_per_device: Optional[int],
             nblocks: Optional[int]):
    """``(figure, wl, rpd, nblocks)`` with each ``None`` at its default.

    Raises:
        ValueError: Unknown *app*.
    """
    fig = _FIGS.get(app)
    if fig is None:
        raise ValueError(f"unknown weak-scaling app {app!r}")
    return (fig, wl or fig["wl"],
            fig["rpd"] if ranks_per_device is None else ranks_per_device,
            _NBLOCKS if nblocks is None else nblocks)


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
    fig, wl, rpd, nb = _resolve(app, wl, ranks_per_device, nblocks)
    run_d, run_m = fig["run"]
    t_d, out_d, _ = run_d(Cluster(greina(nodes)), wl, rpd)
    t_m, out_m, stats = run_m(Cluster(greina(nodes)), wl, nblocks=nb)
    if verify:
        ref = fig["reference"](wl, nodes)
        np.testing.assert_allclose(out_d, ref, rtol=1e-9, atol=fig["atol"])
        np.testing.assert_allclose(out_m, ref, rtol=1e-9, atol=fig["atol"])
    comm = max(s[fig["comm_key"]] for s in stats.values())
    return ScalingRow(nodes, t_d, t_m, comm)


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

    _, wl, rpd, nb = _resolve(app, wl, ranks_per_device, nblocks)
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
    fig, wl, _, _ = _resolve(app, wl, None, None)
    table = Table(fig["title"],
                  ["nodes", "dcuda [ms]", "mpi-cuda [ms]",
                   f"{fig['comm']} [ms]"])
    for row in rows:
        table.add_row(row.nodes, row.dcuda_time * 1e3,
                      row.mpicuda_time * 1e3, row.comm_time * 1e3)
    table.add_note(fig["note"](wl))
    return table
