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
rows.  Each figure is defined once, in :data:`_FIGS`, as plain data: its
default workload is a mapping of the app dataclass's field values, which
the specs carry and :func:`scaling_point` turns into the dataclass.
numpy, the apps and the hw layer load inside :func:`scaling_point`, so a
sweep coordinator builds a figure's specs, unpickles its
:class:`ScalingRow` results and renders the table without loading numpy,
scipy or the simulator.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from .table import Table

__all__ = ["ScalingRow", "scaling_point", "weak_scaling_specs",
           "weak_scaling_table"]


@dataclass(frozen=True)
class ScalingRow:
    nodes: int
    dcuda_time: float
    mpicuda_time: float
    comm_time: float


#: Per-figure definition: title, comm-column label, the app module
#: (``repro.apps.<module>``, whose ``reference`` is the serial reference)
#: with its workload class and two variants, the default workload's field
#: values and dCUDA over-subscription, the MPI-CUDA stat the comm column
#: reports, the verification's absolute tolerance, and the table note (a
#: format string over the workload's fields).
_FIGS = {
    "particles": dict(
        title="Fig. 9 - particle simulation weak scaling",
        comm="halo exchange", module="particles",
        workload="ParticleWorkload",
        run=("run_dcuda_particles", "run_mpicuda_particles"), rpd=26,
        wl=dict(cells_per_node=104, particles_per_node=10400, steps=10),
        comm_key="halo_time", atol=1e-9,
        note="{cells_per_node} cells and {particles_per_node} particles "
             "per node, {steps} iterations"),
    "stencil": dict(
        title="Fig. 10 - stencil program weak scaling",
        comm="halo exchange", module="diffusion",
        workload="DiffusionWorkload",
        run=("run_dcuda_diffusion", "run_mpicuda_diffusion"), rpd=208,
        wl=dict(ni=128, nj_per_device=416, nk=26, steps=10),
        comm_key="halo_time", atol=0.0,
        note="{ni}x{nj_per_device}x{nk} grid points per device, "
             "{steps} iterations"),
    "spmv": dict(
        title="Fig. 11 - sparse matrix-vector weak scaling",
        comm="communication", module="spmv", workload="SpmvWorkload",
        run=("run_dcuda_spmv", "run_mpicuda_spmv"), rpd=208,
        wl=dict(n_per_device=10486, density=0.03, iters=10),
        comm_key="comm_time", atol=0.0,
        note="{n_per_device}^2 elements per device, {density:.1%} "
             "populated, {iters} iterations"),
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
    return (fig, dict(fig["wl"]) if wl is None else wl,
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
        wl: The app's workload dataclass, or a mapping of its field
            values; the figure's default when ``None``.
        ranks_per_device: dCUDA over-subscription (figure default when
            ``None``).
        nblocks: MPI-CUDA launch width (figure default when ``None``).
        verify: Check both variants against the serial reference.

    Returns:
        A :class:`ScalingRow` for this node count.

    Raises:
        ValueError: Unknown *app*.
    """
    import numpy as np

    from ..hw import Cluster, greina

    fig, wl, rpd, nb = _resolve(app, wl, ranks_per_device, nblocks)
    mod = importlib.import_module(f"..apps.{fig['module']}", __package__)
    if isinstance(wl, Mapping):
        wl = getattr(mod, fig["workload"])(**wl)
    run_d, run_m = (getattr(mod, name) for name in fig["run"])
    t_d, out_d, _ = run_d(Cluster(greina(nodes)), wl, rpd)
    t_m, out_m, stats = run_m(Cluster(greina(nodes)), wl, nblocks=nb)
    if verify:
        ref = mod.reference(wl, nodes)
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
        resolved workload (needed for the table note): *wl* as given, or
        the figure's default field values.

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
    fields = wl if isinstance(wl, Mapping) else dataclasses.asdict(wl)
    table.add_note(fig["note"].format(**fields))
    return table
