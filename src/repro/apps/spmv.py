"""Sparse matrix-vector multiplication with a 2-D domain decomposition
(the paper's third mini-app, Fig. 11).

The matrix is split into square per-device sub-domains over a ``pr x pc``
device grid; the input vector lives along the first row and the output
vector along the first column of the decomposition.  Each iteration:

1. broadcast the input-vector block down the columns (manual binary tree),
2. every rank computes its local CSR matrix-vector product,
3. reduce the partial results along the rows (manual binary tree),
4. global barrier — emulating a tightly synchronized follow-up step (the
   worst case for dCUDA's overlap philosophy).

The dCUDA variant over-decomposes along the columns: each device block is
split row-wise over the device's ranks, so the broadcast tree gets deeper
at equal message size, while the reduction sends more but smaller messages
(paper §IV-C).  Reduction messages of the MPI-CUDA variant exceed the 30 kB
staging threshold at the paper's problem size and travel through host
memory; the dCUDA runtime always goes direct device-to-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from ..dcuda import DRank, launch
from ..dcuda.collectives import tree_levels
from ..hw.cluster import Cluster
from ..mpicuda import MPICudaContext, run_mpicuda
from .decomp import block_range, square_grid

__all__ = ["SpmvWorkload", "reference", "run_dcuda_spmv",
           "run_mpicuda_spmv"]

TAG_BCAST = 41
TAG_REDUCE = 50  # + tree level


@dataclass(frozen=True)
class SpmvWorkload:
    """Per-device matrix block size and sparsity."""

    n_per_device: int = 64    # square block edge per device
    density: float = 0.05
    iters: int = 3
    seed: int = 99

    def validate(self, ranks_per_device: int) -> None:
        if self.n_per_device < ranks_per_device:
            raise ValueError(
                f"block edge {self.n_per_device} cannot feed "
                f"{ranks_per_device} ranks")


_BLOCK_CACHE: Dict[Tuple[SpmvWorkload, int, int], sp.csr_matrix] = {}


def make_block(wl: SpmvWorkload, row: int, col: int) -> sp.csr_matrix:
    """The (row, col) device block — deterministic per coordinates.

    Cached: every rank of a device slices the same block, and the paper's
    problem size (10,486^2 at 0.1%) is expensive to regenerate.
    """
    key = (wl, row, col)
    block = _BLOCK_CACHE.get(key)
    if block is None:
        rng = np.random.default_rng([wl.seed, row, col])
        block = sp.random(wl.n_per_device, wl.n_per_device,
                          density=wl.density, format="csr", rng=rng)
        if len(_BLOCK_CACHE) > 32:
            _BLOCK_CACHE.clear()
        _BLOCK_CACHE[key] = block
    return block


def make_x(wl: SpmvWorkload, pc: int) -> np.ndarray:
    rng = np.random.default_rng([wl.seed, 7])
    return rng.standard_normal(wl.n_per_device * pc)


def spmv_costs(nnz: float, rows: float) -> Tuple[float, float]:
    """(flops, bytes) of one local CSR matvec."""
    return 2.0 * nnz, 12.0 * nnz + 16.0 * rows


def reference(wl: SpmvWorkload, num_nodes: int) -> np.ndarray:
    """y = A x on the assembled global matrix."""
    pr, pc = square_grid(num_nodes)
    blocks = [[make_block(wl, r, c) for c in range(pc)] for r in range(pr)]
    a_global = sp.bmat(blocks, format="csr")
    return a_global @ make_x(wl, pc)


# --------------------------------------------------------------- dCUDA ------
def dcuda_spmv_kernel(rank: DRank, wl: SpmvWorkload,
                      outputs: Dict[int, np.ndarray],
                      stats: Dict[int, dict],
                      device_x: Dict[int, np.ndarray],
                      x_init: "np.ndarray | None" = None):
    num_nodes = rank.runtime.cluster.num_nodes
    pr, pc = square_grid(num_nodes)
    rpd = rank.runtime.ranks_per_device
    node = rank.node.index
    drank = rank.comm_rank("device")
    dev_row, dev_col = node // pc, node % pc
    n = wl.n_per_device

    # Column position: over-decomposition stacks the device's ranks along
    # the column dimension of the decomposition.
    col_pos = dev_row * rpd + drank
    col_size = pr * rpd

    def col_rank(q: int) -> int:
        """World rank at column position *q* in my column."""
        return (q // rpd) * pc * rpd + dev_col * rpd + (q % rpd)

    def row_rank(c: int) -> int:
        """World rank at column *c* in my row group (same slice)."""
        return (dev_row * pc + c) * rpd + drank

    # My slice of the device block.
    s0, s1 = block_range(n, rpd, drank)
    a_slice = make_block(wl, dev_row, dev_col)[s0:s1, :].tocsr()
    # All ranks of a device register the SAME x buffer: their windows
    # overlap fully, so intra-device broadcast edges are zero-copy
    # notifications -- the runtime "optimizes out" the redundant
    # shared-memory puts (paper SS II-D).
    x_buf = device_x[node]
    if dev_row == 0 and drank == 0:
        x_global = make_x(wl, pc) if x_init is None else x_init
        x_buf[:] = x_global[dev_col * n:(dev_col + 1) * n]
    levels = tree_levels(pc)
    slice_len = s1 - s0
    scratch = np.zeros((max(levels, 1), slice_len))

    win_x = yield from rank.win_create(x_buf)
    win_scr = yield from rank.win_create(scratch.reshape(-1))
    yield from rank.barrier()
    flops, mem_bytes = spmv_costs(a_slice.nnz, slice_len)
    y_final = np.zeros(slice_len)
    t0 = rank.now

    for _ in range(wl.iters):
        # 1) broadcast x down the column (binomial tree over col_size).
        mask = 1
        while mask < col_size:
            if col_pos & mask:
                yield from rank.wait_notifications(win_x, tag=TAG_BCAST,
                                                   count=1)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if col_pos + mask < col_size:
                yield from rank.put_notify(win_x, col_rank(col_pos + mask),
                                           0, x_buf, tag=TAG_BCAST)
            mask >>= 1

        # 2) local sparse matrix-vector product.
        y_part = yield from rank.compute(
            flops, mem_bytes, fn=lambda: a_slice @ x_buf, detail="spmv")

        # 3) reduce along the row (binomial gather to column 0).
        level = 0
        mask = 1
        while mask < pc:
            if dev_col & mask:
                target = row_rank(dev_col - mask)
                yield from rank.put_notify(
                    win_scr, target, level * slice_len, y_part,
                    tag=TAG_REDUCE + level)
                break
            if dev_col + mask < pc:
                yield from rank.wait_notifications(
                    win_scr, source=row_rank(dev_col + mask),
                    tag=TAG_REDUCE + level, count=1)
                yield from rank.compute(
                    2.0 * slice_len, 24.0 * slice_len,
                    fn=lambda lv=level, yp=y_part:
                    np.add(yp, scratch[lv], out=yp), detail="reduce-add")
            mask <<= 1
            level += 1
        if dev_col == 0:
            y_final[:] = y_part

        # 4) tight synchronization.
        yield from rank.barrier()

    elapsed = rank.now - t0
    yield from rank.win_free(win_x)
    yield from rank.win_free(win_scr)
    yield from rank.finish()
    if dev_col == 0:
        outputs[rank.world_rank] = (dev_row, s0, y_final)
    if rank.world_rank == 0:
        stats[0] = {"main_loop": elapsed}


def _assemble_y(wl: SpmvWorkload, outputs: Dict[int, np.ndarray],
                pr: int) -> np.ndarray:
    y = np.zeros(wl.n_per_device * pr)
    for dev_row, s0, part in outputs.values():
        base = dev_row * wl.n_per_device + s0
        y[base:base + len(part)] = part
    return y


def run_dcuda_spmv(cluster: Cluster, wl: SpmvWorkload,
                   ranks_per_device: int, x_init=None):
    """Run the dCUDA variant; *x_init* overrides the seeded input vector
    (used e.g. by the power-method example)."""
    wl.validate(ranks_per_device)
    pr, pc = square_grid(cluster.num_nodes)
    outputs: Dict[int, np.ndarray] = {}
    stats: Dict[int, dict] = {}
    device_x = {node: np.zeros(wl.n_per_device)
                for node in range(cluster.num_nodes)}
    res = launch(cluster, dcuda_spmv_kernel, ranks_per_device,
                 kernel_args={"wl": wl, "outputs": outputs, "stats": stats,
                              "device_x": device_x, "x_init": x_init})
    return res.elapsed, _assemble_y(wl, outputs, pr), res


# ------------------------------------------------------------- MPI-CUDA ------
def mpicuda_spmv_program(ctx: MPICudaContext, wl: SpmvWorkload,
                         outputs: Dict[int, np.ndarray],
                         stats: Dict[int, dict], nblocks: int):
    num_nodes = ctx.size
    pr, pc = square_grid(num_nodes)
    node = ctx.rank
    dev_row, dev_col = node // pc, node % pc
    n = wl.n_per_device
    a_block = make_block(wl, dev_row, dev_col)
    x_buf = np.zeros(n)
    if dev_row == 0:
        x_buf[:] = make_x(wl, pc)[dev_col * n:(dev_col + 1) * n]
    flops, mem_bytes = spmv_costs(a_block.nnz, n)
    comm_time = 0.0
    y_final = np.zeros(n)

    def col_node(q: int) -> int:
        return q * pc + dev_col

    def row_node(c: int) -> int:
        return dev_row * pc + c

    for _ in range(wl.iters):
        t0 = ctx.now
        # 1) bcast x down the column (manual binomial, two-sided).
        mask = 1
        while mask < pr:
            if dev_row & mask:
                msg = yield from ctx.recv(source=col_node(dev_row - mask),
                                          tag=TAG_BCAST)
                x_buf[:] = msg.payload
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if dev_row + mask < pr:
                ctx.isend(col_node(dev_row + mask), x_buf.copy(),
                          tag=TAG_BCAST)
            mask >>= 1
        comm_time += ctx.now - t0

        # 2) local matvec kernel.
        y_part = yield from ctx.launch(
            nblocks, flops / nblocks, mem_bytes / nblocks,
            fn=lambda: a_block @ x_buf, detail="spmv")

        # 3) reduce along the row (manual binomial, two-sided).
        t0 = ctx.now
        mask = 1
        level = 0
        while mask < pc:
            if dev_col & mask:
                yield from ctx.send(row_node(dev_col - mask), y_part,
                                    tag=TAG_REDUCE + level)
                break
            if dev_col + mask < pc:
                msg = yield from ctx.recv(source=row_node(dev_col + mask),
                                          tag=TAG_REDUCE + level)
                partial = msg.payload
                y_part = yield from ctx.launch(
                    nblocks, 2.0 * n / nblocks, 24.0 * n / nblocks,
                    fn=lambda yp=y_part, pa=partial: yp + pa,
                    detail="reduce-add")
            mask <<= 1
            level += 1
        if dev_col == 0:
            y_final[:] = y_part

        # 4) tight synchronization.
        yield from ctx.barrier()
        comm_time += ctx.now - t0
        yield from ctx.loop_overhead()

    if dev_col == 0:
        outputs[node] = (dev_row, 0, y_final)
    stats[node] = {"comm_time": comm_time}


def run_mpicuda_spmv(cluster: Cluster, wl: SpmvWorkload, nblocks: int = 26):
    pr, pc = square_grid(cluster.num_nodes)
    outputs: Dict[int, np.ndarray] = {}
    stats: Dict[int, dict] = {}
    res = run_mpicuda(cluster, mpicuda_spmv_program,
                      program_args={"wl": wl, "outputs": outputs,
                                    "stats": stats, "nblocks": nblocks})
    return res.elapsed, _assemble_y(wl, outputs, pr), stats
