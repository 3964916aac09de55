"""Named sweep suites: spec lists + table assembly for the CLIs.

A *suite* bundles what ``python -m repro.exec run <name>`` and
``python -m repro.bench <figure> --workers N`` both need: the list of
:class:`~repro.exec.spec.RunSpec` tasks and a function that assembles
the engine's result list back into the figure's
:class:`~repro.bench.table.Table`.  Building a suite is pure data: no
builder simulates anything or ships a payload beside its specs.
Keeping the builders here — rather than in either CLI — means the
pytest benchmarks, the figure runner, and the sweep runner all execute
the *same* specs, so their cached results are interchangeable.

The assembly functions are pure reshaping: all simulation work happens
inside entrypoints (:mod:`repro.exec.points`), all scheduling inside the
coordinator (:mod:`repro.exec.coordinator`) over whichever executor
transport (:mod:`repro.exec.executors`) the caller picked — a suite is
transport-agnostic by construction, which is what makes its digest the
bit-identity witness across serial, local and HTTP runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..errors import DCudaUsageError
from .spec import RunSpec

__all__ = ["Suite", "build_suite", "SUITE_NAMES"]

#: Fig. 6 packet sizes (1 B .. 4 MB) — matches the benchmark module.
_FIG6_SIZES = tuple(4 ** k for k in range(0, 12))
#: Fig. 7/8 compute-iteration sweep — matches the benchmark modules.
_OVERLAP_ITERS = (0, 16, 64, 128, 256, 512)


@dataclass
class Suite:
    """One runnable sweep: specs in, rendered table out."""

    name: str
    specs: List[RunSpec]
    #: ``assemble(results) -> str`` — render the merged results.
    assemble: Callable[[List[Any]], str] = lambda results: repr(results)


def _chaos_suite(seeds: Sequence[int], nodes: int, ranks: int,
                 steps: int) -> Suite:
    from ..faults.report import chaos_specs, sweep_table

    specs, _ = chaos_specs(seeds, nodes, ranks, steps)

    def assemble(outcomes):
        return sweep_table(outcomes).render()

    return Suite("chaos", specs, assemble=assemble)


def _fig6_suite(iterations: int) -> Suite:
    from ..bench.table import Table

    specs = [RunSpec("pingpong_point",
                     dict(shared_mem=shared_mem, packet_bytes=size,
                          iterations=iterations),
                     label=f"fig6:{'shm' if shared_mem else 'dist'}:{size}B")
             for shared_mem in (True, False) for size in _FIG6_SIZES]

    def assemble(results):
        half = len(_FIG6_SIZES)
        shared, dist = results[:half], results[half:]
        table = Table("Fig. 6 - put bandwidth vs packet size",
                      ["packet [B]", "shared [MB/s]", "distributed [MB/s]",
                       "shared lat [us]", "distributed lat [us]"])
        for s, d in zip(shared, dist):
            table.add_row(s.packet_bytes, s.bandwidth / 1e6,
                          d.bandwidth / 1e6, s.latency * 1e6,
                          d.latency * 1e6)
        return table.render()

    return Suite("fig6", specs, assemble=assemble)


def overlap_sweep_specs(mode: str, steps: int, nodes: int,
                        ranks_per_device: int,
                        iters: Sequence[int] = _OVERLAP_ITERS):
    """Spec list for one overlap figure + the row-reassembly recipe.

    Returns:
        ``(specs, reassemble)`` where ``reassemble(results)`` yields
        ``[(n, both, comp, exchange_only), ...]`` in sweep order.
    """
    base = dict(mode=mode, steps=steps, num_nodes=nodes,
                ranks_per_device=ranks_per_device)
    specs = [RunSpec("overlap_point",
                     dict(base, compute_iters=0, do_compute=False,
                          do_exchange=True),
                     label=f"{mode}:exchange-only")]
    for n in iters:
        specs.append(RunSpec("overlap_point",
                             dict(base, compute_iters=n, do_compute=True,
                                  do_exchange=True),
                             label=f"{mode}:both:{n}"))
        if n:
            specs.append(RunSpec("overlap_point",
                                 dict(base, compute_iters=n,
                                      do_compute=True, do_exchange=False),
                                 label=f"{mode}:compute-only:{n}"))

    def reassemble(results):
        ex = results[0].elapsed
        rows, i = [], 1
        for n in iters:
            both = results[i].elapsed
            i += 1
            comp = 0.0
            if n:
                comp = results[i].elapsed
                i += 1
            rows.append((n, both, comp, ex))
        return rows

    return specs, reassemble


def _overlap_suite(name: str, mode: str, title: str, col0: str,
                   steps: int, nodes: int) -> Suite:
    from ..bench.table import Table

    specs, reassemble = overlap_sweep_specs(mode, steps, nodes, 52)

    def assemble(results):
        table = Table(title, [col0, "compute&exchange [ms]",
                              "compute only [ms]", "halo exchange [ms]"])
        for n, both, comp, ex in reassemble(results):
            table.add_row(n, both * 1e3, comp * 1e3, ex * 1e3)
        return table.render()

    return Suite(name, specs, assemble=assemble)


def _weak_scaling_suite(name: str, app: str, node_counts: Sequence[int],
                        verify: bool) -> Suite:
    from ..bench.weak_scaling import weak_scaling_specs, weak_scaling_table

    specs, wl = weak_scaling_specs(app, node_counts, verify=verify)

    def assemble(rows):
        return weak_scaling_table(app, wl, rows).render()

    return Suite(name, specs, assemble=assemble)


#: Overlap-miniature shape for the topo suite's efficiency report.
#: 26 ranks/device = 2 blocks per SM on the Greina GPU — enough
#: over-subscription that the SM can hide halo waits behind compute.
_TOPO_OVERLAP = dict(mode="copy", compute_iters=64, steps=4,
                     ranks_per_device=26, halo_bytes=1024)


def _topo_overlap_cfg(kind: str, nodes: int, gpus: int, backend: str):
    """Machine config for one (backend, topology) overlap miniature."""
    from ..hw.config import greina
    from ..platform import fat_tree, flat, ring

    if kind == "flat":
        topo = flat(num_nodes=nodes, gpus_per_node=gpus)
    elif kind == "fat_tree":
        topo = fat_tree(num_nodes=nodes, gpus_per_node=gpus)
    else:
        topo = ring(nodes, gpus_per_node=gpus)
    return greina(topology=topo, comm_backend=backend)


def _topo_suite(kinds: Sequence[str], nodes: int, gpus: int,
                iterations: int,
                backends: Sequence[str] = ("proxy",)) -> Suite:
    from ..bench.table import Table

    # "far" is the ring diameter (nodes//2), which is also the last node
    # of the other fat-tree leaf on larger machines.
    pairs = [("same-node", (0, 0), (0, 1 if gpus > 1 else 0)),
             ("adjacent", (0, 0), (1 if nodes > 1 else 0, 0)),
             ("far", (0, 0), (nodes // 2, 0))]
    specs = [RunSpec("topology_point",
                     dict(kind=kind, num_nodes=nodes, gpus_per_node=gpus,
                          a=a, b=b, packet_bytes=1024,
                          iterations=iterations, comm_backend=backend),
                     label=f"topo:{backend}:{kind}:{pair}")
             for backend in backends
             for kind in kinds for pair, a, b in pairs]
    # One overlap miniature per (backend, topology): compute&exchange,
    # compute-only, exchange-only — the three terms of the overlap
    # efficiency (compute + exchange - both) / exchange.
    variants = [("both", True, True), ("compute", True, False),
                ("exchange", False, True)]
    for backend in backends:
        for kind in kinds:
            cfg = _topo_overlap_cfg(kind, nodes, gpus, backend)
            for vname, do_compute, do_exchange in variants:
                params = dict(_TOPO_OVERLAP, num_nodes=nodes, cfg=cfg,
                              do_compute=do_compute,
                              do_exchange=do_exchange)
                if not do_compute:
                    params["compute_iters"] = 0
                specs.append(RunSpec(
                    "overlap_point", params,
                    label=f"topo-overlap:{backend}:{kind}:{vname}"))

    def assemble(results):
        table = Table(f"Topology matrix - 1 KiB put latency "
                      f"({nodes} nodes x {gpus} GPU(s))",
                      ["backend", "interconnect", "pair", "latency [us]",
                       "bandwidth [MB/s]"])
        i = 0
        for backend in backends:
            for kind in kinds:
                for pair, _a, _b in pairs:
                    r = results[i]
                    i += 1
                    table.add_row(backend, kind, pair, r.latency * 1e6,
                                  r.bandwidth / 1e6)
        eff = Table("Overlap efficiency per (backend, topology) - "
                    "copy kernel, 64 iters/exchange",
                    ["backend", "interconnect", "both [us]",
                     "compute [us]", "exchange [us]", "efficiency"])
        for backend in backends:
            for kind in kinds:
                both, comp, ex = (results[i].elapsed,
                                  results[i + 1].elapsed,
                                  results[i + 2].elapsed)
                i += 3
                efficiency = (comp + ex - both) / ex if ex > 0 else 0.0
                eff.add_row(backend, kind, both * 1e6, comp * 1e6,
                            ex * 1e6, efficiency)
        eff.add_note("efficiency = (compute-only + exchange-only - both)"
                     " / exchange-only; 1.0 = full overlap")
        return table.render() + "\n\n" + eff.render()

    return Suite("topo", specs, assemble=assemble)


#: ML-suite interconnect kinds — the two shapes the collectives story
#: contrasts (ring's flat fabric vs hierarchical's dense fat tree).
_ML_KINDS = ("flat", "fat_tree")
#: Allreduce message length (float64 elements) for the latency table.
_ML_ELEMS = 4096
#: Gradient sizes for the autotuned SGD rows: small enough that the
#: latency terms dominate (tree territory) and large enough that the
#: bandwidth terms dominate (ring on flat, hierarchical on fat tree).
_ML_FEATURES = (64, 65536)


def _ml_suite(kinds: Sequence[str], nodes: int, gpus: int,
              backends: Sequence[str]) -> Suite:
    from ..bench.table import Table
    from ..dcuda.collectives import ALGORITHMS

    # Streaming-GEMV scale: enough rows per worker that the tile
    # multiplies can actually hide the streaming (cf. Fig. 7/8).
    gemm = dict(m=(nodes * gpus - 1) * 2048, k=96, batch=32, tiles=8,
                slots=4)
    specs = []
    for backend in backends:
        for kind in kinds:
            shape = dict(kind=kind, num_nodes=nodes, gpus_per_node=gpus,
                         comm_backend=backend)
            for alg in ALGORITHMS:
                specs.append(RunSpec(
                    "collective_point",
                    dict(shape, op="allreduce", algorithm=alg,
                         elems=_ML_ELEMS),
                    label=f"ml-coll:{backend}:{kind}:{alg}"))
            for mode in ("both", "compute", "stream"):
                specs.append(RunSpec(
                    "gemm_point", dict(shape, mode=mode,
                                       algorithm="ring", **gemm),
                    label=f"ml-gemm:{backend}:{kind}:{mode}"))
            for features in _ML_FEATURES:
                specs.append(RunSpec(
                    "train_point", dict(shape, features=features,
                                        steps=2, algorithm="auto"),
                    label=f"ml-train:{backend}:{kind}:{features}"))

    def assemble(results):
        ranks = nodes * gpus
        coll = Table(f"ML collectives - allreduce latency "
                     f"({_ML_ELEMS} float64, {ranks} ranks)",
                     ["backend", "topology", "algorithm", "latency [us]",
                      "exact"])
        gemm_t = Table("Pipelined GEMM - overlap decomposition "
                       "(median worker loop)",
                       ["backend", "topology", "both [us]",
                        "compute [us]", "stream [us]", "efficiency"])
        train = Table("Autotuned data-parallel SGD step",
                      ["backend", "topology", "features", "chosen",
                       "predicted [us]", "measured [us]", "verified"])
        i = 0
        for backend in backends:
            for kind in kinds:
                for alg in ALGORITHMS:
                    r = results[i]
                    i += 1
                    coll.add_row(backend, kind, alg,
                                 r["elapsed"] * 1e6,
                                 "yes" if r["ok"] else "NO")
                both, comp, stream = results[i], results[i + 1], \
                    results[i + 2]
                i += 3
                eff = ((comp["elapsed"] + stream["elapsed"]
                        - both["elapsed"]) / stream["elapsed"]
                       if stream["elapsed"] > 0 else 0.0)
                gemm_t.add_row(backend, kind, both["elapsed"] * 1e6,
                               comp["elapsed"] * 1e6,
                               stream["elapsed"] * 1e6, eff)
                for features in _ML_FEATURES:
                    r = results[i]
                    i += 1
                    train.add_row(backend, kind, features,
                                  r["algorithm"],
                                  r["predicted"] * 1e6,
                                  r["elapsed"] * 1e6,
                                  "yes" if r["ok"] else "NO")
        coll.add_note("every algorithm reduces bit-identically; the "
                      "latency spread is the schedule")
        gemm_t.add_note("efficiency = (compute + stream - both) / "
                        "stream; 1.0 = streaming fully hidden")
        train.add_note("chosen by the CollectiveAutotuner per "
                       "(topology, group, message size)")
        return (coll.render() + "\n\n" + gemm_t.render() + "\n\n"
                + train.render())

    return Suite("ml", specs, assemble=assemble)


def _simperf_suite(quick: bool, comm_backend: str = "proxy") -> Suite:
    from ..bench.simperf import simperf_specs, simperf_table

    specs = simperf_specs(quick=quick, comm_backend=comm_backend)

    def assemble(results):
        return simperf_table(results).render()

    return Suite("simperf", specs, assemble=assemble)


SUITE_NAMES = ("chaos", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
               "topo", "ml", "simperf")


def build_suite(name: str, *, seeds: int = 50, nodes: int = 2,
                ranks: int = 2, steps: int = 2, iterations: int = 30,
                overlap_steps: int = 20, overlap_nodes: int = 8,
                node_counts: Optional[Sequence[int]] = None,
                verify: bool = True, full: bool = False,
                topology: Optional[Sequence[str]] = None,
                topo_nodes: int = 4, topo_gpus: int = 2,
                backends: Optional[Sequence[str]] = None) -> Suite:
    """Construct a named suite with the given knobs.

    Args:
        name: One of :data:`SUITE_NAMES`.
        seeds: Chaos-sweep seed count (seeds ``0..N-1``).
        nodes/ranks/steps: Chaos cluster size, over-subscription, and
            diffusion iterations.
        iterations: Fig. 6 ping-pong iterations per packet size.
        overlap_steps/overlap_nodes: Fig. 7/8 sweep shape.
        node_counts: Fig. 9-11 node counts (figure default when ``None``).
        verify: Reference-verify the weak-scaling figures.
        full: Figure-scale simperf workload instead of the quick probe.
        topology: topo/ml: interconnect kinds to sweep (topo: all
            three; ml: flat and fat_tree — when ``None``).
        topo_nodes/topo_gpus: topo/ml: machine shape per kind.
        backends: topo/ml/simperf: communication backends to sweep
            (``("proxy",)`` when ``None``; simperf uses the first).

    Raises:
        DCudaUsageError: Unknown suite name.
    """
    if name == "chaos":
        return _chaos_suite(range(seeds), nodes, ranks, steps)
    if name == "fig6":
        return _fig6_suite(iterations)
    if name == "fig7":
        return _overlap_suite(
            "fig7", "newton",
            "Fig. 7 - overlap for square root calculation (Newton-Raphson)",
            "newton iters/exchange", overlap_steps, overlap_nodes)
    if name == "fig8":
        return _overlap_suite(
            "fig8", "copy", "Fig. 8 - overlap for memory-to-memory copy",
            "copy iters/exchange", overlap_steps, overlap_nodes)
    if name == "fig9":
        return _weak_scaling_suite("fig9", "particles",
                                   node_counts or (1, 2, 4, 8), verify)
    if name == "fig10":
        return _weak_scaling_suite("fig10", "stencil",
                                   node_counts or (1, 2, 4, 8), verify)
    if name == "fig11":
        return _weak_scaling_suite("fig11", "spmv",
                                   node_counts or (1, 4, 9), verify)
    backend_list = tuple(backends) if backends else ("proxy",)
    from ..hw.config import COMM_BACKENDS

    for backend in backend_list:
        if backend not in COMM_BACKENDS:
            raise DCudaUsageError(
                f"unknown comm backend {backend!r}; available: "
                f"{', '.join(COMM_BACKENDS)}")
    if name == "topo":
        from ..platform import INTERCONNECT_KINDS

        kinds = tuple(topology) if topology else INTERCONNECT_KINDS
        for kind in kinds:
            if kind not in INTERCONNECT_KINDS:
                raise DCudaUsageError(
                    f"unknown interconnect kind {kind!r}; available: "
                    f"{', '.join(INTERCONNECT_KINDS)}")
        return _topo_suite(kinds, topo_nodes, topo_gpus, iterations,
                           backends=backend_list)
    if name == "ml":
        kinds = tuple(topology) if topology else _ML_KINDS
        for kind in kinds:
            if kind not in _ML_KINDS:
                raise DCudaUsageError(
                    f"unknown ml topology kind {kind!r}; available: "
                    f"{', '.join(_ML_KINDS)}")
        return _ml_suite(kinds, topo_nodes, topo_gpus, backend_list)
    if name == "simperf":
        return _simperf_suite(quick=not full,
                              comm_backend=backend_list[0])
    raise DCudaUsageError(
        f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
