"""Named sweep suites: spec lists + table assembly for ``python -m
repro.exec run``.

A *suite* bundles what the sweep CLI needs to regenerate one figure or
report: the list of :class:`~repro.exec.spec.RunSpec` tasks, a function
that assembles the engine's result list back into the figure's
:class:`~repro.bench.table.Table`, and the results that break the
suite's contract.  Building a suite is pure data: no builder simulates
anything or ships a payload beside its specs.  The pytest benchmarks and
the CLI build their specs here, so their cached results are
interchangeable.

Each suite reads a fixed set of knobs (:data:`_SUITES`), each with a
per-suite default; :func:`build_suite` refuses a knob the suite would
ignore rather than run a sweep the caller did not ask for.

The assembly functions are pure reshaping: all simulation work happens
inside entrypoints (:mod:`repro.exec.points`), all scheduling inside the
coordinator (:mod:`repro.exec.coordinator`) over whichever executor
transport (:mod:`repro.exec.executors`) the caller picked — a suite is
transport-agnostic by construction, which is what makes its digest the
bit-identity witness across serial, local and HTTP runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

from ..errors import DCudaUsageError
from .spec import RunSpec

__all__ = ["Suite", "build_suite", "SUITE_NAMES"]

#: Fig. 6 packet sizes (1 B .. 4 MB).
_FIG6_SIZES = tuple(4 ** k for k in range(0, 12))
#: Fig. 7/8 compute-iteration sweep — matches the benchmark modules.
_OVERLAP_ITERS = (0, 16, 64, 128, 256, 512)


@dataclass
class Suite:
    """One runnable sweep: specs in, rendered table out."""

    name: str
    specs: List[RunSpec]
    #: ``assemble(results) -> str`` — render the merged results.
    assemble: Callable[[List[Any]], str]
    #: ``violations(results) -> lines`` — one line per result that breaks
    #: the suite's contract; ``run`` prints them and exits 1.
    violations: Callable[[List[Any]], List[str]] = lambda results: []


def _chaos_suite(name: str, seeds: int, nodes: int, ranks: int,
                 steps: int) -> Suite:
    from ..faults.report import chaos_specs, outcome_line, sweep_table

    specs, _ = chaos_specs(range(seeds), nodes, ranks, steps)

    def assemble(outcomes):
        return sweep_table(outcomes).render()

    def violations(outcomes):
        return [outcome_line(o) for o in outcomes if not o.clean]

    return Suite(name, specs, assemble=assemble, violations=violations)


def _fig6_suite(name: str, iterations: int) -> Suite:
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

    return Suite(name, specs, assemble=assemble)


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


#: Overlap figure -> (kernel mode, table title, first column).
_OVERLAP_FIGS = {
    "fig7": ("newton",
             "Fig. 7 - overlap for square root calculation (Newton-Raphson)",
             "newton iters/exchange"),
    "fig8": ("copy", "Fig. 8 - overlap for memory-to-memory copy",
             "copy iters/exchange"),
}


def _overlap_suite(name: str, nodes: int, steps: int) -> Suite:
    from ..bench.table import Table

    mode, title, col0 = _OVERLAP_FIGS[name]
    specs, reassemble = overlap_sweep_specs(mode, steps, nodes, 52)

    def assemble(results):
        table = Table(title, [col0, "compute&exchange [ms]",
                              "compute only [ms]", "halo exchange [ms]"])
        for n, both, comp, ex in reassemble(results):
            table.add_row(n, both * 1e3, comp * 1e3, ex * 1e3)
        return table.render()

    return Suite(name, specs, assemble=assemble)


#: Weak-scaling figure -> the mini-app it scales.
_SCALING_APPS = {"fig9": "particles", "fig10": "stencil", "fig11": "spmv"}


def _weak_scaling_suite(name: str, nodes: Sequence[int],
                        verify: bool) -> Suite:
    from ..bench.weak_scaling import weak_scaling_specs, weak_scaling_table

    app = _SCALING_APPS[name]
    specs, wl = weak_scaling_specs(app, nodes, verify=verify)

    def assemble(rows):
        return weak_scaling_table(app, wl, rows).render()

    return Suite(name, specs, assemble=assemble)


def _check(what: str, names: Sequence[str],
           available: Sequence[str]) -> None:
    for name in names:
        if name not in available:
            raise DCudaUsageError(f"unknown {what} {name!r}; available: "
                                  f"{', '.join(available)}")


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


def _topo_suite(name: str, topology: Sequence[str], nodes: int,
                topo_gpus: int, iterations: int,
                backends: Sequence[str]) -> Suite:
    from ..bench.table import Table
    from ..hw.config import COMM_BACKENDS
    from ..platform import INTERCONNECT_KINDS

    kinds, gpus = tuple(topology or INTERCONNECT_KINDS), topo_gpus
    _check("interconnect kind", kinds, INTERCONNECT_KINDS)
    _check("comm backend", backends, COMM_BACKENDS)

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

    return Suite(name, specs, assemble=assemble)


#: ML-suite interconnect kinds — the two shapes the collectives story
#: contrasts (ring's flat fabric vs hierarchical's dense fat tree).
_ML_KINDS = ("flat", "fat_tree")
#: Allreduce message length (float64 elements) for the latency table.
_ML_ELEMS = 4096
#: Gradient sizes for the autotuned SGD rows: small enough that the
#: latency terms dominate (tree territory) and large enough that the
#: bandwidth terms dominate (ring on flat, hierarchical on fat tree).
_ML_FEATURES = (64, 65536)


def _ml_suite(name: str, topology: Sequence[str], nodes: int,
              topo_gpus: int, backends: Sequence[str]) -> Suite:
    from ..bench.table import Table
    from ..dcuda.collectives import ALGORITHMS
    from ..hw.config import COMM_BACKENDS

    kinds, gpus = tuple(topology), topo_gpus
    _check("ml topology kind", kinds, _ML_KINDS)
    _check("comm backend", backends, COMM_BACKENDS)

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

    return Suite(name, specs, assemble=assemble)


#: Suite name -> (builder, the knobs it reads with their defaults);
#: ``build_suite`` calls ``builder(name, **knobs)``.  A ``nodes``
#: default that is a tuple marks a suite that sweeps node counts; an
#: int, one that builds one machine.  ``topology=None`` is every
#: interconnect kind.
_SUITES = {
    "chaos": (_chaos_suite, dict(seeds=50, nodes=2, ranks=2, steps=2)),
    "fig6": (_fig6_suite, dict(iterations=30)),
    "fig7": (_overlap_suite, dict(nodes=8, steps=20)),
    "fig8": (_overlap_suite, dict(nodes=8, steps=20)),
    "fig9": (_weak_scaling_suite, dict(nodes=(1, 2, 4, 8), verify=True)),
    "fig10": (_weak_scaling_suite, dict(nodes=(1, 2, 4, 8), verify=True)),
    "fig11": (_weak_scaling_suite, dict(nodes=(1, 4, 9), verify=True)),
    "topo": (_topo_suite, dict(topology=None, nodes=4, topo_gpus=2,
                               iterations=30, backends=("proxy",))),
    "ml": (_ml_suite, dict(topology=_ML_KINDS, nodes=4, topo_gpus=2,
                           backends=("proxy",))),
}

SUITE_NAMES = tuple(_SUITES)


def build_suite(name: str, *, seeds=None, nodes=None, ranks=None,
                steps=None, iterations=None, verify=None, topology=None,
                topo_gpus=None, backends=None) -> Suite:
    """Construct a named suite; a knob left ``None`` takes the suite's
    default.

    Args:
        name: One of :data:`SUITE_NAMES`.
        seeds: chaos: seed count (seeds ``0..N-1``).
        nodes: Node count, or a sequence of them: fig9-11 sweep every
            count given; chaos, fig7/8, topo and ml build one machine
            and take one.
        ranks/steps: chaos: ranks per device and diffusion steps; fig7/8
            read ``steps`` as the overlap iterations per point.
        iterations: fig6/topo: ping-pong iterations per point.
        verify: fig9-11: check each point against the serial reference.
        topology: topo/ml: interconnect kinds to sweep.
        topo_gpus: topo/ml: GPUs per node.
        backends: topo/ml: communication backends to sweep.

    Raises:
        DCudaUsageError: Unknown suite name, a knob the suite does not
            read, several node counts for a one-machine suite, or an
            unknown backend or interconnect kind.
    """
    if name not in _SUITES:
        raise DCudaUsageError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    builder, defaults = _SUITES[name]
    knobs = dict(defaults)
    given = dict(seeds=seeds, nodes=nodes, ranks=ranks, steps=steps,
                 iterations=iterations, verify=verify, topology=topology,
                 topo_gpus=topo_gpus, backends=backends)
    for knob, value in given.items():
        if value is None:
            continue
        if knob not in defaults:
            raise DCudaUsageError(
                f"suite {name!r} does not read the {knob!r} knob; it "
                f"reads {', '.join(defaults)}")
        knobs[knob] = value
    if nodes is not None:
        counts = (nodes,) if isinstance(nodes, int) else tuple(nodes)
        if isinstance(defaults["nodes"], int):
            if len(counts) != 1:
                raise DCudaUsageError(
                    f"suite {name!r} builds one machine and takes one "
                    f"'nodes' count, not {len(counts)}")
            counts = counts[0]
        knobs["nodes"] = counts
    return builder(name, **knobs)
