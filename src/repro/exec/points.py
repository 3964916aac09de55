"""Registered sweep entrypoints: every figure point as a pure function.

Each entrypoint turns one ``params`` mapping into one picklable result
object and builds *all* of its simulation state internally — a fresh
cluster from config data, nothing captured from the parent process —
which is what makes a :class:`~repro.exec.spec.RunSpec` executable in a
spawned worker and its result addressable by content.  An input every
spec needs (the chaos baseline) is rebuilt from the params and cached by
each worker.

The model code stays where it lives (``repro.bench``, ``repro.faults``,
``repro.apps``); this module is the thin, import-lazy adapter layer the
worker processes load at start-up.  The probe at the bottom
(``selftest_point``) exists for the sweep service's own tests — echo,
timeout, crash isolation, worker loss, forged frames — and does no
simulation work.
"""

from __future__ import annotations

from typing import Any, Mapping

from .spec import entrypoint

__all__ = [
    "chaos_case",
    "pingpong_point",
    "topology_point",
    "overlap_point",
    "weak_scaling_point",
    "collective_point",
    "gemm_point",
    "train_point",
    "queue_burst_point",
    "staging_point",
    "selftest_point",
]


@entrypoint("chaos_case")
def chaos_case(params: Mapping[str, Any]):
    """One seeded fault-injection run of the diffusion mini-app.

    Params: ``seed``, ``num_nodes``, ``ranks_per_device``, ``steps`` (the
    workload's shape, :func:`~repro.faults.report.chaos_workload`),
    optional ``cfg`` (:class:`~repro.faults.config.FaultsConfig`), and
    ``comm_backend`` (the chaos contract holds per backend; the param
    salts the spec digest so per-backend outcomes never share cache
    entries).  The fault-free baseline comes from the worker's
    per-process :func:`~repro.faults.report.baseline_field` cache: one
    fault-free run per worker and shape, before its first chaos case.

    Returns:
        A :class:`~repro.faults.report.ChaosOutcome`.
    """
    from ..faults.report import run_chaos_case

    return run_chaos_case(seed=params.get("seed"),
                          num_nodes=params.get("num_nodes", 2),
                          ranks_per_device=params.get("ranks_per_device", 2),
                          steps=params.get("steps", 2),
                          cfg=params.get("cfg"),
                          comm_backend=params.get("comm_backend", "proxy"))


@entrypoint("pingpong_point")
def pingpong_point(params: Mapping[str, Any]):
    """One Fig. 6 ping-pong measurement.

    Params: ``shared_mem`` (bool), ``packet_bytes``, ``iterations``,
    optional ``cfg`` (:class:`~repro.hw.config.MachineConfig`) and
    ``comm_backend`` (builds a preset config when no ``cfg`` is given;
    either way the backend choice is part of the spec digest).

    Returns:
        A :class:`~repro.bench.pingpong.PingPongResult`.
    """
    from ..bench.pingpong import run_pingpong

    cfg = params.get("cfg")
    backend = params.get("comm_backend")
    if cfg is None and backend is not None:
        from ..hw.config import greina

        cfg = greina(comm_backend=backend)
    return run_pingpong(params["shared_mem"],
                        params.get("packet_bytes", 0),
                        params.get("iterations", 100),
                        cfg=cfg)


@entrypoint("topology_point")
def topology_point(params: Mapping[str, Any]):
    """One ping-pong measurement on a declaratively built platform.

    Params: ``kind`` (``"flat"`` | ``"fat_tree"`` | ``"ring"``),
    ``num_nodes``, ``gpus_per_node``, ``oversubscription`` (fat-tree),
    ``a``/``b`` (the two ranks' ``(node, gpu)`` devices), the usual
    ``packet_bytes``/``iterations``, and optional ``comm_backend``.

    Returns:
        A :class:`~repro.bench.pingpong.PingPongResult`.
    """
    from ..bench.pingpong import run_pingpong_pair
    from ..hw.config import greina
    from ..platform import fat_tree, flat, ring

    kind = params.get("kind", "flat")
    num_nodes = params.get("num_nodes", 4)
    gpus = params.get("gpus_per_node", 1)
    if kind == "flat":
        topo = flat(num_nodes=num_nodes, gpus_per_node=gpus)
    elif kind == "fat_tree":
        topo = fat_tree(num_nodes=num_nodes, gpus_per_node=gpus,
                        oversubscription=params.get("oversubscription", 2.0))
    elif kind == "ring":
        topo = ring(num_nodes, gpus_per_node=gpus)
    else:
        from ..errors import DCudaUsageError

        raise DCudaUsageError(f"unknown interconnect kind {kind!r}")
    cfg = greina(topology=topo,
                 comm_backend=params.get("comm_backend", "proxy"))
    return run_pingpong_pair(cfg,
                             a=tuple(params.get("a", (0, 0))),
                             b=tuple(params.get("b", (1, 0))),
                             packet_bytes=params.get("packet_bytes", 1024),
                             iterations=params.get("iterations", 30))


@entrypoint("overlap_point")
def overlap_point(params: Mapping[str, Any]):
    """One Fig. 7/8 overlap-benchmark configuration.

    Params mirror :func:`~repro.bench.overlap.run_overlap`: ``mode``,
    ``compute_iters``, ``do_compute``, ``do_exchange``, ``steps``,
    ``num_nodes``, ``ranks_per_device``, ``halo_bytes``, optional
    ``cfg``.

    Returns:
        An :class:`~repro.bench.overlap.OverlapPoint`.
    """
    from ..bench.overlap import run_overlap

    return run_overlap(params["mode"], params["compute_iters"],
                       params.get("do_compute", True),
                       params.get("do_exchange", True),
                       params.get("steps", 20),
                       params.get("num_nodes", 8),
                       params.get("ranks_per_device", 52),
                       params.get("halo_bytes", 1024),
                       cfg=params.get("cfg"))


@entrypoint("weak_scaling_point")
def weak_scaling_point(params: Mapping[str, Any]):
    """One node count of a Fig. 9/10/11 weak-scaling sweep.

    Params: ``app`` (``"particles"`` | ``"stencil"`` | ``"spmv"``),
    ``nodes``, optional ``wl`` (the app's workload dataclass, or its
    field values as the figure's default is), ``ranks_per_device``,
    ``nblocks``, ``verify``.

    Returns:
        A :class:`~repro.bench.weak_scaling.ScalingRow`.
    """
    from ..bench.weak_scaling import scaling_point

    return scaling_point(params["app"], params["nodes"],
                         wl=params.get("wl"),
                         ranks_per_device=params.get("ranks_per_device"),
                         nblocks=params.get("nblocks"),
                         verify=params.get("verify", True))


def _ml_cluster(params: Mapping[str, Any]):
    """Build the ML-suite machine a worker process can reconstruct.

    ``kind`` picks the shape: ``"flat"`` is ``num_nodes * gpus_per_node``
    single-GPU nodes on the shared fabric (no intra-node tier, the ring
    algorithm's home turf); ``"fat_tree"`` is ``num_nodes`` dense nodes
    with ``gpus_per_node`` GPUs behind NVLink-class intra links (the
    hierarchical algorithm's home turf) on ``fat_tree``'s defaults:
    radix 4, no oversubscription.  At the default 4 nodes every node
    sits under one leaf, so each inter-node route is node-leaf-node and
    none crosses the spine.  Both shapes expose the same total rank
    count so results compare like-for-like across topologies.
    """
    from ..hw import Cluster, greina
    from ..platform import fat_tree, flat
    from ..platform.topology import LinkSpec

    kind = params.get("kind", "flat")
    num_nodes = params.get("num_nodes", 4)
    gpus = params.get("gpus_per_node", 2)
    if kind == "flat":
        topo = flat(num_nodes=num_nodes * gpus, gpus_per_node=1)
    elif kind == "fat_tree":
        topo = fat_tree(num_nodes=num_nodes, gpus_per_node=gpus,
                        intra_link=LinkSpec(bandwidth=50e9,
                                            latency=0.25e-6))
    else:
        from ..errors import DCudaUsageError

        raise DCudaUsageError(f"unknown ml-suite topology kind {kind!r}")
    return Cluster(greina(topology=topo,
                          comm_backend=params.get("comm_backend",
                                                  "proxy")))


@entrypoint("collective_point")
def collective_point(params: Mapping[str, Any]):
    """One timed collective on one (backend, topology, algorithm) cell.

    Params: ``op`` (``"allreduce"`` | ``"reduce_scatter"`` |
    ``"all_gather"``), ``algorithm`` (family name or ``"auto"``),
    ``elems`` (message length in float64 elements), plus the
    :func:`_ml_cluster` shape params (``kind``, ``num_nodes``,
    ``gpus_per_node``, ``comm_backend``).  Payloads are integer-valued
    so the reduction is exact; the result is verified in-process against
    the serial answer.

    Returns:
        ``{"elapsed": median per-rank seconds, "algorithm": name run,
        "ok": bool}``.
    """
    import numpy as np

    from ..dcuda import launch
    from ..dcuda.collectives import (all_gather, allreduce, chunk_bounds,
                                     reduce_scatter, scratch_elems)

    op = params.get("op", "allreduce")
    algorithm = params.get("algorithm", "ring")
    elems = params.get("elems", 4096)
    cluster = _ml_cluster(params)
    total = cluster.platform.place(1).total_ranks
    base = np.arange(elems, dtype=float)
    summed = total * base + total * (total - 1) / 2.0
    gathered = np.concatenate([
        base[lo:hi] + r
        for r, (lo, hi) in ((r, chunk_bounds(elems, total, r))
                            for r in range(total))])
    times: dict = {}
    checks: dict = {}

    def kernel(rank):
        p = rank.comm_size()
        r = rank.world_rank
        group = list(range(p))
        if op == "all_gather":
            buf = np.zeros(elems)
            lo, hi = chunk_bounds(elems, p, r)
            buf[lo:hi] = base[lo:hi] + r
        else:
            buf = base + r
        win = yield from rank.win_create(buf)
        swin = yield from rank.win_create(
            np.zeros(scratch_elems(p, elems)))
        yield from rank.barrier()
        t0 = rank.now
        if op == "allreduce":
            yield from allreduce(rank, win, swin, group, buf,
                                 algorithm=algorithm)
            ok = np.array_equal(buf, summed)
        elif op == "reduce_scatter":
            lo, hi = yield from reduce_scatter(rank, win, swin, group,
                                               buf, algorithm=algorithm)
            ok = np.array_equal(buf[lo:hi], summed[lo:hi])
        elif op == "all_gather":
            yield from all_gather(rank, win, swin, group, buf,
                                  algorithm=algorithm)
            ok = np.array_equal(buf, gathered)
        else:
            from ..errors import DCudaUsageError

            raise DCudaUsageError(f"unknown collective op {op!r}")
        times[r] = rank.now - t0
        checks[r] = ok
        yield from rank.flush()
        yield from rank.barrier()
        yield from rank.finish()

    launch(cluster, kernel, ranks_per_device=1)
    ordered = sorted(times.values())
    return {"elapsed": ordered[len(ordered) // 2],
            "algorithm": algorithm, "ok": all(checks.values())}


@entrypoint("gemm_point")
def gemm_point(params: Mapping[str, Any]):
    """One pipelined-GEMM run (one mode of the overlap decomposition).

    Params: ``mode`` (``"both"`` | ``"compute"`` | ``"stream"``),
    ``algorithm`` (final-gather family, ``both`` mode only), the
    :class:`~repro.apps.gemm_stream.GemmWorkload` fields (``m``, ``k``,
    ``batch``, ``tiles``, ``slots``), and the :func:`_ml_cluster` shape
    params.  ``m`` must divide over ``total_ranks - 1`` workers.

    Returns:
        ``{"elapsed": median worker pipeline seconds, "gather": max
        worker gather seconds, "ok": bit-identity vs the reference
        (trivially True outside ``both`` mode)}``.
    """
    import numpy as np

    from ..apps.gemm_stream import (GemmWorkload, gemm_reference,
                                    run_gemm_pipeline)

    wl = GemmWorkload(m=params.get("m", 28), k=params.get("k", 12),
                      batch=params.get("batch", 8),
                      tiles=params.get("tiles", 4),
                      slots=params.get("slots", 2))
    mode = params.get("mode", "both")
    cluster = _ml_cluster(params)
    elapsed, y, stats = run_gemm_pipeline(
        cluster, wl, mode=mode, algorithm=params.get("algorithm", "ring"))
    ok = True
    if mode == "both":
        workers = cluster.platform.place(1).total_ranks - 1
        ok = bool(np.array_equal(y, gemm_reference(wl, workers)))
    gather = max(s["gather"] for s in stats.values())
    return {"elapsed": elapsed, "gather": gather, "ok": ok}


@entrypoint("train_point")
def train_point(params: Mapping[str, Any]):
    """One data-parallel SGD run with an (optionally autotuned) allreduce.

    Params: ``features``, ``steps``, ``samples_per_rank``, ``algorithm``
    (family name or ``"auto"``), ``override`` (autotuner pin when
    ``auto``), and the :func:`_ml_cluster` shape params.  The final
    weights are verified against the serial reference in-process.

    Returns:
        ``{"elapsed": median per-rank loop seconds, "algorithm": family
        that ran, "predicted": the autotuner's modelled seconds for it
        (None when pinned per call), "ok": allclose vs reference}``.
    """
    import numpy as np

    from ..apps.train_step import (TrainWorkload, run_train_step,
                                   train_reference)

    wl = TrainWorkload(features=params.get("features", 64),
                       samples_per_rank=params.get("samples_per_rank", 6),
                       steps=params.get("steps", 2))
    cluster = _ml_cluster(params)
    ranks = cluster.platform.place(1).total_ranks
    elapsed, weights, info = run_train_step(
        cluster, wl, algorithm=params.get("algorithm", "auto"),
        override=params.get("override"))
    choice = info["choice"]
    predicted = (choice.costs[choice.algorithm]
                 if choice is not None else None)
    ok = bool(np.allclose(weights, train_reference(wl, ranks)))
    return {"elapsed": elapsed, "algorithm": info["algorithm"],
            "predicted": predicted, "ok": ok}


@entrypoint("queue_burst_point")
def queue_burst_point(params: Mapping[str, Any]):
    """Queue-sizing ablation cell: a put burst at one queue size.

    Rank 0 fires ``burst`` back-to-back puts at a circular queue of
    ``queue_size`` entries and flushes; the credit-reload and full-stall
    counters quantify the flow-control amortization of §III-C.

    Params: ``queue_size``, ``burst``.

    Returns:
        ``{"time": seconds, "reloads": int, "stalls": int}``.
    """
    import dataclasses

    import numpy as np

    from ..dcuda import launch
    from ..hw import Cluster, greina

    qsize = params["queue_size"]
    burst = params.get("burst", 192)
    cfg = greina(1)
    cfg = dataclasses.replace(
        cfg, devicelib=dataclasses.replace(cfg.devicelib,
                                           queue_size=qsize))
    cluster = Cluster(cfg)
    buffers = {r: np.zeros(8, dtype=np.uint8) for r in range(2)}
    out: dict = {}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        if r == 0:
            t0 = rank.now
            for _ in range(burst):
                yield from rank.put_notify(win, 1, 0, buffers[0][:8],
                                           tag=1, notify=False)
            yield from rank.flush(win)
            out["time"] = rank.now - t0
            q = rank.state.cmd_queue
            out["reloads"] = q.stats.credit_reloads
            out["stalls"] = q.stats.full_stalls
        yield from rank.barrier()
        yield from rank.finish()

    launch(cluster, kernel, ranks_per_device=2)
    return {"time": out["time"], "reloads": out["reloads"],
            "stalls": out["stalls"]}


@entrypoint("staging_point")
def staging_point(params: Mapping[str, Any]):
    """Host-staging ablation cell: one device-buffer send, timed.

    Params: ``nbytes`` (message size) and ``staging_threshold`` (bytes
    above which the MPI substrate stages through host memory).

    Returns:
        One-way delivery time in seconds (float).
    """
    import dataclasses

    from ..hw import Cluster, greina
    from ..mpi import MPIWorld

    nbytes = params["nbytes"]
    cfg = greina(2)
    cfg = dataclasses.replace(
        cfg, fabric=dataclasses.replace(
            cfg.fabric, staging_threshold=params["staging_threshold"]))
    cluster = Cluster(cfg)
    world = MPIWorld(cluster)
    out: dict = {}

    def sender(env):
        yield from world.send(0, 1, None, nbytes=nbytes, device=True)

    def receiver(env):
        t0 = env.now
        yield from world.recv(1)
        out["dt"] = env.now - t0

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    return out["dt"]


@entrypoint("selftest_point")
def selftest_point(params: Mapping[str, Any]):
    """Sweep-service test probe: echo, sleep, raise, or kill the worker.

    ``mode`` selects the behaviour:

    * ``echo`` (default) — return a deterministic record of the params;
      the chaos fuzz harness digests these.
    * ``sleep`` — sleep ``seconds`` of host time, then echo.
    * ``raise`` — raise an untyped ``RuntimeError(message)``.
    * ``exit`` — hard-kill the hosting process with ``os._exit(code)``
      (the poisoned-spec case: the transport sees EOF, never an
      exception).
    * ``forge`` — write the bytes ``blob`` to the process's stdout, then
      echo.  In a ``worker --stdio`` process that is the frame pipe, so
      the parent reads a forged frame before the real one (the frame
      fuzz's worker).

    Lives in the registry — rather than in test code — because spawned
    workers resolve entrypoints by importing this module; a test-local
    function would not exist in their interpreter.
    """
    import os
    import time

    mode = params.get("mode", "echo")
    if mode == "sleep":
        time.sleep(params.get("seconds", 0.0))
    elif mode == "raise":
        raise RuntimeError(params.get("message", "selftest_point"))
    elif mode == "exit":
        os._exit(int(params.get("code", 17)))
    elif mode == "forge":
        import sys

        sys.stdout.buffer.write(params["blob"])
        sys.stdout.buffer.flush()
    return {"token": params.get("token"), "mode": mode}
