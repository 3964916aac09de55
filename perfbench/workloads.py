"""The benchmark's workloads: inputs from the seed, timed passes, checks.

Each workload drives ``repro`` only through its public surface (the
``repro.hw`` / ``repro.platform`` builders, ``repro.dcuda.launch`` and
``DRank``, the app and collective entry points, ``repro.exec.run_specs``)
and exposes the same four steps to ``run.py``:

* ``imports()`` then ``build()`` — everything up to the first timed call
  (imports; config, platform and cluster build; inputs).  Together they
  are what ``setup_s`` times (:func:`prepare`).
* ``cold()`` — one timed pass; returns a :class:`Pass`.
* ``replay()`` — the same inputs once more, after the cold pass (a fresh
  simulation for the simulators, a read-only pass over the store for the
  sweep); also a :class:`Pass`.
* ``check_cold(p)`` / ``check_replay(p, cold)`` — the checks; each returns
  ``(operations attempted, list of failure messages)``.

Only the launch (for the sweep, the ``run_specs`` call) is inside a
pass's wall time: cluster builds, garbage collection and checks run
outside it.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Pass", "WORKLOADS", "WORK_DIR", "make_workload", "prepare"]

#: Scratch space inside the checkout (sweep stores, span dumps).
WORK_DIR = ".perfbench-work"


@dataclass
class Pass:
    """One timed pass and what the checks and the per-layer split need."""

    wall_s: float
    #: Simulated time at the end of the launch [s] (simulations only).
    sim_time_s: float = 0.0
    #: Schedule entries pushed during the launch (``Environment._seq``).
    sim_events: int = 0
    outputs: Any = None
    #: The launch's host-queue counters, or the sweep's report.
    detail: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


def queue_counters(runtime) -> Dict[str, int]:
    """Exact host-queue counters summed over every rank's four queues."""
    out = {"enqueues": 0, "credit_reloads": 0, "full_stalls": 0,
           "notifications": 0}
    for rank in range(runtime.total_ranks):
        state = runtime.state_of(rank)
        for queue in (state.cmd_queue, state.ack_queue, state.notif_queue,
                      state.log_queue):
            out["enqueues"] += queue.stats.enqueues
            out["credit_reloads"] += queue.stats.credit_reloads
            out["full_stalls"] += queue.stats.full_stalls
        out["notifications"] += state.notif_queue.stats.enqueues
    return out


# ------------------------------------------------------------ simulations --
class _Simulation:
    """One ``launch`` per pass on a fresh cluster; a replay is the same
    launch again, which must reproduce the cold pass's schedule."""

    replays_per_cycle = 1
    bench_kernels: Tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self._cluster = None

    def cold(self) -> Pass:
        # The first pass uses the cluster build() made; later passes build
        # theirs here, outside the timed section.
        cluster, self._cluster = self._cluster, None
        if cluster is None:
            cluster = self.Cluster(self.cfg)
        gc.collect()
        t0 = time.perf_counter()
        elapsed, outputs, runtime = self._launch(cluster)
        wall = time.perf_counter() - t0
        # Keep the counters, not the runtime: it would hold this whole
        # simulation alive (and in the collector's way) through the next
        # timed pass.
        return Pass(wall, elapsed, cluster.env._seq, outputs,
                    queue_counters(runtime))

    replay = cold

    def _same_schedule(self, p: Pass, cold: Pass) -> List[str]:
        if (p.sim_time_s, p.sim_events) == (cold.sim_time_s, cold.sim_events):
            return []
        return [f"{self.name} replay moved the simulated schedule"]

    def close(self) -> None:
        pass


class StencilProxyFlat(_Simulation):
    """Fig. 10 horizontal diffusion, 2 nodes, proxy backend, flat fabric.

    The paper's per-device grid (128 x 416 x 26) with 208 ranks per device
    (16 per SM on 13 SMs): the over-subscribed overlap workload the paper
    is about.  Its initial field is the app's own fixed one; the seed has
    no input to vary here and is only echoed.
    """

    name = "stencil-proxy-flat"
    _reference = None

    def imports(self) -> None:
        from repro.apps import diffusion
        from repro.hw import Cluster, greina
        from repro.platform import flat

        self.diffusion = diffusion
        self.Cluster = Cluster
        self.greina = greina
        self.flat = flat

    def build(self) -> None:
        if self.tiny:
            self.wl = self.diffusion.DiffusionWorkload(
                ni=16, nj_per_device=32, nk=4, steps=1)
            self.rpd = 8
        else:
            self.wl = self.diffusion.DiffusionWorkload(
                ni=128, nj_per_device=416, nk=26, steps=2)
            self.rpd = 208
        self.cfg = self.greina(topology=self.flat(2), comm_backend="proxy")
        self._cluster = self.Cluster(self.cfg)

    def _launch(self, cluster):
        elapsed, field, res = self.diffusion.run_dcuda_diffusion(
            cluster, self.wl, self.rpd)
        return elapsed, field, res.runtime

    def _check_reference(self, p: Pass) -> List[str]:
        import numpy as np

        if self._reference is None:
            self._reference = self.diffusion.reference(self.wl, 2)
        if np.allclose(p.outputs, self._reference, rtol=1e-9, atol=0.0):
            return []
        return ["stencil field differs from the serial reference "
                "(rtol 1e-9)"]

    def check_cold(self, p: Pass) -> Tuple[int, List[str]]:
        return 1, self._check_reference(p)

    def check_replay(self, p: Pass, cold: Pass) -> Tuple[int, List[str]]:
        import numpy as np

        fails = self._check_reference(p) + self._same_schedule(p, cold)
        if not np.array_equal(p.outputs, cold.outputs):
            fails.append("stencil replay field is not bit-identical")
        return 1, fails


FAMILIES = ("ring", "tree", "hierarchical")


def allreduce_kernel(rank, ops, bufs):
    """Every rank runs each allreduce of *ops* in order (benchmark code).

    ``ops[i] = (family, inputs)`` with ``inputs[r]`` rank r's payload; the
    in-place results land in ``bufs[(i, r)]``.  Allreduces of one size
    share a scratch window, so a barrier separates consecutive ones.
    """
    import numpy as np

    from repro.dcuda import collectives
    from repro.dcuda.collectives import scratch_elems

    p = rank.comm_size()
    r = rank.world_rank
    group = list(range(p))
    wins, scratch = [], {}
    for i, (_, inputs) in enumerate(ops):
        buf = bufs[(i, r)] = inputs[r].copy()
        if buf.size not in scratch:
            scratch[buf.size] = yield from rank.win_create(
                np.zeros(scratch_elems(p, buf.size)))
        win = yield from rank.win_create(buf)
        wins.append((win, scratch[buf.size], buf))
    for i, (family, _) in enumerate(ops):
        win, swin, buf = wins[i]
        yield from rank.barrier()
        yield from collectives.allreduce(rank, win, swin, group, buf,
                                         algorithm=family,
                                         tag_base=i * (4 * p + 8))
    yield from rank.flush()
    yield from rank.barrier()
    for win in [w for w, _, _ in wins] + list(scratch.values()):
        yield from rank.win_free(win)
    yield from rank.finish()


class CollectivesDeviceFattree(_Simulation):
    """``allreduce`` in every family at a latency-bound and a
    bandwidth-bound size on an 8-node x 4-GPU fat tree (32 ranks) with
    NVLink-class intra links, device-initiated backend."""

    name = "collectives-device-fattree"
    bench_kernels = ("allreduce_kernel",)

    def imports(self) -> None:
        from repro import dcuda
        from repro.hw import Cluster, greina
        from repro.platform import fat_tree
        from repro.platform.topology import LinkSpec

        self.dcuda = dcuda
        self.Cluster = Cluster
        self.greina = greina
        self.fat_tree = fat_tree
        self.LinkSpec = LinkSpec

    def build(self) -> None:
        import numpy as np

        nodes, gpus, sizes = (2, 2, (8, 256)) if self.tiny else \
            (8, 4, (64, 65536))
        topo = self.fat_tree(num_nodes=nodes, gpus_per_node=gpus,
                             intra_link=self.LinkSpec(bandwidth=50e9,
                                                      latency=0.25e-6))
        self.cfg = self.greina(topology=topo, comm_backend="device")
        self._cluster = self.Cluster(self.cfg)
        self.ranks = self._cluster.platform.place(1).total_ranks
        # Integer-valued payloads: every partial sum is exact in float64,
        # so each family's result must equal the exact sum bit for bit.
        rng = np.random.default_rng(self.seed)
        self.ops, self.expected = [], []
        for n in sizes:
            for family in FAMILIES:
                ints = rng.integers(-2 ** 20, 2 ** 20, size=(self.ranks, n))
                self.ops.append((family, ints.astype(np.float64)))
                self.expected.append(ints.sum(axis=0).astype(np.float64))

    def _launch(self, cluster):
        bufs: Dict[Tuple[int, int], Any] = {}
        # Both looked up at call time, so tracing can wrap them.
        res = self.dcuda.launch(cluster, allreduce_kernel,
                                ranks_per_device=1,
                                kernel_args={"ops": self.ops, "bufs": bufs})
        return res.elapsed, bufs, res.runtime

    def _check_sums(self, p: Pass) -> List[str]:
        import numpy as np

        fails = []
        for i, (family, inputs) in enumerate(self.ops):
            bad = [r for r in range(self.ranks)
                   if not np.array_equal(p.outputs.get((i, r)),
                                         self.expected[i])]
            if bad:
                fails.append(f"allreduce {family} n={inputs.shape[1]}: "
                             f"{len(bad)} rank(s) differ from the exact sum")
        return fails

    def check_cold(self, p: Pass) -> Tuple[int, List[str]]:
        return len(self.ops), self._check_sums(p)

    def check_replay(self, p: Pass, cold: Pass) -> Tuple[int, List[str]]:
        return len(self.ops), self._check_sums(p) + self._same_schedule(
            p, cold)


# ------------------------------------------------------------------ sweep --
class SweepFig6Chaos:
    """Fig. 6 ping-pong suite plus seeded chaos cases of the fault-injected
    diffusion mini-app, through ``run_specs(workers=2)`` on the default
    same-host executor: a cold pass into a fresh store, then warm replays
    that only read it."""

    name = "sweep-fig6-chaos"
    replays_per_cycle = 10
    bench_kernels = ()
    workers = 2

    def __init__(self, seed: int, tiny: bool = False,
                 work_dir: Optional[Path] = None):
        self.seed = seed
        self.tiny = tiny
        self.work_dir = Path(work_dir or WORK_DIR) / \
            f"sweep-{seed}-{os.getpid()}"
        self._stores = 0
        self.store: Optional[Path] = None
        self.cache = None
        self.first_digest = None
        self._pass: Dict[str, Any] = {}

    def imports(self) -> None:
        from repro.exec import ResultCache, run_specs
        from repro.exec.spec import canonical_digest
        from repro.exec.suites import build_suite
        from repro.faults.report import chaos_specs

        self.run_specs = run_specs
        self.ResultCache = ResultCache
        self.digest = canonical_digest
        self.build_suite = build_suite
        self.chaos_specs = chaos_specs

    def build(self) -> None:
        fig6 = self.build_suite("fig6", iterations=2 if self.tiny else 30)
        count = 4 if self.tiny else 200
        seeds = sorted(random.Random(self.seed).sample(range(10 ** 6),
                                                       count))
        # Runs the fault-free baseline the chaos cases compare against.
        chaos, self.shared = self.chaos_specs(seeds, num_nodes=2,
                                              ranks_per_device=2)
        self.fig6_count = len(fig6.specs)
        self.specs = fig6.specs + chaos
        self._new_store()

    def _new_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self._stores += 1
        self.store = self.work_dir / f"store-{self._stores}"
        self.cache = self.ResultCache(self.store)

    def _on_event(self, event) -> None:
        if event.kind == "worker-lost":
            self._pass["worker_lost"] += 1
        elif event.kind == "done":
            self._pass["done_at"].append(time.perf_counter())

    def _sweep(self, cache) -> Pass:
        import multiprocessing

        from repro.errors import DCudaWorkerError

        # Per pass: worker losses and the completion time of every job.
        self._pass = {"worker_lost": 0, "done_at": []}
        gc.collect()
        t0 = time.perf_counter()
        try:
            report = self.run_specs(self.specs, workers=self.workers,
                                    cache=cache, shared=self.shared,
                                    on_event=self._on_event)
        except DCudaWorkerError as exc:  # quarantine: a failed check
            report = exc
        wall = time.perf_counter() - t0
        # The pool executor terminates its workers without joining them.
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        return Pass(wall, detail=report, extra=self._pass)

    def cold(self) -> Pass:
        # Every cold pass starts from a fresh store; build() creates the
        # first one as part of set-up.
        if self.cache is None:
            self._new_store()
        cache, self.cache = self.cache, None
        p = self._sweep(cache)
        p.extra["store_bytes"] = sum(f.stat().st_size
                                     for f in self.store.rglob("*.pkl"))
        return p

    def replay(self) -> Pass:
        return self._sweep(self.ResultCache(self.store))

    def _results(self, p: Pass) -> Tuple[Optional[list], List[str]]:
        report = p.detail
        if isinstance(report, Exception):
            return None, [f"sweep raised {type(report).__name__}: {report}"]
        if len(report.results) != len(self.specs):
            return None, ["sweep returned the wrong number of results"]
        return report.results, []

    def check_cold(self, p: Pass) -> Tuple[int, List[str]]:
        results, fails = self._results(p)
        if results is None:
            return len(self.specs), fails
        p.outputs = self.digest(results)
        self.first_digest = self.first_digest or p.outputs
        if p.outputs != self.first_digest:
            fails.append("cold pass digest differs from the run's first")
        for spec, value in zip(self.specs[:self.fig6_count], results):
            if not value.latency > 0:
                fails.append(f"{spec.label}: non-positive latency")
        for spec, outcome in zip(self.specs[self.fig6_count:],
                                 results[self.fig6_count:]):
            if not outcome.clean:
                fails.append(f"{spec.label}: chaos outcome {outcome.status} "
                             "is neither clean nor a typed error")
        return len(self.specs), fails

    def check_replay(self, p: Pass, cold: Pass) -> Tuple[int, List[str]]:
        results, fails = self._results(p)
        if results is None:
            return len(self.specs), fails
        p.outputs = self.digest(results)
        if p.outputs != cold.outputs:
            fails.append("warm replay digest differs from the cold pass")
        if p.detail.cache_hits != len(self.specs) or p.detail.executed:
            fails.append(f"warm replay served {p.detail.cache_hits} of "
                         f"{len(self.specs)} specs from the store")
        return len(self.specs), fails

    def chaos_outcomes(self, p: Pass) -> list:
        return p.detail.results[self.fig6_count:]

    def close(self) -> None:
        from multiprocessing import resource_tracker

        shutil.rmtree(self.work_dir, ignore_errors=True)
        # The pool started the interpreter's resource tracker process;
        # stop it and wait for it rather than leave it to outlive the run.
        resource_tracker._resource_tracker._stop()


def prepare(w) -> None:
    """Everything up to the first timed call."""
    w.imports()
    w.build()


WORKLOADS = {w.name: w for w in (StencilProxyFlat, CollectivesDeviceFattree,
                                 SweepFig6Chaos)}


def make_workload(name: str, seed: int, tiny: bool = False,
                  work_dir: Optional[Path] = None):
    cls = WORKLOADS[name]
    if cls is SweepFig6Chaos:
        return cls(seed, tiny, work_dir)
    return cls(seed, tiny)
