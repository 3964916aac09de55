"""Golden simulated-timestamp capture (determinism guard rail).

The simulator's contract is that performance work on the DES kernel (the
virtual-time fair-share links, the pooled timeout path, the scheduler's
containers, the notification matcher) must never move a single
*simulated* timestamp.  This
module defines one miniature instance of every figure workload and digests
each into a flat ``{label: simulated time}`` mapping.  The captured values
are stored in ``tests/fixtures/golden_timestamps.json`` and the regression
test ``tests/integration/test_golden_timestamps.py`` asserts that the
current kernel reproduces them **exactly** — ``==`` on floats, not
``pytest.approx``.

Regenerate the fixture (only after an *intentional* model change) with::

    PYTHONPATH=src python -m repro.bench.golden tests/fixtures/golden_timestamps.json

A second fixture freezes the *per-communication-backend* schedules
(``tests/fixtures/comm_backend_timestamps.json``): the same ping-pong and
overlap miniatures, run once per backend in
:data:`~repro.hw.config.COMM_BACKENDS`.  Its proxy entries must stay
bit-identical to the corresponding ``fig6``/``fig7``/``fig8`` entries of
the main fixture (the proxy backend *is* the historical code path), and
its device/stream entries pin those backends' cost models.  Regenerate
with::

    PYTHONPATH=src python -m repro.bench.golden --backends tests/fixtures/comm_backend_timestamps.json

A third fixture pins the *routed* interconnects, which the two above never
reach (both run on the flat fabric): the 1 KiB ping-pong between the far
pair and one 4096-double allreduce per family, on a 2:1 oversubscribed
``fat_tree`` and on a ``ring``, for every backend
(``tests/fixtures/routed_timestamps.json``, replayed by
``tests/integration/test_routed_timestamps.py``).  Regenerate with::

    PYTHONPATH=src python -m repro.bench.golden --routed tests/fixtures/routed_timestamps.json
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict

from ..apps.diffusion import DiffusionWorkload
from ..apps.particles import ParticleWorkload
from ..apps.spmv import SpmvWorkload
from ..hw.config import COMM_BACKENDS, greina
from .overlap import run_overlap
from .pingpong import run_pingpong, run_pingpong_pair
from .weak_scaling import scaling_point

__all__ = ["GOLDEN_WORKLOADS", "capture", "capture_backends",
           "ROUTED_KINDS", "capture_routed"]


def _scaling(app: str, label: str, node_counts, wl,
             ranks_per_device: int) -> Dict[str, float]:
    """One weak-scaling miniature as per-node-count timestamp entries
    (milliseconds, as the figure's table reports them)."""
    out: Dict[str, float] = {}
    for n in node_counts:
        row = scaling_point(app, n, wl=wl, ranks_per_device=ranks_per_device,
                            nblocks=4)
        out[f"{label}.n{n}.dcuda_ms"] = row.dcuda_time * 1e3
        out[f"{label}.n{n}.mpicuda_ms"] = row.mpicuda_time * 1e3
        out[f"{label}.n{n}.comm_ms"] = row.comm_time * 1e3
    return out


def _fig6() -> Dict[str, float]:
    shared = run_pingpong(shared=True, packet_bytes=256, iterations=4)
    dist = run_pingpong(shared=False, packet_bytes=256, iterations=4)
    return {"fig6.shared.latency": shared.latency,
            "fig6.distributed.latency": dist.latency}


def _fig7() -> Dict[str, float]:
    pt = run_overlap("newton", compute_iters=4, steps=2, num_nodes=2,
                     ranks_per_device=4)
    return {"fig7.newton.elapsed": pt.elapsed}


def _fig8() -> Dict[str, float]:
    pt = run_overlap("copy", compute_iters=4, steps=2, num_nodes=2,
                     ranks_per_device=4)
    return {"fig8.copy.elapsed": pt.elapsed}


def _fig9() -> Dict[str, float]:
    wl = ParticleWorkload(cells_per_node=8, particles_per_node=48, steps=2)
    return _scaling("particles", "fig9", (1, 2), wl, ranks_per_device=2)


def _fig10() -> Dict[str, float]:
    wl = DiffusionWorkload(ni=8, nj_per_device=6, nk=2, steps=2)
    return _scaling("stencil", "fig10", (1, 2), wl, ranks_per_device=3)


def _fig11() -> Dict[str, float]:
    wl = SpmvWorkload(n_per_device=16, density=0.2, iters=1)
    return _scaling("spmv", "fig11", (1, 4), wl, ranks_per_device=2)


#: Label -> callable producing ``{timestamp label: simulated time}``.
GOLDEN_WORKLOADS: Dict[str, Callable[[], Dict[str, float]]] = {
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
}


def capture() -> Dict[str, float]:
    """Run every miniature figure workload; returns all timestamps."""
    out: Dict[str, float] = {}
    for fn in GOLDEN_WORKLOADS.values():
        out.update(fn())
    return out


def _backend_probe(backend: str) -> Dict[str, float]:
    """The fig6/fig7/fig8 miniatures on one communication backend.

    The workload shapes are *identical* to :func:`_fig6`/:func:`_fig7`/
    :func:`_fig8` so the ``proxy.*`` entries can be cross-checked for
    bit-equality against the main fixture.
    """
    cfg = greina(comm_backend=backend)
    shared = run_pingpong(shared=True, packet_bytes=256, iterations=4,
                          cfg=cfg)
    dist = run_pingpong(shared=False, packet_bytes=256, iterations=4,
                        cfg=cfg)
    newton = run_overlap("newton", compute_iters=4, steps=2, num_nodes=2,
                         ranks_per_device=4, cfg=cfg)
    copy = run_overlap("copy", compute_iters=4, steps=2, num_nodes=2,
                       ranks_per_device=4, cfg=cfg)
    return {f"{backend}.pingpong.shared.latency": shared.latency,
            f"{backend}.pingpong.distributed.latency": dist.latency,
            f"{backend}.overlap.newton.elapsed": newton.elapsed,
            f"{backend}.overlap.copy.elapsed": copy.elapsed}


def capture_backends() -> Dict[str, float]:
    """Run the backend miniatures on every registered backend."""
    out: Dict[str, float] = {}
    for backend in COMM_BACKENDS:
        out.update(_backend_probe(backend))
    return out


#: Routed interconnect kinds of the routed fixture.
ROUTED_KINDS = ("fat_tree", "ring")
#: Routed-fixture machine: 4 nodes x 2 GPUs.  The far pair is node 0 and
#: node 2: the ring's diameter, and on the radix-2 fat tree two nodes
#: under different leaves, so the route crosses the 2:1 spine.
_ROUTED_NODES = 4
_ROUTED_GPUS = 2
_ROUTED_ELEMS = 4096


def _routed_cfg(kind: str, backend: str):
    from ..platform import fat_tree, ring

    if kind == "fat_tree":
        topo = fat_tree(num_nodes=_ROUTED_NODES, gpus_per_node=_ROUTED_GPUS,
                        oversubscription=2.0, radix=2)
    else:
        topo = ring(_ROUTED_NODES, gpus_per_node=_ROUTED_GPUS)
    return greina(topology=topo, comm_backend=backend)


def _allreduce_elapsed(cfg, algorithm: str) -> float:
    """One allreduce of ``_ROUTED_ELEMS`` doubles over every device (one
    rank each); returns the slowest rank's time inside the call."""
    import numpy as np

    from ..dcuda import launch
    from ..dcuda.collectives import allreduce, scratch_elems
    from ..hw import Cluster

    times: Dict[int, float] = {}

    def kernel(rank):
        p = rank.comm_size()
        buf = np.arange(_ROUTED_ELEMS, dtype=float) + rank.world_rank
        win = yield from rank.win_create(buf)
        swin = yield from rank.win_create(
            np.zeros(scratch_elems(p, _ROUTED_ELEMS)))
        yield from rank.barrier()
        t0 = rank.now
        yield from allreduce(rank, win, swin, list(range(p)), buf,
                             algorithm=algorithm)
        times[rank.world_rank] = rank.now - t0
        yield from rank.flush()
        yield from rank.barrier()
        yield from rank.finish()

    launch(Cluster(cfg), kernel, ranks_per_device=1)
    return max(times.values())


def _routed_probe(backend: str, kind: str) -> Dict[str, float]:
    """The routed miniatures on one (backend, interconnect) cell."""
    cfg = _routed_cfg(kind, backend)
    far = run_pingpong_pair(cfg, a=(0, 0), b=(_ROUTED_NODES // 2, 0),
                            packet_bytes=1024, iterations=4)
    out = {f"{backend}.{kind}.pingpong.far.latency": far.latency}
    for family in ("ring", "tree", "hierarchical"):
        out[f"{backend}.{kind}.allreduce.{family}.elapsed"] = \
            _allreduce_elapsed(cfg, family)
    return out


def capture_routed() -> Dict[str, float]:
    """Run the routed miniatures on every backend and routed kind."""
    out: Dict[str, float] = {}
    for backend in COMM_BACKENDS:
        for kind in ROUTED_KINDS:
            out.update(_routed_probe(backend, kind))
    return out


#: CLI mode flag -> (capture function, default output file).
_MODES = {
    None: (capture, "golden_timestamps.json"),
    "--backends": (capture_backends, "comm_backend_timestamps.json"),
    "--routed": (capture_routed, "routed_timestamps.json"),
}


if __name__ == "__main__":  # pragma: no cover - capture utility
    argv = sys.argv[1:]
    flags = [a for a in argv if a in _MODES]
    args = [a for a in argv if a not in _MODES]
    if len(flags) > 1 or len(args) > 1 or any(a.startswith("-")
                                              for a in args):
        print("usage: python -m repro.bench.golden [--backends | --routed] "
              "[output.json]\n"
              "(captures a fixture; the exactness *checks* are "
              "tests/integration/test_golden_timestamps.py, "
              "tests/comm/test_golden_backends.py and "
              "tests/integration/test_routed_timestamps.py)",
              file=sys.stderr)
        sys.exit(2)
    fn, default = _MODES[flags[0] if flags else None]
    target = args[0] if args else default
    vals = fn()
    # ``json`` serializes floats with ``repr``, which round-trips IEEE-754
    # doubles exactly: the fixture keeps every bit of each timestamp.
    with open(target, "w") as fh:
        json.dump(vals, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"captured {len(vals)} golden timestamps -> {target}")
