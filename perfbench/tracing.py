"""Span tracer that wraps the public entry points of each ``repro`` layer.

Nothing here edits the program: :func:`install` replaces class methods and
module functions of ``src/repro`` with timing wrappers for the duration of
one traced repetition, and :meth:`Tracer.uninstall` puts the originals
back.  Each wrapped call opens a span ``(name, start, end, parent)``;
spans are kept in flat in-memory arrays and reduced at the end.

Generator-returning entry points (every simulated process is a generator)
are wrapped in a forwarding generator that times each resumption
separately, so a span never covers simulated waiting — only the host time
the layer's code ran.  The forwarder yields exactly what the wrapped
generator yields and forwards sent values, thrown exceptions, ``close``
and the return value, so the simulator sees the same schedule.

A layer's *self time* is its spans' duration minus the part covered by
child spans (:func:`self_times`).  Code that runs under the dispatch loop
without going through a wrapped entry point (scheduled callbacks such as
the fabric's per-hop route walk and link completions) therefore counts as
``sim`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict
from types import GeneratorType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "by_layer", "forward", "wrap", "install",
           "calls", "ENTRY_POINTS"]

#: (module, class or None for module functions, attributes, layer).
#: Private helpers are left unwrapped on purpose: their cost lands in the
#: nearest wrapped caller (or in ``sim`` when the dispatch loop calls them).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.core", "Environment",
     ("run", "run_watchdog", "step", "run_all"), "sim"),
    ("repro.sim.primitives", "Signal", ("wait", "fire"), "sim"),
    ("repro.sim.primitives", "Gate", ("wait", "open", "close"), "sim"),
    ("repro.sim.primitives", "Semaphore",
     ("request", "acquire", "release"), "sim"),
    ("repro.sim.link", "FairShareLink", ("transfer", "stream"), "sim.link"),
    ("repro.sim.link", "SerialLink", ("transact",), "sim.link"),
    ("repro.hw.gpu", "Device",
     ("allocate_blocks", "free_blocks", "compute", "copy", "issue_use",
      "initiate_rma", "wait", "bulk_compute"), "hw"),
    ("repro.hw.pcie", "PCIeLink",
     ("mapped_post", "mapped_read", "dma_copy"), "hw"),
    ("repro.hw.memory", "DeviceMemory", ("access_event", "access", "copy"),
     "hw"),
    ("repro.net.fabric", "Fabric", ("transmit", "send", "ring_doorbell"),
     "net"),
    ("repro.runtime.queues", "CircularQueue",
     ("enqueue", "enqueue_bulk", "park_consume", "park_poll", "dequeue",
      "dequeue_timeout", "try_dequeue", "drain_all"), "runtime"),
    ("repro.runtime.block_manager", "BlockManager",
     ("run", "incoming_put", "incoming_get"), "runtime"),
    ("repro.runtime.system", "RuntimeSystem",
     ("start", "collective_arrive", "register_window",
      "unregister_window"), "runtime"),
    ("repro.comm.proxy", "ProxyBackend", ("put", "get"), "comm"),
    ("repro.comm.device", "DeviceBackend", ("put", "get"), "comm"),
    ("repro.comm.stream", "StreamBackend", ("put", "get"), "comm"),
    ("repro.dcuda.launch", None, ("launch",), "dcuda"),
    ("repro.dcuda.device_api", "DRank",
     ("win_create", "win_free", "put_notify", "put", "get_notify", "get",
      "wait_notifications", "test_notifications", "flush", "barrier",
      "compute", "log", "finish"), "dcuda"),
    ("repro.dcuda.notifications", None, ("deliver", "deliver_bulk"),
     "dcuda"),
    ("repro.dcuda.notifications", "NotificationMatcher", ("test", "wait"),
     "dcuda"),
    ("repro.dcuda.collectives.algorithms", None,
     ("allreduce", "reduce_scatter", "all_gather"), "collectives"),
    ("repro.dcuda.collectives.core", None,
     ("tree_broadcast", "tree_reduce", "hierarchical_broadcast"),
     "collectives"),
    ("repro.apps.diffusion", None,
     ("run_dcuda_diffusion", "dcuda_diffusion_kernel"), "apps"),
    ("repro.exec.coordinator", "Coordinator", ("run",), "exec.coordinator"),
    ("repro.exec.executors", "LocalPoolExecutor",
     ("start", "submit", "next_completion", "stop"), "exec.executor"),
    ("repro.exec.executors", "SerialExecutor",
     ("start", "submit", "next_completion", "stop"), "exec.executor"),
    ("repro.exec.cache", "ResultCache", ("get", "put", "key_for"),
     "exec.cache"),
    ("repro.exec.spec", None, ("canonical_digest",), "exec.spec"),
    ("repro.exec.spec", "RunSpec", ("content_hash",), "exec.spec"),
)

class Tracer:
    """Spans and counts of one traced repetition, kept in memory.

    Spans are recorded only from the thread that created the tracer; the
    sweep's executor threads never enter wrapped code, and a span opened
    elsewhere would break the stack discipline self time relies on.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        """Intern a span name (``"<layer>:<entry point>"``)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.name)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """Close the innermost span (which must be *idx*)."""
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def entry_self_times(self) -> Dict[str, float]:
        """Self time per span name (``layer:entry``)."""
        per_name = self_times(self.start, self.end, self.parent, self.name)
        return {self.names[nid]: v for nid, v in per_name.items()}

    def span_count(self) -> int:
        return len(self.name)

    def dump(self, path) -> None:
        """Write the spans out as columns (numpy ``.npz``)."""
        import numpy as np

        np.savez_compressed(
            path, start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(self.names))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order of patching)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int], name: Sequence[int]
               ) -> Dict[int, float]:
    """Self time per span name id: duration minus direct children.

    Children are nested inside their parent and do not overlap each other
    (one thread, a stack of open spans), so subtracting the direct
    children's durations removes exactly the part of the interval they
    cover.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: Dict[int, float] = defaultdict(float)
    for i in range(n):
        out[name[i]] += (end[i] - start[i]) - child[i]
    return dict(out)


def by_layer(entry_s: Dict[str, float]) -> Dict[str, float]:
    """Sum ``layer:entry`` self times per layer."""
    out: Dict[str, float] = defaultdict(float)
    for name, value in entry_s.items():
        out[name.split(":", 1)[0]] += value
    return out


def forward(tracer: Tracer, gen, nid: int,
            on_done: Optional[Callable[[], None]] = None):
    """Drive *gen* one resumption at a time, each inside a span *nid*.

    Sent values, thrown exceptions, ``close`` and the return value pass
    through unchanged.  *on_done* runs once *gen* has returned.
    """
    value = None
    exc: Optional[BaseException] = None
    while True:
        idx = tracer.open(nid)
        try:
            if exc is None:
                yielded = gen.send(value)
            else:
                thrown, exc = exc, None
                yielded = gen.throw(thrown)
        except StopIteration as stop:
            tracer.close(idx)
            if on_done is not None:
                on_done()
            return stop.value
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx)
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen next round
            exc = thrown
            value = None


def _forwarding(tracer: Tracer, gen, nid: int, on_done=None):
    wrapped = forward(tracer, gen, nid, on_done)
    # Processes are named after their generator when spawned unnamed.
    wrapped.__name__ = getattr(gen, "__name__", wrapped.__name__)
    return wrapped


def wrap(tracer: Tracer, fn: Callable, span: str,
         before: Optional[Callable] = None,
         sim_wait: Optional[str] = None) -> Callable:
    """A traced stand-in for *fn*: counts calls under *span*, times the
    call, and forwards a returned generator.

    *before(args, kwargs)* may count more and rewrite the arguments.
    *sim_wait* names a counter that accumulates the simulated time between
    the call and the end of the returned generator (``args[0].env``).
    """
    nid = tracer.name_id(span)
    thread = tracer._thread
    get_ident = threading.get_ident
    is_gen_fn = inspect.isgeneratorfunction(fn)
    counts = tracer.counts

    def traced(*args, **kwargs):
        if get_ident() != thread:
            return fn(*args, **kwargs)
        counts[span] += 1
        if before is not None:
            args, kwargs = before(args, kwargs)
        on_done = None
        if sim_wait is not None:
            env = args[0].env
            t0 = env._now

            def on_done():
                counts[sim_wait] += env._now - t0
        if is_gen_fn:
            return _forwarding(tracer, fn(*args, **kwargs), nid, on_done)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if type(result) is GeneratorType:
            return _forwarding(tracer, result, nid, on_done)
        return result

    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _timed_callable(tracer: Tracer, fn: Callable, nid: int) -> Callable:
    """*fn* inside one span per call (the numerics callback)."""

    def timed(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return timed


def _patch(tracer: Tracer, owner: object, attr: str,
           replacement: Callable) -> None:
    tracer._restore.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


def _patch_everywhere(tracer: Tracer, original: Callable,
                      replacement: Callable) -> None:
    """Rebind a module function in every ``repro`` module that holds it
    (``from x import f`` copies the binding into the importer)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro"
                                  or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _patch(tracer, module, attr, replacement)


def install(tracer: Tracer,
            extra: Iterable[Tuple[object, str, str]] = ()) -> Tracer:
    """Wrap every entry point of :data:`ENTRY_POINTS`, plus *extra*
    ``(module, function name, layer)`` triples for the benchmark's own
    kernels.  Call :meth:`Tracer.uninstall` to undo."""
    counts = tracer.counts
    numerics = tracer.name_id("apps.numerics:fn")

    def count_compute(args, kwargs):
        # DRank.compute(self, flops, mem_bytes, fn, detail): count the
        # phase and its bytes, time the numerics callback as its own span.
        bound = dict(zip(("self", "flops", "mem_bytes", "fn", "detail"),
                         args))
        bound.update(kwargs)
        counts["apps.compute_phases"] += 1
        counts["apps.bytes_computed"] += float(bound.get("mem_bytes", 0.0))
        if bound.get("fn") is not None:
            bound["fn"] = _timed_callable(tracer, bound["fn"], numerics)
        return (), bound

    def count_transmit(args, kwargs):
        # Fabric.transmit(self, src, dst, nbytes, ...): links traversed.
        fabric, src, dst, nbytes = args[:4]
        counts["net.bytes"] += float(nbytes)
        if src != dst:
            counts["net.hops"] += fabric.hops(src, dst) or 1
        return args, kwargs

    special = {
        "dcuda:DRank.compute": dict(before=count_compute),
        "dcuda:DRank.wait_notifications": dict(sim_wait="dcuda.wait_sim_s"),
        "net:Fabric.transmit": dict(before=count_transmit),
    }
    for modname, owner, attrs, layer in ENTRY_POINTS:
        module = importlib.import_module(modname)
        for attr in attrs:
            if owner is None:
                span = f"{layer}:{attr}"
                original = getattr(module, attr)
                _patch_everywhere(tracer, original, wrap(
                    tracer, original, span, **special.get(span, {})))
            else:
                span = f"{layer}:{owner}.{attr}"
                cls = getattr(module, owner)
                _patch(tracer, cls, attr, wrap(
                    tracer, vars(cls)[attr], span, **special.get(span, {})))
    for module, attr, layer in extra:
        _patch(tracer, module, attr,
               wrap(tracer, getattr(module, attr), f"{layer}:{attr}"))
    return tracer


def calls(counts: Dict[str, float], prefix: str, suffix: str = "") -> int:
    """Calls counted under every span name starting with *prefix* (and
    ending with *suffix*)."""
    return int(sum(v for k, v in counts.items()
                   if k.startswith(prefix) and k.endswith(suffix)))
