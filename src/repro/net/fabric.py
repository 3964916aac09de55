"""Inter-node interconnect model.

A LogGP-flavoured cost model: each message pays a sender-side injection
overhead *o*, occupies the sender's NIC for its serialization time
``nbytes / bandwidth``, then arrives after the one-way latency *L*.
Concurrent messages from the same node serialize at the NIC, which yields
bandwidth sharing; on the default **flat** interconnect (full bisection,
as on a small fat-tree — the paper's 4x EDR InfiniBand on Greina),
messages from different nodes are independent.

Routed interconnects (``fat_tree`` / ``ring`` topologies, see
:mod:`repro.platform`) extend the model: after NIC injection the message
traverses **every hop link** on its shortest-path route.  Each directed
link is a virtual-time fluid-flow
:class:`~repro.sim.link.FairShareLink` — concurrent messages crossing
the same link share its bandwidth max-min fairly — and charges its own
per-hop latency, so fat-tree oversubscription and ring neighbor
congestion emerge from routing instead of being scripted.  Hop links are
labeled ``fabric.<edge>`` in the observability registry and can be cut
by ``faults.partition`` events targeting the edge name.

Two bandwidth classes model the CUDA-aware transfer paths the paper
discusses:

* ``mode="host"`` — host-staged transfer at the full link bandwidth
  (OpenMPI's choice above 30 kB "to achieve better bandwidth"),
* ``mode="d2d"``  — direct GPUDirect device-to-device RDMA at the
  (much lower) PCIe-read-limited bandwidth.

Intra-node transmissions (src == dst) take the node's intra-node link —
:data:`~repro.platform.topology.DEFAULT_INTRA_LINK` by default, or the
node class's NVLink-class ``intra_link`` on dense nodes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..sim import Environment, Event, Semaphore
from ..sim.link import FairShareLink
from ..hw.config import FabricConfig
from ..platform.topology import DEFAULT_INTRA_LINK

__all__ = ["Fabric", "TRANSFER_MODES"]

TRANSFER_MODES = ("host", "d2d")


class _Nic:
    """Per-node injection port; serializes outgoing messages."""

    def __init__(self, env: Environment, index: int, obs: Any = None):
        self.lock = Semaphore(env, 1, name=f"nic{index}")
        self.bytes_injected = 0.0
        self.messages = 0
        # MMIO doorbell rings from device-initiated RMA (repro.comm's
        # ``device`` backend); the proxy path never rings — the host
        # posts work requests instead.
        self.doorbells = 0
        # Observability: messages currently queued or injecting at this
        # NIC (occupancy series, or None) plus views of the two totals.
        self.inflight = 0
        self.inflight_series = obs.series(
            f"fabric.nic{index}.inflight") if obs else None
        if obs:
            obs.view(f"fabric.nic{index}.bytes", lambda: self.bytes_injected)
            obs.view(f"fabric.nic{index}.messages", lambda: self.messages)


class _HopLink:
    """One directed topology edge: a fluid-shared link + hop latency."""

    __slots__ = ("name", "flow", "latency")

    def __init__(self, env: Environment, name: str, bandwidth: float,
                 latency: float, obs: Any, faults: Any):
        self.name = name
        # The FairShareLink registers `link.fabric.<edge>.*` metrics and
        # honours link_degrade fault windows targeting `fabric.<edge>`.
        self.flow = FairShareLink(env, bandwidth, name=f"fabric.{name}",
                                  obs=obs, faults=faults)
        self.latency = latency


class _RouteWalk:
    """Callback walker for the post-injection hop traversal of a routed
    message.

    Schedule-equivalent to the generator loop it replaces, entry for
    entry: the transfer-completion callback occupies the exact slot the
    process's resume callback held (``add_callback`` on an already
    processed transfer runs inline, matching the immediate-resume
    fallback), and each positive hop latency is charged through
    :meth:`Environment.call_at` — the same ``(when, priority, seq)``
    timed entry a ``yield hop.latency`` would create at that moment.
    Zero latencies and a zero extra-latency tail proceed inline, exactly
    as the generator's guarded yields did.  What it saves is the
    generator machinery itself: one process ``_step`` (send / frame
    switch / StopIteration plumbing) per hop event becomes one bound
    -method call.
    """

    __slots__ = ("env", "hops", "nbytes", "extra_latency", "done", "_idx")

    def __init__(self, env: Environment, hops: tuple, nbytes: float,
                 extra_latency: float, done: Event):
        self.env = env
        self.hops = hops
        self.nbytes = nbytes
        self.extra_latency = extra_latency
        self.done = done
        self._idx = 0

    def start(self) -> None:
        self._next()

    def _next(self) -> None:
        idx = self._idx
        hops = self.hops
        if idx < len(hops):
            self._idx = idx + 1
            ev = hops[idx].flow.transfer(self.nbytes)
            ev.add_callback(self._transferred)
            return
        extra = self.extra_latency
        if extra > 0.0:
            self.env.call_at(extra, self.done.succeed)
        else:
            self.done.succeed()

    def _transferred(self, ev: Event) -> None:
        latency = self.hops[self._idx - 1].latency
        if latency > 0.0:
            self.env.call_at(latency, self._next)
        else:
            self._next()


class Fabric:
    """The cluster interconnect."""

    def __init__(self, env: Environment, cfg: FabricConfig, num_nodes: int,
                 obs: Any = None, faults: Any = None, platform: Any = None):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.env = env
        self.cfg = cfg
        self.num_nodes = num_nodes
        self._nics: List[_Nic] = [_Nic(env, i, obs)
                                  for i in range(num_nodes)]
        # Fault plane or None.  Wire transfers query it for partition
        # windows (hold until heal), burst loss (retransmit delay — the
        # message is never silently lost; reliability is re-established by
        # retransmission, the arrival is just late), and NIC degradation.
        self._faults = faults
        # Platform wiring: per-node intra-node (loopback) link specs and
        # the routed-interconnect table (None = flat full bisection).
        self._routing = platform.routing if platform is not None else None
        # A Fabric built without a platform (unit tests, ad-hoc harnesses)
        # gives every node the default intra-node link.
        self._intra = ([platform.intra_link_of(i) for i in range(num_nodes)]
                       if platform is not None
                       else [DEFAULT_INTRA_LINK] * num_nodes)
        self._links: Dict[str, _HopLink] = {}
        #: Lazily filled per-(src, dst) route cache:
        #: ``(link names, hop links, 2 * one-way path latency)``.  Routes
        #: are a pure function of the topology (built once, never
        #: rerouted — partitions hold messages, they do not divert them),
        #: so resolving names to _HopLink objects and summing the path
        #: latency once per pair replaces two dict walks per message.
        self._route_cache: Dict[Any, Any] = {}
        if self._routing is not None:
            for name, link in sorted(self._routing.links.items()):
                self._links[name] = _HopLink(env, name, link.bandwidth,
                                             link.latency, obs, faults)

    # -- cost helpers ------------------------------------------------------
    def bandwidth_for(self, mode: str) -> float:
        if mode == "host":
            return self.cfg.bandwidth
        if mode == "d2d":
            return self.cfg.d2d_bandwidth
        raise ValueError(f"unknown transfer mode {mode!r}; "
                         f"expected one of {TRANSFER_MODES}")

    def serialization_time(self, nbytes: float, mode: str) -> float:
        return nbytes / self.bandwidth_for(mode)

    def hops(self, src: int, dst: int) -> int:
        """Route length in links (0 = same node or flat single hop)."""
        if self._routing is None or src == dst:
            return 0
        return self._routing.hops(src, dst)

    # -- transmission ------------------------------------------------------
    def transmit(self, src: int, dst: int, nbytes: float,
                 mode: str = "host", injected: Optional[Event] = None,
                 extra_latency: float = 0.0) -> Event:
        """Start a message; the returned event fires on arrival at *dst*.

        *injected*, when given, is succeeded once the sender's buffer is
        reusable (injection finished) — the local-completion point of a
        nonblocking MPI send.  *extra_latency* is added to the arrival time
        (e.g. the pipeline fill/drain of host-staged device transfers).
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"node out of range: src={src} dst={dst} "
                             f"(cluster has {self.num_nodes})")
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes!r}")
        if extra_latency < 0:
            raise ValueError(f"negative extra latency {extra_latency!r}")
        done = self.env.event(name=f"msg:{src}->{dst}")
        if src == dst:
            self.env.process(self._loopback(src, nbytes, done, injected),
                             name=f"loopback:{src}")
        elif self._routing is None:
            self.bandwidth_for(mode)  # validate early
            self.env.process(
                self._wire(src, dst, nbytes, mode, done, injected,
                           extra_latency),
                name=f"wire:{src}->{dst}")
        else:
            self.bandwidth_for(mode)  # validate early
            self.env.process(
                self._routed_wire(src, dst, nbytes, mode, done, injected,
                                  extra_latency),
                name=f"route:{src}->{dst}")
        return done

    def send(self, src: int, dst: int, nbytes: float,
             mode: str = "host") -> Generator[Event, Any, None]:
        """Blocking form of :meth:`transmit`."""
        yield self.transmit(src, dst, nbytes, mode)

    # -- internals ------------------------------------------------------------
    def _loopback(self, node: int, nbytes: float, done: Event,
                  injected: Optional[Event]):
        spec = self._intra[node]
        yield spec.latency + nbytes / spec.bandwidth
        if injected is not None:
            injected.succeed()
        done.succeed()

    def _inject(self, src: int, dst: int, nbytes: float, mode: str,
                rtt_latency: float) -> Generator[Event, Any, float]:
        """NIC phase shared by the flat and routed wires.

        Serializes on the sender's NIC for the injection overhead plus the
        message's serialization time (scaled by degradation windows), and
        returns the extra arrival delay bought by burst-loss retransmits
        (*rtt_latency* is one round trip of pure wire latency).
        """
        nic = self._nics[src]
        faults = self._faults
        extra = 0.0
        if nic.inflight_series is not None:
            nic.inflight += 1
            nic.inflight_series.sample(self.env._now, nic.inflight)
        yield from nic.lock.acquire()
        try:
            serialization = self.serialization_time(nbytes, mode)
            if faults is not None:
                # Degradation scales the NIC occupancy; burst loss costs
                # one full timeout-and-resend round per lost attempt.  The
                # message itself is never dropped — link-level reliability
                # re-establishes delivery, only later.
                serialization *= faults.degrade_factor(
                    f"fabric.nic{src}", self.env._now)
                retries = faults.loss_retries(src, dst, self.env._now)
                if retries:
                    extra = retries * (serialization + rtt_latency)
            yield self.cfg.injection_overhead + serialization
        finally:
            nic.lock.release()
        nic.messages += 1
        nic.bytes_injected += nbytes
        if nic.inflight_series is not None:
            nic.inflight -= 1
            nic.inflight_series.sample(self.env._now, nic.inflight)
        return extra

    def _wire(self, src: int, dst: int, nbytes: float, mode: str, done: Event,
              injected: Optional[Event], extra_latency: float):
        """Flat interconnect: single-hop LogGP wire (the calibrated path)."""
        faults = self._faults
        if faults is not None:
            # Partition window: the wire holds until the partition heals.
            hold = faults.partition_hold(src, dst, self.env._now)
            if hold > 0.0:
                yield hold
        extra_latency += yield from self._inject(src, dst, nbytes, mode,
                                                 2.0 * self.cfg.latency)
        if injected is not None:
            injected.succeed()
        # Arrival via the deferred-call lane: the same (when, priority,
        # seq) timed entry a ``yield latency`` would create, but its
        # dispatch succeeds ``done`` directly instead of resuming this
        # generator for one final statement.  The process-completion
        # entry moves from arrival time to now — a no-op dispatch nothing
        # observes (transmit hands out ``done``, never the process).
        self.env.call_at(self.cfg.latency + extra_latency, done.succeed)

    def _routed_wire(self, src: int, dst: int, nbytes: float, mode: str,
                     done: Event, injected: Optional[Event],
                     extra_latency: float):
        """Routed interconnect: NIC injection, then every hop on the route.

        Each hop is a fluid-shared link (concurrent messages split its
        bandwidth max-min fairly) followed by the hop's wire latency —
        a store-and-forward pipeline whose bottleneck link governs
        sustained bandwidth while latencies accumulate per hop.
        """
        key = src * self.num_nodes + dst
        cached = self._route_cache.get(key)
        if cached is None:
            route = self._routing.route(src, dst)
            cached = (route,
                      tuple(self._links[name] for name in route),
                      2.0 * self._routing.path_latency(src, dst))
            self._route_cache[key] = cached
        route, hops, rtt = cached
        faults = self._faults
        if faults is not None:
            # A partition cutting ANY link on the route (or targeting the
            # node pair) holds the message until it heals.
            hold = faults.partition_hold_route(src, dst, route, self.env._now)
            if hold > 0.0:
                yield hold
        extra_latency += yield from self._inject(src, dst, nbytes, mode, rtt)
        if injected is not None:
            injected.succeed()
        # Hand the hop traversal to a flyweight callback walker; this
        # generator ends here, so the (unobserved) process-completion
        # entry lands now instead of after arrival.
        _RouteWalk(self.env, hops, nbytes, extra_latency, done).start()

    def ring_doorbell(self, node: int) -> None:
        """Count one MMIO doorbell ring at *node*'s NIC (device-initiated
        RMA); the issue-unit cost is charged by the device, this is the
        NIC-side bookkeeping."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node out of range: {node} "
                             f"(cluster has {self.num_nodes})")
        self._nics[node].doorbells += 1

    # -- statistics ------------------------------------------------------------
    def nic_stats(self, node: int) -> dict:
        nic = self._nics[node]
        return {"messages": nic.messages, "bytes": nic.bytes_injected,
                "doorbells": nic.doorbells}

    def link_stats(self) -> Dict[str, dict]:
        """Per-topology-edge byte totals (routed interconnects only)."""
        return {name: {"bytes": hop.flow.bytes_transferred,
                       "active_flows": hop.flow.active_flows}
                for name, hop in self._links.items()}
