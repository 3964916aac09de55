"""The fault plane: one deterministic oracle the whole stack queries.

A :class:`FaultPlane` rides on the :class:`~repro.hw.cluster.Cluster`
(``cluster.faults``) and is threaded through the hardware and runtime
layers at construction time, exactly like the observability handle.  Hot
paths hold ``None`` when no plane exists, so the disabled cost is one
attribute check.

The plane expands its schedule — the explicit :class:`~repro.faults.
config.FaultEvent` tuple plus, when ``seed`` is set, a deterministic
random plan — *once*, at build time.  After that every query is a pure
lookup over a handful of precomputed windows; no RNG is consulted during
the run, so identical ``(config, workload)`` pairs inject identical fault
sequences at identical simulated times.

Query hooks come in two flavours:

* **window queries** (``slowdown``, ``credit_starved``,
  ``partition_hold``) — pure functions of ``(site, now)``; asking twice
  gives the same answer;
* **consuming queries** (``queue_hit``, ``loss_retries``) — each hit
  decrements the event's remaining ``count``, so a burst of *n* losses
  hits exactly *n* operations.  Call sites query exactly once per
  operation.

A query that serves several fault kinds of one shape takes the kind:
``slowdown("link_degrade", ...)`` and ``slowdown("block_stall", ...)``,
``queue_hit("queue_drop", ...)`` and ``queue_hit("queue_dup", ...)``.

Every injection is recorded: an ``injections[(kind, site)]`` counter and
a bounded in-order log for the fault report.  When observability is on,
the first injection of a kind registers a ``faults.<kind>`` view that
sums those counters, so injected faults are visible in the metrics
registry next to the runtime's own counts.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .config import FaultEvent, FaultsConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..sim import Environment

__all__ = ["FaultPlane"]

#: Cap on the in-order injection log (the counters are unbounded).
_LOG_CAP = 200


class _Window:
    """One expanded schedule entry with its mutable remaining budget."""

    __slots__ = ("kind", "start", "end", "target", "factor", "remaining")

    def __init__(self, ev: FaultEvent):
        self.kind = ev.kind
        self.start = ev.start
        self.end = ev.start + ev.duration
        self.target = ev.target
        self.factor = ev.factor
        self.remaining = ev.count

    def active(self, now: float) -> bool:
        return self.start <= now <= self.end

    def armed(self, now: float) -> bool:
        """Discrete faults stay armed past ``end`` until the burst is spent
        (a zero-duration drop must still hit the *next* matching commit)."""
        return now >= self.start and self.remaining > 0


def _matches(target: Optional[Union[str, int]], name: str) -> bool:
    """Does a window's target select the component called ``name``?

    ``None`` selects everything; a string selects by exact name or
    substring; an int ``r`` selects queues of world rank *r* (names ending
    ``:r<r>``) and components of node *r* (names containing ``node<r>``).
    """
    if target is None:
        return True
    if isinstance(target, int):
        return name.endswith(f":r{target}") or f"node{target}" in name
    return target == name or target in name


def _node_matches(target: Optional[Union[str, int]], src: int,
                  dst: int) -> bool:
    """Does a window's target select the wire transfer ``src -> dst``?"""
    if target is None:
        return True
    if isinstance(target, int):
        return target in (src, dst)
    return target in (f"node{src}", f"node{dst}", f"{src}->{dst}")


def _route_matches(target: Optional[Union[str, int]],
                   route: Tuple[str, ...]) -> bool:
    """Does a string target name a topology link on ``route``?

    Routed interconnects name their directed edges (``n0-leaf0``,
    ``n2-n3``, …); a partition targeting such a name severs every route
    that crosses the edge.  ``None``/int targets are the node-pair
    matcher's job, not ours.
    """
    if not isinstance(target, str):
        return False
    return any(target == name or target in name for name in route)


class FaultPlane:
    """Deterministic fault oracle + injection record for one cluster."""

    def __init__(self, env: "Environment", cfg: FaultsConfig, num_nodes: int,
                 obs: Optional["Observability"] = None):
        self.env = env
        self.cfg = cfg
        self.num_nodes = num_nodes
        self._obs = obs if obs else None
        #: ``(kind, site) -> times injected`` — the fault report's source.
        self.injections: Dict[Tuple[str, str], int] = {}
        #: First ``_LOG_CAP`` injections in order: ``(time, kind, site)``.
        self.log: List[Tuple[float, str, str]] = []
        events = list(cfg.events)
        if cfg.seed is not None:
            events.extend(self._random_plan(cfg, num_nodes))
        self.schedule: Tuple[FaultEvent, ...] = tuple(events)
        self._by_kind: Dict[str, List[_Window]] = {}
        for ev in events:
            self._by_kind.setdefault(ev.kind, []).append(_Window(ev))

    @classmethod
    def build(cls, env: "Environment", cfg: Optional[FaultsConfig],
              num_nodes: int, obs: Optional["Observability"] = None
              ) -> Optional["FaultPlane"]:
        """The gated constructor: ``None`` config/disabled → no plane."""
        if cfg is None or not cfg.enabled:
            return None
        return cls(env, cfg, num_nodes, obs=obs)

    # ------------------------------------------------------------------
    # deterministic random plan
    # ------------------------------------------------------------------
    @staticmethod
    def _random_plan(cfg: FaultsConfig, num_nodes: int) -> List[FaultEvent]:
        """Expand ``cfg.seed`` into a concrete event list, deterministically.

        Random targets may name queues/blocks that do not exist in a given
        run (e.g. a rank index above the world size); such events simply
        never match — acceptable for chaos sweeps, where coverage comes
        from sweeping many seeds.
        """
        rng = random.Random(cfg.seed)
        ranks = max(1, num_nodes * 2)
        plan: List[FaultEvent] = []
        for _ in range(cfg.plan_size):
            kind = rng.choice((
                "link_degrade", "link_degrade",
                "burst_loss", "burst_loss",
                "partition",
                "queue_drop", "queue_drop",
                "queue_dup",
                "credit_starve",
                "block_stall", "block_stall",
            ))
            start = rng.uniform(0.0, cfg.horizon)
            duration = rng.uniform(cfg.horizon / 50.0, cfg.horizon / 8.0)
            factor = rng.uniform(1.5, 4.0)
            count = rng.randrange(1, 4)
            target: Optional[Union[str, int]]
            if kind in ("queue_drop", "queue_dup", "credit_starve"):
                queue = rng.choice(("cmd", "ack", "ntf"))
                target = f"{queue}:r{rng.randrange(ranks)}"
            elif kind == "block_stall":
                target = (f"node{rng.randrange(num_nodes)}"
                          f".gpu.b{rng.randrange(4)}")
            elif kind in ("burst_loss", "partition"):
                target = rng.choice((None, rng.randrange(num_nodes)))
            else:  # link_degrade
                target = rng.choice(
                    (None, "fabric", f"node{rng.randrange(num_nodes)}"))
            plan.append(FaultEvent(kind=kind, start=start, duration=duration,
                                   target=target, factor=factor, count=count))
        return plan

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def note(self, kind: str, site: str) -> None:
        """Record one injection at the current simulated time."""
        key = (kind, site)
        self.injections[key] = self.injections.get(key, 0) + 1
        if len(self.log) < _LOG_CAP:
            self.log.append((self.env.now, kind, site))
        obs = self._obs
        if obs is not None and f"faults.{kind}" not in obs.registry:
            obs.view(f"faults.{kind}", lambda: sum(
                n for (k, _), n in self.injections.items() if k == kind))

    def total_injections(self) -> int:
        """Total number of injected faults across all kinds and sites."""
        return sum(self.injections.values())

    # ------------------------------------------------------------------
    # window queries (pure)
    # ------------------------------------------------------------------
    def slowdown(self, kind: str, name: str, now: float) -> float:
        """Product of the active *kind* windows' factors that select
        component ``name`` (1.0 = none): a link's bandwidth degradation
        (``link_degrade``) or a GPU block's issue-time stall
        (``block_stall``)."""
        factor = 1.0
        for w in self._by_kind.get(kind, ()):
            if w.active(now) and _matches(w.target, name):
                factor *= w.factor
                self.note(kind, name)
        return factor

    def credit_starved(self, name: str, now: float) -> bool:
        """Is queue ``name`` inside a credit-starvation window at ``now``?"""
        for w in self._by_kind.get("credit_starve", ()):
            if w.active(now) and _matches(w.target, name):
                self.note("credit_starve", name)
                return True
        return False

    def partition_hold(self, src: int, dst: int,
                       route: Tuple[str, ...], now: float) -> float:
        """Simulated seconds the ``src -> dst`` transfer must wait for
        the partition to heal.

        A partition window applies when it selects the endpoint node pair
        *or* when it names any topology link on ``route`` — cutting one
        spine uplink stalls every message routed over it.  The flat wire
        has no named links and passes ``()``, so only the node pair
        applies there, and a schedule means the same thing on every
        interconnect.
        """
        hold = 0.0
        for w in self._by_kind.get("partition", ()):
            if w.active(now) and (_node_matches(w.target, src, dst)
                                  or _route_matches(w.target, route)):
                hold = max(hold, w.end - now)
                self.note("partition", f"{src}->{dst}")
        return hold

    # ------------------------------------------------------------------
    # consuming queries (each hit spends one unit of the event's count)
    # ------------------------------------------------------------------
    def loss_retries(self, src: int, dst: int, now: float) -> int:
        """Retransmissions the ``src -> dst`` transfer suffers (0 = clean)."""
        retries = 0
        for w in self._by_kind.get("burst_loss", ()):
            if w.armed(now) and _node_matches(w.target, src, dst):
                w.remaining -= 1
                retries += 1
                self.note("burst_loss", f"{src}->{dst}")
        return retries

    def queue_hit(self, kind: str, name: str, now: float) -> bool:
        """Does an armed *kind* burst hit the next commit to queue
        ``name``?  ``queue_drop`` drops it, ``queue_dup`` duplicates it;
        a hit spends one unit of the burst."""
        for w in self._by_kind.get(kind, ()):
            if w.armed(now) and _matches(w.target, name):
                w.remaining -= 1
                self.note(kind, name)
                return True
        return False
