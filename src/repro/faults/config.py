"""Fault-injection configuration: deterministic schedules, off by default.

:class:`FaultsConfig` hangs off :class:`~repro.hw.config.MachineConfig` as
``faults`` and is normally ``None``: the fault plane is never even built,
so the hot paths pay exactly one ``is not None`` attribute check — the
same zero-perturbation contract as the observability layer, enforced by
the same golden-fixture replay discipline (``tests/faults/``).

A schedule is either an explicit tuple of :class:`FaultEvent` entries or a
seeded random plan (``FaultsConfig(enabled=True, seed=42)``) expanded once,
deterministically, when the :class:`~repro.faults.plane.FaultPlane` is
built.  Every fault is a pure function of ``(site, simulated time)`` — no
RNG is consulted during the run, so a given ``(config, workload)`` pair
always injects the identical fault sequence.

The module is dependency-free for the same reason as
:mod:`repro.obs.config`: ``hw/config`` embeds it without import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

__all__ = ["FaultEvent", "FaultsConfig", "FAULT_KINDS", "default_faults",
           "force_faults"]

#: The fault vocabulary.  Sites: ``link_degrade`` matches fair-share links
#: and fabric NICs by name; ``burst_loss``/``partition`` act on fabric
#: wire transfers; ``queue_drop``/``queue_dup``/``credit_starve`` act on
#: host↔device circular queues by name (e.g. ``"cmd:r3"``); ``block_stall``
#: slows GPU blocks by name (e.g. ``"node1.gpu.b0"``).
FAULT_KINDS: Tuple[str, ...] = (
    "link_degrade",
    "burst_loss",
    "partition",
    "queue_drop",
    "queue_dup",
    "credit_starve",
    "block_stall",
)


@dataclass(frozen=True)
class FaultEvent:
    """One entry of an explicit fault schedule.

    Args:
        kind: One of :data:`FAULT_KINDS`.
        start: Simulated time [s] the fault window opens.
        duration: Window length [s]; ``0`` means instantaneous faults
            (drops/dups trigger on the next matching operation only).
        target: What the fault applies to — ``None`` for *everything of
            that kind*, a string matched against component names (exact or
            substring, e.g. ``"cmd:r2"`` or ``"node0"``), or an ``int``
            world rank / node index.
        factor: Slowdown multiplier for ``link_degrade`` / ``block_stall``
            (``2.0`` = half speed).  Ignored by the discrete kinds.
        count: How many operations the fault hits for the discrete kinds
            (``queue_drop`` drops the next *count* matching commits,
            ``burst_loss`` loses *count* consecutive wire transfers).
    """

    kind: str
    start: float = 0.0
    duration: float = 0.0
    target: Optional[Union[str, int]] = None
    factor: float = 2.0
    count: int = 1


@dataclass(frozen=True)
class FaultsConfig:
    """The fault plane's switch, schedule, and runtime-hardening knobs."""

    #: Master switch; with ``enabled=False`` the plane is never built.
    enabled: bool = False
    #: Explicit schedule.  Empty + ``seed=None`` = enabled-but-inert plane
    #: (nothing injected, so nothing recovers: the run is the no-plane
    #: run, under the watchdog).
    events: Tuple[FaultEvent, ...] = ()
    #: Seed for a deterministic random plan, expanded once at plane build.
    #: ``None`` disables random generation (only ``events`` apply).
    seed: Optional[int] = None
    #: Simulated horizon [s] the random plan spreads its events over.
    #: Should cover the workload's expected elapsed time.
    horizon: float = 2e-4
    #: How many events the random plan draws.
    plan_size: int = 12

    # --- runtime hardening knobs (act only where a fault was injected) ---
    #: Redelivery and starved-credit retry budget before a typed error is
    #: raised.
    max_retries: int = 6
    #: First retry backoff [s] after a starved credit reload; doubles each
    #: attempt (exponential backoff).
    backoff_base: float = 2e-6
    #: Base delay [s] before a dropped queue slot is re-posted; doubles
    #: per redelivery attempt.
    redelivery_delay: float = 3e-6
    #: Launch-level simulated-time watchdog [s]; ``0`` disables it.
    watchdog: float = 0.25


_FORCED_DEFAULT: Optional[FaultsConfig] = None


def default_faults() -> Optional[FaultsConfig]:
    """The faults value a fresh :class:`MachineConfig` gets (normally None)."""
    return _FORCED_DEFAULT


@contextmanager
def force_faults(cfg: FaultsConfig) -> Iterator[None]:
    """Make every config built inside the block carry ``cfg`` as its plan.

    Only affects *defaults*: a config that sets ``faults=`` explicitly
    keeps its value.  Used by the chaos harness and the ``repro.faults``
    CLI to inject schedules into workload helpers that construct their own
    :func:`~repro.hw.config.greina` configs.
    """
    global _FORCED_DEFAULT
    previous = _FORCED_DEFAULT
    _FORCED_DEFAULT = cfg
    try:
        yield
    finally:
        _FORCED_DEFAULT = previous
