"""Observability configuration: one switch, zero cost when off.

:class:`ObsConfig` is the single knob that turns the unified observability
layer on.  It lives in its own dependency-free module so that
:mod:`repro.hw.config` can embed it in :class:`~repro.hw.config.MachineConfig`
without creating an import cycle (obs → sim/hw, never the reverse).

The contract every instrumented component honours:

* **disabled** (the default): components hold ``None`` instead of an
  instrument and register no views, so the per-event cost is a single
  ``is not None`` check on a cold attribute — no allocation, no registry
  entries, no samples;
* **enabled**: instruments only *record* (append a sample, bin a latency),
  and counts are views the registry reads from their owners when it is
  dumped.  Nothing creates simulation events, acquires resources, or
  otherwise touches the event queue, so enabling observability cannot move
  a single simulated timestamp (the zero-perturbation regression test
  enforces this against the golden fixture).

:func:`force_enabled` flips the *default* for configs created inside the
``with`` block — the hook the zero-perturbation test uses to switch on
observability inside workloads that build their own
:func:`~repro.hw.config.greina` configs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Tuple

__all__ = ["ObsConfig", "DEFAULT_LATENCY_BUCKETS", "default_obs",
           "force_enabled"]

#: Default latency-histogram bucket upper bounds [s]: half-decade steps from
#: 100 ns to 10 ms, matching the latency scales of the Greina cost model
#: (PCIe transactions ~1 µs, notified puts ~10 µs, figure loops ~100 µs+).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
)


@dataclass(frozen=True)
class ObsConfig:
    """The observability layer's single switch.

    On, it records every instrument and forces the cluster's interval
    tracer on (the overlap report and the trace export read it).
    """

    enabled: bool = False


_FORCED_DEFAULT = False


def default_obs() -> ObsConfig:
    """The ObsConfig a fresh :class:`MachineConfig` gets (normally off)."""
    return ObsConfig(enabled=True) if _FORCED_DEFAULT else ObsConfig()


@contextmanager
def force_enabled() -> Iterator[None]:
    """Make every config built inside the block observability-enabled.

    Only affects *defaults*: a config that sets ``obs=`` explicitly keeps
    its value.  Used by the zero-perturbation test to enable the layer
    inside workload helpers that construct their own configs.
    """
    global _FORCED_DEFAULT
    previous = _FORCED_DEFAULT
    _FORCED_DEFAULT = True
    try:
        yield
    finally:
        _FORCED_DEFAULT = previous
