"""Deterministic fault injection + the hardened-runtime contract.

The paper's runtime (§III) defends against stale PCIe-visible state with
sequence-number validity and credit-based flow control, but nothing in a
clean simulation ever exercises those defenses.  This package breaks the
system on purpose — deterministically — and the hardened runtime must
survive: every run either completes with bit-identical numerics or raises
a typed :class:`~repro.errors.DCudaFaultError` /
:class:`~repro.errors.DCudaTimeoutError` with rank and simulated-time
context.  Never a hang (a simulated-time watchdog enforces it).

Three pieces:

* :mod:`repro.faults.config` — :class:`FaultsConfig` (the schedule +
  hardening knobs, hung off ``MachineConfig.faults``, default ``None``);
* :mod:`repro.faults.plane` — :class:`FaultPlane`, the per-cluster oracle
  every layer queries (links, fabric, queues, GPU blocks);
* :mod:`repro.faults.report` — the per-rank fault report and the seeded
  chaos runner behind ``python -m repro.faults report``.

The report symbols load lazily (PEP 562), like every package surface:
``repro.hw.config`` imports :mod:`repro.faults.config` for the
``faults`` field, and that import should not pay for the report.
"""

from .config import (
    FAULT_KINDS,
    FaultEvent,
    FaultsConfig,
    default_faults,
    force_faults,
)
from .plane import FaultPlane

__all__ = [
    "FaultEvent", "FaultsConfig", "FAULT_KINDS", "default_faults",
    "force_faults",
    "FaultPlane",
    "ChaosOutcome", "run_chaos_case", "chaos_specs", "chaos_sweep",
    "fault_report",
]

_REPORT_SYMBOLS = ("ChaosOutcome", "run_chaos_case", "chaos_specs",
                   "chaos_sweep", "fault_report")


def __getattr__(name):
    if name in _REPORT_SYMBOLS:
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
