"""The dCUDA error hierarchy.

All runtime-visible failures derive from :class:`DCudaError`, so existing
``except DCudaError`` sites keep working as the taxonomy grows.  Each class
carries a stable machine-readable :attr:`~DCudaError.code` and a one-line
:attr:`~DCudaError.remediation` hint (the table in ``docs/faults.md`` is
generated from :data:`ERROR_TABLE`).  Instances optionally carry structured
context — the world rank and the simulated time of the failure — so chaos
tests and the fault report can attribute failures without parsing messages.

The canonical definitions live here, in a dependency-free module, because
the hardened runtime layer (:mod:`repro.runtime.queues`) raises these
errors and must not import the :mod:`repro.dcuda` package (which imports
the runtime back).  :mod:`repro.dcuda.errors` re-exports everything for
the public API surface.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DCudaError",
    "DCudaProtocolError",
    "DCudaUsageError",
    "DCudaTimeoutError",
    "DCudaFaultError",
    "DCudaWorkerError",
    "ERROR_TABLE",
]


class DCudaError(RuntimeError):
    """Base class for all dCUDA protocol, usage, and fault errors.

    Args:
        message: Human-readable description of the failure.
        rank: World rank the failure is attributed to, when known.
        sim_time: Simulated time [s] at which the failure was detected.

    Attributes:
        code: Stable machine-readable error code of the class.
        remediation: One-line hint on how to address this error class.
        rank: World rank context (``None`` when not attributable).
        sim_time: Simulated-time context (``None`` when not applicable).

    Raises:
        Nothing itself; it *is* the thing that gets raised.
    """

    code = "DCUDA_ERROR"
    remediation = ("Inspect the message; this is the base class for all "
                   "dCUDA failures.")

    def __init__(self, message: str = "", *, rank: Optional[int] = None,
                 sim_time: Optional[float] = None):
        super().__init__(message)
        self.rank = rank
        self.sim_time = sim_time

    def context(self) -> str:
        """Render the structured context (rank, simulated time) as text.

        Returns:
            A string like ``"rank=3 t=1.2e-04s"``; empty when no context
            was attached.
        """
        parts = []
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.sim_time is not None:
            parts.append(f"t={self.sim_time:.6e}s")
        return " ".join(parts)

    def __str__(self) -> str:
        base = super().__str__()
        ctx = self.context()
        return f"{base} [{ctx}]" if ctx else base


class DCudaProtocolError(DCudaError):
    """The host↔device queue protocol was violated (e.g. a misaligned ack).

    Indicates a runtime bug or corrupted queue state, not an application
    error: the device received an acknowledgement of a kind it never asked
    for, or an entry failed its sequence-number validation in a way the
    recovery path cannot repair.
    """

    code = "DCUDA_PROTOCOL"
    remediation = ("File a runtime bug: the ack/command streams went out "
                   "of sync. Re-run with observability enabled and inspect "
                   "the per-queue counters.")


class DCudaUsageError(DCudaError):
    """The application misused the device API (e.g. use after ``finish``).

    The request was well-formed but illegal in the current rank state.
    ``launch`` and ``run_mpicuda`` also raise it for a hang that no
    injected fault caused — a deadlock, a non-quiescent runtime, or a
    watchdog expiry under an inert plane: the program itself is at fault
    (it spins or waits forever), or its run needs a longer
    ``FaultsConfig.watchdog``.
    """

    code = "DCUDA_USAGE"
    remediation = ("Fix the kernel: check rank lifecycle (no calls after "
                   "finish()) and window/communicator arguments.")


class DCudaTimeoutError(DCudaError):
    """A bounded wait expired: starved credits, the watchdog, or a sweep.

    Raised when injected credit starvation outlasts a queue's backoff
    retries, when the simulated-time watchdog of a run fires after the
    fault plane injected something (with nothing injected the hang is a
    :class:`DCudaUsageError`), or when a sweep job outlives its host-time
    limit.  Waits on acks, notifications and flushes are not bounded: they
    end when the peer's operation lands, so a slow peer is never a
    timeout.  Always carries ``sim_time`` for simulated waits; carries
    ``rank`` whenever one rank is waiting.
    """

    code = "DCUDA_TIMEOUT"
    remediation = ("Raise FaultsConfig.watchdog (or max_retries for a "
                   "starved queue) if the workload is legitimately long; "
                   "otherwise a rank is spinning — check the fault report "
                   "for the starved queue.")


class DCudaFaultError(DCudaError):
    """An injected (or detected) fault exceeded the runtime's recovery budget.

    Raised when sequence-number recovery re-posts a dropped queue slot more
    than ``FaultsConfig.max_retries`` times, or when injected faults drive
    the runtime into a state the hardening cannot repair (a diagnosed
    deadlock after the plane injected something).
    """

    code = "DCUDA_FAULT"
    remediation = ("The fault schedule outran the recovery budget: raise "
                   "FaultsConfig.max_retries/redelivery_delay or reduce "
                   "the injected loss burst (FaultEvent.count).")


class DCudaWorkerError(DCudaError):
    """A sweep task failed outside the typed taxonomy, or a spec kept
    killing its workers.

    Raised by the sweep service (:mod:`repro.exec.coordinator`): either
    a task raised an exception that is not a :class:`DCudaError` (the
    message embeds the original traceback text), or a spec was
    quarantined after its worker died on every dispatch attempt.  A
    single worker death is *not* an error — the coordinator re-dispatches
    the in-flight job to a surviving or respawned worker and the sweep
    completes; only a poisoned spec that exhausts its attempt budget on
    distinct workers surfaces here, after the rest of the sweep drains.
    """

    code = "DCUDA_WORKER"
    remediation = ("Worker loss is retried automatically (bounded "
                   "re-dispatch, then quarantine) — see "
                   "docs/sweep_service.md.  For a task *exception*, the "
                   "message carries the label and traceback; re-running "
                   "serially (workers=1) reproduces it in-process under "
                   "a debugger.")


#: ``code -> (class name, remediation)`` — the documentation table
#: (``docs/faults.md``) and the fault report render from this.
ERROR_TABLE = {
    cls.code: (cls.__name__, cls.remediation)
    for cls in (DCudaError, DCudaProtocolError, DCudaUsageError,
                DCudaTimeoutError, DCudaFaultError, DCudaWorkerError)
}
