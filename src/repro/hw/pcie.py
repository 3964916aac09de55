"""PCI-Express host↔device link model.

Two transfer mechanisms, matching §III-C "Memory Mapping":

* *mapped-memory transactions* (gdrcopy-style): a fixed cost per access,
  used by the circular queues — one PCIe write per enqueue, one PCIe read
  per tail-pointer reload;
* the *DMA engine*: high setup latency, streams at link bandwidth — the
  right tool for bulk copies (cudaMemcpy in the MPI-CUDA baseline, host
  staging of large messages).

Mapped transactions and DMA copies use independent engines; each serializes
its own users.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import Environment, Event, Semaphore
from .config import PCIeConfig

__all__ = ["PCIeLink"]


class PCIeLink:
    """The host↔device link of one node."""

    def __init__(self, env: Environment, cfg: PCIeConfig,
                 name: str = "pcie0"):
        self.env = env
        self.cfg = cfg
        self.name = name
        self._mapped_lock = Semaphore(env, 1, name=f"mapped:{name}")
        self._dma_lock = Semaphore(env, 1, name=f"dma:{name}")
        # -- statistics
        self.mapped_writes = 0
        self.mapped_reads = 0
        self.dma_copies = 0
        self.dma_bytes = 0.0

    def _transact(self, lock: Semaphore,
                  cost: float) -> Generator[Event, Any, None]:
        yield lock.request()
        try:
            yield cost
        finally:
            lock.release()

    def mapped_post(self) -> Generator[Event, Any, None]:
        """Issue one posted mapped-memory write (e.g. a queue enqueue).

        The issuer pays only the engine occupancy — posted writes pipeline.
        Visibility at the receiver lags by ``mapped_write_latency``; callers
        model that with :meth:`write_visibility_delay`.
        """
        self.mapped_writes += 1
        return self._transact(self._mapped_lock,
                              self.cfg.mapped_post_occupancy)

    @property
    def write_visibility_delay(self) -> float:
        """Delay until a posted write is visible in receiver memory."""
        return self.cfg.mapped_write_latency

    def mapped_read(self) -> Generator[Event, Any, None]:
        """One mapped-memory read transaction (e.g. tail-pointer reload)."""
        self.mapped_reads += 1
        return self._transact(self._mapped_lock, self.cfg.mapped_read)

    def dma_time(self, nbytes: float) -> float:
        return self.cfg.dma_startup + nbytes / self.cfg.bandwidth

    def dma_copy(self, nbytes: float) -> Generator[Event, Any, None]:
        """A DMA bulk copy of *nbytes* in either direction."""
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes!r}")
        self.dma_copies += 1
        self.dma_bytes += nbytes
        return self._transact(self._dma_lock, self.dma_time(nbytes))
