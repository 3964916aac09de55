"""GPU device model: SMs, resident blocks, and latency hiding.

The latency-hiding mechanism the whole paper rests on is reproduced
structurally rather than numerically:

* Each SM owns a single *issue unit* (an FCFS one-token
  :class:`~repro.sim.Semaphore`).
  A block's compute phase occupies the issue unit only for its ALU time;
  its memory traffic streams in the background through the device-wide
  fair-share memory link.
* A block that *waits* (for notifications, queue credits, transfers) holds
  **no** resource, so co-resident blocks immediately use the issue unit —
  over-subscription turns waiting time into other blocks' compute time,
  which is precisely the "hardware supported overlap" of the title.
* Blocks cannot be preempted and the device cannot run more blocks than it
  has resident slots, so :meth:`Device.allocate_blocks` enforces the paper's
  rule that over-subscription is limited to the blocks in flight at once
  (otherwise collectives could deadlock, §III-A).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..sim import AllOf, Environment, Event, Semaphore, Tracer
from .config import GPUConfig
from .memory import DeviceMemory

__all__ = ["SM", "Block", "Device"]


class SM:
    """One streaming multiprocessor: an issue unit plus resident slots."""

    def __init__(self, env: Environment, cfg: GPUConfig, index: int,
                 device_name: str):
        self.env = env
        self.cfg = cfg
        self.index = index
        self.name = f"{device_name}.sm{index}"
        self.issue = Semaphore(env, 1, name=f"issue:{self.name}")
        self.resident: List["Block"] = []


class Block:
    """A resident block — the dCUDA *rank* execution vehicle."""

    __slots__ = ("device", "sm", "index", "name")

    def __init__(self, device: "Device", sm: SM, index: int):
        self.device = device
        self.sm = sm
        self.index = index
        self.name = f"{device.name}.b{index}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Block {self.name} on {self.sm.name}>"


class Device:
    """A compute device: SMs + shared device memory.

    Time-charging entry points (all generators for ``yield from``):

    * :meth:`compute` — a compute phase of given FLOPs and memory traffic,
    * :meth:`copy` — a block-performed device-memory copy,
    * :meth:`issue_use` — occupy the block's issue unit (used by the
      device-side library for notification matching, which is *compute
      heavy* and therefore steals issue slots from application compute),
    * :meth:`wait` — trace-annotated wait on an event (holds nothing).
    """

    def __init__(self, env: Environment, cfg: GPUConfig, name: str = "gpu0",
                 tracer: Optional[Tracer] = None, obs: Any = None,
                 faults: Any = None):
        self.env = env
        self.cfg = cfg
        self.name = name
        self.tracer = tracer or Tracer(enabled=False)
        self.memory = DeviceMemory(env, cfg, name=f"{name}.mem", obs=obs,
                                   faults=faults)
        self.sms = [SM(env, cfg, i, name) for i in range(cfg.num_sms)]
        self._blocks: List[Block] = []
        # Fault plane or None; queried per compute phase for block stalls.
        self._faults = faults
        #: RMA operations initiated from this device (device-initiated
        #: communication backends only; the proxy path goes through the
        #: PCIe command queues and never touches this counter).
        self.rma_initiations = 0

    # -- block management ---------------------------------------------------
    @property
    def blocks(self) -> List[Block]:
        return list(self._blocks)

    def allocate_blocks(self, count: int) -> List[Block]:
        """Place *count* blocks round-robin over the SMs.

        Raises ``ValueError`` when the request exceeds the device's
        in-flight capacity — the dCUDA rank-count cap.
        """
        if count < 1:
            raise ValueError(f"block count must be >= 1, got {count}")
        if len(self._blocks) + count > self.cfg.max_blocks:
            raise ValueError(
                f"{self.name}: {len(self._blocks) + count} blocks exceed the "
                f"in-flight limit of {self.cfg.max_blocks} "
                f"({self.cfg.num_sms} SMs x {self.cfg.max_blocks_per_sm}); "
                "dCUDA requires all ranks resident at once")
        new_blocks = []
        for _ in range(count):
            sm = min(self.sms, key=lambda s: (len(s.resident), s.index))
            block = Block(self, sm, len(self._blocks))
            sm.resident.append(block)
            self._blocks.append(block)
            new_blocks.append(block)
        return new_blocks

    def free_blocks(self) -> None:
        """Release all blocks (end of a fork-join kernel)."""
        for sm in self.sms:
            sm.resident.clear()
        self._blocks.clear()

    # -- time charging --------------------------------------------------------
    def alu_time(self, flops: float) -> float:
        return flops / self.cfg.flops_per_sm

    def compute(self, block: Block, flops: float = 0.0,
                mem_bytes: float = 0.0,
                detail: str = "") -> Generator[Event, Any, None]:
        """One compute phase of *block*.

        The issue unit is held for the ALU time while the phase's memory
        traffic streams concurrently; the phase ends when both are done.
        Co-resident blocks' phases serialize on the issue unit but their
        memory stalls overlap — the hardware-threading model.
        """
        if flops < 0 or mem_bytes < 0:
            raise ValueError("flops and mem_bytes must be non-negative")
        t0 = self.env._now
        sem = block.sm.issue
        yield sem.request()
        try:
            mem_ev = None
            if mem_bytes > 0:
                mem_ev = self.memory.access_event(mem_bytes,
                                                  block_limited=True)
            # Issue time: ALU instructions plus load/store issue slots.
            # The LSU term staggers co-resident memory-bound blocks without
            # throttling aggregate bandwidth (see GPUConfig).
            issue_time = (self.alu_time(flops)
                          + mem_bytes / self.cfg.sm_lsu_bandwidth)
            if self._faults is not None:
                # A stalled block holds its issue unit longer, so the
                # slowdown also delays co-resident ranks on the same SM.
                issue_time *= self._faults.slowdown(
                    "block_stall", block.name, self.env._now)
            if issue_time > 0:
                yield issue_time
        finally:
            sem.release()
        if mem_ev is not None:
            yield mem_ev
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(block.name, "compute", t0, self.env._now, detail)

    def copy(self, block: Block, nbytes: float,
             detail: str = "copy") -> Generator[Event, Any, None]:
        """A device-memory copy performed by *block* (read + write traffic).

        Capped by the single-block streaming bandwidth — the mechanism
        behind the "low" shared-memory put bandwidth of Fig. 6.
        """
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes!r}")
        t0 = self.env._now
        yield self.memory.access_event(2.0 * nbytes, block_limited=True)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(block.name, "comm", t0, self.env._now, detail)

    def issue_use(self, block: Block, duration: float,
                  kind: str = "match",
                  detail: str = "") -> Generator[Event, Any, None]:
        """Occupy *block*'s SM issue unit for *duration* (e.g. matching)."""
        t0 = self.env._now
        sem = block.sm.issue
        yield sem.request()
        try:
            yield duration
        finally:
            sem.release()
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(block.name, kind, t0, self.env._now, detail)

    def initiate_rma(self, block: Block, duration: float,
                     detail: str = "rma") -> Generator[Event, Any, None]:
        """Device-initiated RMA issue: occupy *block*'s issue unit for the
        address translation + NIC doorbell work and count the initiation.

        The SM charge is the crux of the device-initiated cost model:
        initiation competes with application compute for issue slots, the
        same mechanism that makes notification matching "compute heavy".
        """
        self.rma_initiations += 1
        return self.issue_use(block, duration, kind="comm", detail=detail)

    def wait(self, block: Block, event: Event,
             detail: str = "") -> Generator[Event, Any, Any]:
        """Wait on *event* holding no resources; traced as 'wait'."""
        t0 = self.env._now
        value = yield event
        self.tracer.record(block.name, "wait", t0, self.env._now, detail)
        return value

    def bulk_compute(self, nblocks: int = 0, flops_per_block: float = 0.0,
                     mem_bytes_per_block: float = 0.0,
                     per_block: Optional[List[tuple]] = None,
                     detail: str = "kernel") -> Generator[Event, Any, None]:
        """Fork-join execution of an *nblocks*-block kernel.

        Used by the MPI-CUDA baseline: blocks are distributed round-robin
        over the SMs; per SM the block ALU times serialize on the issue
        unit while the memory traffic of all its blocks streams through the
        shared device link (no single-block floor — co-resident blocks keep
        many accesses outstanding).  Returns when the slowest SM finishes.
        Unlike :meth:`allocate_blocks`, there is no in-flight cap: excess
        blocks simply execute in later waves, which the serialization on
        the issue unit models implicitly.

        *per_block*, a list of ``(flops, mem_bytes)`` per block, expresses
        non-uniform kernels (straggler blocks gate the fork-join — how an
        imbalanced particle distribution hurts the baseline too); it
        overrides the uniform parameters.
        """
        if per_block is not None:
            works = [(float(f), float(m)) for f, m in per_block]
        else:
            if nblocks < 1:
                raise ValueError(f"nblocks must be >= 1, got {nblocks}")
            works = [(flops_per_block, mem_bytes_per_block)] * nblocks
        if not works:
            raise ValueError("kernel needs at least one block")
        if any(f < 0 or m < 0 for f, m in works):
            raise ValueError("per-block work must be non-negative")
        t0 = self.env._now
        # Round-robin block-to-SM assignment, as the hardware does.
        shares: List[List[tuple]] = [[] for _ in self.sms]
        for i, work in enumerate(works):
            shares[i % len(self.sms)].append(work)

        def _sm_share(sm: SM, blocks: List[tuple]):
            sum_flops = sum(f for f, _ in blocks)
            sum_mem = sum(m for _, m in blocks)
            yield sm.issue.request()
            try:
                mem_ev = None
                if sum_mem > 0:
                    mem_ev = self.memory.access_event(sum_mem,
                                                      block_limited=False)
                alu = self.alu_time(sum_flops)
                if alu > 0:
                    yield alu
            finally:
                sm.issue.release()
            if mem_ev is not None:
                yield mem_ev

        procs = [self.env.process(_sm_share(sm, blocks),
                                  name=f"kern:{sm.name}")
                 for sm, blocks in zip(self.sms, shares) if blocks]
        yield AllOf(self.env, procs)
        self.tracer.record(f"{self.name}.kernel", "compute", t0,
                           self.env._now, detail)
