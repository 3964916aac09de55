"""Circular-buffer queues between device library and host runtime.

Faithful model of the paper's queue design (§III-C, "Queue Design"):

* the buffer (including its tail pointer) lives in **receiver** memory, so
  an enqueue is a single posted PCIe write of the entry plus an embedded
  sequence number — the receiver detects valid entries by sequence number
  instead of a head pointer;
* flow control is **credit based**: the sender starts with ``size`` credits
  and decrements per enqueue; when the credits hit zero it reloads the tail
  pointer from receiver memory (one PCIe *read* transaction) to recompute
  the available space, and waits if the queue is still full;
* dequeues are local to the receiver and cost no PCIe transactions.

Both host→device (ack/notification) and device→host (command/logging)
queues cross the same PCIe link; intra-memory queues can be built by
passing ``link=None`` (no transaction cost), which the tests use.

Hardening under fault injection
-------------------------------
When a fault plane is attached (``faults=``), the queue defends exactly
the way the paper's design allows it to:

* **dropped posted writes** are detected by the gap they leave in the
  sequence numbers; the slot is re-posted after an exponentially backed-off
  redelivery delay, later slots park until the gap closes (delivery stays
  in sequence order), and a :class:`~repro.errors.DCudaFaultError` is
  raised when the redelivery budget is exhausted;
* **duplicated posted writes** carry a stale sequence number by the time
  they land, so the receiver's validity check discards them;
* **credit starvation** makes a reload read no space however much the
  receiver freed, so only a starved reload turns the sender's wait into
  a bounded retry-with-exponential-backoff loop (each round a
  :func:`~repro.sim.bounded` wait, then a re-read of the tail pointer)
  that raises :class:`~repro.errors.DCudaTimeoutError` once the budget
  is spent.  A queue that is really full waits for the receiver, plane
  or not: a slow receiver is not a fault.

Both modes share one :meth:`CircularQueue.enqueue`; they differ only
where the plane injects: a starved reload, and where a landed write goes
(``_commit``, or ``_commit_faulty`` first under a plane).  A plane that
injects nothing therefore schedules exactly what ``faults=None`` (the
default) schedules — the golden-fixture replay test holds for both.

The queue owns its receiver buffer: :attr:`CircularQueue.entries` is a
deque other modules only read (occupancy checks), and a consumer that
blocks on an empty buffer waits in the queue's own getter list.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional

from ..errors import DCudaFaultError, DCudaTimeoutError
from ..hw.pcie import PCIeLink
from ..sim import PARK, Environment, Event, Signal, bounded

__all__ = ["CircularQueue", "QueueStats"]


class QueueStats:
    """Counters exposed for tests and the queue-sizing ablation."""

    __slots__ = ("enqueues", "dequeues", "credit_reloads", "full_stalls",
                 "dropped_writes", "duplicates_dropped", "recovered",
                 "retries", "starved_reloads")

    def __init__(self) -> None:
        self.enqueues = 0
        self.dequeues = 0
        self.credit_reloads = 0
        self.full_stalls = 0
        # Hardening counters (only move when a fault plane is attached).
        self.dropped_writes = 0      # posted writes lost by injection
        self.duplicates_dropped = 0  # stale-seq entries discarded
        self.recovered = 0           # dropped slots redelivered in order
        self.retries = 0             # backed-off credit-handshake retries
        self.starved_reloads = 0     # reloads that saw injected starvation


class CircularQueue:
    """A single-producer single-consumer circular buffer over PCIe."""

    def __init__(self, env: Environment, size: int,
                 link: Optional[PCIeLink] = None, name: str = "queue",
                 obs: Any = None, faults: Any = None,
                 rank: Optional[int] = None):
        if size < 1:
            raise ValueError(f"queue size must be >= 1, got {size}")
        self.env = env
        self.size = size
        self.link = link
        self.name = name
        #: World rank of the queue's owner, carried by its typed errors
        #: (``None`` for a queue no rank owns).
        self.rank = rank
        self.stats = QueueStats()
        # Fault plane (or None).  The fault-aware commit is taken when a
        # plane is attached, the bounded credit wait only after a reload
        # the plane starved; the default path is the unperturbed one.
        self._faults = faults
        #: Where a landed posted write goes: straight into the buffer, or
        #: through the validity check and drop recovery under a plane.
        self._land = self._commit if faults is None else self._commit_faulty
        self._next_deliver = 1              # next in-order sequence number
        self._parked: Dict[int, Any] = {}   # out-of-order arrivals by seq
        # Observability: depth (receiver view) and sender-credit occupancy
        # series, or None when disabled, plus views of three QueueStats
        # counts.  The samples are recorded at the existing state-change
        # points only — no extra events, no schedule perturbation.
        self._depth_series = obs.series(f"queue.{name}.depth") \
            if obs else None
        self._credit_series = obs.series(f"queue.{name}.credits") \
            if obs else None
        if obs:
            stats = self.stats
            obs.view(f"queue.{name}.enqueues", lambda: stats.enqueues)
            obs.view(f"queue.{name}.full_stalls", lambda: stats.full_stalls)
            obs.view(f"queue.{name}.credit_reloads",
                     lambda: stats.credit_reloads)
        # Receiver-memory state: the entry buffer and the tail counter.
        #: Buffered entries, oldest first.  Read-only outside this class.
        self.entries: Deque[Any] = deque()
        # Blocked getters, oldest first; non-empty only while the buffer
        # is empty (a landing entry goes to the oldest getter first).  At
        # most one waits in practice, so a list: 56 bytes to a deque's 760.
        self._getters: List[Event] = []
        self._get_name = f"get:buf:{name}"
        self._tail = 0          # receiver's dequeue counter
        self._head = 0          # sender's enqueue counter
        # Sender-local credit state.
        self._credits = size
        self._known_tail = 0    # sender's last-read tail value
        self._space_freed = Signal(env, name=f"space:{name}")
        #: Fired on every enqueue — receivers that poll (the device-side
        #: notification matcher) use it to wake instead of busy-spinning.
        self.arrived = Signal(env, name=f"arrived:{name}")
        self._seq = 0
        # Poll-elision registration (see park_consume / park_poll): the
        # parked consumer process, its poll delay, and whether the waking
        # commit should hand it the entry directly (consume) or leave the
        # entry buffered (poll).
        self._park_proc: Any = None
        self._park_delay = 0.0
        self._park_take = False

    # -- introspection --------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Entries currently buffered (receiver view)."""
        return len(self.entries)

    @property
    def parked(self) -> bool:
        """True while a consumer is parked on this queue (see
        :meth:`park_consume` and :meth:`park_poll`)."""
        return self._park_proc is not None

    @property
    def credits(self) -> int:
        """Sender's local free-entry estimate (may lag the true value)."""
        return self._credits

    # -- sender side --------------------------------------------------------
    def _reload_credits(self) -> Generator[Event, Any, bool]:
        """Read the tail pointer from receiver memory (one PCIe read);
        returns whether an injected starvation window hid the space."""
        self.stats.credit_reloads += 1
        if self.link is not None:
            yield from self.link.mapped_read()
        self._known_tail = self._tail
        self._credits = self.size - (self._head - self._known_tail)
        starved = (self._faults is not None
                   and self._faults.credit_starved(self.name, self.env._now))
        if starved:
            # The reloaded tail reads as if the receiver made no progress,
            # so the sender sees no space.
            self._credits = 0
            self.stats.starved_reloads += 1
        if self._credit_series is not None:
            self._credit_series.sample(self.env._now, self._credits)
        return starved

    def _await_credits(self) -> Generator[Event, Any, None]:
        """Reload the credits until one is free (the sender found none).

        Each round that still sees no space waits, then re-reads the tail
        pointer.  A queue that is really full waits for the receiver to
        free space, however long it takes.  A reload the fault plane
        starved cannot see freed space, so round *k* of those waits for
        freed space or ``backoff_base * 2**(k-1)``, whichever comes first,
        and the sender gives up once the retry budget is spent.

        Raises:
            DCudaTimeoutError: ``max_retries`` backed-off retries still
                met a starved reload (fault plane only).
        """
        starved = yield from self._reload_credits()
        attempt = 0
        while self._credits == 0:
            self.stats.full_stalls += 1
            if not starved:
                yield self._space_freed.wait()
            else:
                cfg = self._faults.cfg
                attempt += 1
                if attempt > cfg.max_retries:
                    raise DCudaTimeoutError(
                        f"queue {self.name}: no credits after "
                        f"{cfg.max_retries} backed-off handshake retries",
                        rank=self.rank, sim_time=self.env._now)
                yield from bounded(self._space_freed.wait(),
                                   cfg.backoff_base * (2 ** (attempt - 1)))
                self.stats.retries += 1
            starved = yield from self._reload_credits()

    def enqueue(self, entry: Any) -> Generator[Event, Any, None]:
        """Append *entry*; amortized one posted PCIe write per call.

        The sender pays only the posted-write occupancy; the entry becomes
        visible to the receiver after the write-visibility latency.  A
        constant delay preserves FIFO order.

        Raises:
            DCudaTimeoutError: injected credit starvation outlasted
                ``max_retries`` backed-off retries.
        """
        if self._credits == 0:
            yield from self._await_credits()
        self._credits -= 1
        self._head += 1
        if self._credit_series is not None:
            self._credit_series.sample(self.env._now, self._credits)
        link = self.link
        if link is not None:
            # One transaction writes the entry together with its sequence
            # number; the receiver validates entries by sequence number.
            # Inlined PCIeLink.mapped_post/_transact (identical yield
            # sequence): every put/get crosses this path, so the saved
            # generator frame per enqueue is measurable.
            link.mapped_writes += 1
            lock = link._mapped_lock
            yield lock.request()
            try:
                yield link.cfg.mapped_post_occupancy
            finally:
                lock.release()
            # Numbered after the write: under a plane, the in-order
            # delivery of _commit_faulty follows the order writes finish.
            self._seq += 1
            delay = link.cfg.mapped_write_latency
            if delay > 0:
                # Fire-and-forget: the commit needs no waitable event, so
                # use the kernel's lightweight deferred-call lane.
                self.env.call_at(delay, self._land, self._seq, entry)
                return
        else:
            self._seq += 1
        self._land(self._seq, entry)

    def enqueue_bulk(self, entries: Any) -> Generator[Event, Any, None]:
        """Append several entries back-to-back: exactly ``for e in
        entries: yield from self.enqueue(e)``, so per-entry credits,
        posted writes and visibility delays are those of the loop."""
        for entry in entries:
            yield from self.enqueue(entry)

    def _commit(self, seq: int, entry: Any) -> None:
        """The posted write landed in receiver memory."""
        env = self.env
        proc = self._park_proc
        if proc is not None and self._park_take:
            # A consumer parked on the empty buffer (poll elision): wake it
            # at the exact tick its poll loop would have observed this
            # entry.  The entry bypasses the buffer and rides the wake
            # payload together with its commit time (the consumer's old
            # resume point, for observation bookkeeping).
            self._park_proc = None
            self.stats.enqueues += 1
            if self._depth_series is not None:
                self._depth_series.sample(env._now, len(self.entries))
            self.arrived.fire()
            # Receiver-side bookkeeping happens at commit time, exactly
            # when the old blocking dequeue would have performed it.
            self._took(1)
            env.wake_parked(self._park_delay, proc, (entry, env._now))
            return
        getters = self._getters
        if getters:
            getters.pop(0).succeed(entry)
        else:
            self.entries.append(entry)
        self.stats.enqueues += 1
        if self._depth_series is not None:
            self._depth_series.sample(env._now, len(self.entries))
        if proc is not None:
            # A consumer parked to poll: the entry stays buffered and the
            # consumer re-polls (and drains) when the wake fires.  One-shot
            # — the registration clears here so batch arrivals coalesce
            # into the single wake.
            self._park_proc = None
            env.wake_parked(self._park_delay, proc, None)
        self.arrived.fire()

    def _commit_faulty(self, seq: int, entry: Any, attempt: int = 0) -> None:
        """Fault-aware commit: validity check, drop recovery, in-order drain.

        ``attempt`` is 0 for the original posted write, ``> 0`` for a
        redelivery of a dropped slot, and ``< 0`` for an injected duplicate
        (which skips the drop check so a dup cannot recurse forever).

        Raises:
            DCudaFaultError: a slot was dropped more than ``max_retries``
                times (via :meth:`_redeliver`).
        """
        now = self.env._now
        if seq < self._next_deliver:
            # Sequence-number validity check (§III-C): the slot was already
            # delivered — this is a stale duplicate; discard it.
            self.stats.duplicates_dropped += 1
            return
        if attempt >= 0 and self._faults.queue_drop(self.name, now):
            # The posted write was lost in flight.  The gap it leaves in
            # the sequence numbers parks later slots until redelivery.
            self.stats.dropped_writes += 1
            self._redeliver(seq, entry, attempt + 1)
            return
        self._parked[seq] = entry
        if attempt > 0:
            self.stats.recovered += 1
        duplicate = attempt >= 0 and self._faults.queue_dup(self.name, now)
        while self._next_deliver in self._parked:
            self._commit(self._next_deliver,
                         self._parked.pop(self._next_deliver))
            self._next_deliver += 1
        if duplicate:
            # The duplicate lands after the original was delivered, so the
            # stale-seq check above is guaranteed to discard it.
            self.env.call_at(self._faults.cfg.redelivery_delay,
                             self._commit_faulty, seq, entry, -1)

    def _redeliver(self, seq: int, entry: Any, attempt: int) -> None:
        """Re-post a dropped slot after an exponentially backed-off delay."""
        cfg = self._faults.cfg
        if attempt > cfg.max_retries:
            raise DCudaFaultError(
                f"queue {self.name}: slot seq={seq} lost {attempt} times; "
                f"redelivery budget ({cfg.max_retries}) exhausted",
                rank=self.rank, sim_time=self.env._now)
        delay = cfg.redelivery_delay * (2 ** (attempt - 1))
        self.env.call_at(delay, self._commit_faulty, seq, entry, attempt)

    # -- receiver side --------------------------------------------------------
    def park_consume(self, delay: float) -> Any:
        """Register the active process for a parked blocking dequeue.

        Intended for the consumer's empty-queue path::

            entry, committed_at = yield queue.park_consume(poll_latency)

        The process detaches from the schedule entirely; the next commit
        wakes it ``delay`` after the commit instant — the exact tick at
        which the old ``dequeue(); yield poll_latency`` sequence would have
        resumed — and hands it the entry plus the commit timestamp.  Only
        one consumer may park at a time (single-consumer queues).
        """
        self._park_proc = self.env._active_process
        self._park_delay = delay
        self._park_take = True
        return PARK

    def park_poll(self, delay: float) -> Any:
        """Register the active process for a parked poll wake.

        Intended for consumers that drain via :meth:`try_dequeue` /
        :meth:`drain_all`::

            yield queue.park_poll(poll_interval)

        The next commit leaves the entry buffered and wakes the process
        ``delay`` after the commit instant — the exact tick at which the
        old ``yield arrived.wait(); yield poll_interval`` sequence would
        have re-polled.  Later same-wake commits stay buffered and are
        drained together (wake coalescing).
        """
        self._park_proc = self.env._active_process
        self._park_delay = delay
        self._park_take = False
        return PARK

    def _get(self) -> Event:
        """An event that fires with the oldest entry: already succeeded
        when one is buffered, else queued behind earlier getters."""
        ev = Event(self.env, self._get_name)
        if self.entries:
            ev.succeed(self.entries.popleft())
        else:
            self._getters.append(ev)
        return ev

    def _took(self, n: int) -> None:
        """Receiver-side step after *n* entries left the buffer: advance
        the tail pointer, sample the depth once per entry, and wake a
        starved sender."""
        self._tail += n
        self.stats.dequeues += n
        series = self._depth_series
        if series is not None:
            now = self.env._now
            depth = len(self.entries)
            for d in range(depth + n - 1, depth - 1, -1):
                series.sample(now, d)
        # Waking a starved sender models the sender's polling loop
        # observing the advanced tail pointer; the sender still pays the
        # PCIe read in _reload_credits.
        self._space_freed.fire()

    def dequeue(self) -> Generator[Event, Any, Any]:
        """Remove the oldest entry (blocking, local to the receiver)."""
        entry = yield self._get()
        self._took(1)
        return entry

    def dequeue_timeout(self, timeout: float, rank: Optional[int] = None,
                        what: str = "entry") -> Generator[Event, Any, Any]:
        """Blocking dequeue with a simulated-time bound.

        An entry that lands at exactly the deadline is still delivered.

        Args:
            timeout: Simulated seconds to wait before giving up.
            rank: World rank attached to the error for diagnosis.
            what: Human-readable description of the awaited entry.

        Returns:
            The dequeued entry.

        Raises:
            DCudaTimeoutError: nothing arrived within ``timeout``; carries
                ``rank`` and the simulated time.
        """
        get_ev = self._get()
        if not get_ev.triggered and not (yield from bounded(get_ev,
                                                            timeout)):
            # Withdraw the getter, so the next entry stays buffered for
            # a later dequeue instead of going to a wait nobody resumes.
            self._getters.remove(get_ev)
            raise DCudaTimeoutError(
                f"queue {self.name}: timed out after {timeout:.3e}s "
                f"simulated waiting for {what}",
                rank=rank, sim_time=self.env._now)
        self._took(1)
        return get_ev.value

    def try_dequeue(self) -> Any:
        """Non-blocking dequeue; returns ``None`` when empty."""
        if not self.entries:
            return None
        entry = self.entries.popleft()
        self._took(1)
        return entry

    def drain_all(self) -> list:
        """Remove and return every buffered entry in one pass.

        Equivalent to calling :meth:`try_dequeue` until it returns ``None``
        — same entries, same order, same receiver-side bookkeeping at the
        same instant — but with one sender wakeup (``_space_freed`` fires
        once; the extra fires of the loop form woke nobody, since no
        process runs between synchronous removals).  Returns ``[]`` when
        the buffer is empty.
        """
        entries = self.entries
        if not entries:
            return []
        out = list(entries)
        entries.clear()
        self._took(len(out))
        return out
