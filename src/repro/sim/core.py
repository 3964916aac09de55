"""Discrete-event simulation kernel.

This module implements the minimal deterministic event loop that the whole
GPU-cluster model runs on.  The design follows the classic process-based DES
style (as popularized by SimPy) but is hand-rolled so that the scheduler is
fully deterministic and has no external dependencies:

* :class:`Environment` owns simulated time and a pending-entry schedule
  ordered by ``(time, priority, sequence)`` — the sequence number breaks
  ties so that two runs of the same program produce identical schedules.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a Python generator.  The generator *yields* events;
  whenever a yielded event fires, the process is resumed with the event's
  value (or the event's exception is thrown into the generator).  A process
  is itself an event that succeeds with the generator's return value, so
  processes can be joined (``yield child``) and composed (``yield from``).

Scheduler structure
-------------------
The schedule is one priority queue keyed by ``(time, priority, sequence)``,
held in two containers:

1. **The due lane** — a plain FIFO of entries scheduled at *exactly* the
   current simulated time with the default priority.  Sequence numbers are
   handed out monotonically, so appending keeps the lane sorted by
   construction; a triggered event (``succeed``/``fail``), a zero-delay
   timeout, and a zero-delay deferred call are all O(1) appends, and the
   run loop drains the lane in a tight batch without re-checking the clock
   — the clock advances once per distinct timestamp, not once per entry.
2. **The timed heap** — one ``heapq`` of ``(when, priority, sequence,
   obj)`` tuples for every other entry.  The model's heaps stay small (a
   few hundred entries at most on the benchmark workloads), and at that
   size one C-level push and pop cost less than any interpreted bucketing
   put in front of them.

Hot-path notes: the event loop processes hundreds of thousands of entries
per simulated run, so the kernel offers a second, lighter scheduling lane
next to full events: :meth:`Environment.call_at` enqueues a bare
``(callable, args)`` pair — no callback list, no value slot, no one-shot
bookkeeping — which fire-and-forget machinery (bandwidth-link wakeups,
posted-write commits, process starts) uses instead of sentinel events.
Both lanes share the same ``(time, priority, sequence)`` keys, so a
deferred call occupies exactly the queue position the equivalent sentinel
event would have — the schedule is unchanged, only cheaper.  Retired
:class:`_Deferred` carriers are recycled through a freelist
(``Environment._dfree``): the deferred/timeout lane is roughly half the
queue on big runs, and slot reuse removes that allocation churn entirely.
(Full :class:`Event` objects are deliberately *not* pooled: user code may
legally hold a reference to a fired event — the losing arm of a bounded
wait, a stored put-acknowledgement — and observe ``.value``/``.ok`` long
after dispatch, so recycling them would corrupt observable state.)

Only the simulation kernel lives here; synchronization primitives built on
top of it (timeouts, signals, resources, stores, bandwidth links) live in the
sibling modules of :mod:`repro.sim`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "EnvStats",
    "Event",
    "Process",
    "SimulationError",
    "PENDING",
    "PARK",
]

_INF = float("inf")
#: Stand-in head of an empty timed heap: its time is ``inf``, so the
#: dispatch loop's due-lane test needs no emptiness branch.  Identity
#: (``is _NO_ENTRY``) is the emptiness test.
_NO_ENTRY = (_INF, 3, 0, None)


class EnvStats:
    """Event-loop totals, read off the schedule's own state.

    The read-only view behind :attr:`Environment.stats`.  Nothing is
    counted on the dispatch path: every push takes one sequence number and
    every entry sits in the due lane or the timed heap until the loop
    consumes it, so the totals follow from ``_seq`` and the two sizes.
    The loop is the same one with observability on or off.
    """

    __slots__ = ("_env",)

    def __init__(self, env: "Environment") -> None:
        self._env = env

    @property
    def scheduled(self) -> int:
        """Entries ever pushed onto the schedule."""
        return self._env._seq

    @property
    def pending(self) -> int:
        """Entries still queued, abandoned timers not yet dropped included."""
        env = self._env
        return len(env._due) + len(env._heap)

    @property
    def entries(self) -> int:
        """Entries the loop has consumed, dispatched or dropped."""
        return self.scheduled - self.pending


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


PENDING = _Pending()


class _Deferred:
    """A bare scheduled call — the lightweight event-queue lane.

    Carries only the callable and its arguments; the event loop invokes it
    directly instead of running an event's callback list.  Never exposed to
    user code: processes cannot wait on it.  Instances are recycled through
    the environment's freelist once dispatched.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args


class Event:
    """A one-shot occurrence that processes may wait on.

    An event goes through at most one transition: *pending* →
    *triggered* (either succeeded with a value or failed with an
    exception).  Once triggered it is scheduled on the environment's queue
    and its callbacks run at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled",
                 "name", "abandoned")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        #: Callables invoked with this event when it fires.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self.name = name
        #: Set on the losing arm of a bounded wait
        #: (:func:`~repro.sim.primitives.bounded`): the dispatch loop drops
        #: an abandoned entry without running its callbacks, so a lost
        #: timer neither stretches the run nor fires into a finished wait.
        self.abandoned = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed or is pending."""
        if self._exception is not None:
            raise self._exception
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- transitions --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with *value* and schedule its callbacks."""
        if self._value is not PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        # Inlined Environment._schedule (hot path): a freshly triggered
        # event fires at the current time with default priority, which is
        # exactly the due lane — an O(1) append, no heap.
        env = self.env
        self._scheduled = True
        env._seq += 1
        env._due.append((env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event get the exception thrown into their
        generator.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.env._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs immediately if already processed."""
        if self.callbacks is None:
            # Already processed: run at once (still inside the event loop).
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class _StartValue:
    """Duck-typed stand-in for the start sentinel event of a process.

    Read-only: :meth:`Process._step` only looks at ``_exception`` and
    ``_value``, so one shared instance starts every process.
    """

    __slots__ = ()
    _exception = None
    _value = None


_START = _StartValue()
#: Shared argument tuple for sleep wakeups: every bare-delay wakeup resumes
#: its process with the start sentinel, so one module-level tuple serves
#: all of them (no per-sleep allocation).
_START_ARGS = (_START,)


class _Park:
    """Yield sentinel: suspend the process until an external wake.

    A process that yields :data:`PARK` detaches from the schedule entirely
    — no event, no timer, no queue entry.  It resumes only when some other
    component calls :meth:`Environment.wake_parked` (typically a queue that
    registered the parked process and computes the exact poll tick at which
    the process would have observed new work).  This is the poll-elision
    primitive: one scheduled wake replaces an unbounded
    ``while True: yield poll_latency`` loop, at the identical timestamp.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PARK>"


PARK = _Park()


class _WakeBox:
    """Duck-typed value carrier for parked-process wakes.

    Like :class:`_StartValue` but with a writable value slot:
    :meth:`Process._step` reads only ``_exception`` (always ``None``) and
    ``_value``, so each process reuses one box for all its wakes — no Event
    allocation per wake.
    """

    __slots__ = ("_value",)
    _exception = None

    def __init__(self) -> None:
        self._value = None


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator yields :class:`Event` instances.  The process is itself an
    event which succeeds with the generator's return value, enabling joins::

        result = yield env.process(worker(env))
    """

    __slots__ = ("_generator", "_wake_box", "_step_cb", "_parked_cb")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any], name: str = ""):
        super().__init__(env, name or getattr(generator, "__name__", "proc"))
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        #: Reusable value carrier for PARK wakes (lazily created on the
        #: first park; ``None`` for processes that never park).
        self._wake_box: Optional[_WakeBox] = None
        #: Cached bound methods: every sleep wakeup and event callback
        #: stores a reference to ``_step`` (and every park wake to
        #: ``_parked_step``) — binding them once removes a bound-method
        #: allocation per scheduling operation.
        self._step_cb = self._step
        self._parked_cb = self._parked_step
        # Kick off the process as soon as the loop runs: a deferred call in
        # place of the old sentinel start event (same queue slot, no Event).
        env.call_at(0.0, self._step_cb, _START)

    # -- internals ----------------------------------------------------------
    def _parked_step(self, value: Any) -> None:
        """Resume a parked process with *value* (wake_parked's target)."""
        box = self._wake_box
        box._value = value
        self._step(box)

    def _step(self, event: Event) -> None:
        """Resume the generator with *event*'s outcome and handle what it
        yields next.

        An invalid yield is answered by throwing an error into the
        generator, exactly like an exception raised inside the process:
        uncaught, it fails the process; caught, the generator's next yield
        goes through the same handling as any other.
        """
        env = self.env
        gen = self._generator
        exception = event._exception
        while True:
            env._active_process = self
            try:
                if exception is not None:
                    target = gen.throw(exception)
                else:
                    value = event._value
                    target = gen.send(None if value is PENDING else value)
            except StopIteration as stop:
                env._active_process = None
                self._value = stop.value
                env._schedule(self)
                return
            except BaseException as exc:
                env._active_process = None
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self._exception = exc
                self._value = None
                env._schedule(self)
                return
            env._active_process = None
            cls = target.__class__
            if cls is not float:
                if cls is Event or isinstance(target, Event):
                    if target.env is not env:
                        exception = SimulationError(
                            "yielded event belongs to a different environment")
                        continue
                    callbacks = target.callbacks
                    if callbacks is None:
                        # Target already processed: resume at once with
                        # its outcome (the Event.add_callback fallback).
                        event = target
                        exception = target._exception
                        continue
                    callbacks.append(self._step_cb)
                    return
                if target is PARK:
                    # Park: detach from the schedule entirely.  The
                    # component that handed out PARK (a queue) has
                    # registered this process and will call
                    # Environment.wake_parked at the exact tick a poll
                    # loop would have observed new work.
                    if self._wake_box is None:
                        self._wake_box = _WakeBox()
                    return
                if not isinstance(target, float):
                    exception = TypeError(
                        f"process {self.name!r} yielded non-event {target!r}")
                    continue
                target = float(target)  # float subclass, e.g. numpy.float64
            # Bare-delay sleep, the hottest scheduling path in the model
            # (every compute/latency cost is a float yield).  The wakeup
            # takes the exact queue slot ``yield env.timeout(target)``
            # would (same time, priority and sequence number) without
            # building an Event, and its carrier calls _step directly.
            if target < 0:
                exception = ValueError(f"negative delay {target!r}")
                continue
            env._seq += 1
            free = env._dfree
            if free:
                d = free.pop()
                d.fn = self._step_cb
                d.args = _START_ARGS
            else:
                d = _Deferred(self._step_cb, _START_ARGS)
            if target == 0.0:
                env._due.append((env._seq, d))
            else:
                heappush(env._heap, (env._now + target, 1, env._seq, d))
            return


class Environment:
    """The simulation environment: clock plus event queue.

    Events are executed in order of ``(time, priority, sequence)``.  Lower
    priority values run first at equal times; the default priority is 1 and
    "urgent" kernel-internal events use 0.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Due lane: ``(seq, obj)`` entries at exactly the current time
        #: with default priority, FIFO == seq order by construction.
        self._due: deque = deque()
        #: Timed heap: every other ``(when, priority, seq, obj)`` entry.
        self._heap: List[Any] = []
        #: Freelist of retired _Deferred carriers (slot reuse).
        self._dfree: List[_Deferred] = []

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def stats(self) -> EnvStats:
        """Event-loop totals derived from the schedule (see EnvStats)."""
        return EnvStats(self)

    # -- event creation ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that succeeds ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined Event construction + scheduling: timeouts are the single
        # most allocated event kind (~half the queue on big runs).
        ev = Event.__new__(Event)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._exception = None
        ev._scheduled = True
        ev.name = name or "timeout"
        ev.abandoned = False
        self._seq += 1
        if delay == 0.0:
            self._due.append((self._seq, ev))
        else:
            heappush(self._heap, (self._now + delay, 1, self._seq, ev))
        return ev

    def call_at(self, delay: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Schedule a bare ``fn(*args)`` call ``delay`` time units from now.

        The lightweight fire-and-forget lane: nothing waits on it, nothing
        observes it — it simply runs at its queue position.  Used for link
        wakeups, posted-write commits, and process starts; prefer it over a
        sentinel ``timeout().add_callback`` pair whenever no process will
        ever yield on the occurrence.  The carrier object comes from the
        freelist when one is available.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        free = self._dfree
        if free:
            d = free.pop()
            d.fn = fn
            d.args = args
        else:
            d = _Deferred(fn, args)
        if delay == 0.0:
            self._due.append((self._seq, d))
        else:
            heappush(self._heap, (self._now + delay, 1, self._seq, d))

    def wake_parked(self, delay: float, proc: Process,
                    value: Any = None) -> None:
        """Schedule a wake for a process parked via ``yield PARK``.

        The wake rides the lightweight deferred lane (same queue position a
        ``timeout(delay)`` the process could have yielded would occupy) and
        resumes the generator with *value*.  The component that handed out
        ``PARK`` calls this exactly once per park: a queue clears its
        registration on the commit that schedules the wake.
        """
        self.call_at(delay, proc._parked_cb, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Spawn *generator* as a new process."""
        return Process(self, generator, name)

    def run_all(self, generators: Iterable[Generator[Event, Any, Any]]) -> list:
        """Spawn all *generators*, run to completion, return their results."""
        procs = [self.process(g) for g in generators]
        self.run()
        return [p.value for p in procs]

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = 1) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._seq += 1
        if delay == 0.0 and priority == 1:
            self._due.append((self._seq, event))
        else:
            heappush(self._heap,
                     (self._now + delay, priority, self._seq, event))

    def step(self) -> None:
        """Process exactly one live schedule entry.

        Abandoned timers (e.g. the losing arm of a bounded wait whose
        winner already resumed the process) are *not* entries: they are
        consumed and dropped without dispatching and without advancing the
        clock, and the step processes the next live entry instead.  A
        failed process nobody waits on re-raises its exception, as in
        :meth:`run`.  A schedule with no live entry left raises
        :class:`SimulationError`, so a ``while True: step()`` loop ends.
        """
        if self._dispatch(_INF, True):
            raise SimulationError("step() on an empty schedule")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches *until*.

        Entries at exactly *until* still run, and the clock ends at
        *until* whether or not work remains.  Unhandled process failures
        propagate out of :meth:`run` the moment the failed process event
        is processed with no observer attached.
        """
        if until is None:
            self._dispatch(_INF, False)
            return
        if until < self._now:
            raise ValueError(f"until={until!r} lies in the past")
        self._dispatch(until, False)
        self._now = until

    def run_watchdog(self, deadline: float) -> bool:
        """Run like :meth:`run`, but stop *before* crossing ``deadline``.

        Returns ``True`` when the queue drained (normal completion) and
        ``False`` when the next live event lies beyond the deadline — i.e.
        the simulation would run past its simulated-time budget.  Unlike
        ``run(until=deadline)`` the clock is left at the last processed
        event, not advanced to the deadline, so callers can still report a
        meaningful elapsed time for the work that did happen.  Unhandled
        process failures propagate exactly as in :meth:`run`.
        """
        return self._dispatch(deadline, False)

    def _dispatch(self, bound: float, once: bool) -> bool:
        """The one dispatch loop behind :meth:`run`, :meth:`run_watchdog`
        and :meth:`step`.

        Dispatches entries in ``(when, priority, seq)`` order and stops on
        the first of three rules:

        * the first *live* timed entry lies beyond *bound*: returns
          ``False`` with the clock at the last dispatched entry;
        * *once* is set and one live entry was dispatched: ``False``;
        * no live entry is left: ``True``.

        Abandoned timers are dropped wherever they reach the head, before
        the bound test, and never advance the clock.  A failed process
        nobody waits on re-raises its exception.

        Hot loop: the pop and clock advance are inlined (a Python-level
        call per entry would cost more than the heap work it wraps),
        stable containers and module globals are local aliases, the clock
        is mirrored in a local (write-through to ``_now`` so pushes from
        callbacks see it), and the due lane drains in a tight batch — the
        clock only moves on timed pops, i.e. once per distinct timestamp.
        """
        due = self._due
        heap = self._heap
        dfree = self._dfree
        now = self._now
        no_entry = _NO_ENTRY
        deferred = _Deferred
        pop = heappop
        while True:
            ne = heap[0] if heap else no_entry
            # Timed entries at the current timestamp carry smaller sequence
            # numbers than anything appended since the clock reached it, so
            # they interleave ahead of the due lane; the common case (next
            # timed entry in the future) is a single float compare.
            if due and (ne[0] > now or ne[1] > 1
                        or (ne[1] == 1 and ne[2] > due[0][0])):
                event = due.popleft()[1]
                if event.__class__ is deferred:
                    event.fn(*event.args)
                    dfree.append(event)
                    if once:
                        return False
                    continue
                if event.abandoned:
                    continue
            else:
                if ne is no_entry:
                    return True
                event = ne[3]
                is_def = event.__class__ is deferred
                if not is_def and event.abandoned:
                    pop(heap)  # dropped: no dispatch, no clock advance
                    continue
                when = ne[0]
                if when > bound:
                    return False
                pop(heap)
                if when > now:
                    now = when
                    self._now = when
                if is_def:
                    event.fn(*event.args)
                    dfree.append(event)
                    if once:
                        return False
                    continue
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if (not callbacks and event._exception is not None
                    and isinstance(event, Process)):
                raise event._exception
            if once:
                return False
