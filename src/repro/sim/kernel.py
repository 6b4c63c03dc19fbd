"""The discrete-event simulator core.

Virtual time is an integer count of nanoseconds since simulation start.
The event queue is a binary heap keyed on ``(time, priority, sequence)``;
the sequence number makes same-instant, same-priority events fire in the
order they were scheduled, which keeps runs reproducible.

Scheduling is a two-tier API:

* :meth:`Simulator.schedule_at` / :meth:`Simulator.schedule_after` — the
  positional fast path. Each call allocates exactly one heap entry (a
  plain list, compared element-wise in C) and returns it as an opaque
  event token. This is what every hot caller in the tree uses: the
  per-event budget of the busiest 100 µs window (~100 ns/event in the
  paper's Fig. 2c) leaves no room for keyword parsing or wrapper
  objects on the dispatch path.
* :meth:`Simulator.schedule` — the validated keyword wrapper. It checks
  that exactly one of ``at=``/``after=`` is given, coerces values, and
  wraps the heap entry in an :class:`EventHandle`. Use it anywhere that
  is not dispatch-rate critical.

Both tiers share one queue and one sequence counter, so a run built from
fast-path calls is bit-identical to the same run built from
``schedule()`` calls.
"""

from __future__ import annotations

import heapq
from typing import Callable

# Unit helpers: all simulator times are integer nanoseconds.
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


# The explicit unit-conversion boundary. repro.lint's unit-suffix rule
# bans _us/_ms names everywhere else; values arriving in other units
# convert to integer nanoseconds through these helpers, at the edge.
def us_to_ns(us: float) -> int:
    """Microseconds -> integer nanoseconds."""
    return int(round(us * MICROSECOND))


def ms_to_ns(ms: float) -> int:
    """Milliseconds -> integer nanoseconds."""
    return int(round(ms * MILLISECOND))


def s_to_ns(s: float) -> int:
    """Seconds -> integer nanoseconds."""
    return int(round(s * SECOND))


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice, ...)."""


# A queued event is a plain list so the heap compares entries with C-level
# element-wise comparison (time, then priority, then seq; seq is unique,
# so comparison never reaches the payload fields). The indices below name
# the layout for code that holds a raw event token. The state slot holds
# False while pending, True once cancelled, and _FIRED after dispatch —
# so cancelling an event that already ran is a no-op rather than a
# bookkeeping leak in the live-event count.
EV_TIME = 0
EV_PRIORITY = 1
EV_SEQ = 2
EV_CALLBACK = 3
EV_ARGS = 4
EV_CANCELLED = 5

_FIRED = 2

# Queues shorter than this never compact: rebuilding a tiny heap costs
# more bookkeeping than just popping dead entries at dispatch.
_COMPACT_MIN_QUEUE = 64

_UNBOUNDED = float("inf")


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation.

    The fast-path methods return the raw heap entry instead; wrap one in
    an ``EventHandle(sim, entry)`` only if you need this interface.
    """

    __slots__ = ("_sim", "_event")

    def __init__(self, sim: "Simulator", event: list):
        self._sim = sim
        self._event = event

    @property
    def time(self) -> int:
        """Scheduled firing time in nanoseconds."""
        return self._event[EV_TIME]

    @property
    def cancelled(self) -> bool:
        return self._event[EV_CANCELLED] is True

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        self._sim.cancel(self._event)


class Simulator:
    """A sequential discrete-event simulator.

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule_after(100, lambda: print(sim.now))
        sim.run(until=1 * SECOND)

    The simulator exposes :attr:`rng` (see :class:`repro.sim.rng.RngStreams`)
    so components can draw from named substreams without threading RNG
    objects through every constructor.

    :attr:`now` is the current virtual time in nanoseconds. It is a plain
    attribute because it is read on every hop, and a property read costs
    a call: only :meth:`run` writes it. Nothing else may assign it.
    """

    def __init__(self, seed: int = 0, telemetry: bool | object = False):
        from repro.sim.rng import RngStreams

        self.now = 0
        self._queue: list[list] = []
        self._seq = 0
        self._cancelled = 0  # cancelled entries still sitting in the heap
        self._running = False
        self._stopped = False
        self.events_executed = 0
        self.rng = RngStreams(seed)
        # Every Component and Link built on this simulator, in
        # construction order: the one device inventory (chaos fault
        # targets and lifecycle wiring are type filters over it).
        self.registry: list = []
        self._trace_hooks: list[Callable[[int, Callable], None]] = []
        # Wall-clock profiling is opt-in like telemetry: None keeps the
        # dispatch loop on its unclocked path; attach_profiler() swaps
        # in the timed one.
        self.profiler = None
        # Telemetry is opt-in: None keeps every instrumentation point in
        # the stack down to a single `is not None` check. Pass True for a
        # default session or a preconfigured TelemetrySession instance.
        if telemetry is True:
            from repro.telemetry.session import TelemetrySession

            self.telemetry = TelemetrySession()
        else:
            self.telemetry = telemetry or None

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled

    @property
    def pending_raw(self) -> int:
        """Raw heap occupancy, including cancelled entries not yet reaped.

        The difference ``pending_raw - pending`` is the garbage the next
        compaction (or dispatch) will discard; it is an implementation
        detail exposed for tests and capacity diagnostics.
        """
        return len(self._queue)

    # -- scheduling: the positional fast path --------------------------------

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> list:
        """Schedule ``callback(*args)`` at absolute ``time``; fast path.

        Returns the raw heap entry — an opaque token accepted by
        :meth:`cancel` (index it with ``EV_CANCELLED`` to test state).
        ``time`` must be an integer ≥ :attr:`now`; ``args`` must already
        be a tuple. No keyword parsing, no coercion, no wrapper object.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self.now})"
            )
        event = [time, priority, self._seq, callback, args, False]
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def schedule_after(
        self,
        delay_ns: int,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> list:
        """Schedule ``callback(*args)`` after ``delay_ns`` ns; fast path.

        The relative-time twin of :meth:`schedule_at`; same contract,
        same raw-entry return.
        """
        now = self.now
        time = now + delay_ns
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={now})"
            )
        event = [time, priority, self._seq, callback, args, False]
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    # -- scheduling: the validated keyword wrapper ---------------------------

    def schedule(
        self,
        *,
        at: int | None = None,
        after: int | None = None,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``at`` or delay ``after``.

        Exactly one of ``at`` / ``after`` must be given. Lower ``priority``
        values fire earlier among same-time events; the default 0 is right
        for nearly everything. This is the validated wrapper over
        :meth:`schedule_at` / :meth:`schedule_after`; both tiers produce
        identical queue states for identical times.
        """
        if (at is None) == (after is None):
            raise SimulationError("specify exactly one of at= or after=")
        when = int(at) if at is not None else self.now + int(after)  # type: ignore[arg-type]
        return EventHandle(
            self, self.schedule_at(when, callback, tuple(args), priority)
        )

    # -- cancellation --------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def cancel(self, event: list) -> None:
        """Cancel a scheduled event (raw entry or already-fired; idempotent).

        When cancelled entries come to outnumber live ones the heap is
        compacted in place, so workloads that arm and cancel timers at a
        high rate (retransmit timers, inactivity timeouts) cannot grow
        the queue without bound or slow every push with dead weight.
        """
        if event[EV_CANCELLED]:
            return
        event[EV_CANCELLED] = True
        self._cancelled += 1
        queue = self._queue
        if self._cancelled * 2 > len(queue) >= _COMPACT_MIN_QUEUE:
            # In-place rebuild: run() holds a reference to this list.
            queue[:] = [e for e in queue if not e[EV_CANCELLED]]
            heapq.heapify(queue)
            self._cancelled = 0

    def add_trace_hook(self, hook: Callable[[int, Callable], None]) -> None:
        """Register a hook called as ``hook(time, callback)`` before each event."""
        self._trace_hooks.append(hook)

    def attach_profiler(self, profiler: object | None = None):
        """Attach a kernel profiler (created if not given) and return it.

        The run loop then attributes every fired event and its
        wall-clock duration to a handler kind; an attached telemetry
        session additionally self-times its recording helpers against
        the same clock, so the profile separates handler work from the
        cost of observing it. Profiling reads the wall clock but never
        feeds back into scheduling: a profiled run produces the same
        simulation results as an unprofiled one.
        """
        if profiler is None:
            from repro.telemetry.profile import KernelProfiler

            profiler = KernelProfiler()
        self.profiler = profiler
        if self.telemetry is not None:
            self.telemetry.profiler = profiler
        return profiler

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or stop().

        Returns the number of events executed during this call. When
        ``until`` is given, time is advanced to exactly ``until`` even if
        the last event fired earlier, so back-to-back ``run`` calls tile
        the timeline cleanly.
        """
        if self._running:
            raise SimulationError("simulator is re-entrant: run() inside run()")
        self._running = True
        self._stopped = False
        executed = 0
        # Locals for everything the dispatch loop touches per event: at
        # >500k events/s sustained, attribute lookups are the budget.
        queue = self._queue
        heappop = heapq.heappop
        hooks = self._trace_hooks
        profiler = self.profiler
        if profiler is not None:
            from repro.telemetry.profile import handler_kind

            clock = profiler.clock
            record = profiler.record
        limit = _UNBOUNDED if max_events is None else max_events
        try:
            while queue:
                if self._stopped:
                    break
                if executed >= limit:
                    break
                event = queue[0]
                if event[5]:  # EV_CANCELLED
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                when = event[0]  # EV_TIME
                if until is not None and when > until:
                    break
                heappop(queue)
                event[5] = _FIRED
                self.now = when
                callback = event[3]  # EV_CALLBACK
                if hooks:
                    for hook in hooks:
                        hook(when, callback)
                if profiler is None:
                    callback(*event[4])  # EV_ARGS
                else:
                    begin = clock()
                    callback(*event[4])
                    record(handler_kind(callback), clock() - begin, when)
                executed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        self.events_executed += executed
        return executed

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain. ``max_events`` guards runaway loops."""
        executed = self.run(max_events=max_events)
        if self._queue and not self._stopped:
            live = self.pending
            if live:
                raise SimulationError(
                    f"run_until_idle exceeded {max_events} events "
                    f"with {live} still pending"
                )
        return executed


def format_ns(t: int) -> str:
    """Render a nanosecond time compactly: 1500 -> '1.500us', 42 -> '42ns'."""
    if t < MICROSECOND:
        return f"{t}ns"
    if t < MILLISECOND:
        return f"{t / MICROSECOND:.3f}us"
    if t < SECOND:
        return f"{t / MILLISECOND:.3f}ms"
    return f"{t / SECOND:.6f}s"
