"""Discrete-event simulation kernel.

The kernel is the heartbeat of ZenSDN: every link transmission, switch
lookup, controller computation, and timer in the platform is an event on a
single priority queue ordered by simulated time.  Determinism is a design
goal — two runs with the same seed produce identical event orderings, which
makes every experiment in ``benchmarks/`` reproducible bit-for-bit.

One programming model: callbacks.  ``sim.schedule(delay, fn, *args)``
runs ``fn`` at ``now + delay``; anything that waits registers a callback.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.telemetry import Telemetry

__all__ = ["Event", "Observer", "Simulator"]

# Heap entries are plain (time, seq, event) tuples: tuple comparison stops
# at the unique seq, and tuples cost a fraction of a dataclass to build and
# compare — the run loop is the hottest code in the platform.


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be cancelled
    before they fire.  A cancelled event stays in the heap but is skipped by
    the run loop; the owning simulator keeps a live count so
    :attr:`Simulator.pending_events` never has to scan the heap.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None
        self._fired = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None and not self._fired:
            sim._cancelled_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Observer:
    """A periodic side-channel tick that can never perturb the run.

    Observers live outside the event heap: they consume no sequence
    numbers, never count toward :attr:`Simulator.events_processed`, and
    the kernel forbids them from scheduling events or processes while
    their callback runs.  Two runs of the same seed are therefore
    bit-identical whether observers are attached or not — the property
    ``repro.obs`` leans on to scrape metrics mid-run.
    """

    __slots__ = ("interval", "callback", "next_time", "active", "fired")

    def __init__(self, interval: float, callback: Callable[[], Any],
                 next_time: float) -> None:
        self.interval = interval
        self.callback = callback
        self.next_time = next_time
        self.active = True
        self.fired = 0

    def cancel(self) -> None:
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "cancelled"
        return (f"<Observer every {self.interval}s next="
                f"{self.next_time:.6f} {state}>")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the kernel's :class:`random.Random`; every stochastic
        component in the platform draws from :attr:`rng` (or a
        :meth:`fork_rng` child) so a run is fully determined by this value.
    """

    def __init__(self, seed: int = 0, telemetry=None,
                 stable_ties: bool = False) -> None:
        self._now = 0.0
        self._heap: list = []  # (time, seq, Event) tuples
        self._seq = itertools.count()
        #: Stable-tie mode (the sharded kernel): heap order keys become
        #: ``(0, seq)`` for ordinary events and ``(1, *key)`` for events
        #: scheduled with an explicit ``key=``, so same-instant ordering
        #: of keyed events is a property of the key — not of insertion
        #: order — and therefore identical no matter how the simulation
        #: is partitioned across shards.  Off by default: plain int
        #: sequence keys are cheaper and every legacy seeded run depends
        #: on them.
        self._stable_ties = stable_ties
        self._processed = 0
        #: Cancelled-but-still-queued events, maintained by Event.cancel()
        #: and the run loop so pending_events is O(1).
        self._cancelled_count = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._rng_children = 0
        #: Named monotone counters handed out by :meth:`next_id`.
        self._id_counters: dict = {}
        #: Side-channel periodic observers (see :class:`Observer`).  The
        #: run loop pays one float compare per event while any are
        #: registered; ``_obs_next`` is +inf otherwise.
        self._observers: list[Observer] = []
        self._obs_next = float("inf")
        self._in_observer = False
        # Every kernel owns a telemetry plane, passive by doctrine: the
        # kernel publishes event counts and lends the tracer its clock,
        # but telemetry can never schedule events or draw randomness —
        # determinism is untouched.
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        telemetry.bind_clock(lambda: self._now)
        self._m_events = telemetry.metrics.counter(
            "sim_events_total",
            "Events executed by the kernel run loop",
        )
        self._m_now = telemetry.metrics.gauge(
            "sim_now_seconds", "Simulated clock at the last run() exit"
        )

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay=}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any,
        key: Optional[tuple] = None,
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        ``key`` (stable-tie mode only) pins this event's same-instant
        ordering to a partition-independent tuple — link arrivals use
        ``(link id, per-direction sequence)`` so a frame crossing a
        shard boundary lands in exactly the heap position it would have
        occupied in an unsharded run.  Ignored outside stable-tie mode.
        """
        if self._in_observer:
            raise SimulationError(
                "observers are read-only: scheduling events from an "
                "observer callback would perturb the run"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; now is {self._now}"
            )
        event = Event(time, callback, args)
        event._sim = self
        if self._stable_ties:
            order = (1,) + key if key is not None else (0, next(self._seq))
        else:
            order = next(self._seq)
        heapq.heappush(self._heap, (time, order, event))
        return event

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        jitter: float = 0.0,
    ) -> Callable[[], None]:
        """Run ``callback`` periodically; returns a function that stops it.

        ``jitter`` adds a uniform random offset in ``[0, jitter)`` to each
        period, which desynchronises periodic behaviours (e.g. LLDP probes
        from many switches) without sacrificing determinism.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval=}")
        stopped = False
        pending: list[Event] = []

        def tick() -> None:
            if stopped:
                return
            callback(*args)
            arm()

        def arm() -> None:
            if stopped:
                return
            delay = interval + (self.rng.uniform(0, jitter) if jitter else 0)
            pending[:] = [self.schedule(delay, tick)]

        def stop() -> None:
            nonlocal stopped
            stopped = True
            for ev in pending:
                ev.cancel()

        arm()
        return stop

    # ------------------------------------------------------------------
    # Observers (read-only periodic ticks)
    # ------------------------------------------------------------------
    def observe_every(self, interval: float,
                      callback: Callable[[], Any]) -> Observer:
        """Fire ``callback()`` every ``interval`` simulated seconds.

        Observer ticks ride alongside the event heap instead of in it:
        a tick at time *t* fires after every event strictly before *t*
        and before any event at *t* or later, with :attr:`now` set to
        *t*.  The callback must be a pure read — scheduling from inside
        it raises :class:`SimulationError` — so attaching any number of
        observers leaves the run's event sequence, RNG stream, and
        :attr:`events_processed` bit-identical.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval=}")
        obs = Observer(interval, callback, self._now + interval)
        self._observers.append(obs)
        if obs.next_time < self._obs_next:
            self._obs_next = obs.next_time
        return obs

    def _refresh_obs_next(self) -> None:
        self._obs_next = min(
            (o.next_time for o in self._observers if o.active),
            default=float("inf"),
        )

    def _fire_observers(self, upto: float, inclusive: bool = True) -> None:
        """Fire every due tick (tick time <= ``upto``) in time order."""
        while (self._obs_next <= upto if inclusive
               else self._obs_next < upto):
            tick = self._obs_next
            self._now = tick
            self._in_observer = True
            try:
                # Registration order breaks same-instant ties, so the
                # firing sequence is deterministic.
                for obs in self._observers:
                    if obs.active and obs.next_time <= tick:
                        obs.callback()
                        obs.fired += 1
                        obs.next_time = tick + obs.interval
            finally:
                self._in_observer = False
            self._observers = [o for o in self._observers if o.active]
            self._refresh_obs_next()

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------
    def next_id(self, namespace: str = "") -> int:
        """Allocate the next integer (1, 2, ...) from a named counter.

        Counters live on the simulator, so an id is a deterministic
        function of allocation order within this run — never of process
        history — and every component drawing from the same namespace
        (e.g. all traffic generators allocating flow ids) is guaranteed
        collision-free.
        """
        value = self._id_counters.get(namespace, 0) + 1
        self._id_counters[namespace] = value
        return value

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def fork_rng(self, name: Optional[str] = None) -> random.Random:
        """Derive an independent, deterministic child RNG.

        Components that draw random numbers at data rate (e.g. lossy links)
        use a forked stream so adding a new random consumer elsewhere does
        not perturb their sequence.

        With ``name`` the stream is keyed by ``(seed, name)`` instead of
        by allocation order — the same entity gets the same stream no
        matter which components were built before it, which is what lets
        a sharded run reproduce an unsharded one bit for bit.  (String
        seeding is process-stable in CPython: it hashes via SHA-512, not
        the randomised ``hash()``.)
        """
        if name is not None:
            return random.Random(f"{self.seed}\x1f{name}")
        self._rng_children += 1
        return random.Random((self.seed, self._rng_children).__hash__())

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        exclusive: bool = False,
    ) -> int:
        """Execute events until the queue drains or a bound is hit.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is then advanced to ``until``.
        max_events:
            Stop after executing this many events (a runaway-loop guard).
            A run stopped by this bound leaves the clock at the last
            event it executed, not at ``until``.
        exclusive:
            Treat ``until`` as a half-open bound: events exactly *at*
            ``until`` stay queued (and observer ticks at ``until`` stay
            pending).  The sharded kernel's conservative windows are
            half-open — a cross-shard frame may arrive exactly at the
            window edge, and it must be merged into the heap before any
            local event at that instant runs.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        # Local aliases: attribute lookups in this loop are measurable at
        # millions of events per run (benchmark E12 tracks events/s).
        heap = self._heap
        heappop = heapq.heappop
        budget_hit = False
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                self._cancelled_count -= 1
                continue
            if until is not None and (
                time > until or (exclusive and time == until)
            ):
                break
            if max_events is not None and executed >= max_events:
                budget_hit = True
                break
            heappop(heap)
            event._fired = True
            if time >= self._obs_next:
                self._fire_observers(time)
            self._now = time
            event.callback(*event.args)
            executed += 1
        self._processed += executed
        # A run cut short by ``max_events`` stays at its last event: an
        # event due before ``until`` is still queued, and jumping past
        # it would run the clock backwards on the next call.
        if until is not None and not budget_hit and self._now < until:
            if until >= self._obs_next:
                self._fire_observers(until, inclusive=not exclusive)
            self._now = until
        self._m_events.inc(executed)
        self._m_now.set(self._now)
        return executed

    @property
    def next_event_time(self) -> float:
        """Time of the earliest pending (non-cancelled) event, or +inf.

        Cancelled entries found at the top of the heap are popped on the
        way — the same lazy cleanup the run loop performs.
        """
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled_count -= 1
                continue
            return time
        return float("inf")

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain; guard against infinite loops."""
        return self.run(max_events=max_events)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): the heap length minus a live cancelled-entry count, so
        polling this in a loop (tests, watchdogs) is no longer quadratic.
        """
        return len(self._heap) - self._cancelled_count

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events (convenience for teardown)."""
        for event in events:
            event.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self._now:.6f} pending={len(self._heap)} "
            f"processed={self._processed}>"
        )
