"""Discrete-event simulation engine.

The engine is a classic calendar of ``(time, tie-break, event)``
entries kept in a binary heap.  It is deliberately small and
deterministic:

* events scheduled for the same instant fire in scheduling order;
* every source of randomness is a named :class:`random.Random` stream
  derived from the simulator seed, so adding a new randomized component
  never perturbs the draws seen by existing components;
* cancellation is O(1) (events are tombstoned, not removed).

Typical use::

    sim = Simulator(seed=1)
    sim.schedule(0.5, lambda: print("hello at", sim.now))
    sim.run(until=10.0)

Fast-path invariants (PR 2 perf overhaul — future PRs must not break
these; ``benchmarks/test_p1_core_speed.py`` and the golden tests in
``tests/test_determinism_golden.py`` pin both the speed and the exact
event traces):

* **Tuple-backed heap.** ``Simulator._heap`` holds plain
  ``(time, seq, Event)`` tuples, never bare ``Event`` objects: heap
  sift comparisons then run entirely on C-level float/int tuple
  compares instead of calling ``Event.__lt__`` (which dominated the
  seed profile at ~1.3 M calls per 10 s of simulated T1).  ``seq`` is
  unique per simulator, so the ``Event`` element is never compared.
* **Ordering contract.** The pushed key is exactly ``(time, seq)``
  with ``seq`` a monotonically increasing per-simulator counter —
  identical to the seed engine's ``Event.__lt__``; event firing order
  (and therefore every downstream random draw) is bit-identical.
* **O(1) schedule fast path.** :meth:`Simulator.schedule` pushes
  directly (no ``schedule_at`` indirection, no absolute-time
  re-validation — ``delay >= 0`` already implies ``time >= now``).
* **Hoisted run loop.** :meth:`Simulator.run` binds the heap, heappop
  and mutable counters to locals and specializes the common
  ``(until, no max_events)`` case; ``self.now``/``self._live`` are
  written back on every event (callbacks read them) but never re-read
  through attribute lookups inside the loop.
* **Lazy deletion.** Cancelled events stay in the heap as tombstones
  (``Event.cancelled``) and are discarded at pop time; the ``pending``
  property is an O(1) counter maintained on schedule/cancel/pop.

Allocation-reuse invariants (PR 4 — same proof obligations as above;
``REPRO_NO_POOL`` only affects the *packet* pool, the event reuse below
is always on):

* **Pooled no-handle events.** :meth:`Simulator.schedule_pooled` is the
  hot-path variant used where the caller never needs the returned
  handle (link serialization/delivery events): it recycles ``Event``
  objects from a per-simulator free list and returns ``None``.  A
  pooled event is recycled only *after* its callback ran (never while
  in the heap), and because no handle escapes it can never be
  cancelled — so a recycled object can never alias a live tombstone.
  Future PRs must keep both halves of that bargain: never hand out a
  pooled event, and never recycle before the pop-and-fire completes.
* **Two pooled events per packet-hop, scheduled by the link itself.**
  :meth:`repro.sim.link.Link.send` (idle link) and
  ``Link._finish_transmission`` dequeue the next packet and call
  ``schedule_pooled`` inline, with no helper frame in between; the
  finish event then schedules the delivery event.  The goldens pin
  both events per hop, the ``seq`` each consumes, and therefore
  ``events_processed``.  A lazier pattern (schedule delivery at
  transmission start, and a finish event only when a packet waits
  behind) cuts events by ~40% but moves same-time tie-breaks and
  changed delivered bytes or drops on 7 of the 13 golden probes; it is
  not a free optimisation.
* **Seq parity.** ``schedule_pooled`` and :meth:`Timer.restart` consume
  exactly one ``seq`` per call, like ``schedule`` — the ``(time, seq)``
  ordering contract (and therefore every golden digest) is unchanged by
  reuse.
* **Timer re-arm without allocating.** After a :class:`Timer` fires,
  the popped ``Event`` is kept as a spare and re-initialized on the
  next ``restart`` (fresh ``time``/``seq``, flags cleared) instead of
  allocating.  A restart *while armed* tombstones the pending event in
  the heap and then re-arms the spare if one exists (allocating only
  when it does not) — the spare is always an already-fired object, so
  this never touches the tombstone.  The invariant future PRs must
  keep: a tombstoned (cancelled-in-heap) event object is never
  re-armed, or it would fire twice when its stale heap entry pops.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop
_event_new = object.__new__

# Observability run hook (repro.obs.metrics installs/uninstalls this via
# enable_metrics()/disable_metrics()).  When None — the default — the
# engine is structurally unobserved: run() checks the global once at
# entry and once at exit, never inside the event loop, and simulators
# constructed while it is None do not even track their links.
_obs_run_hook: Optional[Callable[["Simulator", int, float], None]] = None


class SimulationError(Exception):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule`; keep the handle
    if the event may have to be cancelled (timers, retransmissions).
    The heap itself stores ``(time, seq, event)`` tuples (see the module
    docstring), so events are never compared during heap sifts.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "_popped", "_pooled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._popped = False
        # True for events created by Simulator.schedule_pooled: no
        # handle ever escaped, so the run loop may recycle the object
        # after firing it
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # keep the owning simulator's live-event count exact; a
            # cancel after the event already fired must not decrement
            if self._sim is not None and not self._popped:
                self._sim._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  All random streams handed out by :meth:`rng` are
        derived from it.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._rngs: Dict[str, random.Random] = {}
        self._running = False
        self._events_processed = 0
        self._event_pool: List[Event] = []
        # populated by Link.__init__ only while the metrics plane is on
        # at construction time; None means "not tracking" (the default)
        self._obs_links: Optional[List[Any]] = (
            [] if _obs_run_hook is not None else None
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # hottest allocation site in the engine: build the Event with
        # direct slot stores (no __init__ frame), field-for-field the
        # same object Event(...) would produce
        ev = _event_new(Event)
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev._sim = self
        ev._popped = False
        ev._pooled = False
        _heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_pooled(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Hot-path schedule for callers that never keep the handle.

        Recycles ``Event`` objects from a per-simulator free list (see
        the module docstring's allocation-reuse invariants) and returns
        ``None`` — the event cannot be cancelled, which is exactly what
        makes the recycling safe.  Ordering is identical to
        :meth:`schedule` (one ``seq`` consumed per call).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev._popped = False
        else:
            ev = Event(time, seq, fn, args, self)
            ev._pooled = True
        _heappush(self._heap, (time, seq, ev))
        self._live += 1

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now t={self.now!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        _heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def _rearm(self, ev: Event, delay: float) -> Event:
        """Re-arm a popped, never-shared event object (Timer fast path).

        The caller (only :class:`Timer`) guarantees ``ev`` already fired
        — it is not in the heap and no tombstone references it — so
        re-initializing it in place is indistinguishable from a fresh
        allocation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        ev._popped = False
        _heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event handle previously returned by ``schedule``."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # random streams
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use.

        Streams are independent deterministic functions of
        ``(self.seed, name)``.
        """
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}:{name}")
            self._rngs[name] = stream
        return stream

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this
            time.  ``sim.now`` is advanced to ``until`` on exhaustion.
        max_events:
            Safety valve; stop after this many callbacks.

        Returns
        -------
        int
            Number of events processed by this call.
        """
        processed = 0
        self._running = True
        # observability: the hook global is read once per run() call —
        # the event loop below is identical whether or not it is set
        hook = _obs_run_hook
        wall_start = _perf_counter() if hook is not None else 0.0
        heap = self._heap
        pop = _heappop
        pool = self._event_pool
        pool_append = pool.append
        try:
            if max_events is None:
                if until is None:
                    # drain-everything fast path: pop unconditionally
                    while heap:
                        time, _, ev = pop(heap)
                        if ev.cancelled:
                            continue
                        ev._popped = True
                        self._live -= 1
                        self.now = time
                        ev.fn(*ev.args)
                        processed += 1
                        if ev._pooled:
                            # fired, handle never escaped: reusable
                            ev.args = ()
                            pool_append(ev)
                else:
                    # horizon fast path: peek, purge tombstones, stop at
                    # the first live event strictly past ``until``
                    while heap:
                        head = heap[0]
                        ev = head[2]
                        if ev.cancelled:
                            pop(heap)
                            continue
                        time = head[0]
                        if time > until:
                            break
                        pop(heap)
                        ev._popped = True
                        self._live -= 1
                        self.now = time
                        ev.fn(*ev.args)
                        processed += 1
                        if ev._pooled:
                            ev.args = ()
                            pool_append(ev)
            else:
                while heap:
                    if processed >= max_events:
                        break
                    head = heap[0]
                    ev = head[2]
                    if ev.cancelled:
                        pop(heap)
                        continue
                    time = head[0]
                    if until is not None and time > until:
                        break
                    pop(heap)
                    ev._popped = True
                    self._live -= 1
                    self.now = time
                    ev.fn(*ev.args)
                    processed += 1
                    if ev._pooled:
                        ev.args = ()
                        pool_append(ev)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        self._events_processed += processed
        if hook is not None:
            hook(self, processed, _perf_counter() - wall_start)
        return processed

    def step(self) -> bool:
        """Process a single event.  Returns False when the calendar is empty."""
        heap = self._heap
        while heap:
            time, _, ev = _heappop(heap)
            if ev.cancelled:
                continue
            ev._popped = True
            self._live -= 1
            self.now = time
            ev.fn(*ev.args)
            self._events_processed += 1
            if ev._pooled:
                ev.args = ()
                self._event_pool.append(ev)
            return True
        return False

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the calendar.

        O(1): a counter maintained on schedule/cancel/pop, instead of a
        scan over the heap (this property sits inside assertion-heavy
        loops in tests and scenarios).
        """
        return self._live

    @property
    def events_processed(self) -> int:
        """Total callbacks executed since construction."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(t={self.now:.6f}, pending={self.pending})"


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Protocols use timers heavily (RTO, TFRC nofeedback, feedback pacing);
    this helper wraps the schedule/cancel bookkeeping::

        t = Timer(sim, self._on_rto)
        t.restart(3.0)   # (re)arm 3 s from now
        t.stop()
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        # the last event that *fired* (popped, handle never shared):
        # reused by the next restart so periodic re-arm-after-fire —
        # RTO backoff, TFRC nofeedback/feedback pacing — allocates
        # nothing.  A shot cancelled while armed is NOT reusable (its
        # tombstone is still in the heap): restart() tombstones it and
        # re-arms the spare when one exists (the spare already fired,
        # so it is a different object), allocating only without one.
        self._spare: Optional[Event] = None

    def restart(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, cancelling any pending shot."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
        spare = self._spare
        if spare is not None:
            self._spare = None
            self._event = self._sim._rearm(spare, delay)
        else:
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        event = self._event  # just popped by the run loop
        if event is not None:
            self._spare = event
        self._event = None
        self._callback()

    @property
    def armed(self) -> bool:
        """True while a shot is pending."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time of the pending shot, or None when disarmed."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None
