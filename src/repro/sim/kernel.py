"""Cycle-based discrete-event simulation kernel.

The kernel mixes two styles of simulation, which is what makes a pure
Python cycle-level NoC + coherence model tractable:

* **Scheduled events** (:meth:`Simulator.schedule`) for anything with a
  known future time — memory responses, cache access latencies, core
  issue gaps.
* **Tickers** (:meth:`Simulator.add_ticker`) for components that need
  per-cycle evaluation *while they have work* — the NoC router fabric.
  A ticker is only invoked on cycles where it declared itself active,
  so an idle network costs nothing and the kernel can fast-forward
  between events.

The event queue is one list of entries per cycle (``_buckets``) plus a
heap of the cycles that have one (``_cycles``, plain ints). Entries are
appended as scheduled, so same-cycle events run in scheduling order
(deterministic replay) with no tie-break key, and a delay-0 event
scheduled while a cycle fires joins the list being iterated. An entry
is a cancellable :class:`Event` (:meth:`Simulator.schedule`) or a bare
callable (the allocation-free :meth:`Simulator.call_after`). Cancels
are lazy: a bucket of only cancelled events is dropped when reached,
never counted as progress or taken as a fast-forward target.

Everything the kernel stores — queued callbacks, tickers, epoch hooks,
the registry — is part of a checkpoint, and a checkpoint is a plain
:mod:`pickle` (:mod:`repro.sim.snapshot`): hand the kernel bound
methods or :func:`functools.partial` objects over them, never a lambda
or a nested function.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import DeadlockError, SimulationError


class Event:
    """A scheduled callback, cancellable while queued."""

    __slots__ = ("cycle", "fn", "cancelled", "_sim")

    def __init__(self, cycle: int, fn: Callable[[], None],
                 sim: "Optional[Simulator]" = None) -> None:
        self.cycle = cycle
        self.fn = fn
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in its bucket lazily,
        but lets go of its callback: a cancelled timeout must not keep
        the transaction it guarded alive until the loop reaches it)."""
        if not self.cancelled:
            self.cancelled = True
            self.fn = None
            if self._sim is not None:
                self._sim._live_events -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"Event(cycle={self.cycle}, {state})"


class EpochHook:
    """A callback fired every ``period`` simulated cycles.

    Used by the stress harness to run invariant checks at epoch
    boundaries *during* a run instead of only at quiescence. The hook
    keeps an event scheduled at all times, so a run with a live hook
    never drains its event queue: callers that wait for quiescence
    (``pending_events() == 0``) must :meth:`cancel` their hooks first.
    """

    __slots__ = ("period", "fn", "cancelled", "_sim", "_event", "fires")

    def __init__(self, sim: "Simulator", period: int,
                 fn: Callable[[int], None]) -> None:
        if period < 1:
            raise SimulationError(f"epoch period must be >= 1, got {period}")
        self.period = period
        self.fn = fn
        self.cancelled = False
        self.fires = 0
        self._sim = sim
        self._event = sim.schedule(period, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fires += 1
        # Reschedule before invoking so a hook that raises (an invariant
        # check aborting the run) leaves the hook in a consistent state.
        self._event = self._sim.schedule(self.period, self._fire)
        self.fn(self._sim.cycle)

    def cancel(self) -> None:
        """Stop firing and release the queued event (lazily)."""
        if not self.cancelled:
            self.cancelled = True
            self._event.cancel()


class Simulator:
    """The simulation kernel.

    Parameters
    ----------
    deadlock_window:
        If the simulated clock advances this many cycles beyond the
        last cycle in which anything ran (an event fired or an awake
        ticker ticked), :class:`DeadlockError` is raised. The watchdog
        compares simulated-time progress, not host time.
    """

    def __init__(self, deadlock_window: int = 2_000_000) -> None:
        self.cycle: int = 0
        self._buckets: Dict[int, List[Any]] = {}
        self._cycles: List[int] = []
        # iterator over the bucket being fired (see __getstate__)
        self._firing: Optional[Iterator[Any]] = None
        self._tickers: List[Any] = []
        self._awake: List[bool] = []
        self._awake_count: int = 0
        self._live_events: int = 0
        self._running = False
        self._deadlock_window = deadlock_window
        self._stop_requested = False
        # Last cycle whose tick phase already ran. A run() that pauses
        # (until/stop) right after executing cycle C leaves cycle == C;
        # re-entering run() revisits C, and without this guard awake
        # tickers would tick C a second time — checkpoint/resume would
        # then diverge from a straight-through run.
        self._ticked_cycle: int = -1
        #: arbitrary per-run scratch, used by controllers to find peers
        self.registry: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now (delay >= 0)."""
        ev = Event(self.cycle + delay, fn, self)
        self.call_after(delay, ev)
        return ev

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule` without the :class:`Event`
        wrapper — no handle, no cancellation: the bucket holds the bare
        callable. Hot paths that never cancel (cache latencies, packet
        ejections, memory responses) use this to skip one object
        allocation per scheduled callback."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        cycle = self.cycle + delay
        self._live_events += 1
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [fn]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(fn)

    def at(self, cycle: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute cycle (must not be in the past)."""
        if cycle < self.cycle:
            raise SimulationError(f"cycle {cycle} is in the past (now {self.cycle})")
        return self.schedule(cycle - self.cycle, fn)

    # ------------------------------------------------------------------
    # tickers
    # ------------------------------------------------------------------
    def add_ticker(self, ticker: Any) -> int:
        """Register a per-cycle component; returns its ticker id. A
        ticker exposes ``tick(cycle) -> bool`` returning whether it
        still has work; once it returns False the kernel stops ticking
        it until :meth:`wake` is called for it again."""
        tid = len(self._tickers)
        self._tickers.append(ticker)
        self._awake.append(False)
        return tid

    def wake(self, tid: int) -> None:
        """Mark a ticker as having work, starting next cycle boundary."""
        if not self._awake[tid]:
            self._awake[tid] = True
            self._awake_count += 1

    # ------------------------------------------------------------------
    # epoch hooks
    # ------------------------------------------------------------------
    def add_epoch_hook(self, period: int,
                       fn: Callable[[int], None]) -> EpochHook:
        """Fire ``fn(cycle)`` every ``period`` simulated cycles until the
        returned :class:`EpochHook` is cancelled. While a hook is live
        the event queue never drains (it always holds the next firing),
        so cancel hooks before waiting for quiescence."""
        return EpochHook(self, period, fn)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to exit at the end of the current cycle."""
        self._stop_requested = True

    def run(self, until: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> int:
        """Run until the event queue drains, ``until`` cycles elapse, or
        ``stop_when()`` becomes true. Returns the final cycle. An
        ``until`` before the current cycle (a rewind) is an error."""
        if until is not None and until < self.cycle:
            raise SimulationError(
                f"run(until={until}) would rewind the clock from cycle "
                f"{self.cycle}")
        self._running = True
        self._stop_requested = False
        last_progress_cycle = self.cycle
        deadlock_window = self._deadlock_window
        next_live = self._next_live_cycle
        while not self._stop_requested:
            if stop_when is not None and stop_when():
                break
            if self._awake_count:
                target = self.cycle
            else:
                target = next_live()  # fast-forward over idle gap
                if target is None:
                    break  # nothing scheduled, nothing awake: done
            if until is not None and target > until:
                self.cycle = until
                break
            self.cycle = target
            progressed = self._run_cycle()
            if progressed:
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > deadlock_window:
                raise DeadlockError(
                    f"no progress since cycle {last_progress_cycle} "
                    f"(now {self.cycle})")
            if not self._awake_count:
                if next_live() is None:
                    break
            else:
                self.cycle += 1
            if until is not None and self.cycle > until:
                self.cycle = until
                break
        self._running = False
        return self.cycle

    def _next_live_cycle(self) -> Optional[int]:
        """The first cycle with a live event, dropping the buckets in
        front of it that hold only cancelled events (lazy cancel)."""
        buckets = self._buckets
        cycles = self._cycles
        while cycles:
            cycle = cycles[0]
            for entry in buckets[cycle]:
                # call_after entries are bare callables — always live.
                if entry.__class__ is not Event or not entry.cancelled:
                    return cycle
            heapq.heappop(cycles)
            del buckets[cycle]
        return None

    def _run_cycle(self) -> bool:
        """Fire all events due this cycle, then tick awake tickers.

        Returns True if anything ran.
        """
        progressed = False
        cycles = self._cycles
        cycle = self.cycle
        while cycles and cycles[0] <= cycle:
            due = cycles[0]
            bucket = self._buckets[due]
            if due < cycle and any(e.__class__ is not Event or not e.cancelled
                                   for e in bucket):
                raise SimulationError(
                    f"event for cycle {due} fired late at {cycle}")
            # the cycle stays queued while it fires: a delay-0 event
            # joins this very list and is reached by this iterator
            self._firing = it = iter(bucket)
            try:
                for ev in it:
                    if ev.__class__ is Event:
                        if ev.cancelled:
                            continue
                        # Mark consumed so a late cancel() (e.g. a
                        # token-protocol timeout cancelled after it
                        # already fired) is a no-op and cannot decrement
                        # the live-event counter a second time.
                        ev.cancelled = True
                        fn = ev.fn
                    else:
                        fn = ev  # bare call_after callable
                    self._live_events -= 1
                    progressed = True
                    fn()
            except BaseException:
                # keep queued exactly what has not fired
                del bucket[:len(bucket) - it.__length_hint__()]
                raise
            finally:
                self._firing = None
            heapq.heappop(cycles)
            del self._buckets[due]
        if self._awake_count and cycle != self._ticked_cycle:
            self._ticked_cycle = cycle
            awake = self._awake
            for tid, ticker in enumerate(self._tickers):
                if awake[tid]:
                    progressed = True
                    still_busy = ticker.tick(cycle)
                    if not still_busy:
                        awake[tid] = False
                        self._awake_count -= 1
        return progressed

    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1):
        maintained as a counter at schedule/cancel/fire time."""
        return self._live_events

    def close(self) -> None:
        """Drop every queued event, ticker and registry entry: the
        callbacks they hold are what ties a finished machine into one
        cyclic graph. The kernel is inert afterwards. Idempotent."""
        self._buckets.clear()
        self._cycles.clear()
        self._live_events = 0
        self._tickers.clear()
        self._awake.clear()
        self._awake_count = 0
        self.registry.clear()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize the kernel and everything reachable from it — the
        event queue (with its continuations), tickers, epoch hooks and
        registry — into a versioned snapshot image.

        May be called while paused (between run() calls) or from inside
        an event (an epoch hook): the host call stack is never part of
        the image — continuation lives entirely in the event queue — and
        ``__getstate__`` normalizes the transient run-loop state.
        Restoring the image and calling :meth:`run` continues
        bit-identically to the uninterrupted run: the tick-phase guard
        (``_ticked_cycle``) keeps cycle re-entry exact.
        """
        from repro.sim.snapshot import dumps
        return dumps(self)

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        # A snapshot taken from inside run() (epoch-hook checkpointing)
        # must restore as a paused kernel.
        state["_running"] = False
        state["_stop_requested"] = False
        it = self._firing
        if it is not None:
            # ...holding only the unfired rest of the current bucket: a
            # bare callable that fired would otherwise fire again.
            state["_firing"] = None
            bucket = self._buckets[self.cycle]
            state["_buckets"] = {
                **self._buckets,
                self.cycle: bucket[len(bucket) - it.__length_hint__():]}
        return state

    @staticmethod
    def restore(blob: bytes) -> "Simulator":
        """Rebuild a kernel (plus its reachable object graph) from a
        :meth:`checkpoint` image. Raises
        :class:`repro.errors.SnapshotError` on corrupt images or
        format/source-fingerprint mismatches."""
        from repro.errors import SnapshotError
        from repro.sim.snapshot import loads
        sim = loads(blob)
        if not isinstance(sim, Simulator):
            raise SnapshotError(
                f"image does not contain a Simulator (got "
                f"{type(sim).__name__})")
        return sim
