"""Unit tests for the discrete-event kernel."""

from functools import partial

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import Simulator


class _Log:
    """Picklable continuation target: notes ``(name, cycle)`` into the
    kernel's registry, and can checkpoint the kernel from inside an
    event (the image goes to ``images``, outside the registry)."""

    images = []

    def __init__(self, sim):
        self.sim = sim
        self.seen = sim.registry.setdefault("seen", [])

    def note(self, name):
        self.seen.append((name, self.sim.cycle))

    def snap(self):
        self.note("snap")
        self.sim.call_after(0, partial(self.note, "after-snap"))
        _Log.images.append(self.sim.checkpoint())


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: seen.append(5))
        sim.schedule(1, lambda: seen.append(1))
        sim.schedule(3, lambda: seen.append(3))
        sim.run()
        assert seen == [1, 3, 5]

    def test_same_cycle_events_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(2, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_zero_delay_runs_this_or_next_cycle(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, lambda: seen.append(sim.cycle))
        sim.run()
        assert seen == [0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_at_absolute_cycle(self):
        sim = Simulator()
        seen = []
        sim.at(7, lambda: seen.append(sim.cycle))
        sim.run()
        assert seen == [7]

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(3, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(4, lambda: seen.append("x"))
        ev.cancel()
        sim.run()
        assert seen == []

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.cycle))
            sim.schedule(3, lambda: seen.append(("inner", sim.cycle)))

        sim.schedule(2, outer)
        sim.run()
        assert seen == [("outer", 2), ("inner", 5)]

    def test_fast_forward_over_idle_gap(self):
        sim = Simulator()
        seen = []
        sim.schedule(1_000_000, lambda: seen.append(sim.cycle))
        sim.run()
        assert seen == [1_000_000]
        assert sim.cycle == 1_000_000

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until=50)
        assert seen == []
        assert sim.cycle == 50
        sim.run()
        assert seen == ["late"]

    def test_stop_when_predicate(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(i, lambda i=i: seen.append(i))
        sim.run(stop_when=lambda: len(seen) >= 3)
        assert len(seen) < 10

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        e1 = sim.schedule(5, lambda: None)
        sim.schedule(6, lambda: None)
        e1.cancel()
        assert sim.pending_events() == 1

    def test_cancel_after_fire_does_not_corrupt_pending_count(self):
        """Regression: cancelling an already-fired event (the token
        protocol does this with stale timeout events) must not
        decrement the live-event counter a second time."""
        sim = Simulator()
        ev = sim.schedule(1, lambda: None)
        sim.run()
        assert sim.pending_events() == 0
        ev.cancel()
        ev.cancel()
        assert sim.pending_events() == 0

    def test_cancel_drops_the_callback_and_never_calls_none(self):
        """A cancelled event stays queued but lets go of ``fn``
        (a timeout's lambda names the transaction it guarded); the
        loop skips it, and a cancel that comes after the event fired
        touches nothing."""
        sim = Simulator()
        seen = []
        dropped = sim.schedule(3, lambda: seen.append("dropped"))
        fired = sim.schedule(4, lambda: seen.append("fired"))
        dropped.cancel()
        assert dropped.fn is None and any(e is dropped
                                          for e in sim._buckets[3])
        sim.run()
        assert seen == ["fired"]
        fired.cancel()  # late: already consumed
        assert fired.fn is not None
        assert sim.pending_events() == 0

    def test_epoch_hook_cancelled_from_its_own_callback(self):
        """The hook reschedules before it calls out, so a callback that
        cancels its hook cancels the *next* firing — whose ``fn`` is
        then None and must never be called."""
        sim = Simulator()
        fires = []

        def once(cycle):
            fires.append(cycle)
            hook.cancel()

        hook = sim.add_epoch_hook(10, once)
        sim.schedule(50, lambda: None)
        sim.run()
        assert fires == [10]
        assert hook._event.cancelled and hook._event.fn is None

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        ev = sim.schedule(5, lambda: None)
        sim.schedule(6, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending_events() == 1

    def test_run_until_before_now_is_refused(self):
        """The clock never moves backwards: pausing at 12 and asking
        for ``until=5`` used to set the clock to 5, so an event
        scheduled next fired at cycle 6, after one that had fired at
        10. ``until`` equal to the current cycle re-enters it."""
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.cycle))
        sim.schedule(20, lambda: seen.append(sim.cycle))
        sim.run(until=12)
        assert (seen, sim.cycle) == ([10], 12)
        with pytest.raises(SimulationError, match=r"until=5\b.*\b12\b"):
            sim.run(until=5)
        assert sim.cycle == 12
        sim.run(until=12)
        sim.schedule(1, lambda: seen.append(sim.cycle))
        sim.run()
        assert seen == [10, 13, 20]


class TestEventBuckets:
    """The queue is one list per cycle plus a heap of cycles: same-cycle
    entries fire in list order, which must equal scheduling order."""

    def test_interleaved_schedule_call_after_and_delay0_keep_order(self):
        sim = Simulator()
        seen = []

        def note(name):
            return lambda: seen.append((name, sim.cycle))

        def at1():
            seen.append(("at1", sim.cycle))
            sim.call_after(0, note("zero-a"))
            sim.schedule(1, note("next"))
            sim.schedule(0, note("zero-b")).cancel()
            sim.schedule(0, note("zero-c"))

        sim.schedule(2, note("e2"))
        sim.call_after(2, note("c2"))
        sim.schedule(1, at1)
        sim.schedule(2, note("dropped")).cancel()
        sim.call_after(1, note("c1"))
        sim.schedule(2, note("e2b"))
        sim.run()
        assert seen == [("at1", 1), ("c1", 1), ("zero-a", 1),
                        ("zero-c", 1), ("e2", 2), ("c2", 2), ("e2b", 2),
                        ("next", 2)]
        assert sim.pending_events() == 0 and not sim._buckets

    def test_all_cancelled_bucket_is_no_progress_and_no_target(self):
        """A cycle holding only cancelled events is skipped like a
        cancelled heap head: the loop never visits it, the run ends
        where the last live event fired, and visiting it does nothing."""
        sim = Simulator()
        visits = []
        sim.schedule(5, lambda: None).cancel()
        sim.schedule(5, lambda: None).cancel()
        sim.schedule(9, lambda: None)
        sim.schedule(14, lambda: None).cancel()
        sim.run(stop_when=lambda: visits.append(sim.cycle) and False)
        assert visits == [0] and sim.cycle == 9  # straight from 0 to 9
        assert not sim._buckets and not sim._cycles
        sim.schedule(0, lambda: None).cancel()
        assert sim._run_cycle() is False
        assert sim.pending_events() == 0

    def test_checkpoint_inside_an_event_images_only_unfired_entries(self):
        """Cycle 3 holds a bare ``call_after`` before the event that
        checkpoints: the image must hold only what has not fired, or
        the restored kernel fires that callable a second time."""
        def build():
            sim = Simulator()
            log = _Log(sim)
            sim.call_after(3, partial(log.note, "bare"))
            sim.schedule(3, log.snap)
            sim.call_after(3, partial(log.note, "bare-after"))
            sim.schedule(3, partial(log.note, "event-after"))
            sim.schedule(4, partial(log.note, "next"))
            return sim

        del _Log.images[:]
        straight = build()
        straight.run()
        expect = [("bare", 3), ("snap", 3), ("bare-after", 3),
                  ("event-after", 3), ("after-snap", 3), ("next", 4)]
        assert straight.registry["seen"] == expect
        restored = Simulator.restore(_Log.images[0])
        assert restored.registry["seen"] == [("bare", 3), ("snap", 3)]
        assert restored.pending_events() == 4 and restored._firing is None
        restored.run()
        assert restored.registry["seen"] == expect
        assert restored.cycle == straight.cycle == 4
        assert len(_Log.images) == 1  # snap itself fired exactly once

    def test_close_drops_every_queued_entry_and_ticker(self):
        sim = Simulator()
        sim.schedule(3, lambda: None)
        sim.call_after(5, lambda: None)
        sim.wake(sim.add_ticker(TestTickers.CountdownTicker(4)))
        sim.registry["peer"] = object()
        sim.close()
        assert sim.pending_events() == 0 and not sim.registry
        assert sim.run() == 0  # nothing left to fire or tick

    def test_exception_leaves_exactly_the_unfired_entries_queued(self):
        sim = Simulator()
        seen = []

        def boom():
            raise RuntimeError("boom")

        sim.call_after(2, lambda: seen.append("first"))
        sim.call_after(2, boom)
        sim.call_after(2, lambda: seen.append("last"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == ["first"] and sim.pending_events() == 1
        sim.run()
        assert seen == ["first", "last"] and sim.cycle == 2


class TestTickers:
    class CountdownTicker:
        def __init__(self, n):
            self.n = n
            self.ticks = []

        def tick(self, cycle):
            self.ticks.append(cycle)
            self.n -= 1
            return self.n > 0

    def test_ticker_runs_until_idle(self):
        sim = Simulator()
        t = self.CountdownTicker(3)
        tid = sim.add_ticker(t)
        sim.wake(tid)
        sim.run()
        assert t.ticks == [0, 1, 2]

    def test_ticker_wakeable_again(self):
        sim = Simulator()
        t = self.CountdownTicker(1)
        tid = sim.add_ticker(t)
        sim.wake(tid)
        sim.run()
        assert len(t.ticks) == 1
        t.n = 2
        sim.wake(tid)
        sim.run()
        assert len(t.ticks) == 3

    def test_ticker_and_events_interleave(self):
        sim = Simulator()
        order = []

        class T:
            def __init__(self):
                self.n = 3

            def tick(self, cycle):
                order.append(("tick", cycle))
                self.n -= 1
                return self.n > 0

        tid = sim.add_ticker(T())
        sim.wake(tid)
        sim.schedule(1, lambda: order.append(("event", sim.cycle)))
        sim.run()
        # events of a cycle fire before that cycle's ticks
        assert ("event", 1) in order
        assert order.index(("tick", 1)) > order.index(("event", 1))


class TestDeadlockWatchdog:
    def test_no_progress_raises(self):
        sim = Simulator(deadlock_window=100)

        class Stuck:
            def tick(self, cycle):
                return True  # claims busy forever

        # A ticker that is awake but produces no events will keep the
        # kernel cycling; progress is counted, so this must NOT raise.
        tid = sim.add_ticker(Stuck())
        sim.wake(tid)
        sim.run(until=500)
        assert sim.cycle == 500


class TestEpochHooks:
    def test_fires_every_period(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        cycles = []
        hook = sim.add_epoch_hook(10, lambda c: cycles.append(c))
        sim.schedule(45, lambda: None)  # keep something else queued
        sim.run(until=45)
        assert cycles == [10, 20, 30, 40]
        assert hook.fires == 4

    def test_cancel_releases_the_queue(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        hook = sim.add_epoch_hook(5, lambda c: None)
        assert sim.pending_events() == 1
        hook.cancel()
        assert sim.pending_events() == 0
        sim.run()  # drains immediately, no live events
        hook.cancel()  # idempotent

    def test_hook_exception_propagates_and_state_stays_consistent(self):
        from repro.sim.kernel import Simulator

        class Boom(RuntimeError):
            pass

        sim = Simulator()
        hook = sim.add_epoch_hook(5, lambda c: (_ for _ in ()).throw(Boom()))
        import pytest as _pytest
        with _pytest.raises(Boom):
            sim.run(until=20)
        # rescheduled before the raise: cancel still works cleanly
        hook.cancel()
        assert sim.pending_events() == 0

    def test_invalid_period_rejected(self):
        from repro.errors import SimulationError
        from repro.sim.kernel import Simulator
        import pytest as _pytest
        with _pytest.raises(SimulationError):
            Simulator().add_epoch_hook(0, lambda c: None)
