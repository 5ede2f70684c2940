"""Scheduler policy unit tests: FIFO order, requeue, idempotent dedup.

The scheduler is a pure state machine (no sockets, no clocks), so
every fleet-level property the chaos campaign asserts end-to-end is
also pinned here in isolation, where the failure mode is readable.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiment import ExperimentConfig, warmup_key
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service.replica import SchedulerMachine
from repro.service.scheduler import (DEFAULT_MAX_ATTEMPTS, SLOTS,
                                     Scheduler)


def unit(seed: int = 1, metric: str = "runtime") -> SweepUnit:
    """Units with equal ``seed`` share a config; the metric only
    varies the reduction."""
    return SweepUnit(ExperimentConfig(benchmark="barnes",
                                      organization=Organization.SHARED,
                                      scale=0.05, seed=seed),
                     1_000_000, metric)


class TestAssignment:
    def test_idle_workers_take_the_queue_head_in_order(self):
        """One FIFO: units of one config are spread like any others."""
        sched = Scheduler()
        for w in ("a", "b", "c"):
            sched.add_worker(w)
        sched.add_job("j", [unit(seed=1, metric="runtime"),
                            unit(seed=1, metric="mpki"), unit(seed=2)])
        assert [sched.next_unit_for(w).idx for w in ("a", "b", "c")] \
            == [0, 1, 2]

    def test_worker_at_two_slots_gets_nothing(self):
        """A worker holds the unit it runs and the next one; a third
        waits until one of them completes."""
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=s) for s in (1, 2, 3)])
        assert [sched.next_unit_for("a").idx for _ in range(SLOTS)] \
            == [0, 1]
        assert sched.next_unit_for("a") is None
        assert sched.free_workers() == []
        assert sched.complete("a", "j", 0) == "fresh"
        assert sched.free_workers() == ["a"]
        assert sched.next_unit_for("a").idx == 2
        assert sched.worker_view("a").busy == [("j", 1), ("j", 2)]

    def test_dispatch_fills_slots_breadth_first(self):
        """One pass of ``dispatch`` gives every free worker one unit, so
        a short queue spreads over the fleet before any worker takes a
        second unit."""
        m = SchedulerMachine()
        for w in ("a", "b"):
            m.apply({"op": "worker_add", "name": w})
        m.apply({"op": "job_add", "job": "j", "skip": [],
                 "units": [unit(seed=s).to_wire() for s in range(5)]})
        out = m.apply({"op": "dispatch"})
        assert [(a["worker"], a["idx"]) for a in out] == [
            ("a", 0), ("b", 1), ("a", 2), ("b", 3)]
        assert m.snapshot()["workers"]["a"]["busy"] == [["j", 0], ["j", 2]]
        assert m.sched.stats()["in_flight"] == 4

    def test_finished_job_leaves_nothing_in_the_snapshot(self):
        """Once a job is done nothing replicated refers to its units:
        state kept per config ever dispatched would grow every replica
        for as long as its worker lives."""
        m = SchedulerMachine()
        for w in ("a", "b"):
            m.apply({"op": "worker_add", "name": w})
        units = [unit(seed=s) for s in range(12)]
        m.apply({"op": "job_add", "job": "j", "skip": [],
                 "units": [u.to_wire() for u in units]})
        while True:
            out = m.apply({"op": "dispatch"})
            if not out:
                break
            for a in out:
                m.apply({"op": "complete", "name": a["worker"],
                         "job": a["job"], "idx": a["idx"], "key": None,
                         "value": 1})
        # what the coordinator commits once the last row is out
        m.apply({"op": "job_cancel", "job": "j"})
        snap = m.snapshot()
        assert snap["pending"] == [] and snap["attempts"] == {}
        assert snap["workers"] == {
            name: {"busy": [], "completed": 6} for name in ("a", "b")}
        residue = json.dumps([snap[k] for k in
                              ("workers", "pending", "attempts")])
        assert not any(warmup_key(u.exp) in residue for u in units)


class TestWorkerDeath:
    def test_inflight_unit_requeued_at_front(self):
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_worker("b")
        sched.add_job("j", [unit(seed=1), unit(seed=2)])
        a = sched.next_unit_for("a")
        requeued, fatal = sched.remove_worker("a")
        assert requeued == [("j", a.idx)] and fatal == []
        assert sched.requeues == 1
        # b picks the orphaned unit up immediately (front of queue)
        b = sched.next_unit_for("b")
        assert b.idx == a.idx

    def test_every_inflight_unit_requeued_at_front_in_dispatch_order(
            self):
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=s) for s in range(4)])
        sched.next_unit_for("a")
        sched.next_unit_for("a")
        assert sched.remove_worker("a") == ([("j", 0), ("j", 1)], [])
        assert list(sched._pending) == [("j", 0), ("j", 1), ("j", 2),
                                        ("j", 3)]
        assert sched.requeues == 2

    def test_removing_idle_worker_requeues_nothing(self):
        sched = Scheduler()
        sched.add_worker("a")
        assert sched.remove_worker("a") == ([], [])
        assert sched.requeues == 0

    def test_repeated_worker_death_exhausts_attempts(self):
        """A unit that kills every worker it lands on must go fatal
        after max_attempts, not circle through respawned workers
        forever (death consumes the attempt, like unit_error)."""
        sched = Scheduler(max_attempts=3)
        sched.add_job("j", [unit(seed=1)])
        for round_ in range(3):
            name = f"w{round_}"
            sched.add_worker(name)
            a = sched.next_unit_for(name)
            assert a is not None, f"round {round_}"
            requeued, fatal = sched.remove_worker(name)
            if round_ < 2:
                assert requeued == [("j", 0)] and fatal == []
            else:
                assert requeued == [] and fatal == [("j", 0)]
        sched.fail_job("j")
        assert sched.pending_count() == 0

    def test_killer_unit_never_charges_the_unit_queued_behind_it(self):
        """Unit K kills every worker it runs on; unit I, of another
        job, is queued behind it on each of those workers. Only the
        running unit pays for a death: K exhausts its attempts and
        fails its job, I never ran, so its attempts stay at 0 and its
        job completes."""
        m = SchedulerMachine()
        m.apply({"op": "job_add", "job": "jK", "skip": [],
                 "units": [unit(seed=1).to_wire()]})
        m.apply({"op": "job_add", "job": "jI", "skip": [],
                 "units": [unit(seed=2).to_wire()]})
        for death in range(DEFAULT_MAX_ATTEMPTS):
            name = f"w{death}"
            m.apply({"op": "worker_add", "name": name})
            out = m.apply({"op": "dispatch"})
            assert [(a["job"], a["idx"]) for a in out] == [("jK", 0),
                                                           ("jI", 0)]
            got = m.apply({"op": "worker_remove", "name": name})
            if death < DEFAULT_MAX_ATTEMPTS - 1:
                assert got == {"requeued": [["jK", 0], ["jI", 0]],
                               "fatal": []}
            else:
                assert got == {"requeued": [["jI", 0]],
                               "fatal": [["jK", 0]]}
            assert m.snapshot()["attempts"] == {"jK#0": death + 1,
                                                "jI#0": 0}
        m.apply({"op": "job_fail", "job": "jK"})  # what the caller does
        m.apply({"op": "worker_add", "name": "survivor"})
        assert [(a["job"], a["idx"]) for a in
                m.apply({"op": "dispatch"})] == [("jI", 0)]
        assert m.apply({"op": "complete", "name": "survivor", "job": "jI",
                        "idx": 0, "key": None, "value": 1}) == "fresh"
        assert m.sched.job_done("jI")
        assert "jK" not in m.snapshot()["jobs"]

    def test_duplicate_worker_name_rejected(self):
        sched = Scheduler()
        sched.add_worker("a")
        with pytest.raises(ValueError):
            sched.add_worker("a")


class TestIdempotentCompletion:
    def test_late_result_from_dead_worker_is_duplicate(self):
        """a is declared dead and its unit reassigned to b; both finish.
        Exactly one completion is fresh."""
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_worker("b")
        sched.add_job("j", [unit(seed=1)])
        a = sched.next_unit_for("a")
        sched.remove_worker("a")         # presumed dead (it was slow)
        b = sched.next_unit_for("b")
        assert b.idx == a.idx
        assert sched.complete("b", "j", b.idx) == "fresh"
        assert sched.complete("a", "j", a.idx) == "duplicate"
        assert sched.duplicates == 1
        assert sched.job_done("j")

    def test_stale_fail_racing_death_requeue_never_double_queues(self):
        """remove_worker already requeued the uid; a buffered
        unit_error for the same uid must not enqueue a second copy
        (a duplicate would be double-assigned, or dangle in pending
        after completion and wedge dispatch on a missing unit)."""
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_worker("b")
        sched.add_job("j", [unit(seed=1)])
        a = sched.next_unit_for("a")
        sched.remove_worker("a")                  # requeues the uid
        assert sched.fail("a", "j", a.idx) == "retry"
        assert sched.pending_count() == 1          # not 2
        b = sched.next_unit_for("b")
        assert b is not None and b.idx == a.idx
        assert sched.next_unit_for("b") is None    # no ghost copy
        assert sched.complete("b", "j", b.idx) == "fresh"
        assert sched.pending_count() == 0

    def test_result_racing_requeue_drops_pending_copy(self):
        """a's unit is requeued on death, but its result arrives before
        the copy is reassigned: the pending copy must evaporate."""
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_worker("b")
        sched.add_job("j", [unit(seed=1)])
        a = sched.next_unit_for("a")
        sched.remove_worker("a")
        assert sched.complete("a", "j", a.idx) == "fresh"
        assert sched.pending_count() == 0
        assert sched.next_unit_for("b") is None
        assert sched.job_done("j")

    def test_unknown_job_result_ignored(self):
        sched = Scheduler()
        sched.add_worker("a")
        assert sched.complete("a", "ghost-job", 0) == "unknown"

    def test_cache_skip_marks_done_without_queueing(self):
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=1), unit(seed=2)], skip={0})
        assert sched.job_remaining("j") == 1
        a = sched.next_unit_for("a")
        assert a.idx == 1
        sched.complete("a", "j", 1)
        assert sched.job_done("j")


class TestFailures:
    def test_unit_retries_until_attempts_exhausted(self):
        sched = Scheduler(max_attempts=3)
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=1)])
        for attempt in range(3):
            a = sched.next_unit_for("a")
            assert a is not None, f"attempt {attempt}"
            verdict = sched.fail("a", "j", a.idx)
            assert verdict == ("retry" if attempt < 2 else "fatal")
        sched.fail_job("j")
        assert sched.pending_count() == 0

    def test_unit_error_charges_exactly_the_unit_that_raised(self):
        """A unit_error is charged to the unit that raised it; the unit
        queued behind it keeps its one attempt and becomes the running
        unit."""
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=1), unit(seed=2)])
        sched.next_unit_for("a")
        sched.next_unit_for("a")
        assert sched.fail("a", "j", 0) == "retry"
        assert {uid: st.attempts for uid, st in sched._units.items()} \
            == {("j", 0): 1, ("j", 1): 1}
        assert sched.worker_view("a").busy == [("j", 1)]
        assert list(sched._pending) == [("j", 0)]
        # a death now charges the unit that was behind the failed one
        assert sched.remove_worker("a") == ([("j", 1)], [])
        assert sched._units[("j", 1)].attempts == 1
        assert list(sched._pending) == [("j", 1), ("j", 0)]

    def test_cancel_job_drops_pending_units(self):
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=1), unit(seed=2)])
        sched.next_unit_for("a")
        sched.cancel_job("j")
        assert sched.pending_count() == 0
        # the in-flight result now reports as unknown, not a crash
        assert sched.complete("a", "j", 0) == "unknown"

    def test_stats_shape(self):
        sched = Scheduler()
        sched.add_worker("a")
        sched.add_job("j", [unit(seed=1), unit(seed=2)])
        sched.next_unit_for("a")
        sched.next_unit_for("a")
        stats = sched.stats()
        assert stats["workers"] == 1
        assert stats["in_flight"] == 2  # units, not workers
        assert stats["pending"] == 0
        assert stats["jobs"] == 1
        assert sched.in_flight() == {"a": [("j", 0), ("j", 1)]}
