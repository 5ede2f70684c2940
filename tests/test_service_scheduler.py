"""Scheduler policy unit tests: FIFO order, requeue, idempotent dedup.

The scheduler is a pure state machine (no sockets, no clocks), so
every fleet-level property the chaos campaign asserts end-to-end is
also pinned here in isolation, where the failure mode is readable —
and ten fuzzed call sequences pin it against :class:`FifoModel`, the
same policy written as plainly as it can be.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.harness.experiment import ExperimentConfig, warmup_key
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service.scheduler import (DEFAULT_MAX_ATTEMPTS, SLOTS,
                                     Assignment, Scheduler)


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
        sched = Scheduler()
        for w in ("a", "b"):
            sched.add_worker(w)
        sched.add_job("j", [unit(seed=s) for s in range(5)])
        out = sched.dispatch()
        assert [(name, a.idx) for name, a in out] == [
            ("a", 0), ("b", 1), ("a", 2), ("b", 3)]
        assert sched.worker_view("a").busy == [("j", 0), ("j", 2)]
        assert sched.stats()["in_flight"] == 4
        assert sched.dispatch() == []  # every slot is taken

    def test_finished_job_leaves_nothing_behind(self):
        """Once a job is done no scheduler state refers to its units:
        state kept per config ever dispatched would grow the coordinator
        for as long as its worker lives."""
        sched = Scheduler()
        for w in ("a", "b"):
            sched.add_worker(w)
        units = [unit(seed=s) for s in range(12)]
        sched.add_job("j", units)
        while True:
            out = sched.dispatch()
            if not out:
                break
            for name, a in out:
                assert sched.complete(name, a.job_id, a.idx) == "fresh"
        # what the coordinator does once the last row is out
        sched.cancel_job("j")
        assert (sched._jobs, list(sched._pending), sched._units) \
            == ({}, [], {})
        assert {n: (w.busy, w.completed)
                for n, w in sched._workers.items()} == {
            name: ([], 6) for name in ("a", "b")}
        residue = json.dumps(
            [sorted(sched._units), list(sched._pending),
             {n: w.busy for n, w in sched._workers.items()}])
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
        sched.cancel_job("j")
        assert sched.pending_count() == 0

    def test_killer_unit_never_charges_the_unit_queued_behind_it(self):
        """Unit K kills every worker it runs on; unit I, of another
        job, is queued behind it on each of those workers. Only the
        running unit pays for a death: K exhausts its attempts and
        fails its job, I never ran, so its attempts stay at 0 and its
        job completes."""
        sched = Scheduler()
        sched.add_job("jK", [unit(seed=1)])
        sched.add_job("jI", [unit(seed=2)])
        for death in range(DEFAULT_MAX_ATTEMPTS):
            name = f"w{death}"
            sched.add_worker(name)
            assert [(a.job_id, a.idx) for _, a in sched.dispatch()] == [
                ("jK", 0), ("jI", 0)]
            got = sched.remove_worker(name)
            if death < DEFAULT_MAX_ATTEMPTS - 1:
                assert got == ([("jK", 0), ("jI", 0)], [])
            else:
                assert got == ([("jI", 0)], [("jK", 0)])
            assert {u: st.attempts for u, st in sched._units.items()} \
                == {("jK", 0): death + 1, ("jI", 0): 0}
        sched.cancel_job("jK")  # what the caller does
        sched.add_worker("survivor")
        assert [(a.job_id, a.idx) for _, a in sched.dispatch()] == [
            ("jI", 0)]
        assert sched.complete("survivor", "jI", 0) == "fresh"
        assert sched.job_done("jI")
        assert "jK" not in sched._jobs

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
        sched.cancel_job("j")
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


# ----------------------------------------------------------------------
# the reference model: the same policy, scanned
# ----------------------------------------------------------------------
class FifoModel:
    """The scheduling policy at its plainest: one list, scanned, and two
    slots per worker. It speaks the part of the :class:`Scheduler` API
    that the coordinator's sessions call."""

    def __init__(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.max_attempts = max_attempts
        self.busy = {}       # worker -> its in-flight uids, running first
        self._jobs = {}      # job -> its units
        self.attempts = {}   # every live (not yet completed) uid
        self.pending = []

    def free_workers(self):
        return [w for w, uids in self.busy.items() if len(uids) < 2]

    def add_worker(self, name):
        self.busy[name] = []

    def remove_worker(self, name):
        """The running unit pays for the death; the ones behind it
        never ran and get their attempt back."""
        requeued, fatal = [], []
        for pos, uid in enumerate(self.busy.pop(name, [])):
            if uid not in self.attempts:
                continue
            if pos:
                self.attempts[uid] -= 1
            elif self.attempts[uid] >= self.max_attempts:
                fatal.append(uid)
                continue
            requeued.append(uid)
        for uid in reversed(requeued):
            self.pending = [uid] + [u for u in self.pending if u != uid]
        return requeued, fatal

    def add_job(self, job, units, skip=None):
        self._jobs[job] = units
        for idx in range(len(units)):
            if idx not in (skip or ()):
                self.attempts[(job, idx)] = 0
                self.pending.append((job, idx))

    def cancel_job(self, job):
        for idx in range(len(self._jobs.pop(job, []))):
            self.attempts.pop((job, idx), None)
        self.pending = [u for u in self.pending if u[0] != job]

    def next_unit_for(self, name):
        if len(self.busy[name]) >= 2 or not self.pending:
            return None
        job, idx = uid = self.pending.pop(0)
        self.busy[name].append(uid)
        self.attempts[uid] += 1
        return Assignment(job, idx, self._jobs[job][idx])

    def dispatch(self):
        """Pass over the free workers, one unit each, until a pass
        assigns nothing."""
        out = []
        while True:
            got = [(w, a) for w in self.free_workers()
                   if (a := self.next_unit_for(w)) is not None]
            if not got:
                return out
            out += got

    def _release(self, name, uid):
        if uid in self.busy.get(name, []):
            self.busy[name].remove(uid)

    def complete(self, name, job, idx):
        self._release(name, (job, idx))
        if job not in self._jobs:
            return "unknown"
        if self.attempts.pop((job, idx), None) is None:
            return "duplicate"
        self.pending = [u for u in self.pending if u != (job, idx)]
        return "fresh"

    def fail(self, name, job, idx):
        self._release(name, (job, idx))
        if (job, idx) not in self.attempts:
            return "ignored"
        if self.attempts[(job, idx)] >= self.max_attempts:
            return "fatal"
        if (job, idx) not in self.pending:
            self.pending.append((job, idx))
        return "retry"


def _fuzzed_calls(seed: int):
    """A random-but-valid call sequence: yields ``(method, *args)``
    and takes each call's result back through ``send``, so dispatch
    output feeds completes and failures, like the live coordinator."""
    rng = random.Random(seed)
    units = [unit(seed=s, metric=m) for s in (1, 2, 3)
             for m in ("runtime", "mpki")]
    workers, inflight = [], []
    wseq = jseq = 0
    for _ in range(rng.randrange(60, 100)):
        roll = rng.random()
        if roll < 0.18 or not workers:
            wseq += 1
            workers.append(f"w{wseq}")
            yield ("add_worker", workers[-1])
        elif roll < 0.28:
            name = workers.pop(rng.randrange(len(workers)))
            yield ("remove_worker", name)
            inflight = [(w, a) for w, a in inflight if w != name]
        elif roll < 0.45:
            jseq += 1
            n = rng.randrange(1, 4)
            skip = {i for i in range(n) if rng.random() < 0.2}
            yield ("add_job", f"j{jseq}",
                   [rng.choice(units) for _ in range(n)], skip)
        elif roll < 0.60 or roll >= 0.95:
            inflight.extend((yield ("dispatch",)))
        elif roll < 0.80 and inflight:
            name, a = inflight.pop(rng.randrange(len(inflight)))
            yield (rng.choices(["complete", "fail"], [0.7, 0.3])[0],
                   name, a.job_id, a.idx)
        elif roll < 0.85 and jseq:
            yield ("cancel_job", f"j{rng.randrange(1, jseq + 1)}")


class TestAgainstTheModel:
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_log_matches_the_scanning_scheduler(self, seed):
        """The same result for every call (verdicts, requeues, the
        assignment sequence) and the same ``pending`` order, slots and
        attempt counts after every call. The sequence must fill both
        slots of some worker, or the second slot and its refund rule
        went untested."""
        sched, model = Scheduler(), FifoModel()
        calls = _fuzzed_calls(seed)
        call, most_in_flight = next(calls, None), 0
        while call is not None:
            method, *args = call
            result = getattr(sched, method)(*args)
            assert result == getattr(model, method)(*args), call
            assert list(sched._pending) == model.pending
            assert {n: w.busy for n, w in sched._workers.items()} \
                == model.busy
            assert {u: st.attempts for u, st in sched._units.items()} \
                == model.attempts
            most_in_flight = max([most_in_flight] + [
                len(w.busy) for w in sched._workers.values()])
            try:
                call = calls.send(result)
            except StopIteration:
                call = None
        assert most_in_flight == 2
