"""The scheduler's pending queue: assignment must not scan it.

``tests/test_service_scheduler.py`` pins the policy and
``tests/test_service_replica.py`` pins ten fuzzed command logs against
a reference FIFO model; these pin what the deque-plus-set is *for* — a
drain that stays linear, and one pending copy of a unit.
"""

from __future__ import annotations

import time

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service.scheduler import Scheduler

WORKERS = ("a", "b", "c")


def units_of(n: int):
    """``n`` units of distinct configs (the seed)."""
    return [SweepUnit(ExperimentConfig(benchmark="barnes",
                                       organization=Organization.SHARED,
                                       scale=0.05, seed=i),
                      1_000_000, "runtime") for i in range(n)]


def drain(units) -> list:
    """Add one job and run it dry over three workers; returns the
    ``(worker, idx)`` assignment sequence."""
    sched = Scheduler()
    for w in WORKERS:
        sched.add_worker(w)
    sched.add_job("j", units)
    order = []
    while not sched.job_done("j"):
        for w in WORKERS:
            a = sched.next_unit_for(w)
            if a is not None:
                order.append((w, a.idx))
                assert sched.complete(w, "j", a.idx) == "fresh"
    assert sched.pending_count() == 0
    return order


def test_drain_time_is_linear_in_units():
    """A ratio on one process, not a wall-clock floor: four times the
    units may cost about four times the drain (a scan of the queue
    per assignment would cost sixteen). Best of three keeps a
    scheduling hiccup out of it."""
    small, big = units_of(1000), units_of(4000)

    def best(units) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            drain(units)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(big) / best(small) < 6


def test_requeue_of_an_already_pending_unit_moves_it_to_the_front():
    """A stale ``unit_error`` from a reaped worker can put a unit back
    in the queue while another worker runs it; if that worker then dies
    the unit is requeued at the front. A bare deque kept both copies
    (the second later ran twice or dangled); the queue holds one, in
    front."""
    sched = Scheduler()
    sched.add_worker("a")
    sched.add_job("j", units_of(3))
    first = sched.next_unit_for("a")
    assert first.idx == 0
    assert sched.fail("ghost", "j", 0) == "retry"  # stale: a still runs it
    assert list(sched._pending) == [("j", 1), ("j", 2), ("j", 0)]
    assert sched.remove_worker("a") == ([("j", 0)], [])
    assert list(sched._pending) == [("j", 0), ("j", 1), ("j", 2)]
    sched.add_worker("b")
    assert [sched.next_unit_for("b").idx] == [0]
    assert sched.complete("b", "j", 0) == "fresh"
    assert list(sched._pending) == [("j", 1), ("j", 2)]
