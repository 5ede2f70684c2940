"""The worker's two slots, against a live coordinator.

The coordinator keeps two units assigned to each worker, so the next
one is already queued when a result goes out. These tests pin what the
worker owes that contract:

* the two units run one at a time, in arrival order, and the second
  starts without another ``assign`` arriving in between;
* when the session ends (``stop()``, or the coordinator drops a worker
  that stopped heartbeating) a queued unit that has not started never
  runs, and the coordinator requeues it without charging an attempt.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service import Coordinator, ServiceClient, Worker

UNITS = [SweepUnit(ExperimentConfig(benchmark="water_spatial",
                                    organization=Organization.SHARED,
                                    scale=0.04, seed=seed),
                   50_000_000, "runtime") for seed in (1, 2)]


class RecordingWorker(Worker):
    """A worker that logs when each assign arrives and when each unit
    starts and ends. Unit 0 is held until the test releases it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events = []
        self.overlaps = 0
        self.second_assigned = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()
        self._active = 0

    def _note(self, event: str, idx: int) -> None:
        with self._lock:
            self.events.append((event, idx))

    async def _run_assign(self, msg) -> None:
        self._note("assign", msg["idx"])
        if msg["idx"] == 1:
            self.second_assigned.set()
        await super()._run_assign(msg)

    def _execute(self, msg) -> bytes:
        with self._lock:
            self._active += 1
            self.overlaps += self._active > 1
        self._note("start", msg["idx"])
        try:
            if msg["idx"] == 0:
                self.release.wait(30.0)
            return super()._execute(msg)
        finally:
            self._note("end", msg["idx"])
            with self._lock:
                self._active -= 1


def _wait_for(predicate, what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


def _fleet_stats(address: str):
    with ServiceClient(address, row_timeout=10.0) as mon:
        return mon.status()["stats"]


def _submit_in_background(address: str):
    """Run ``UNITS`` through a client on its own thread; returns the
    thread and the list its rows land in."""
    values: list = []

    def submit() -> None:
        with ServiceClient(address, row_timeout=60.0) as client:
            values.extend(client.run_units(UNITS))

    runner = threading.Thread(target=submit, daemon=True)
    runner.start()
    return runner, values


@pytest.fixture(scope="module")
def serial():
    return [u.run() for u in UNITS]


def test_two_assigns_run_one_at_a_time_back_to_back(serial):
    coord = Coordinator()
    address = coord.start()
    worker = RecordingWorker(address, name="w", heartbeat_interval=0.5)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        _wait_for(lambda: _fleet_stats(address)["workers"] == 1,
                  "worker never signed in")
        runner, values = _submit_in_background(address)
        # unit 0 is held, so its result cannot have gone out: the
        # second assign arrives from the worker's second slot
        assert worker.second_assigned.wait(10.0), \
            "second unit was not assigned while the first ran"
        worker.release.set()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert values == serial
        assert worker.overlaps == 0
        runs = [e for e in worker.events if e[0] != "assign"]
        assert runs == [("start", 0), ("end", 0), ("start", 1), ("end", 1)]
        # both assigns came in before unit 0 ended, and none after it
        assigns = [i for i, e in enumerate(worker.events)
                   if e[0] == "assign"]
        assert len(assigns) == 2
        assert max(assigns) < worker.events.index(("end", 0))
        stats = _fleet_stats(address)
        assert (stats["units_completed"], stats["requeues"]) == (2, 0)
    finally:
        worker.release.set()
        coord.stop()
        worker.stop()
        thread.join(timeout=10)


@pytest.mark.parametrize("how", ["stop", "session_lost"])
def test_queued_unit_never_runs_after_the_session_ends(how, serial):
    """``stop()`` ends the session from the worker's side; a worker that
    stops heartbeating has it ended by the coordinator. Either way the
    running unit is charged and the one queued behind it is not."""
    coord = Coordinator(heartbeat_timeout=1.0, monitor_interval=0.1)
    address = coord.start()
    # a lost session: no heartbeat for far longer than the timeout
    beat = 0.5 if how == "stop" else 60.0
    worker = RecordingWorker(address, name="w", heartbeat_interval=beat)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    rescuer = rescue = None
    try:
        _wait_for(lambda: _fleet_stats(address)["workers"] == 1,
                  "worker never signed in")
        runner, values = _submit_in_background(address)
        assert worker.second_assigned.wait(10.0)
        if how == "stop":
            worker.stop()
        _wait_for(lambda: _fleet_stats(address)["workers"] == 0,
                  "the coordinator never dropped the worker")
        stats = _fleet_stats(address)
        assert (stats["pending"], stats["requeues"]) == (2, 2)
        attempts = {idx: state.attempts for (_, idx), state
                    in coord.sessions.sched._units.items()}
        assert attempts == {0: 1, 1: 0}
        # the held unit finishes into a closed session; the worker
        # exits without starting the unit queued behind it
        worker.release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert ("start", 1) not in worker.events
        assert worker.overlaps == 0
        # a fresh worker serves both requeued units
        rescuer = Worker(address, name="rescuer", heartbeat_interval=0.5)
        rescue = threading.Thread(target=rescuer.run, daemon=True)
        rescue.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert values == serial
    finally:
        worker.release.set()
        coord.stop()
        worker.stop()
        thread.join(timeout=10)
        if rescuer is not None:
            rescuer.stop()
            rescue.join(timeout=10)
